"""Tests for the CI cost budget (tools/ci/cost_budget.py)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentConfig, run_experiment
from repro.experiments.serialize import canonical_json, result_to_dict
from tools.ci.cost_budget import (
    CELLS,
    DEFAULT_BASELINE,
    STAGES,
    check_budget,
    count_run,
    main,
)

#: A world small enough to count in well under a second.
TINY = ExperimentConfig.quick(
    num_nodes=32, training_duration_s=200.0, run_duration_s=120.0
)


def _counted(**calls: int) -> dict:
    return {
        "cell": {
            "calls": {"tick.scheduler": 10, "cycle.classify": 4, **calls},
            "units": {"ticks": 2, "cycles": 2, "runs": 1},
        }
    }


def _baseline(key: str = "3.11", **calls: int) -> dict:
    return {key: _counted(**calls)}


def test_within_budget_passes() -> None:
    assert check_budget(_counted(), _baseline(), "3.11") == ([], [])


def test_a_layer_over_budget_fails_and_names_cell_and_layer() -> None:
    failures, _ = check_budget(_counted(**{"cycle.classify": 5}), _baseline(), "3.11")
    assert len(failures) == 1
    assert failures[0].startswith("cell cycle.classify: 5 calls, budget is 4")


def test_a_new_layer_is_budgeted_at_zero() -> None:
    failures, _ = check_budget(_counted(**{"cycle.ha": 1}), _baseline(), "3.11")
    assert any("cycle.ha" in f for f in failures)


def test_fewer_calls_is_a_ratchet_hint() -> None:
    failures, hints = check_budget(
        _counted(**{"tick.scheduler": 7}), _baseline(), "3.11"
    )
    assert failures == []
    assert any("tick.scheduler" in h and "lower the baseline" in h for h in hints)


def test_missing_python_key_fails_loudly() -> None:
    failures, _ = check_budget(_counted(), _baseline("3.12"), "3.11")
    assert failures and "no baseline for Python 3.11" in failures[0]


def test_counts_of_a_different_run_length_are_refused() -> None:
    counted = _counted()
    counted["cell"]["units"]["ticks"] = 3
    failures, _ = check_budget(counted, _baseline(), "3.11")
    assert failures and "not comparable" in failures[0]


def test_counting_leaves_the_result_byte_identical() -> None:
    counted, counter = count_run(TINY, "mpc")
    plain = run_experiment(TINY, "mpc")
    assert canonical_json(result_to_dict(counted)) == canonical_json(
        result_to_dict(plain)
    )
    layers = set(counter.calls)
    assert {f"cycle.{stage}" for stage in STAGES} <= layers
    assert {"tick.scheduler", "tick.step_jobs", "block.scheduler"} <= layers
    assert counter.units["cycles"] == counter.units["ticks"] == 120


def test_counts_repeat_exactly() -> None:
    assert count_run(TINY, None)[1].calls == count_run(TINY, None)[1].calls


def test_checked_in_baseline_covers_every_cell() -> None:
    baseline = json.loads(Path(DEFAULT_BASELINE).read_text(encoding="utf-8"))
    assert "3.11" in baseline
    assert sorted(baseline["3.11"]) == sorted(CELLS)


def test_main_writes_then_checks_a_baseline(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.setitem(CELLS, "tiny", lambda: (TINY, None))
    path = tmp_path / "baseline.json"
    assert main(["--cell", "tiny", "--baseline", str(path), "--write-baseline"]) == 0
    assert main(["--cell", "tiny", "--baseline", str(path)]) == 0
    stored = json.loads(path.read_text(encoding="utf-8"))
    layer = "block.step_jobs"
    stored[next(iter(stored))]["tiny"]["calls"][layer] -= 1
    path.write_text(json.dumps(stored), encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["--cell", "nonexistent", "--baseline", str(path)])
    assert main(["--cell", "tiny", "--baseline", str(path)]) == 1
