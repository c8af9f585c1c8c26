"""Golden-trace regression tests.

Three guarantees stand here:

1. **Bit-stable exporters** — the same seed and config produce
   byte-identical trace and flight-recorder JSONL files across two
   independent runs (the simulator is deterministic and the exporters
   add no nondeterminism of their own);
2. **Stable span taxonomy** — the cycle span tree's structure (span
   names, nesting, attribute keys) matches the checked-in golden file
   ``tests/golden/trace_structure.json``.  Adding, removing or renaming
   a span or attribute is a deliberate, reviewed change: regenerate the
   golden file and update ``docs/observability.md`` alongside it.  The
   attributes that appear only when the integrity defense or a
   provision runtime is attached are pinned by name below;
3. **One record, two projections** — the spans and the
   ``ExperimentResult`` are both projected from each cycle's
   ``CycleReport``, so they agree value for value.
"""

import json
from pathlib import Path

import pytest

from repro import ExperimentConfig, ObsConfig, run_experiment
from repro.faults import FaultScenario
from repro.telemetry import IntegrityConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "trace_structure.json"

#: The exact configuration the golden file was generated with.
SEED = 2012
TRAINING_S = 60.0
RUN_S = 120.0
POLICY = "mpc"

#: ``(span, attribute)`` pairs emitted only when a subsystem is attached:
#: the integrity defense (first two) or a provision runtime (the rest).
CONDITIONAL_ATTRS = {
    ("estimate", "meter_distrusted"),
    ("cycle", "quarantined_nodes"),
    ("classify", "emergency_red"),
    ("cycle", "capacity_w"),
    ("cycle", "emergency_red"),
}


def _run(tmp_path: Path, tag: str):
    cfg = ExperimentConfig.quick(
        seed=SEED,
        training_duration_s=TRAINING_S,
        run_duration_s=RUN_S,
        obs=ObsConfig(
            trace=True,
            metrics=True,
            flight_recorder_cycles=8,
            trace_path=str(tmp_path / f"trace-{tag}.jsonl"),
            metrics_path=str(tmp_path / f"metrics-{tag}.prom"),
            flight_path=str(tmp_path / f"flight-{tag}.jsonl"),
        ),
    )
    return run_experiment(cfg, POLICY)


def _attr_keys(root) -> set[tuple[str, str]]:
    """Every ``(span name, attribute key)`` pair of one cycle's tree."""
    return {(span.name, key) for span in root.walk() for key in span.attrs}


def _structure(span: dict) -> dict:
    return {
        "name": span["name"],
        "attrs": sorted(span.get("attrs", {})),
        "children": [_structure(c) for c in span.get("children", [])],
    }


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("golden")
    return tmp_path, _run(tmp_path, "a"), _run(tmp_path, "b")


class TestByteIdenticalReplay:
    def test_flight_jsonl_is_bit_identical(self, twin_runs):
        tmp_path, _, _ = twin_runs
        a = (tmp_path / "flight-a.jsonl").read_bytes()
        b = (tmp_path / "flight-b.jsonl").read_bytes()
        assert a == b
        assert a  # the run-end trip guarantees at least one dump

    def test_trace_jsonl_is_bit_identical(self, twin_runs):
        tmp_path, _, _ = twin_runs
        a = (tmp_path / "trace-a.jsonl").read_bytes()
        b = (tmp_path / "trace-b.jsonl").read_bytes()
        assert a == b
        assert a.count(b"\n") == len(a.splitlines())

    def test_metrics_exposition_is_bit_identical(self, twin_runs):
        tmp_path, _, _ = twin_runs
        a = (tmp_path / "metrics-a.prom").read_bytes()
        b = (tmp_path / "metrics-b.prom").read_bytes()
        assert a == b


class TestGoldenStructure:
    def test_first_three_cycles_match_golden(self, twin_runs):
        _, res, _ = twin_runs
        obs = res.observability
        assert obs is not None and len(obs.spans) >= 3
        got = [_structure(s.to_dict()) for s in obs.spans[:3]]
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert got == golden, (
            "cycle span taxonomy drifted from tests/golden/"
            "trace_structure.json — if intentional, regenerate the "
            "golden file and update docs/observability.md"
        )

    def test_every_cycle_has_the_six_stages(self, twin_runs):
        _, res, _ = twin_runs
        stages = [
            "collect",
            "estimate",
            "classify",
            "select_targets",
            "actuate",
            "journal",
        ]
        for span in res.observability.spans:
            assert [c.name for c in span.children] == stages


class TestConditionalAttributes:
    def test_attached_subsystems_add_exactly_their_attributes(self, twin_runs):
        _, plain, _ = twin_runs
        plain_keys = {frozenset(_attr_keys(s)) for s in plain.observability.spans}
        assert len(plain_keys) == 1
        (base,) = plain_keys
        assert not base & CONDITIONAL_ATTRS

        cfg = ExperimentConfig.quick(
            seed=SEED,
            training_duration_s=TRAINING_S,
            run_duration_s=RUN_S,
            integrity=IntegrityConfig(),
            attach_provision=True,
            obs=ObsConfig(trace=True),
        )
        spans = run_experiment(cfg, POLICY).observability.spans
        assert spans
        for root in spans:
            assert _attr_keys(root) == base | CONDITIONAL_ATTRS


class TestSpansMatchResult:
    def test_root_spans_project_the_result_series(self, twin_runs):
        _, res, _ = twin_runs
        spans = res.observability.spans
        assert [s.time for s in spans] == res.times.tolist()
        assert [s.attrs["power_w"] for s in spans] == res.power_w.tolist()
        states = [s.attrs["state"] for s in spans]
        assert {k: states.count(k) for k in res.state_cycles} == res.state_cycles

    def test_root_degraded_flags_match_the_result(self):
        cfg = ExperimentConfig.quick(
            seed=SEED,
            training_duration_s=TRAINING_S,
            run_duration_s=RUN_S,
            faults=FaultScenario.heavy(),
            obs=ObsConfig(trace=True),
        )
        res = run_experiment(cfg, POLICY)
        degraded = [s.attrs["degraded"] for s in res.observability.spans]
        assert any(degraded)
        assert degraded == [bool(f) for f in res.degraded_flags]
