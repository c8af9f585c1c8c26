"""Self-tests of the benchmark at tiny world sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import report, tracing, worker, workloads
from perfbench.workloads import WORKLOADS, digest, result_problems

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _iteration(name: str, tmp_path: Path, tag: str = "plain") -> workloads.Iteration:
    return workloads.run_iteration(workloads.build(name, SEED, tiny=True), tmp_path / tag)


def _digests(it: workloads.Iteration) -> dict[str, str]:
    return {label: digest(r) for label, r in it.results().items()}


def _traced(name: str, tmp_path: Path) -> tuple[tracing.Tracer, workloads.Iteration]:
    tracer = tracing.Tracer()
    with tracing.Installation(tracer):
        it = _iteration(name, tmp_path, "traced")
    return tracer, it


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_end_to_end_and_checks_clean(name: str, tmp_path: Path) -> None:
    it = _iteration(name, tmp_path)
    ledger = worker.Ledger(pins=None)
    ledger.check_iteration(it, "tiny")
    assert ledger.notes == []
    assert ledger.correct
    assert it.warm.stats.cache_hits == len(it.warm.cells)
    assert it.protocol_s > 0 and it.sweep_cold_s >= it.protocol_s


@pytest.mark.parametrize("name", WORKLOADS)
def test_two_iterations_and_a_traced_one_give_identical_digests(
    name: str, tmp_path: Path
) -> None:
    first = _digests(_iteration(name, tmp_path, "a"))
    assert _digests(_iteration(name, tmp_path, "b")) == first
    _, traced = _traced(name, tmp_path)
    assert _digests(traced) == first


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest_with_non_negative_self_time(name: str, tmp_path: Path) -> None:
    tracer, _ = _traced(name, tmp_path)
    assert tracer.names, "no span was recorded"
    for i, parent in enumerate(tracer.parents):
        assert tracer.starts[i] <= tracer.ends[i]
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[parent]
    stats = tracing.SpanStats.of(tracer)
    assert all(v >= 0 for v in stats.self_ms.values())
    assert stats.calls["experiments.run_experiment"] >= 1


def test_wrappers_are_restored_even_when_the_iteration_raises(tmp_path: Path) -> None:
    before = tracing.stored()
    _traced("paper-protocol", tmp_path)
    assert tracing.stored() == before
    with pytest.raises(RuntimeError):
        with tracing.Installation(tracing.Tracer()):
            assert tracing.stored() != before
            raise RuntimeError("boom")
    assert all(tracing.stored()[key] is value for key, value in before.items())


def test_layer_report_covers_every_per_layer_metric(tmp_path: Path) -> None:
    plain = _iteration("defended-chaos", tmp_path)
    tracer, traced = _traced("defended-chaos", tmp_path)
    metrics, lines = report.layer_report(
        workloads.build("defended-chaos", SEED, tiny=True), tracer, [(plain, traced)]
    )
    assert list(metrics) == [name for name, *_ in tracing.PER_LAYER]
    assert metrics["ha.failovers"][0] == 1.0
    assert metrics["experiments.cells_computed"][0] == 1.0
    assert any(line.startswith("named layers account for") for line in lines)


def test_digest_ignores_the_config_echo_but_not_outputs(tmp_path: Path) -> None:
    result = _iteration("paper-protocol", tmp_path).results()["mpc"]
    other = replace(result.config, engine="object")
    assert digest(replace(result, config=other)) == digest(result)
    assert digest(replace(result, commands_sent=result.commands_sent + 1)) != digest(result)


def test_invariants_catch_a_tampered_metric(tmp_path: Path) -> None:
    result = _iteration("paper-protocol", tmp_path).results()["mpc"]
    assert result_problems(result) == []
    metrics = replace(result.metrics, overspend=result.metrics.overspend * 1.01)
    bad = replace(result, metrics=metrics)
    assert any("overspend" in p for p in result_problems(bad))


def test_benchmark_json_matches_the_emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    out = io.StringIO()
    with redirect_stdout(out):
        args = ["--workload", "paper-protocol", "--seed", str(SEED), "--seconds", "0"]
        assert worker.main([*args, "--tiny"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    emitted["setup_s"] = "s"  # added by the launcher
    assert emitted == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_launcher_refuses_a_directory_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-protocol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
