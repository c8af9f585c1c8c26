"""The measuring process of the benchmark; ``run.py`` starts it.

``--trace 0`` times iterations of the workload until ``--seconds`` are
used and reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced iterations for as long and reports the per-layer metrics.
Either way every result is checked (see :class:`Ledger`), a report is
printed, and the last line of standard output is the JSON result.  The line
``READY`` marks the end of set-up (imports and building the workload);
with ``--probe`` the process exits right after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

import repro.experiments.common as common_mod
from repro.experiments.common import ExperimentResult
from perfbench import workloads
from perfbench.workloads import Iteration, Workload, digest, label_of, result_problems

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
READY = "READY"
#: The paper's Figure 7 numbers for MPC (EXPERIMENTS.md).
PAPER_DPXT_REDUCTION = 0.73
PAPER_PERF_LOSS = 0.02


def host_note() -> str:
    """Git sha (read from ``.git`` if present), cores, Python, numpy."""
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                sha = ref_path.read_text(encoding="utf-8").strip()
            elif packed.is_file():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
        else:
            sha = ref
    pinned = ",".join(map(str, sorted(os.sched_getaffinity(0))))
    return (
        f"host: git {sha} | nproc {os.cpu_count()} (run pinned to CPU {pinned}) | "
        f"python {platform.python_version()} | numpy {np.__version__}"
    )


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    """Pinned digests for ``workload`` at ``seed``, if any are pinned."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if seed != pins["seed"]:
        return None
    return pins["digests"][workload]


class Ledger:
    """Counts operations (protocol runs and sweep cells) and failures.

    A run fails when it raised, breaks an invariant, differs from the
    same label's digest earlier in this process, or differs from its
    pin.  A warm replay fails when it simulated anything or its merged
    JSON differs from the cold pass byte for byte.
    """

    def __init__(self, pins: dict[str, str] | None) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        self.notes.append(note)

    def check_result(self, label: str, result: ExperimentResult, where: str) -> None:
        self.attempted += 1
        problems = result_problems(result)
        value = digest(result)
        first = self.digests.setdefault(label, value)
        if value != first:
            problems.append(f"digest {value[:16]} != earlier {first[:16]}")
        if self.pins is not None and self.pins.get(label) != value:
            pinned = str(self.pins.get(label))[:16]
            problems.append(f"digest {value[:16]} != pinned {pinned}")
        if problems:
            self.fail(1, f"{where} {label}: " + "; ".join(problems))

    def check_iteration(self, it: Iteration, where: str) -> None:
        for label, result in it.results().items():
            self.check_result(label, result, where)
        cells = len(it.warm.cells)
        self.attempted += cells * len(it.warm_s)
        computed = sum(stats.computed for stats in it.warm_stats)
        if computed:
            self.fail(cells * len(it.warm_s), f"{where} warm replays simulated {computed}")
        elif it.warm.merged_json() != it.cold.merged_json():
            self.fail(cells, f"{where} warm merged JSON differs from the cold pass")

    def crashed(self, workload: Workload, where: str) -> None:
        self.attempted += len(workload.cells)
        self.fail(len(workload.cells), f"{where} raised:\n{traceback.format_exc()}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def dpxt_reduction(capped: ExperimentResult, reference: ExperimentResult) -> float:
    """1 − ΔP×T(capped) / ΔP×T(uncapped reference)."""
    return 1.0 - capped.metrics.overspend / reference.metrics.overspend


def fidelity_lines(
    workload: Workload, runs: dict[str, ExperimentResult]
) -> list[str]:
    """Simulated quality beside the paper's numbers (context, not speed)."""
    capped, reference = runs[workload.capped], runs[workload.reference]
    dpxt = dpxt_reduction(capped, reference)
    loss = 1.0 - capped.metrics.performance
    lines = [
        f"fidelity (simulated, seed {capped.config.seed}, {workload.capped} "
        f"vs {workload.reference}):",
        f"  dpxt_reduction {dpxt:.4f}  paper {PAPER_DPXT_REDUCTION:.2f}  "
        f"difference {dpxt - PAPER_DPXT_REDUCTION:+.4f}",
        f"  perf_loss      {loss:.4f}  paper ~{PAPER_PERF_LOSS:.2f}  "
        f"difference {loss - PAPER_PERF_LOSS:+.4f}",
    ]
    if workload.name == "fig7-sweep":
        lines.append("  per-policy dpxt_reduction vs the shared baseline (context only):")
        for cell in workload.cells[1:]:
            run = runs[label_of(cell)]
            lines.append(
                f"    {label_of(cell):6s} {dpxt_reduction(run, reference):.4f}"
                f"  perf_loss {1.0 - run.metrics.performance:.4f}"
            )
    if workload.name == "defended-chaos":
        fs, ps, hs = capped.fault_stats, capped.provision_stats, capped.ha_stats
        assert fs is not None and ps is not None and hs is not None
        lines.append(
            f"  quarantine entries {fs.quarantine_entries}, branch-cap interventions "
            f"{ps.branch_cap_interventions}, breaker trips {ps.breaker_trips}, "
            f"failovers {hs.failovers}, journal compactions {hs.journal_compactions}"
        )
    lines.append(
        "  note: the simulated cluster and its power model have not been "
        "validated against hardware; these figures compare shapes only."
    )
    return lines


def run_extras(
    workload: Workload, ledger: Ledger
) -> dict[str, ExperimentResult] | None:
    """Simulate the workload's untimed extra cells once, checking each."""
    results: dict[str, ExperimentResult] = {}
    for name, cell in workload.extras.items():
        try:
            result = common_mod.run_experiment(cell.config, cell.policy, label=cell.label)
        except Exception:
            ledger.attempted += 1
            ledger.fail(1, f"{name} raised:\n{traceback.format_exc()}")
            return None
        ledger.check_result(name, result, "untimed")
        results[name] = result
    return results


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_run(
    workload: Workload, seconds: float, work: Path, ledger: Ledger
) -> tuple[dict[str, Any], list[str]]:
    """Untraced iterations until ``seconds`` are used: end-to-end metrics.

    Only the first iteration's results outlive it, so peak memory does
    not grow with the number of iterations that fit.
    """
    first: dict[str, ExperimentResult] | None = None
    protocol: list[float] = []
    cold: list[float] = []
    warm: list[float] = []
    start = time.perf_counter()
    while True:
        where = f"iteration {len(protocol) + 1}"
        try:
            it = workloads.run_iteration(workload, work / f"cache-{len(protocol)}")
        except Exception:
            ledger.crashed(workload, where)
            break
        ledger.check_iteration(it, where)
        protocol.append(it.protocol_s)
        cold.append(it.sweep_cold_s)
        warm += it.warm_s
        first = first or it.results()
        # Stop when another iteration as long as this one would end past
        # the budget.
        wall_s = it.wall_s
        del it
        if time.perf_counter() - start + wall_s > seconds:
            break
    # The warm replay is printed but not reported: it decodes JSON, so it
    # swings with the shared host's load more than the simulation does,
    # and its spread between runs went past the largest allowed bound.
    # The traced run reports its layers instead.
    lines = [
        f"iterations {len(protocol)}; protocol_s "
        + ", ".join(f"{t:.3f}" for t in protocol),
        f"warm replay (median of {len(warm)}, not reported): {_median(warm):.6f} s",
    ]
    metrics: dict[str, Any] = {
        "protocol_s": (_median(protocol), "s"),
        "sweep_cold_s": (_median(cold), "s"),
        "dpxt_reduction": (0.0, "ratio"),
    }
    if first is not None:
        extras = run_extras(workload, ledger)
        if extras is not None:
            runs = {**first, **extras}
            metrics["dpxt_reduction"] = (
                dpxt_reduction(runs[workload.capped], runs[workload.reference]),
                "ratio",
            )
            lines += fidelity_lines(workload, runs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    ok = (ledger.attempted - ledger.failed) / ledger.attempted if ledger.attempted else 0.0
    metrics["ok_frac"] = (ok, "ratio")
    return metrics, lines


def traced_run(
    workload: Workload, seconds: float, work: Path, ledger: Ledger
) -> tuple[dict[str, Any], list[str]]:
    """Plain and traced iterations, alternating until ``seconds`` are
    used: per-layer metrics per traced iteration."""
    from perfbench import report, tracing

    tracer = tracing.Tracer()
    pairs: list[tuple[Iteration, Iteration]] = []
    start = time.perf_counter()
    while True:
        where = f"pair {len(pairs) + 1}"
        before = tracing.stored()
        try:
            plain = workloads.run_iteration(workload, work / f"plain-{len(pairs)}")
            with tracing.Installation(tracer):
                traced = workloads.run_iteration(workload, work / f"traced-{len(pairs)}")
        except Exception:
            ledger.crashed(workload, where)
            break
        if tracing.stored() != before:
            ledger.fail(len(workload.cells), f"{where}: wrappers were not restored")
        ledger.check_iteration(plain, f"{where} plain")
        ledger.check_iteration(traced, f"{where} traced")
        pairs.append((plain, traced))
        if time.perf_counter() - start + plain.wall_s + traced.wall_s > seconds:
            break
    if not pairs:
        return report.empty_layer_metrics(), []
    return report.layer_report(workload, tracer, pairs)


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--tiny", action="store_true", help="self-test world sizes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    print(READY, flush=True)
    if args.probe:
        return 0
    pins = None if args.tiny else load_pins(args.workload, args.seed)
    ledger = Ledger(pins)
    work = Path(tempfile.mkdtemp(prefix=f".perfbench-{args.workload}-", dir=ROOT))
    try:
        if args.trace:
            metrics, lines = traced_run(workload, args.seconds, work, ledger)
        else:
            metrics, lines = timed_run(workload, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        f"perfbench {args.workload} seed {args.seed} trace {args.trace} "
        f"seconds {args.seconds:g}"
    )
    print(host_note())
    print("digests" + (" (checked against pins.json):" if pins is not None else ":"))
    for label in [*map(label_of, workload.cells), *workload.extras]:
        if label in ledger.digests:
            print(f"  {label:10s} {ledger.digests[label]}")
    for line in lines:
        print(line)
    for note in ledger.notes:
        print(f"FAILED {note}", file=sys.stderr)
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
