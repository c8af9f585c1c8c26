"""Benchmark of the §V.C capping protocol, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-protocol --seed 2012 \\
        --seconds 55 --trace 0

Workloads: ``paper-protocol``, ``fig7-sweep``, ``defended-chaos`` (see
``perfbench/workloads.py``; ``BENCHMARK.json`` gates the first and the
last, see ``perfbench/README.md``).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, per traced iteration
(see ``perfbench/tracing.py``).  Both are listed in ``BENCHMARK.json``.

This launcher pins BLAS/OpenMP threads to 1 and itself and its
children to one CPU, measures set-up time (interpreter start, imports,
building the workload) as the median over several fresh processes, and
starts the measuring process (``perfbench/worker.py``).  It exits
non-zero, printing no result, when the checkout has no ``src/repro`` or
the measuring process fails.

Result digests for the default seed are pinned in
``perfbench/pins.json``; a run at that seed prints the digests it
computed, which is how the pins are renewed after a deliberate change of
behaviour.  Self-tests: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Extra set-up-only processes per untraced run (plus the measuring one).
SETUP_PROBES = 4
#: Every process this launcher starts is killed after this long.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
READY = "READY"


def pin_to_one_cpu() -> None:
    """Run this process and its children on one allowed CPU (the
    highest-numbered), so a run never migrates between CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_worker(
    args: list[str], env: dict[str, str], deadline: float
) -> tuple[float | None, list[str], int]:
    """Start the worker; return (set-up seconds, output lines, exit code).

    Set-up time runs from process start to the worker's ``READY`` line.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup: float | None = None
    lines: list[str] = []
    try:
        assert proc.stdout is not None
        for raw in proc.stdout:
            line = raw.rstrip("\n")
            if line == READY and setup is None:
                setup = time.perf_counter() - start
            elif line:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return setup, lines, code


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="capping-protocol benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()
    env = bench_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups: list[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup, _, code = run_worker([*common, "--probe"], env, deadline)
            if code != 0 or setup is None:
                return code or 1
            setups.append(setup)
    setup, lines, code = run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env,
        deadline,
    )
    if code != 0 or setup is None or not lines:
        return code or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(setup)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for name, metric in result["metrics"].items():
            print(f"{name:16s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
