"""CI cost budget: calls per simulator layer never ratchet up.

Wall clock on a shared host drifts too much to see a 10% regression at
the change that caused it, so this gate counts work instead of time.
It runs a few experiment cells in-process under ``sys.setprofile`` and
counts every call made *from* a frame of the ``repro`` package: calls
into Python functions (``call`` events whose caller is a ``repro``
frame) and calls of builtin functions and methods (``c_call`` events
raised in a ``repro`` frame).  Calls numpy makes internally are not
counted, so the counts do not depend on numpy's version; numpy ufuncs
and type calls (``float(x)``) raise no profile event and are not
counted either.

List, dict and set comprehensions get a frame of their own on Python
3.11 and none on 3.12 (PEP 709), so the call that enters one is not
counted; the calls made inside it count as calls of the enclosing
function.

Each counted call is charged to the innermost layer on the stack:

* ``tick.scheduler`` — a one-interval :meth:`BatchScheduler.tick`
  (the managed window), minus job stepping;
* ``tick.step_jobs`` — :meth:`JobExecutor.advance` inside it;
* ``block.scheduler`` / ``block.step_jobs`` — the same for
  :meth:`BatchScheduler.tick_block` (training and the uncapped window);
* ``cycle.<stage>`` — :meth:`PowerManager.control_cycle`, split into the
  stages of its span tree.  A stage starts where the cycle calls its
  first function: ``collect`` from the cycle's start,
  ``estimate`` at the meter read (or the outage estimate), ``classify``
  at :func:`classify_power_state`, ``select_targets`` at the
  :class:`PolicyContext`, ``actuate`` at :meth:`DvfsActuator.apply` and
  ``journal`` at the :class:`CycleReport`;
* ``cycle.ha`` — :meth:`HaController.control_cycle` outside the
  manager's own cycle;
* ``metrics.evaluate`` — :meth:`RunMetrics.evaluate`;
* ``run.other`` — everything else of the run (set-up, the managed
  loop's own bookkeeping, the result).

The counts repeat exactly from run to run on one Python minor version
and are checked in as ``tools/ci/cost_baseline.json``, keyed by it.
Like :mod:`tools.ci.lint_budget`, the gate fails when any layer of any
cell counts more calls than its baseline, and hints when one counts
fewer: lower the baseline in the same change (``--write-baseline``), so
the file's history is the trajectory.  A Python minor version with no
baseline key fails loudly.  The counter lives here, never in
``src/repro``: a counted run's results are byte-identical to an
uncounted one's.

Usage::

    PYTHONPATH=src:. python tools/ci/cost_budget.py
    PYTHONPATH=src:. python tools/ci/cost_budget.py --cell calibrated-mpc
    PYTHONPATH=src:. python tools/ci/cost_budget.py --write-baseline

Exit code 0 iff every layer of every cell is within budget; the
per-unit table goes to stdout, regressions to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable

import repro
from repro.core.manager import CycleReport, PowerManager
from repro.core.policies.base import PolicyContext
from repro.core.actuator import DvfsActuator
from repro.core.states import classify_power_state
from repro.experiments.common import ExperimentConfig, ExperimentResult, run_experiment
from repro.ha.failover import HaController
from repro.metrics.summary import RunMetrics
from repro.power.meter import SystemPowerMeter
from repro.scheduler.scheduler import BatchScheduler
from repro.workload.executor import JobExecutor

DEFAULT_BASELINE = Path(__file__).resolve().parent / "cost_baseline.json"
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: Frames Python 3.12 inlines into their enclosing function (PEP 709).
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
#: Main-window control cycle of the defended cell's controller crash.
DEFENDED_CRASH_CYCLE = 450


def _code(fn: Callable[..., Any]) -> CodeType:
    return fn.__code__  # type: ignore[attr-defined,no-any-return]


_CYCLE = _code(PowerManager.control_cycle)
_TICK_BLOCK = _code(BatchScheduler.tick_block)
#: Layer entered by each root function's frame.
_ROOTS: dict[CodeType, str] = {
    _code(BatchScheduler.tick): "tick",
    _TICK_BLOCK: "block",
    _code(JobExecutor.advance): "step_jobs",
    _CYCLE: "cycle",
    _code(HaController.control_cycle): "cycle.ha",
    _code(RunMetrics.evaluate.__func__): "metrics.evaluate",  # type: ignore[attr-defined]
}
#: Stage a control cycle enters when it calls one of these directly.
_STAGE_ANCHORS: dict[CodeType, str] = {
    _code(SystemPowerMeter.read): "estimate",
    _code(PowerManager._estimate_system_power): "estimate",
    _code(classify_power_state): "classify",
    _code(PolicyContext.__init__): "select_targets",
    _code(DvfsActuator.apply): "actuate",
    _code(CycleReport.__init__): "journal",
}
STAGES = ("collect", "estimate", "classify", "select_targets", "actuate", "journal")


@dataclass
class _Frame:
    """One root frame on the layer stack."""

    frame: FrameType
    layer: str


@dataclass
class CallCounter:
    """A ``sys.setprofile`` hook counting calls made from ``repro``."""

    calls: Counter[str] = field(default_factory=Counter)
    #: Normalisers: one-interval ticks, ticks stepped in blocks, control
    #: cycles and runs.
    units: Counter[str] = field(default_factory=Counter)
    _stack: list[_Frame] = field(default_factory=list)
    _ours: dict[CodeType, bool] = field(default_factory=dict)

    def _in_repro(self, code: CodeType) -> bool:
        ours = self._ours.get(code)
        if ours is None:
            ours = os.path.abspath(code.co_filename).startswith(_REPRO_DIR)
            self._ours[code] = ours
        return ours

    def _layer(self) -> str:
        return self._stack[-1].layer if self._stack else "run.other"

    def __call__(self, frame: FrameType, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            caller = frame.f_back
            root = _ROOTS.get(code)
            if root is not None:
                self._enter(frame, root)
            elif (
                caller is not None
                and self._stack
                and caller is self._stack[-1].frame
                and caller.f_code is _CYCLE
            ):
                stage = _STAGE_ANCHORS.get(code)
                if stage is not None:
                    self._stack[-1].layer = f"cycle.{stage}"
            if (
                caller is not None
                and code.co_name not in _INLINED
                and self._in_repro(caller.f_code)
            ):
                self.calls[self._layer()] += 1
        elif event == "c_call":
            if self._in_repro(frame.f_code):
                self.calls[self._layer()] += 1
        elif event == "return" and self._stack and self._stack[-1].frame is frame:
            self._stack.pop()
            if frame.f_code is _TICK_BLOCK and arg is not None:
                self.units["block_ticks"] += int(arg.ticks)

    def _enter(self, frame: FrameType, root: str) -> None:
        if root == "tick":
            self.units["ticks"] += 1
            layer = "tick.scheduler"
        elif root == "block":
            layer = "block.scheduler"
        elif root == "step_jobs":
            outer = self._layer()
            prefix = outer.split(".")[0] if outer.endswith(".scheduler") else "run"
            layer = f"{prefix}.step_jobs"
        elif root == "cycle":
            self.units["cycles"] += 1
            layer = "cycle.collect"
        else:
            layer = root
        self._stack.append(_Frame(frame, layer))


def count_run(
    config: ExperimentConfig, policy: str | None
) -> tuple[ExperimentResult, CallCounter]:
    """One :func:`run_experiment` under the counter.

    The garbage collector is off while counting, so leftovers of earlier
    work in the process cannot run finalizers inside a counted frame.
    """
    counter = CallCounter()
    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(counter)
    try:
        result = run_experiment(config, policy)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    counter.units["runs"] += 1
    return result, counter


def _defended(config: ExperimentConfig) -> ExperimentConfig:
    from perfbench.workloads import defended

    return defended(config, DEFENDED_CRASH_CYCLE)


#: Cell name → (configuration, policy).  ``quick`` runs at a 0.02
#: runtime scale, where job churn dominates the world tick; the
#: calibrated cell is the scale the benchmark's managed window runs at.
CELLS: dict[str, Callable[[], tuple[ExperimentConfig, str | None]]] = {
    "quick-uncapped": lambda: (ExperimentConfig.quick(), None),
    "quick-defended": lambda: (_defended(ExperimentConfig.quick()), "mpc"),
    "calibrated-mpc": lambda: (
        ExperimentConfig.calibrated(training_duration_s=1800.0, run_duration_s=1800.0),
        "mpc",
    ),
}


def _count_cell(
    config: ExperimentConfig, policy: str | None
) -> dict[str, dict[str, int]]:
    _, counter = count_run(config, policy)
    return {
        "calls": dict(sorted(counter.calls.items())),
        "units": dict(sorted(counter.units.items())),
    }


def count_cells(names: list[str]) -> dict[str, dict[str, dict[str, int]]]:
    """``{cell: {"calls": {layer: n}, "units": {unit: n}}}``.

    Each cell counts in a fresh interpreter, so the first-time work of
    one cell (lazy imports, registries) never lands in another's count,
    whichever cells run and in whatever order.
    """
    spawn = multiprocessing.get_context("spawn")
    counted: dict[str, dict[str, dict[str, int]]] = {}
    for name in names:
        config, policy = CELLS[name]()
        with spawn.Pool(1) as pool:
            counted[name] = pool.apply(_count_cell, (config, policy))
    return counted


def python_key() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def check_budget(
    counted: dict[str, dict[str, dict[str, int]]],
    baseline: dict[str, Any],
    key: str,
) -> tuple[list[str], list[str]]:
    """``(failures, ratchet_hints)`` for counted cells against the
    baseline entry of Python ``key``."""
    if key not in baseline:
        return [
            f"no baseline for Python {key}: run with --write-baseline on "
            f"Python {key} and check the result in"
        ], []
    failures: list[str] = []
    hints: list[str] = []
    for cell, count in counted.items():
        budget = baseline[key].get(cell)
        if budget is None:
            failures.append(f"{cell}: no baseline for this cell")
            continue
        if count["units"] != budget["units"]:
            failures.append(
                f"{cell}: ran {count['units']}, its baseline ran "
                f"{budget['units']}; the counts are not comparable"
            )
            continue
        allowed = budget["calls"]
        for layer in sorted(set(count["calls"]) | set(allowed)):
            calls = count["calls"].get(layer, 0)
            limit = allowed.get(layer, 0)
            if calls > limit:
                failures.append(
                    f"{cell} {layer}: {calls} calls, budget is {limit} "
                    f"(+{calls - limit}) — remove the added calls"
                )
            elif calls < limit:
                hints.append(
                    f"{cell} {layer}: {calls} < budget {limit} — lower the "
                    "baseline to lock the improvement in"
                )
    return failures, hints


_PER_UNIT = {"tick": "ticks", "block": "block_ticks", "cycle": "cycles"}


def per_unit(layer: str, units: dict[str, int]) -> tuple[float, str]:
    """How to read a layer's count: per tick, per cycle or per run."""
    unit = _PER_UNIT.get(layer.split(".")[0], "runs")
    return float(units.get(unit, 0)), unit


def format_table(counted: dict[str, dict[str, dict[str, int]]]) -> str:
    lines: list[str] = []
    for cell, count in counted.items():
        units = count["units"]
        lines.append(f"{cell}  ({', '.join(f'{k} {v}' for k, v in units.items())})")
        for layer, calls in count["calls"].items():
            n, unit = per_unit(layer, units)
            rate = f"{calls / n:10.1f} per {unit[:-1]}" if n else ""
            lines.append(f"  {layer:22s} {calls:10d} {rate}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cell",
        action="append",
        choices=sorted(CELLS),
        help="count only this cell (repeatable; default: every cell)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="checked-in budget (default: tools/ci/cost_baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="store the counts as this Python's baseline instead of checking",
    )
    args = parser.parse_args(argv)

    counted = count_cells(args.cell or list(CELLS))
    print(format_table(counted))
    path = Path(args.baseline)
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = python_key()
    if args.write_baseline:
        baseline[key] = {**baseline.get(key, {}), **counted}
        path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"baseline written: {path} [{key}]")
        return 0
    failures, hints = check_budget(counted, baseline, key)
    for hint in hints:
        print(f"note: {hint}")
    if failures:
        for failure in failures:
            print(f"cost budget: {failure}", file=sys.stderr)
        return 1
    print(f"cost budget ok: {len(counted)} cell(s) within baseline [{key}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
