"""The benchmark's workloads, one timed iteration, and the output checks.

Each workload is a short list of sweep cells (a configuration and a
policy name) built from the ``--seed`` argument alone:

* ``paper-protocol`` — the §V.C protocol at ``ExperimentConfig.
  calibrated``: the uncapped baseline, then MPC, called through
  ``run_experiment`` directly (no sweep runner, no cache);
* ``fig7-sweep`` — ``run_sweep(jobs=1)`` over the shared baseline cell
  and the paper's seven policies at ``ExperimentConfig.quick``, cold
  into a fresh result cache and then warm from it;
* ``defended-chaos`` — calibrated MPC with every optional manager
  subsystem attached (faults, sensor corruption with the integrity
  defense, a stressed power-delivery path, warm-standby HA with one
  controller crash).

``defended-chaos`` also simulates its uncapped reference once per run,
untimed, for its ΔP×T reduction.

One iteration simulates the cells (``protocol_s``), writes them to a
fresh :class:`~repro.experiments.cache.ResultCache` (``sweep_cold_s``;
on ``fig7-sweep`` the sweep runner does both in one pass), then replays
the grid from that cache a few times (the warm replay).

Every result is reduced to a SHA-256 digest over the canonical JSON of
its simulated outputs, leaving out the echoed configuration, and checked
against invariants any seed must satisfy (see :func:`result_problems`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

import repro.experiments.common as common_mod
import repro.experiments.sweep as sweep_mod
from repro.experiments.cache import ResultCache
from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.experiments.sweep import (
    SweepCell,
    SweepReport,
    SweepStats,
    baseline_cell,
    cell_key,
)
from repro.faults.corruption import CorruptionScenario
from repro.faults.scenario import FaultScenario
from repro.ha.config import HaConfig
from repro.provision.scenario import ProvisionScenario
from repro.telemetry.integrity import IntegrityConfig

WORKLOADS = ("paper-protocol", "fig7-sweep", "defended-chaos")
#: The policies of the paper's Figure 7 comparison (§IV.A).
FIG7_POLICIES = ("mpc", "mpc-c", "lpc", "lpc-c", "bfp", "hri", "hri-c")
#: Warm replays per iteration.
WARM_REPS = 3
#: Main-window control cycle of the defended run's controller crash.
CRASH_CYCLE = 2000
#: Self-test sizes: 32 nodes (the widest generated job needs 22) and
#: windows of at most 300 simulated seconds.
TINY = {"num_nodes": 32, "training_duration_s": 200.0, "run_duration_s": 300.0}


def label_of(cell: SweepCell) -> str:
    return cell.label or cell.policy or "uncapped"


@dataclass(frozen=True)
class Workload:
    """The cells one workload times, and the pair its fidelity uses."""

    name: str
    cells: tuple[SweepCell, ...]
    #: Run the cold pass through ``run_sweep`` with the cache attached
    #: (otherwise: direct ``run_experiment`` calls, then cache writes).
    via_sweep: bool
    #: Cells simulated once per run, untimed, after the timed iterations.
    extras: dict[str, SweepCell]
    #: The capped run whose ΔP×T reduction is reported and its uncapped
    #: reference: a label of ``cells`` or a key of ``extras``.
    capped: str
    reference: str


def defended(config: ExperimentConfig, crash_cycle: int) -> ExperimentConfig:
    """``config`` with every optional manager subsystem attached."""
    return replace(
        config,
        faults=FaultScenario.preset("light"),
        corruption=CorruptionScenario.preset("stuck-at"),
        integrity=IntegrityConfig(),
        provision=ProvisionScenario.preset("breaker-stress"),
        attach_provision=True,
        ha=HaConfig.warm(crash_at_cycles=(crash_cycle,)),
    )


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """The named workload; ``seed`` feeds only ``ExperimentConfig.seed``."""
    size: dict[str, Any] = dict(TINY) if tiny else {}
    if name == "paper-protocol":
        config = ExperimentConfig.calibrated(seed=seed, **size)
        cells = (baseline_cell(config), SweepCell(config, "mpc"))
        return Workload(name, cells, False, {}, "mpc", "uncapped")
    if name == "fig7-sweep":
        config = ExperimentConfig.quick(seed=seed, **size)
        cells = (baseline_cell(config), *(SweepCell(config, p) for p in FIG7_POLICIES))
        return Workload(name, cells, True, {}, "mpc", "uncapped")
    if name == "defended-chaos":
        config = ExperimentConfig.calibrated(seed=seed, **size)
        crash = int(TINY["run_duration_s"]) // 2 if tiny else CRASH_CYCLE
        cells = (SweepCell(defended(config, crash), "mpc"),)
        extras = {"reference-uncapped": baseline_cell(config)}
        return Workload(name, cells, False, extras, "mpc", "reference-uncapped")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


@dataclass
class Iteration:
    """One timed pass over a workload's cells."""

    protocol_s: float
    sweep_cold_s: float
    warm_s: list[float]
    wall_s: float
    cold: SweepReport
    #: The last warm replay, and what every replay did.
    warm: SweepReport
    warm_stats: list[SweepStats]

    def results(self) -> dict[str, ExperimentResult]:
        """Label → cold result."""
        return {label_of(c): self.cold.result_for(c) for c in self.cold.cells}


def run_iteration(workload: Workload, cache_dir: Path) -> Iteration:
    """Simulate, persist and replay ``workload`` once, timing each step.

    Entry points are looked up through their modules at call time, so a
    traced iteration sees the wrappers installed on those modules.
    """
    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    if workload.via_sweep:
        cold = sweep_mod.run_sweep(workload.cells, jobs=1, cache=cache)
        protocol_s = cold_s = time.perf_counter() - start
    else:
        results = {
            cell_key(cell, salt=cache.salt): common_mod.run_experiment(
                cell.config, cell.policy, label=cell.label
            )
            for cell in workload.cells
        }
        protocol_s = time.perf_counter() - start
        for key, result in results.items():
            cache.put(key, result)
        cold_s = time.perf_counter() - start
        n = len(results)
        cold = SweepReport(
            cells=tuple(sorted(workload.cells, key=lambda c: cell_key(c, salt=cache.salt))),
            results=results,
            stats=SweepStats(cells=n, computed=n),
            salt=cache.salt,
        )
    warm_s: list[float] = []
    warm_stats: list[SweepStats] = []
    for _ in range(WARM_REPS):
        t0 = time.perf_counter()
        warm = sweep_mod.run_sweep(workload.cells, jobs=1, cache=cache)
        warm_s.append(time.perf_counter() - t0)
        warm_stats.append(warm.stats)
    wall_s = time.perf_counter() - start
    return Iteration(protocol_s, cold_s, warm_s, wall_s, cold, warm, warm_stats)


# ----------------------------------------------------------------------
# Digests and invariants
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def _fields(obj: Any) -> Any:
    return None if obj is None else dataclasses.asdict(obj)


def digest(result: ExperimentResult) -> str:
    """SHA-256 over a run's simulated outputs, without the config echo."""
    payload = {
        "times": result.times,
        "power_w": result.power_w,
        "true_power_w": result.true_power_w,
        "metrics": _fields(result.metrics),
        "finished_jobs": [
            [job.job_id, job.start_time, job.finish_time]
            for job in result.finished_jobs
        ],
        "state_cycles": result.state_cycles,
        "commands_sent": result.commands_sent,
        "thresholds": [
            result.training_peak_w,
            result.provision_w,
            result.p_low_w,
            result.p_high_w,
        ],
        "fault_stats": _fields(result.fault_stats),
        "provision_stats": _fields(result.provision_stats),
        "ha_stats": _fields(result.ha_stats),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _overspend_j(t: np.ndarray, p: np.ndarray, threshold: float) -> float:
    """``∫ max(P − P_th, 0) dt`` of the piecewise-linear trace."""
    e0, e1, dt = p[:-1] - threshold, p[1:] - threshold, np.diff(t)
    above = (e0 >= 0) & (e1 >= 0)
    cross = ~above & ~((e0 <= 0) & (e1 <= 0))
    peak = np.maximum(e0, e1)
    area = np.where(above, 0.5 * (e0 + e1) * dt, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tri = 0.5 * peak * peak / (np.abs(e0) + np.abs(e1)) * dt
    return float(np.where(cross, tri, area).sum())


def result_problems(result: ExperimentResult) -> list[str]:
    """Invariants any seed's result satisfies; each breach is a string.

    The metric bundle is re-derived from the raw series with code
    independent of :mod:`repro.metrics`.
    """
    cfg = result.config
    t = np.asarray(result.times, dtype=np.float64)
    graded = result.power_w if result.true_power_w is None else result.true_power_w
    p = np.asarray(graded, dtype=np.float64)
    m = result.metrics
    problems: list[str] = []
    cycles = int(round(cfg.run_duration_s / cfg.control_period_s))
    if len(t) != cycles or len(p) != cycles:
        problems.append(f"{len(t)} samples, expected {cycles}")
        return problems
    if not np.all(np.diff(t) > 0):
        problems.append("sample times not increasing")
    if not (np.all(np.isfinite(p)) and np.all(p > 0)):
        problems.append("non-finite or non-positive power")
    energy = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(t)))
    checks = {
        "p_max_w": (m.p_max_w, float(p.max())),
        "energy_j": (m.energy_j, energy),
        "overspend": (m.overspend, _overspend_j(t, p, m.threshold_w) / energy),
        "threshold_w": (m.threshold_w, result.provision_w),
        "finished_jobs": (m.finished_jobs, len(result.finished_jobs)),
    }
    for name, (got, want) in checks.items():
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"metrics.{name} = {got!r}, recomputed {want!r}")
    window = (t[0] - cfg.control_period_s, t[-1])
    for job in result.finished_jobs:
        if not (job.start_time < job.finish_time and window[0] <= job.finish_time <= window[1]):
            problems.append(f"job {job.job_id} finished outside the window")
            break
    if result.state_cycles and result.ha_stats is None:
        if sum(result.state_cycles.values()) != cycles:
            problems.append("state cycles do not cover the window")
    return problems
