"""The differential equivalence harness.

Reusable machinery for proving the vector and object engines are
**bit-identical**, three ways:

* :func:`run_pair` — one full ``run_experiment`` per engine from the
  same seed, compared field by field with :func:`assert_results_equal`
  (exact digests, not tolerances), or failing with the same
  ``MetricError`` on both;
* :func:`run_decision_trace` — a manually-driven
  :class:`~repro.core.manager.PowerManager` wired to a
  :class:`~repro.ha.StateJournal`, returning the journaled
  :class:`~repro.ha.journal.CycleRecord` sequence for exact comparison
  with :func:`assert_records_equal`;
* :data:`PRESETS` — the five scenario presets the matrix runs
  (clean, meter-outage, corruption, provision-emergency, ha-failover).

Everything compares with :func:`exact_equal` — floats by bit pattern
(``repr`` round-trips exactly), arrays by ``array_equal`` with dtype and
shape pinned — so a single flipped mantissa bit anywhere fails loudly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np

from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.policies import make_policy
from repro.errors import MetricError
from repro.experiments.common import ExperimentConfig, ExperimentResult, run_experiment
from repro.faults import CorruptionScenario, FaultScenario
from repro.ha import HaConfig, StateJournal
from repro.power import PowerModel, SystemPowerMeter
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig

ENGINES = ("vector", "object")

#: The differential matrix: every preset must be bit-identical across
#: engines.  Values are ``ExperimentConfig`` overrides on top of the
#: small base world :func:`make_config` builds.
PRESETS: dict[str, dict[str, Any]] = {
    "clean": {},
    "meter-outage": {
        "faults": FaultScenario(meter_outage_rate=0.08, telemetry_dropout=0.05),
    },
    "corruption": {
        "corruption": CorruptionScenario.preset("stuck-at"),
        "integrity": IntegrityConfig(),
    },
    "provision-emergency": {
        "provision": ProvisionScenario.preset("feed-loss"),
        "attach_provision": True,
    },
    "ha-failover": {
        "ha": HaConfig.warm(crash_at_cycles=(40,)),
    },
}

#: ``ExperimentResult`` fields excluded from comparison: ``config``
#: legitimately differs (it carries the engine name itself).
_EXCLUDED_FIELDS = frozenset({"config"})


def make_config(
    engine: str,
    seed: int = 2012,
    num_nodes: int = 24,
    training_s: float = 150.0,
    run_s: float = 300.0,
    **overrides: Any,
) -> ExperimentConfig:
    """A small-but-complete experiment world on the given engine."""
    return ExperimentConfig.quick(
        seed=seed,
        num_nodes=num_nodes,
        training_duration_s=training_s,
        run_duration_s=run_s,
        engine=engine,
        **overrides,
    )


def run_pair(
    policy: str = "mpc",
    seed: int = 2012,
    preset: str = "clean",
    **overrides: Any,
) -> tuple[ExperimentResult, ExperimentResult] | None:
    """One identical seeded run per engine; returns (vector, object).

    A world whose main window cannot be evaluated (``RunMetrics``
    raises ``MetricError``, e.g. when no job finished) is agreement
    only if both engines raise the same message; the pair then
    returns ``None``.  One engine raising, or two different messages,
    fails.
    """
    kwargs = dict(PRESETS[preset])
    kwargs.update(overrides)
    results = []
    errors = []
    for engine in ENGINES:
        config = make_config(engine, seed=seed, **kwargs)
        try:
            results.append(run_experiment(config, policy=policy))
        except MetricError as exc:
            errors.append(str(exc))
    if errors:
        assert len(errors) == len(ENGINES) and len(set(errors)) == 1, (
            f"engines disagree on a failed run: {len(results)} result(s), "
            f"errors {errors}"
        )
        return None
    return results[0], results[1]


# ----------------------------------------------------------------------
# Exact comparison
# ----------------------------------------------------------------------
def exact_equal(a: Any, b: Any) -> bool:
    """Bit-exact structural equality (arrays, dataclasses, containers)."""
    if type(a) is not type(b):
        # Allow int/np.int64-style pairs to fail loudly rather than
        # coerce: differing types mean the engines produced different
        # shapes of data, which is itself a divergence.
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, float):
        return repr(a) == repr(b)  # round-trip exact, NaN-safe
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(
            exact_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return set(a) == set(b) and all(exact_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(exact_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


def fingerprint(value: Any) -> str:
    """A short stable digest of any result substructure (for diffs)."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def _feed(h: "hashlib._Hash", value: Any) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"ndarray:{value.dtype}:{value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        for k in sorted(value, key=repr):
            h.update(repr(k).encode())
            _feed(h, value[k])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq:{len(value)}:".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def result_fingerprints(result: ExperimentResult) -> dict[str, str]:
    """Digest of every compared ``ExperimentResult`` field."""
    return {
        f.name: fingerprint(getattr(result, f.name))
        for f in dataclasses.fields(result)
        if f.name not in _EXCLUDED_FIELDS
    }


def assert_results_equal(
    vector: ExperimentResult, obj: ExperimentResult, context: str = ""
) -> None:
    """Bit-identity over every compared field, with a per-field diff."""
    fv = result_fingerprints(vector)
    fo = result_fingerprints(obj)
    diverged = sorted(name for name in fv if fv[name] != fo[name])
    assert diverged == [], (
        f"engines diverged{f' [{context}]' if context else ''} on fields: "
        f"{diverged} (vector vs object digests: "
        f"{ {n: (fv[n], fo[n]) for n in diverged} })"
    )


def assert_records_equal(
    vector_records: tuple, object_records: tuple, context: str = ""
) -> None:
    """Bit-identity of two journaled decision traces."""
    label = f" [{context}]" if context else ""
    assert len(vector_records) == len(object_records), (
        f"trace lengths differ{label}: "
        f"{len(vector_records)} vs {len(object_records)}"
    )
    for rv, ro in zip(vector_records, object_records):
        assert exact_equal(rv, ro), (
            f"decision trace diverged{label} at cycle {rv.cycle}: "
            f"{fingerprint(rv)} vs {fingerprint(ro)}"
        )


# ----------------------------------------------------------------------
# Journal-level decision traces
# ----------------------------------------------------------------------
def make_busy_cluster(engine: str, num_nodes: int = 16) -> Cluster:
    """A small cluster with three resident jobs (busy_cluster layout)."""
    cluster = Cluster.tianhe_1a(num_nodes=num_nodes, engine=engine)
    state = cluster.state
    state.assign_job(np.arange(0, 4), 0)
    state.set_load(np.arange(0, 4), cpu_util=0.3, mem_frac=0.2, nic_frac=0.1)
    state.assign_job(np.arange(4, 10), 1)
    state.set_load(np.arange(4, 10), cpu_util=0.9, mem_frac=0.5, nic_frac=0.3)
    state.assign_job(np.arange(10, 14), 2)
    state.set_load(np.arange(10, 14), cpu_util=0.6, mem_frac=0.4, nic_frac=0.2)
    return cluster


def build_journaled_manager(
    cluster: Cluster,
    journal: StateJournal,
    policy: str = "mpc",
    steady_green_cycles: int = 3,
    thresholds: tuple[float, float] | None = None,
) -> PowerManager:
    """A manager writing every cycle to ``journal``.

    ``thresholds`` defaults to brackets of the cluster's *current* power
    (so green/yellow/red all occur); a successor manager restoring
    mid-run must be handed the primary's original pair explicitly — a
    crashed controller's replacement inherits configuration, it does not
    re-derive it from the live (hot) state.
    """
    model = PowerModel(cluster.spec)
    if thresholds is None:
        p0 = model.system_power(cluster.state)
        thresholds = (p0 * 0.93, p0 * 0.99)
    return PowerManager(
        cluster,
        NodeSets(cluster),
        SystemPowerMeter(model, cluster.state),
        ThresholdController.fixed(p_low=thresholds[0], p_high=thresholds[1]),
        make_policy(policy),
        steady_green_cycles=steady_green_cycles,
        journal=journal,
    )


def drive_load(state, rng) -> None:
    """One seeded random-walk step of every busy node's CPU load."""
    busy = np.flatnonzero(state.job_id >= 0)
    u = np.clip(state.cpu_util[busy] + rng.normal(0, 0.1, len(busy)), 0.05, 1.0)
    state.set_load(
        busy,
        cpu_util=u,
        mem_frac=state.mem_frac[busy],
        nic_frac=state.nic_frac[busy],
    )


def run_decision_trace(
    engine: str, seed: int = 7, cycles: int = 80, policy: str = "mpc"
) -> tuple:
    """Journaled CycleRecord trace of a manually-driven manager."""
    cluster = make_busy_cluster(engine)
    journal = StateJournal(compact_every=10_000)  # keep every record
    manager = build_journaled_manager(cluster, journal, policy=policy)
    rng = np.random.default_rng(seed)
    for k in range(1, cycles + 1):
        drive_load(cluster.state, rng)
        manager.control_cycle(float(k))
    return journal.records
