"""The one-pass :class:`TelemetryValidator` against the per-stage
pipeline it replaced.

``_ReferenceValidator`` is the earlier implementation, kept here as the
oracle: it evaluates Formula (1) three times per sweep (the reading and
both envelope bounds), makes one pass per stage and per field, and
clips trust through ``np.clip``.  Hypothesis drives both through the
same sequences of sweeps — NaN and ±inf, out-of-range readings and
levels, exact repeats, saturated rows, random ``fresh`` masks,
quarantine entry and release — and every mask, trust score, stuck run,
quarantine entry cycle and counter must agree after every sweep, on the
homogeneous and the heterogeneous power model and on both engines.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.power.estimator import NodePowerEstimator
from repro.power.hetero import make_power_model
from repro.telemetry import IntegrityConfig, TelemetryValidator
from repro.telemetry import integrity

N = 6


class _ReferenceValidator:
    """The per-stage validation pipeline (state and ``validate`` only).

    It reads the pipeline's constants from :mod:`repro.telemetry.integrity`
    when it validates, so a test's patch of them reaches both pipelines.
    """

    def __init__(self, config, estimator, candidate_ids, top_level):
        self.config = config
        self._estimator = estimator
        self._ids = np.asarray(candidate_ids, dtype=np.int64).copy()
        self._top_level = int(top_level)
        n = len(self._ids)
        self._trust = np.ones(n, dtype=np.float64)
        self._quarantined = np.zeros(n, dtype=bool)
        self._quarantine_entry_cycle = np.full(n, -1, dtype=np.int64)
        self._last_cpu = np.full(n, np.nan)
        self._last_mem = np.full(n, np.nan)
        self._last_nic = np.full(n, np.nan)
        self._stuck_run = np.zeros(n, dtype=np.int64)
        self._cycle = -1
        self.rejected_samples = 0
        self.quarantine_entries = 0
        self.quarantined_node_cycles = 0

    def validate(self, level, cpu_util, mem_frac, nic_frac, job_id, fresh):
        self._cycle += 1
        cfg = self.config
        n = len(self._ids)
        finite = (
            np.isfinite(cpu_util) & np.isfinite(mem_frac) & np.isfinite(nic_frac)
        )
        lo = -integrity.RANGE_MARGIN
        hi = 1.0 + integrity.RANGE_MARGIN
        in_range = finite.copy()
        for values in (cpu_util, mem_frac, nic_frac):
            with np.errstate(invalid="ignore"):
                in_range &= (values >= lo) & (values <= hi)
        bad_level = (level < 0) | (level > self._top_level)
        hard = fresh & (~finite | ~in_range | bad_level)
        check = fresh & ~hard
        if check.any():
            lv = np.clip(np.asarray(level, dtype=np.int64), 0, self._top_level)
            ids = self._ids
            zeros = np.zeros(n)
            ones = np.ones(n)
            predicted = self._estimator.estimate_nodes(
                lv, cpu_util, mem_frac, nic_frac, node_ids=ids
            )
            env_lo = self._estimator.estimate_nodes(
                lv, zeros, zeros, zeros, node_ids=ids
            )
            env_hi = self._estimator.estimate_nodes(lv, ones, ones, ones, node_ids=ids)
            margin = integrity.ENVELOPE_MARGIN
            with np.errstate(invalid="ignore"):
                outside = (predicted < env_lo * (1.0 - margin)) | (
                    predicted > env_hi * (1.0 + margin)
                )
            outside |= ~np.isfinite(predicted)
            hard |= check & outside
        have_prev = np.isfinite(self._last_cpu)
        with np.errstate(invalid="ignore"):
            spike = (
                fresh
                & ~hard
                & have_prev
                & (np.abs(cpu_util - self._last_cpu) > integrity.SPIKE_DELTA)
            )
        eps = integrity.STUCK_EPSILON
        with np.errstate(invalid="ignore"):
            same = (
                have_prev
                & (np.abs(cpu_util - self._last_cpu) <= eps)
                & (np.abs(mem_frac - self._last_mem) <= eps)
                & (np.abs(nic_frac - self._last_nic) <= eps)
            )
        busy = np.asarray(job_id) >= 0
        with np.errstate(invalid="ignore"):
            saturated = cpu_util >= 1.0
        track = fresh & busy & ~saturated
        self._stuck_run[track & same] += 1
        self._stuck_run[track & ~same] = 0
        self._stuck_run[fresh & ~track] = 0
        stuck = track & (self._stuck_run >= integrity.STUCK_WINDOW)
        self._last_cpu[fresh] = cpu_util[fresh]
        self._last_mem[fresh] = mem_frac[fresh]
        self._last_nic[fresh] = nic_frac[fresh]
        penalty = (
            hard * integrity.HARD_PENALTY
            + spike * integrity.SOFT_PENALTY
            + stuck * integrity.STUCK_PENALTY
        )
        clean = fresh & ~hard & ~spike & ~stuck
        self._trust = np.clip(
            self._trust - penalty + clean * cfg.trust_recovery, 0.0, 1.0
        )
        entering = ~self._quarantined & (self._trust < cfg.quarantine_trust)
        if entering.any():
            self._quarantined[entering] = True
            self._quarantine_entry_cycle[entering] = self._cycle
            self.quarantine_entries += int(entering.sum())
        dwell = self._cycle - self._quarantine_entry_cycle
        releasing = (
            self._quarantined
            & (dwell >= integrity.MIN_QUARANTINE_CYCLES)
            & (self._trust > cfg.release_trust)
        )
        if releasing.any():
            self._quarantined[releasing] = False
        self.quarantined_node_cycles += int(self._quarantined.sum())
        self.rejected_samples += int(hard.sum())
        return hard, self._quarantined.copy()


def _estimator(kind: str) -> NodePowerEstimator:
    if kind == "heterogeneous":
        other = replace(NodeSpec.tianhe_1a(), board_power_w=80.0)
        cluster = Cluster.heterogeneous(
            [(NodeSpec.tianhe_1a(), N // 2), (other, N - N // 2)]
        )
    else:
        cluster = Cluster.tianhe_1a(num_nodes=N)
    engine = "object" if kind == "object" else None
    return NodePowerEstimator(make_power_model(cluster), engine=engine)


ESTIMATORS = {kind: _estimator(kind) for kind in ("vector", "object", "heterogeneous")}
TOP = NodeSpec.tianhe_1a().top_level
#: Quick to quarantine and to release, so sequences reach both: these
#: trust knobs, with the pipeline constants of ``TOUCHY_CONSTANTS``.
TOUCHY = IntegrityConfig(trust_recovery=0.4, quarantine_trust=0.3, release_trust=0.8)
TOUCHY_CONSTANTS = {
    "HARD_PENALTY": 0.5,
    "SOFT_PENALTY": 0.2,
    "STUCK_PENALTY": 0.3,
    "STUCK_WINDOW": 2,
    "MIN_QUARANTINE_CYCLES": 1,
}


def _touchy_constants() -> AbstractContextManager[Any]:
    """Patch the pipeline constants to the touchy configuration's."""
    return mock.patch.multiple(integrity, **TOUCHY_CONSTANTS)

_value = st.one_of(
    st.floats(-0.3, 1.3),
    st.sampled_from([0.0, 0.5, 1.0, np.nan, np.inf, -np.inf, -1.0]),
)


@st.composite
def _sweeps(draw):
    """A sequence of sweeps; some repeat the previous readings exactly."""
    sweeps = []
    for _ in range(draw(st.integers(1, 12))):
        if sweeps and draw(st.booleans()):
            level, cpu, mem, nic, _, _ = sweeps[-1]
        else:
            level = np.array(
                draw(st.lists(st.integers(-1, TOP + 1), min_size=N, max_size=N))
            )
            cpu, mem, nic = (
                np.array(draw(st.lists(_value, min_size=N, max_size=N)))
                for _ in range(3)
            )
        job = np.array(draw(st.lists(st.integers(-1, 2), min_size=N, max_size=N)))
        fresh = np.array(draw(st.lists(st.booleans(), min_size=N, max_size=N)))
        sweeps.append((level, cpu, mem, nic, job, fresh))
    return sweeps


# The reference evaluates Formula (1) on inf - inf outside an errstate.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
@settings(max_examples=60, deadline=None)
@given(sweeps=_sweeps(), touchy=st.booleans())
def test_one_pass_validator_matches_the_per_stage_pipeline(kind, sweeps, touchy):
    config = TOUCHY if touchy else IntegrityConfig()
    estimator = ESTIMATORS[kind]
    ids = np.arange(N, dtype=np.int64)
    with _touchy_constants() if touchy else nullcontext():
        new = TelemetryValidator(config, estimator, ids, TOP)
        ref = _ReferenceValidator(config, estimator, ids, TOP)
        for level, cpu, mem, nic, job, fresh in sweeps:
            # Each gets its own copies: neither may write its inputs.
            arrays = (level, cpu, mem, nic, job, fresh)
            result = new.validate(*(a.copy() for a in arrays))
            rejected, quarantined = ref.validate(*(a.copy() for a in arrays))
            np.testing.assert_array_equal(result.rejected, rejected)
            np.testing.assert_array_equal(result.quarantined, quarantined)
            np.testing.assert_array_equal(new.quarantined, quarantined)
            assert new.trust.tobytes() == ref._trust.tobytes()
            np.testing.assert_array_equal(new._stuck_run, ref._stuck_run)
            np.testing.assert_array_equal(
                new._quarantine_entry_cycle, ref._quarantine_entry_cycle
            )
            assert new.rejected_samples == ref.rejected_samples
            assert new.quarantine_entries == ref.quarantine_entries
            assert new.quarantined_node_cycles == ref.quarantined_node_cycles
            assert new.quarantined_nodes == int(quarantined.sum())
            assert (new.quarantined_nodes > 0) == bool(quarantined.any())
            # Counters stay Python ints: they reach traces and JSON results.
            counters = (
                new.rejected_samples,
                new.quarantine_entries,
                new.quarantined_node_cycles,
                new.quarantined_nodes,
            )
            assert all(type(c) is int for c in counters)


def test_sequences_reach_quarantine_entry_and_release():
    """The touchy configuration does quarantine and release within a
    short sequence, so the differential test above exercises both."""
    estimator = ESTIMATORS["vector"]
    level = np.full(N, TOP, dtype=np.int64)
    busy = np.zeros(N, dtype=np.int64)
    fresh = np.ones(N, dtype=bool)
    nan = np.full(N, np.nan)
    with _touchy_constants():
        v = TelemetryValidator(TOUCHY, estimator, np.arange(N, dtype=np.int64), TOP)
        v.validate(level, nan, nan, nan, busy, fresh)
        v.validate(level, nan, nan, nan, busy, fresh)
        assert v.quarantined.all() and v.quarantine_entries == N
        for k in range(6):
            load = np.full(N, 0.3 + 0.01 * k)
            v.validate(level, load, load, load, busy, fresh)
        assert v.quarantined_nodes == 0
