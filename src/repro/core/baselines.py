"""Related-work baseline controllers (§I.B) for comparison benches.

The paper positions its architecture against two families of prior work
without measuring them; we implement a representative of each so the
benchmark suite can compare all three on identical streams:

* :class:`MimoFeedbackManager` — a proportional feedback controller in
  the spirit of Wang & Chen's cluster-level MIMO control (HPCA'08): each
  cycle it computes the power error against a setpoint (``P_L``) and
  moves *individual nodes* (ranked by savings, ignoring job structure)
  by one DVFS level until the estimated power change matches
  ``GAIN × error``.  No green/yellow/red bands, no job granularity —
  pure magnitude control.

* :class:`BudgetPartitionManager` — a two-level budget allocator in the
  spirit of Femal & Freeh (ICAC'05): the cluster budget (``P_L``) is
  partitioned across candidate nodes each cycle in proportion to
  demand, and every node is clamped to the highest
  DVFS level whose Formula (1) estimate fits its share.  Proactive and
  per-node, trading throughput for hard per-node guarantees.

Both subclasses reuse the full :class:`~repro.core.manager.PowerManager`
sensing/actuation/reporting pipeline and override only the per-cycle
decision step, so every experiment-harness feature (metrics, state
accounting, determinism) applies unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.capping import CappingAction, CappingDecision
from repro.core.manager import PowerManager
from repro.core.policies.base import PolicyContext
from repro.core.states import PowerState

__all__ = ["MimoFeedbackManager", "BudgetPartitionManager"]

#: Fraction of the power error :class:`MimoFeedbackManager` corrects per
#: cycle, in (0, 1]: 1.0 is deadbeat (aggressive), small values damp.
GAIN = 0.6
#: Headroom below the setpoint, as a fraction of it, that
#: :class:`MimoFeedbackManager` requires before restoring levels —
#: hysteresis against chattering.
RELEASE_MARGIN_FRACTION = 0.03

_EMPTY_I = np.empty(0, dtype=np.int64)


def _none_decision(state: PowerState) -> CappingDecision:
    return CappingDecision(state, CappingAction.NONE, _EMPTY_I, _EMPTY_I, 0)


class MimoFeedbackManager(PowerManager):
    """Proportional (Wang-style) feedback power controller.

    Takes :class:`~repro.core.manager.PowerManager`'s arguments; the
    ``policy`` argument is accepted for interface compatibility but
    never consulted.
    """

    def _decide(self, state: PowerState, ctx: PolicyContext) -> CappingDecision:
        setpoint = ctx.thresholds.p_low
        error_w = ctx.system_power - setpoint
        if error_w > 0.0:
            return self._throttle(state, ctx, GAIN * error_w)
        if error_w < -RELEASE_MARGIN_FRACTION * setpoint:
            headroom = -error_w - RELEASE_MARGIN_FRACTION * setpoint
            return self._release(state, ctx, GAIN * headroom)
        return _none_decision(state)

    def _throttle(
        self, state: PowerState, ctx: PolicyContext, shed_w: float
    ) -> CappingDecision:
        snapshot = ctx.snapshot
        eligible = np.flatnonzero((snapshot.job_id >= 0) & (snapshot.level > 0))
        if len(eligible) == 0:
            return _none_decision(state)
        savings = ctx.node_savings[eligible]
        order = eligible[np.argsort(savings, kind="stable")[::-1]]
        cumulative = np.cumsum(savings[np.argsort(savings, kind="stable")[::-1]])
        take = int(np.searchsorted(cumulative, shed_w) + 1)
        chosen = order[: min(take, len(order))]
        node_ids = np.sort(snapshot.node_ids[chosen])
        idx = np.searchsorted(snapshot.node_ids, node_ids)
        new_levels = np.maximum(snapshot.level[idx] - 1, 0)
        return CappingDecision(state, CappingAction.DEGRADE, node_ids, new_levels, 0)

    def _release(
        self, state: PowerState, ctx: PolicyContext, add_w: float
    ) -> CappingDecision:
        snapshot = ctx.snapshot
        top = self._cluster.spec.top_level
        below = np.flatnonzero(snapshot.level < top)
        if len(below) == 0:
            return _none_decision(state)
        est = ctx.estimator
        current = est.estimate_nodes(
            snapshot.level[below],
            snapshot.cpu_util[below],
            snapshot.mem_frac[below],
            snapshot.nic_frac[below],
            node_ids=snapshot.node_ids[below],
        )
        upgraded = est.estimate_nodes(
            np.minimum(snapshot.level[below] + 1, top),
            snapshot.cpu_util[below],
            snapshot.mem_frac[below],
            snapshot.nic_frac[below],
            node_ids=snapshot.node_ids[below],
        )
        cost = upgraded - current
        # Restore the deepest-throttled nodes first (fairness + the
        # bottleneck model: the slowest node gates its job).
        order = below[np.argsort(snapshot.level[below], kind="stable")]
        cost_ordered = cost[np.argsort(snapshot.level[below], kind="stable")]
        cumulative = np.cumsum(cost_ordered)
        take = int(np.searchsorted(cumulative, add_w) + 1)
        chosen = order[: min(take, len(order))]
        if len(chosen) == 0:
            return _none_decision(state)
        node_ids = np.sort(snapshot.node_ids[chosen])
        idx = np.searchsorted(snapshot.node_ids, node_ids)
        new_levels = np.minimum(snapshot.level[idx] + 1, top)
        return CappingDecision(state, CappingAction.UPGRADE, node_ids, new_levels, 0)


class BudgetPartitionManager(PowerManager):
    """Two-level (Femal-style) budget partitioning controller.

    Every cycle the cluster budget — the learned ``P_L`` — is divided
    among the candidate nodes in proportion to each node's *demand* (its
    estimated power at the top level under current load), evenly when
    no node has any, and each node is clamped to the highest level whose
    estimated power fits its share.

    Takes :class:`~repro.core.manager.PowerManager`'s arguments;
    ``policy`` is accepted but unused.
    """

    def _decide(self, state: PowerState, ctx: PolicyContext) -> CappingDecision:
        snapshot = ctx.snapshot
        n = snapshot.size
        if n == 0:
            return _none_decision(state)
        est = ctx.estimator
        num_levels = self._cluster.spec.num_levels
        top = num_levels - 1

        # Non-candidate nodes consume part of the global budget; charge
        # their estimated share before partitioning the rest.
        cluster_budget = ctx.thresholds.p_low
        monitored_power = float(ctx.node_power.sum())
        unmonitored = max(0.0, ctx.system_power - monitored_power)
        budget = max(0.0, cluster_budget - unmonitored)

        # Per-node demand: estimated draw at the top level, current load.
        demand = est.estimate_nodes(
            np.full(n, top, dtype=np.int64),
            snapshot.cpu_util,
            snapshot.mem_frac,
            snapshot.nic_frac,
            node_ids=snapshot.node_ids,
        )
        if demand.sum() > 0:
            shares = budget * demand / demand.sum()
        else:
            shares = np.full(n, budget / n)

        # Power of every node at every level (L×N) with current load.
        levels = np.arange(num_levels, dtype=np.int64)
        matrix = est.model.evaluate_for_nodes(
            snapshot.node_ids,
            levels[:, None],
            snapshot.cpu_util[None, :],
            snapshot.mem_frac[None, :],
            snapshot.nic_frac[None, :],
        )
        fits = matrix <= shares[None, :]
        # Highest fitting level per node; level 0 if nothing fits.
        best = np.where(fits.any(axis=0), top - np.argmax(fits[::-1], axis=0), 0)

        changed = best != snapshot.level
        if not changed.any():
            return _none_decision(state)
        node_ids = snapshot.node_ids[changed]
        new_levels = best[changed].astype(np.int64)
        action = (
            CappingAction.DEGRADE
            if np.any(new_levels < snapshot.level[changed])
            else CappingAction.UPGRADE
        )
        return CappingDecision(state, action, node_ids, new_levels, 0)
