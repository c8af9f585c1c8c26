"""State-based single-job policies: MPC, LPC, BFP (§IV.A).

All three rank *jobs* by their current estimated power ``Power(J) =
Σ_{x ∈ Nodes(J)} P(x)`` and select every degradable node of one job — the
paper's key insight being that for a well-balanced application, degrading
one node already bottlenecks the job, so degrading all of its nodes costs
the same performance while saving much more power.

* **MPC** targets the most power-consuming job — fastest pull-back;
* **LPC** targets the least power-consuming job — gentlest, least likely
  to oscillate between green and yellow;
* **BFP** targets the job whose one-level savings is *just above* the
  deficit ``P − P_L`` — the compromise between the two.

If the top-ranked job has no degradable node (all its nodes already at
the lowest level), the policies fall through to the next job in rank
order, so a selection is produced whenever any degradable busy node
exists.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies.base import (
    PolicyContext,
    SelectionPolicy,
    register_policy,
)

__all__ = [
    "MostPowerConsumingPolicy",
    "LeastPowerConsumingPolicy",
    "BestFitPolicy",
]


class _RankedJobPolicy(SelectionPolicy):
    """Shared fall-through logic: take the first job in rank order with a
    non-empty degradable node set."""

    def _ranked_jobs(self, ctx: PolicyContext) -> np.ndarray:
        raise NotImplementedError

    def select(self, ctx: PolicyContext) -> np.ndarray:
        # The jobs with a degradable node, in one snapshot pass, not one
        # per ranked job (with every busy node at the floor, that walk
        # visits every job to select nothing).
        eligible = set(ctx.snapshot.job_id[ctx.degradable_mask()].tolist())
        if eligible:
            for job_id in self._ranked_jobs(ctx).tolist():
                if job_id in eligible:
                    return ctx.degradable_nodes_of_job(job_id)
        return self.empty_selection()


@register_policy("mpc")
class MostPowerConsumingPolicy(_RankedJobPolicy):
    """MPC: target the nodes of the most power-consuming job."""

    def _ranked_jobs(self, ctx: PolicyContext) -> np.ndarray:
        return ctx.job_table.sorted_by_power(descending=True)


@register_policy("lpc")
class LeastPowerConsumingPolicy(_RankedJobPolicy):
    """LPC: target the nodes of the least power-consuming job."""

    def _ranked_jobs(self, ctx: PolicyContext) -> np.ndarray:
        return ctx.job_table.sorted_by_power(descending=False)


@register_policy("bfp")
class BestFitPolicy(SelectionPolicy):
    """BFP: the job whose savings best fit the deficit ``P − P_L``.

    Selection rule: among jobs whose one-level savings meet or exceed the
    deficit, pick the one with the *smallest* such savings ("just
    above").  If no job covers the deficit alone, pick the job with the
    largest savings (closest from below).  Ties break toward the lower
    job id, keeping the policy deterministic.
    """

    def select(self, ctx: PolicyContext) -> np.ndarray:
        deficit = ctx.deficit_w
        best_over: tuple[float, int] | None = None  # (savings, job_id)
        best_under: tuple[float, int] | None = None  # (-savings, job_id)
        for job_id in ctx.job_table.job_ids:
            jid = int(job_id)
            savings = ctx.savings_of_job(jid)
            if savings <= 0.0:
                continue  # nothing degradable in this job
            if savings >= deficit:
                key = (savings, jid)
                if best_over is None or key < best_over:
                    best_over = key
            else:
                key = (-savings, jid)
                if best_under is None or key < best_under:
                    best_under = key
        chosen = best_over or best_under
        if chosen is None:
            return self.empty_selection()
        return ctx.degradable_nodes_of_job(chosen[1])
