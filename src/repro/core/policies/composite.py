"""Extension policies (§VI future work: "other selection policies").

The paper closes by promising experiments with additional policies; these
three are natural members of the design space and serve the ablation
benchmarks:

* :class:`RandomJobPolicy` — a null baseline: any structured policy
  should beat it on ΔP×T for equal performance cost;
* :class:`FairSharePolicy` — targets the job that has been throttled the
  least so far, addressing §IV.A's fairness complaint about MPC head-on;
* :class:`HybridPolicy` — change-based when a clear riser exists
  (ΔP^t(J) above a threshold), state-based otherwise; combines HRI's
  fairness with MPC's pull-back strength.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies.base import (
    PolicyContext,
    SelectionPolicy,
    register_policy,
)
from repro.core.policies.change_based import HighestRateOfIncreasePolicy
from repro.core.policies.state_based import MostPowerConsumingPolicy
from repro.errors import PolicyError

__all__ = ["RandomJobPolicy", "FairSharePolicy", "HybridPolicy"]

#: Minimum ΔP^t(J) for :class:`HybridPolicy`'s change-based branch to
#: engage; below it the power rise is ambient noise and the state-based
#: branch gives the stronger pull-back.
RATE_THRESHOLD = 0.05


@register_policy("random")
class RandomJobPolicy(SelectionPolicy):
    """Target a uniformly random job with degradable nodes (null baseline).

    Args:
        rng: Random generator; selection draws one uniform index per
            yellow cycle from it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        if rng is None:
            raise PolicyError("RandomJobPolicy needs an rng")
        self._rng = rng

    def select(self, ctx: PolicyContext) -> np.ndarray:
        eligible = [
            int(jid)
            for jid in ctx.job_table.job_ids
            if len(ctx.degradable_nodes_of_job(int(jid)))
        ]
        if not eligible:
            return self.empty_selection()
        choice = eligible[int(self._rng.integers(0, len(eligible)))]
        return ctx.degradable_nodes_of_job(choice)


@register_policy("fair")
class FairSharePolicy(SelectionPolicy):
    """Target the job throttled least often so far.

    Keeps a per-job hit counter across cycles; among jobs with degradable
    nodes, picks the minimum ``(hits, job_id)``.
    """

    def __init__(self) -> None:
        self._hits: dict[int, int] = {}

    def select(self, ctx: PolicyContext) -> np.ndarray:
        best: tuple[int, int] | None = None
        for jid in ctx.job_table.job_ids:
            jid = int(jid)
            if len(ctx.degradable_nodes_of_job(jid)) == 0:
                continue
            key = (self._hits.get(jid, 0), jid)
            if best is None or key < best:
                best = key
        if best is None:
            return self.empty_selection()
        chosen = best[1]
        self._hits[chosen] = self._hits.get(chosen, 0) + 1
        return ctx.degradable_nodes_of_job(chosen)


@register_policy("hybrid")
class HybridPolicy(SelectionPolicy):
    """HRI when a job is clearly surging (ΔP^t(J) at least
    :data:`RATE_THRESHOLD`), MPC otherwise."""

    def __init__(self) -> None:
        self._hri = HighestRateOfIncreasePolicy()
        self._mpc = MostPowerConsumingPolicy()

    def select(self, ctx: PolicyContext) -> np.ndarray:
        rates = ctx.job_increase_rates()
        if rates and max(rates.values()) >= RATE_THRESHOLD:
            selection = self._hri.select(ctx)
            if len(selection):
                return selection
        return self._mpc.select(ctx)
