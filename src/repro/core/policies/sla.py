"""SLA-aware target selection (Ranganathan-style, §I.B).

Ranganathan et al. throttle "based on SLA": when power must come down,
the lowest-service-class work pays first.  :class:`SlaAwarePolicy`
brings that ordering into the paper's architecture as one more
selection policy: jobs are ranked by ``(priority ascending, Power(J)
descending, job_id)`` — the cheapest-to-hurt, most-power-saving job
first.  Work that must never be degraded belongs in the node-granular
privileged set ``A_uncontrollable``.

The policy needs to know each job's priority class; the paper's
telemetry plane does not carry it, so the constructor takes a lookup
callable (typically
:meth:`repro.workload.generator.RandomJobGenerator.priority_of`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.policies.base import (
    PolicyContext,
    SelectionPolicy,
    register_policy,
)
from repro.errors import PolicyError

__all__ = ["SlaAwarePolicy"]


@register_policy("sla")
class SlaAwarePolicy(SelectionPolicy):
    """Throttle the least-important job first.

    Args:
        priority_of: Maps a job id to its priority class (higher = more
            important).
    """

    def __init__(self, priority_of: Callable[[int], int]) -> None:
        if priority_of is None:
            raise PolicyError("SlaAwarePolicy needs a priority lookup")
        self._priority_of = priority_of

    def select(self, ctx: PolicyContext) -> np.ndarray:
        table = ctx.job_table
        ranked: list[tuple[int, float, int]] = []
        for job_id in table.job_ids:
            jid = int(job_id)
            priority = int(self._priority_of(jid))
            ranked.append((priority, -table.power_of(jid), jid))
        ranked.sort()
        for _, _, jid in ranked:
            nodes = ctx.degradable_nodes_of_job(jid)
            if len(nodes):
                return nodes
        return self.empty_selection()
