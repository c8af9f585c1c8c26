"""Policy interface, shared selection context, and the policy registry.

A policy sees one :class:`PolicyContext` per yellow cycle and returns the
node ids to degrade by one level.  The context wraps the current (and
previous) telemetry snapshots with lazily-computed, cached derived
quantities every policy needs — per-node power estimates, one-level
savings, the per-job power table, per-job increase rates and the
degradability mask — so that policies stay small and share vectorised
plumbing.

Contract for every policy (asserted by the test suite's property tests):

* returned ids are a subset of the snapshot's monitored nodes;
* no idle node is ever selected ("a valid target set selection policy
  shall not select an idle node as a target", §III.B);
* no node already at its lowest level is selected (it "cannot be
  degraded any further");
* selection is deterministic given the context (except ``random``, which
  draws from its injected rng stream).
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.cluster.engine import canonical_power_sum
from repro.core.thresholds import PowerThresholds
from repro.errors import PolicyError
from repro.power.estimator import JobPowerTable, NodePowerEstimator
from repro.telemetry.collector import TelemetrySnapshot

__all__ = [
    "PolicyContext",
    "SelectionPolicy",
    "register_policy",
    "make_policy",
    "available_policies",
]

_EMPTY = np.empty(0, dtype=np.int64)


class PolicyContext:
    """Everything a selection policy may consult for one yellow cycle.

    Args:
        snapshot: Current telemetry snapshot of the candidate set (``t``).
        previous: Previous snapshot (``t−1``) or None on the first cycle.
        estimator: Formula (1) estimator.
        system_power: The metered total power ``P``, watts.
        thresholds: Current ``(P_L, P_H)``.
    """

    def __init__(
        self,
        snapshot: TelemetrySnapshot,
        previous: TelemetrySnapshot | None,
        estimator: NodePowerEstimator,
        system_power: float,
        thresholds: PowerThresholds,
    ) -> None:
        self.snapshot = snapshot
        self.previous = previous
        self.estimator = estimator
        self.system_power = float(system_power)
        self.thresholds = thresholds
        self._node_power: np.ndarray | None = None
        self._savings: np.ndarray | None = None
        self._job_table: JobPowerTable | None = None
        self._prev_job_table: JobPowerTable | None = None
        self._rates: dict[int, float] | None = None

    # ------------------------------------------------------------------
    # Derived quantities (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def deficit_w(self) -> float:
        """``P − P_L``: watts to shed to get back to green (≥ 0)."""
        return max(0.0, self.system_power - self.thresholds.p_low)

    @property
    def node_power(self) -> np.ndarray:
        """Estimated power of each monitored node, snapshot order."""
        if self._node_power is None:
            s = self.snapshot
            self._node_power = self.estimator.estimate_nodes(
                s.level, s.cpu_util, s.mem_frac, s.nic_frac, node_ids=s.node_ids
            )
        return self._node_power

    @property
    def node_savings(self) -> np.ndarray:
        """Watts each monitored node saves if degraded one level."""
        if self._savings is None:
            s = self.snapshot
            self._savings = self.estimator.estimate_savings(
                s.level, s.cpu_util, s.mem_frac, s.nic_frac, node_ids=s.node_ids
            )
        return self._savings

    @property
    def job_table(self) -> JobPowerTable:
        """``Power(J)`` per running job visible in the snapshot."""
        if self._job_table is None:
            self._job_table = self.estimator.engine.aggregate_by_job(
                self.snapshot.job_id, self.node_power
            )
        return self._job_table

    @property
    def previous_job_table(self) -> JobPowerTable | None:
        """``Power(J)`` per job from the *previous* snapshot (or None)."""
        if self._prev_job_table is None and self.previous is not None:
            p = self.previous
            prev_power = self.estimator.estimate_nodes(
                p.level, p.cpu_util, p.mem_frac, p.nic_frac, node_ids=p.node_ids
            )
            self._prev_job_table = self.estimator.engine.aggregate_by_job(
                p.job_id, prev_power
            )
        return self._prev_job_table

    def job_increase_rates(self) -> dict[int, float]:
        """``ΔP^t(J) = (P^t(J) − P^{t−1}(J)) / P^{t−1}(J)`` per job.

        Only jobs present in both snapshots with positive previous power
        appear; empty when no previous snapshot exists.
        """
        if self._rates is None:
            rates: dict[int, float] = {}
            prev = self.previous_job_table
            if prev is not None:
                cur = self.job_table
                for job_id in cur.job_ids:
                    jid = int(job_id)
                    if jid in prev and prev.power_of(jid) > 0.0:
                        p_prev = prev.power_of(jid)
                        rates[jid] = (cur.power_of(jid) - p_prev) / p_prev
            self._rates = rates
        return self._rates

    # ------------------------------------------------------------------
    # Node selection helpers
    # ------------------------------------------------------------------
    def degradable_mask(self) -> np.ndarray:
        """Mask over snapshot entries: busy and not at the lowest level."""
        s = self.snapshot
        return (s.job_id >= 0) & (s.level > 0)

    def degradable_nodes_of_job(self, job_id: int) -> np.ndarray:
        """``Nodes(J)`` ∩ degradable, as *node ids* (ascending)."""
        s = self.snapshot
        nodes = s.node_ids[(s.job_id == int(job_id)) & (s.level > 0)]
        nodes.sort()  # a fresh copy: boolean indexing copies
        return nodes

    def savings_of_job(self, job_id: int) -> float:
        """Σ over the job's degradable nodes of one-level savings, watts.

        Accumulated in the canonical ascending-node-id order so both
        engines (and any snapshot permutation) agree bit for bit.
        """
        s = self.snapshot
        mask = (s.job_id == int(job_id)) & (s.level > 0)
        return canonical_power_sum(self.node_savings[mask], s.node_ids[mask])


class SelectionPolicy(abc.ABC):
    """Base class of all target-set selection policies."""

    #: Registry name; set by subclasses.
    name: str = ""

    @abc.abstractmethod
    def select(self, ctx: PolicyContext) -> np.ndarray:
        """Return node ids to degrade one level (possibly empty)."""

    @staticmethod
    def empty_selection() -> np.ndarray:
        """The canonical empty target set."""
        return _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[..., SelectionPolicy]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator registering a policy under ``name``."""

    def decorator(cls: type) -> type:
        if name in _REGISTRY:
            raise PolicyError(f"policy name {name!r} registered twice")
        if not issubclass(cls, SelectionPolicy):
            raise PolicyError(f"{cls.__name__} is not a SelectionPolicy")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def make_policy(name: str, **kwargs) -> SelectionPolicy:
    """Construct a registered policy by name.

    Extra keyword arguments are forwarded to the policy constructor
    (e.g. ``rng=`` for ``random``).

    Raises:
        PolicyError: for unknown names.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise PolicyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        )
    return factory(**kwargs)


def available_policies() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)
