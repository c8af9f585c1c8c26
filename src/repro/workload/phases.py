"""Phase records and cyclic phase schedules.

An HPC application alternates between qualitatively different regimes —
dense compute, memory-bound sweeps, communication/synchronisation — and
each regime has a distinct power signature.  A :class:`Phase` captures one
regime; a :class:`PhaseSchedule` strings phases into a cycle that repeats
until the job's total work is done.

Phases live in the *work* domain, not the time domain: a phase covers a
fixed share of the job's work, and how long it takes in wall-clock depends
on the DVFS levels of the job's nodes (see :mod:`repro.workload`).
That is what makes capping stretch runtimes instead of cutting work.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import WorkloadError

__all__ = ["Phase", "PhaseSchedule"]


@dataclass(frozen=True)
class Phase:
    """One regime of an application's execution cycle.

    Args:
        name: Label ("compute", "exchange", …) for traces and debugging.
        work_share: Fraction of one *cycle*'s work spent in this phase;
            shares within a schedule are normalised, so any positive
            weights work.
        cpu_util: CPU utilisation driven while in this phase, [0, 1].
        nic_frac: NIC utilisation (``Data_NIC/(τ·BW)``) while in this
            phase, [0, 1].
        compute_boundness: β — the fraction of this phase's critical path
            that scales with core frequency.  β=1: halving f doubles the
            phase's duration; β=0: frequency-insensitive (pure memory/
            network waiting).
    """

    name: str
    work_share: float
    cpu_util: float
    nic_frac: float
    compute_boundness: float

    def __post_init__(self) -> None:
        if self.work_share <= 0.0:
            raise WorkloadError(f"phase {self.name!r}: work_share must be positive")
        if not 0.0 <= self.cpu_util <= 1.0:
            raise WorkloadError(f"phase {self.name!r}: cpu_util outside [0, 1]")
        if not 0.0 <= self.nic_frac <= 1.0:
            raise WorkloadError(f"phase {self.name!r}: nic_frac outside [0, 1]")
        if not 0.0 <= self.compute_boundness <= 1.0:
            raise WorkloadError(
                f"phase {self.name!r}: compute_boundness outside [0, 1]"
            )


class PhaseSchedule:
    """A normalised cyclic sequence of phases.

    The schedule maps a *cycle position* in ``[0, 1)`` (fraction of one
    cycle's work completed) to the active phase, via binary search over
    cumulative shares.

    Args:
        phases: At least one phase; shares are normalised to sum to 1.
    """

    def __init__(self, phases: tuple[Phase, ...] | list[Phase]) -> None:
        if not phases:
            raise WorkloadError("a schedule needs at least one phase")
        self._phases: tuple[Phase, ...] = tuple(phases)
        total = sum(p.work_share for p in self._phases)
        cum = 0.0
        boundaries: list[float] = []
        for p in self._phases:
            cum += p.work_share / total
            boundaries.append(cum)
        boundaries[-1] = 1.0  # guard against float drift
        self._boundaries = boundaries

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The phases, in cycle order."""
        return self._phases

    @property
    def boundaries(self) -> tuple[float, ...]:
        """Cumulative normalised shares: phase ``i`` ends at
        ``boundaries[i]``; the last entry is exactly 1.0."""
        return tuple(self._boundaries)

    def __len__(self) -> int:
        return len(self._phases)

    def phase_at(self, cycle_position: float) -> Phase:
        """The phase active at ``cycle_position`` ∈ [0, 1).

        Positions ≥ 1 wrap around (cyclic).
        """
        pos = cycle_position % 1.0
        index = bisect.bisect_right(self._boundaries, pos)
        if index >= len(self._phases):  # pos landed exactly on 1.0-ε edge
            index = len(self._phases) - 1
        return self._phases[index]

    def mean_cpu_util(self) -> float:
        """Work-share-weighted mean CPU utilisation over one cycle."""
        total = sum(p.work_share for p in self._phases)
        return sum(p.cpu_util * p.work_share for p in self._phases) / total

    def mean_compute_boundness(self) -> float:
        """Work-share-weighted mean β over one cycle."""
        total = sum(p.work_share for p in self._phases)
        return (
            sum(p.compute_boundness * p.work_share for p in self._phases) / total
        )

    def mean_nic_frac(self) -> float:
        """Work-share-weighted mean NIC utilisation over one cycle."""
        total = sum(p.work_share for p in self._phases)
        return sum(p.nic_frac * p.work_share for p in self._phases) / total
