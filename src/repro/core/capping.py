"""The power capping algorithm (Algorithm 1, Figure 2 of the paper).

Per control cycle, given the classified power state:

* **green** — ``Time_g`` increments.  Once the system has been green for
  ``T_g`` consecutive cycles ("steady green") and degraded nodes exist,
  every degraded node is upgraded one level; nodes reaching the top are
  removed from ``A_degraded``.  (``Time_g`` is *not* reset by the
  upgrade, so each further green cycle lifts the remaining nodes another
  level — a gradual restore, letting the system cool down after an
  episode, exactly as Figure 2 writes it.)
* **yellow** — ``Time_g`` resets; the target-selection policy picks
  ``A_target ⊆ A_candidate`` and each target is degraded one level and
  added to ``A_degraded``.
* **red** — ``Time_g`` resets; *every* candidate node is commanded to
  its lowest power state and ``A_degraded := A_candidate``.

The algorithm is pure decision logic: it never touches the cluster.  It
returns a :class:`CappingDecision` of ``(node, new_level)`` pairs — the
ordered pairs ``(i, l)`` the paper defines as the capping algorithm's
output — which the :class:`~repro.core.actuator.DvfsActuator` applies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.policies.base import PolicyContext, SelectionPolicy
from repro.core.sets import NodeSets
from repro.core.states import PowerState
from repro.errors import ConfigurationError, PowerManagementError

__all__ = ["CappingAction", "CappingDecision", "PowerCappingAlgorithm"]

_EMPTY_I = np.empty(0, dtype=np.int64)


class CappingAction(enum.Enum):
    """What Algorithm 1 decided to do this cycle."""

    NONE = "none"  #: no state change commanded
    UPGRADE = "upgrade"  #: steady-green restore (+1 level on degraded nodes)
    DEGRADE = "degrade"  #: yellow response (−1 level on the target set)
    EMERGENCY = "emergency"  #: red response (all candidates to lowest)


@dataclass(frozen=True)
class CappingDecision:
    """The output of one Algorithm 1 invocation.

    ``node_ids``/``new_levels`` are the ordered pairs ``(i, l)``; both
    empty when ``action`` is NONE.
    """

    state: PowerState
    action: CappingAction
    node_ids: np.ndarray
    new_levels: np.ndarray
    time_in_green: int  #: ``Time_g`` after this cycle

    def __post_init__(self) -> None:
        if len(self.node_ids) != len(self.new_levels):
            raise PowerManagementError("decision arrays misaligned")

    @property
    def num_targets(self) -> int:
        """Number of nodes commanded this cycle."""
        return len(self.node_ids)


class PowerCappingAlgorithm:
    """Algorithm 1 with persistent ``A_degraded`` and ``Time_g`` state.

    Args:
        sets: The node-set classification (defines ``A_candidate``).
        top_level: The highest DVFS level of the platform.
        steady_green_cycles: ``T_g`` — consecutive green cycles before
            upgrades begin (the paper's experiments use 10).
    """

    def __init__(
        self, sets: NodeSets, top_level: int, steady_green_cycles: int = 10
    ) -> None:
        if steady_green_cycles < 1:
            raise ConfigurationError("T_g must be >= 1 cycle")
        if top_level < 0:
            raise ConfigurationError("top_level must be >= 0")
        self._sets = sets
        self._top = int(top_level)
        self._t_g = int(steady_green_cycles)
        # A_degraded as a mask over all nodes (only candidate bits used).
        self._degraded = np.zeros(len(sets.total), dtype=bool)
        self._time_g = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded_nodes(self) -> np.ndarray:
        """Current ``A_degraded``, ascending node ids."""
        return np.flatnonzero(self._degraded).astype(np.int64)

    @property
    def time_in_green(self) -> int:
        """``Time_g``: consecutive green cycles so far."""
        return self._time_g

    @property
    def steady_green_cycles(self) -> int:
        """``T_g``."""
        return self._t_g

    def mark_degraded(self, node_ids: np.ndarray) -> None:
        """Record out-of-band degrades in ``A_degraded``.

        The per-branch emergency capping path commands degrades outside
        the normal decide step; marking them here lets the ordinary
        steady-green restore lift those nodes back up once the episode
        ends.  Non-candidate ids are ignored (privileged nodes are never
        commanded, so they must never enter ``A_degraded``).
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        if len(ids) == 0:
            return
        candidate = np.zeros_like(self._degraded)
        candidate[self._sets.candidates] = True
        self._degraded[ids[candidate[ids]]] = True

    def restore(self, degraded_mask: np.ndarray, time_in_green: int) -> None:
        """Adopt journaled Algorithm 1 state after a controller crash.

        Args:
            degraded_mask: ``A_degraded`` as a boolean mask over all
                node ids (copied).
            time_in_green: ``Time_g`` at the journaled cycle.

        Raises:
            PowerManagementError: on a mask of the wrong length or a
                negative green streak — a corrupt journal must fail
                loudly, not resume a wrong control state.
        """
        mask = np.asarray(degraded_mask, dtype=bool)
        if mask.shape != self._degraded.shape:
            raise PowerManagementError(
                "journaled A_degraded mask does not match the cluster size"
            )
        if time_in_green < 0:
            raise PowerManagementError("journaled Time_g is negative")
        self._degraded = mask.copy()
        self._time_g = int(time_in_green)

    # ------------------------------------------------------------------
    # The decision step
    # ------------------------------------------------------------------
    def decide(
        self,
        state: PowerState,
        ctx: PolicyContext,
        policy: SelectionPolicy,
        upgradable: np.ndarray | None = None,
    ) -> CappingDecision:
        """Run one Algorithm 1 cycle and return the commanded pairs.

        Args:
            upgradable: Optional mask over all node ids restricting
                which degraded nodes may be upgraded this steady-green
                cycle (the degraded-mode ladder passes the set of nodes
                with *fresh* telemetry).  Excluded nodes simply stay in
                ``A_degraded`` for a later, better-informed cycle;
                ``None`` (the fault-free default) permits all.
        """
        if state is PowerState.GREEN:
            return self._green(ctx, upgradable)
        if state is PowerState.YELLOW:
            return self._yellow(ctx, policy)
        return self._red(ctx)

    def _green(
        self, ctx: PolicyContext, upgradable: np.ndarray | None = None
    ) -> CappingDecision:
        self._time_g += 1
        # Before T_g green cycles nothing is upgraded, so A_degraded is
        # not read.
        degraded = _EMPTY_I
        if self._time_g >= self._t_g:
            degraded = self.degraded_nodes
            if upgradable is not None and len(degraded) > 0:
                degraded = degraded[upgradable[degraded]]
        if len(degraded) == 0:
            return CappingDecision(
                PowerState.GREEN, CappingAction.NONE, _EMPTY_I, _EMPTY_I, self._time_g
            )
        # Steady green: upgrade every degraded node one level.
        levels = self._snapshot_levels(degraded, ctx)
        new_levels = np.minimum(levels + 1, self._top)
        reached_top = new_levels >= self._top
        self._degraded[degraded[reached_top]] = False
        return CappingDecision(
            PowerState.GREEN,
            CappingAction.UPGRADE,
            degraded,
            new_levels,
            self._time_g,
        )

    def _yellow(self, ctx: PolicyContext, policy: SelectionPolicy) -> CappingDecision:
        self._time_g = 0
        targets = np.asarray(policy.select(ctx), dtype=np.int64)
        if len(targets) == 0:
            return CappingDecision(
                PowerState.YELLOW, CappingAction.NONE, _EMPTY_I, _EMPTY_I, 0
            )
        self._validate_targets(targets, ctx)
        levels = self._snapshot_levels(targets, ctx)
        new_levels = np.maximum(levels - 1, 0)
        self._degraded[targets] = True
        return CappingDecision(
            PowerState.YELLOW, CappingAction.DEGRADE, targets, new_levels, 0
        )

    def _red(self, ctx: PolicyContext) -> CappingDecision:
        self._time_g = 0
        candidates = self._sets.candidates
        if len(candidates) == 0:
            return CappingDecision(
                PowerState.RED, CappingAction.NONE, _EMPTY_I, _EMPTY_I, 0
            )
        self._degraded[:] = False
        self._degraded[candidates] = True
        new_levels = np.zeros(len(candidates), dtype=np.int64)
        return CappingDecision(
            PowerState.RED, CappingAction.EMERGENCY, candidates, new_levels, 0
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_targets(self, targets: np.ndarray, ctx: PolicyContext) -> None:
        mask = self._sets.candidate_mask
        if targets.size and (
            targets.min() < 0 or targets.max() >= len(mask) or not mask[targets].all()
        ):
            raise PowerManagementError(
                "policy selected nodes outside the candidate set"
            )
        snapshot = ctx.snapshot
        idx = snapshot.node_ids.searchsorted(targets)
        if (snapshot.job_id[idx] < 0).any():
            raise PowerManagementError("policy selected an idle node")
        if (snapshot.level[idx] <= 0).any():
            raise PowerManagementError(
                "policy selected a node already at its lowest level"
            )

    @staticmethod
    def _snapshot_levels(node_ids: np.ndarray, ctx: PolicyContext) -> np.ndarray:
        """Levels of ``node_ids`` as known from the cycle's snapshot.

        ``A_degraded`` and every target set are subsets of
        ``A_candidate``, and the snapshot covers exactly the candidate
        set in ascending node-id order, so a binary search resolves the
        indices.
        """
        idx = ctx.snapshot.node_ids.searchsorted(node_ids)
        return ctx.snapshot.level[idx].astype(np.int64)
