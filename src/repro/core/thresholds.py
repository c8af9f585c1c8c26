"""Threshold setting and adjustment (§III.A).

The thresholds derive from the observed peak power::

    P_H = (1 − 7%)  · P_peak = 93% · P_peak
    P_L = (1 − 16%) · P_peak = 84% · P_peak

The 7%/16% margins come from Fan et al.'s observation of the gap between
achieved and theoretical aggregate power in large-scale systems.

Protocol implemented by :class:`ThresholdController`:

1. ``P_peak`` starts at the power provision capability ``P_Max``
   ("the initial value of P_peak is set to be the value of P_max");
2. during the **training period** the system runs unmanaged and the
   maximal observed power is recorded;
3. at the end of training, ``P_peak`` is replaced by the recorded maximum
   and the thresholds recomputed;
4. afterwards, observation continues and the thresholds are re-adjusted
   every ``t_p`` control cycles from the running peak (which can only
   ratchet upward — a lull never loosens safety margins downward).

Thresholds may also be pinned manually ("set … by the system
administrator based on his empirical knowledge") via
:meth:`ThresholdController.fixed`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, PowerManagementError
from repro.types import Watts

__all__ = ["PowerThresholds", "ThresholdController"]


@dataclass(frozen=True)
class PowerThresholds:
    """An immutable ``(P_L, P_H)`` pair, watts."""

    p_low: float
    p_high: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_low <= self.p_high:
            raise ConfigurationError(
                f"need 0 < P_L <= P_H, got P_L={self.p_low}, P_H={self.p_high}"
            )


class ThresholdController:
    """Learns and periodically adjusts ``P_L``/``P_H`` from observed peaks.

    Args:
        initial_peak_w: Starting ``P_peak`` (the provision capability).
        margin_high: Fractional gap below the peak for ``P_H`` (paper: 0.07).
        margin_low: Fractional gap below the peak for ``P_L`` (paper: 0.16).
        adjust_every_cycles: ``t_p`` — re-derive thresholds from the
            running peak every this many :meth:`observe` calls.  Must be
            "relatively large" compared to the capping cadence.
        frozen: When True the thresholds never change (admin-pinned).
    """

    def __init__(
        self,
        initial_peak_w: Watts,
        margin_high: float = 0.07,
        margin_low: float = 0.16,
        adjust_every_cycles: int = 600,
        frozen: bool = False,
    ) -> None:
        if initial_peak_w <= 0:
            raise ConfigurationError("initial peak must be positive")
        if not 0.0 <= margin_high < margin_low < 1.0:
            raise ConfigurationError(
                "margins must satisfy 0 <= margin_high < margin_low < 1 "
                f"(got high={margin_high}, low={margin_low})"
            )
        if adjust_every_cycles < 1:
            raise ConfigurationError("adjust_every_cycles must be >= 1")
        self._margin_high = float(margin_high)
        self._margin_low = float(margin_low)
        self._adjust_every = int(adjust_every_cycles)
        self._frozen = bool(frozen)
        self._peak = float(initial_peak_w)
        self._running_peak = float(initial_peak_w)
        self._observations = 0
        self._adjustments = 0
        #: Provisioned-capacity ceiling (None = unconstrained).  Set only
        #: through :meth:`set_envelope` by the provision layer; clamps
        #: what learning may derive, survives :meth:`restore_state`.
        self._envelope: float | None = None
        self._base_thresholds = self._derive(self._peak)
        self._thresholds = self._base_thresholds

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def fixed(cls, p_low: float, p_high: float) -> "ThresholdController":
        """Admin-pinned thresholds that never adjust."""
        if not 0.0 < p_low <= p_high:
            raise ConfigurationError("need 0 < P_L <= P_H")
        controller = cls(initial_peak_w=p_high, frozen=True)
        controller._base_thresholds = PowerThresholds(p_low=p_low, p_high=p_high)
        controller._thresholds = controller._base_thresholds
        return controller

    @classmethod
    def from_training(
        cls,
        training_peak_w: Watts,
        margin_high: float = 0.07,
        margin_low: float = 0.16,
        adjust_every_cycles: int = 600,
    ) -> "ThresholdController":
        """Controller initialised from a completed training period's peak."""
        return cls(
            initial_peak_w=training_peak_w,
            margin_high=margin_high,
            margin_low=margin_low,
            adjust_every_cycles=adjust_every_cycles,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def thresholds(self) -> PowerThresholds:
        """The current ``(P_L, P_H)``."""
        return self._thresholds

    @property
    def p_low(self) -> float:
        """Current ``P_L``, watts."""
        return self._thresholds.p_low

    @property
    def p_high(self) -> float:
        """Current ``P_H``, watts."""
        return self._thresholds.p_high

    @property
    def peak(self) -> float:
        """The ``P_peak`` the current thresholds derive from, watts."""
        return self._peak

    @property
    def running_peak(self) -> float:
        """Highest power observed so far (≥ ``peak``), watts."""
        return self._running_peak

    @property
    def adjustments(self) -> int:
        """Number of periodic adjustments performed."""
        return self._adjustments

    @property
    def envelope_w(self) -> float | None:
        """Provisioned-capacity envelope, watts (None = unconstrained)."""
        return self._envelope

    def _derive(self, peak: float) -> PowerThresholds:
        return PowerThresholds(
            p_low=(1.0 - self._margin_low) * peak,
            p_high=(1.0 - self._margin_high) * peak,
        )

    def _clamped(self, thresholds: PowerThresholds) -> PowerThresholds:
        """Apply the envelope: thresholds never exceed what the surviving
        capacity would derive (margins applied to the envelope itself)."""
        env = self._envelope
        if env is None:
            return thresholds
        cap_low = (1.0 - self._margin_low) * env
        cap_high = (1.0 - self._margin_high) * env
        if thresholds.p_low <= cap_low and thresholds.p_high <= cap_high:
            return thresholds
        return PowerThresholds(
            p_low=min(thresholds.p_low, cap_low),
            p_high=min(thresholds.p_high, cap_high),
        )

    # ------------------------------------------------------------------
    # Provisioned-capacity envelope (repro.provision)
    # ------------------------------------------------------------------
    def set_envelope(self, capacity_w: Watts | None) -> bool:
        """Renegotiate the budget against surviving provisioned capacity.

        The provision layer calls this when delivery capacity changes
        (feed loss, PDU failure, operator cap order, or recovery).  The
        envelope caps both what the *current* thresholds may be and what
        any later learning (:meth:`observe`) may re-derive — a peak recorded under full capacity must not
        widen the budget while capacity is down.  It applies to frozen
        (admin-pinned) controllers too: physics outranks policy.

        Args:
            capacity_w: Surviving capacity, watts; ``None`` removes the
                envelope (full capacity restored).

        Returns:
            True if the effective thresholds changed.
        """
        if capacity_w is not None and capacity_w <= 0:
            raise ConfigurationError("capacity envelope must be positive")
        new = None if capacity_w is None else float(capacity_w)
        if new == self._envelope:
            return False
        self._envelope = new
        clamped = self._clamped(self._base_thresholds)
        if clamped == self._thresholds:
            return False
        self._thresholds = clamped
        return True

    # ------------------------------------------------------------------
    # Observation / adjustment
    # ------------------------------------------------------------------
    def observe(self, power_w: Watts) -> bool:
        """Feed one power reading; returns True if thresholds changed.

        The running peak ratchets up immediately; thresholds are only
        re-derived every ``t_p`` observations (and never while frozen).
        """
        if power_w < 0:
            raise PowerManagementError("negative power reading")
        if power_w > self._running_peak:
            self._running_peak = float(power_w)
        self._observations += 1
        if self._frozen:
            return False
        if self._observations % self._adjust_every != 0:
            return False
        return self._apply_peak(self._running_peak)

    def _apply_peak(self, peak: float) -> bool:
        if peak == self._peak:
            return False
        self._peak = float(peak)
        self._base_thresholds = self._derive(self._peak)
        self._adjustments += 1
        new = self._clamped(self._base_thresholds)
        if new == self._thresholds:
            return False
        self._thresholds = new
        return True

    # ------------------------------------------------------------------
    # Crash recovery (repro.ha state journal)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Everything threshold learning needs to resume after a crash.

        The returned dict is one section of the HA state journal's
        records (see ``docs/robustness.md``); feeding it back through
        :meth:`restore_state` on a freshly built controller reproduces
        this controller's future decisions bit for bit.
        """
        return {
            "peak_w": self._peak,
            "running_peak_w": self._running_peak,
            "observations": self._observations,
            "adjustments": self._adjustments,
            "p_low_w": self._thresholds.p_low,
            "p_high_w": self._thresholds.p_high,
            "base_p_low_w": self._base_thresholds.p_low,
            "base_p_high_w": self._base_thresholds.p_high,
            "envelope_w": self._envelope,
            "margin_high": self._margin_high,
            "margin_low": self._margin_low,
            "adjust_every_cycles": self._adjust_every,
            "frozen": self._frozen,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Adopt a :meth:`state_dict`, overwriting all learned state.

        ``p_low``/``p_high`` are restored verbatim rather than re-derived
        so admin-pinned (:meth:`fixed`) controllers round-trip too.

        The capacity envelope is the one place the journal does *not* win
        outright: the effective envelope is the **stricter** of the
        journaled one and whatever this (live) controller already holds.
        A checkpoint written under full capacity must not let a failover
        widen thresholds past capacity that has since been lost — the
        journal records policy, but the envelope records physics.
        """
        self._margin_high = float(state["margin_high"])
        self._margin_low = float(state["margin_low"])
        self._adjust_every = int(state["adjust_every_cycles"])
        self._frozen = bool(state["frozen"])
        self._peak = float(state["peak_w"])
        self._running_peak = float(state["running_peak_w"])
        self._observations = int(state["observations"])
        self._adjustments = int(state["adjustments"])
        raw_env = state.get("envelope_w")
        journaled_env = None if raw_env is None else float(raw_env)  # type: ignore[arg-type]
        live_env = self._envelope
        if journaled_env is None:
            self._envelope = live_env
        elif live_env is None:
            self._envelope = journaled_env
        else:
            self._envelope = min(live_env, journaled_env)
        restored = PowerThresholds(
            p_low=float(state["p_low_w"]), p_high=float(state["p_high_w"])  # type: ignore[arg-type]
        )
        self._base_thresholds = PowerThresholds(
            p_low=float(state.get("base_p_low_w", restored.p_low)),  # type: ignore[arg-type]
            p_high=float(state.get("base_p_high_w", restored.p_high)),  # type: ignore[arg-type]
        )
        self._thresholds = self._clamped(restored)
