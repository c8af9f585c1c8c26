"""Power-delivery fault scenario configuration.

A :class:`ProvisionScenario` is the frozen, validated description of how
the *budget side* of Algorithm 1 misbehaves during an experiment: which
delivery stages fail, when, and how the emergency response is armed.  It
mirrors :class:`~repro.faults.scenario.FaultScenario` exactly — no
runtime state, no randomness of its own (stochastic events draw from the
dedicated ``faults.provision`` substream inside
:class:`~repro.provision.runtime.ProvisionRuntime`), and
``ProvisionScenario.none()`` attached to a run is guaranteed not to
change a single decision.

Cycle counts are in *managed* control cycles (the manager's τ), counted
from the start of the managed window.  What no scenario varies is fixed
where it is read: the feeds' count and headroom are
:meth:`~repro.provision.topology.PowerTopology.for_cluster`'s defaults,
the breaker time constants are
:class:`~repro.power.thermal.BreakerThermalModel`'s, the fault events'
sizes are constants of :mod:`repro.provision.runtime`, and the
emergency ladder's thresholds are constants of
:mod:`repro.provision.emergency`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import PRESET_HINT, FaultInjectionError

__all__ = ["PRESET_HINT", "ProvisionScenario"]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must lie in [0, 1], got {value}")


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise FaultInjectionError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class ProvisionScenario:
    """Topology shape, power-side fault processes and defense switches.

    Topology (sizing of :class:`~repro.provision.topology.PowerTopology`):

    Attributes:
        nodes_per_rack: Nodes per branch circuit.
        rack_headroom: Fractional branch margin over each rack's
            flat-out maximum; negative values under-provision the
            branches (the ``breaker-stress`` setting).

    Deterministic scheduled events:

    Attributes:
        feed_loss_at_cycle: Managed cycle at which a feed drops (None =
            never).
        feed_restore_after_cycles: Cycles until the lost feed returns
            (None = permanent).
        pdu_failure_at_cycle: Managed cycle at which rack 0's PDU
            partially fails (None = never).
        cap_order_at_cycle: Managed cycle at which an operator
            cap-reduction order arrives (None = never).
        cap_order_fraction: The ordered cap as a fraction of the design
            capacity.
        cap_order_duration_cycles: How long the order stands.

    Stochastic events (seeded, ``faults.provision`` substream):

    Attributes:
        feed_loss_rate: Per-cycle probability of losing one live feed.
        pdu_failure_rate: Per-cycle probability a random healthy rack's
            PDU derates.

    Defense (the emergency response; all inert when ``defend`` is off):

    Attributes:
        defend: Master switch — budget renegotiation, the emergency-red
            fast path and the degradation ladder.
        branch_caps: Per-branch (rack/PDU) capping that protects local
            breakers even when the global budget is satisfied.
    """

    nodes_per_rack: int = 8
    rack_headroom: float = 0.25

    feed_loss_at_cycle: int | None = None
    feed_restore_after_cycles: int | None = None
    pdu_failure_at_cycle: int | None = None
    cap_order_at_cycle: int | None = None
    cap_order_fraction: float = 0.75
    cap_order_duration_cycles: int = 200

    feed_loss_rate: float = 0.0
    pdu_failure_rate: float = 0.0

    defend: bool = True
    branch_caps: bool = True

    def __post_init__(self) -> None:
        if self.nodes_per_rack < 1:
            raise FaultInjectionError("nodes_per_rack must be >= 1")
        if self.rack_headroom <= -1.0:
            raise FaultInjectionError("rack_headroom must exceed -1")
        for name in (
            "feed_loss_at_cycle",
            "pdu_failure_at_cycle",
            "cap_order_at_cycle",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise FaultInjectionError(f"{name} must be >= 0")
        if (
            self.feed_restore_after_cycles is not None
            and self.feed_restore_after_cycles < 1
        ):
            raise FaultInjectionError("feed_restore_after_cycles must be >= 1")
        _check_fraction("cap_order_fraction", self.cap_order_fraction)
        if self.cap_order_duration_cycles < 1:
            raise FaultInjectionError("cap_order_duration_cycles must be >= 1")
        _check_probability("feed_loss_rate", self.feed_loss_rate)
        _check_probability("pdu_failure_rate", self.pdu_failure_rate)

    @property
    def enabled(self) -> bool:
        """Whether any power-side fault process is configured."""
        return (
            self.feed_loss_at_cycle is not None
            or self.pdu_failure_at_cycle is not None
            or self.cap_order_at_cycle is not None
            or self.feed_loss_rate > 0.0
            or self.pdu_failure_rate > 0.0
            or self.rack_headroom < 0.0
        )

    @property
    def stochastic(self) -> bool:
        """Whether any event draws from the ``faults.provision`` stream."""
        return self.feed_loss_rate > 0.0 or self.pdu_failure_rate > 0.0

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def none(cls, **overrides) -> "ProvisionScenario":
        """Healthy delivery: topology attached, nothing ever fails."""
        return replace(cls(), **overrides)

    @classmethod
    def feed_loss(cls, **overrides) -> "ProvisionScenario":
        """One of two redundant feeds drops permanently mid-run — the
        global budget shrinks to 60% of ``P_thy`` in a single cycle."""
        base = cls(feed_loss_at_cycle=60)
        return replace(base, **overrides)

    @classmethod
    def pdu_failure(cls, **overrides) -> "ProvisionScenario":
        """Rack 0's PDU partially fails mid-run: its branch keeps only
        60% of its rating while the global budget stays intact — only
        per-branch capping can protect that breaker."""
        base = cls(pdu_failure_at_cycle=60)
        return replace(base, **overrides)

    @classmethod
    def breaker_stress(cls, **overrides) -> "ProvisionScenario":
        """Branches under-provisioned at 85% of each rack's flat-out
        maximum: a busy rack sits in breaker overload from the start and
        trips within minutes unless branch capping holds it down."""
        base = cls(rack_headroom=-0.15)
        return replace(base, **overrides)

    @classmethod
    def cap_order(cls, **overrides) -> "ProvisionScenario":
        """An operator cap-reduction order (grid demand response): the
        budget drops to 70% of design capacity for 180 cycles, then the
        order expires and capacity returns."""
        base = cls(
            cap_order_at_cycle=60,
            cap_order_fraction=0.70,
            cap_order_duration_cycles=180,
        )
        return replace(base, **overrides)

    @classmethod
    def grid_storm(cls, **overrides) -> "ProvisionScenario":
        """Stochastic delivery chaos on the ``faults.provision``
        substream: feeds drop and return at random and rack PDUs derate
        at random — the renegotiation path is exercised repeatedly in
        both directions."""
        base = cls(feed_loss_rate=0.01, pdu_failure_rate=0.002)
        return replace(base, **overrides)

    @classmethod
    def preset_names(cls) -> tuple[str, ...]:
        """Names accepted by :meth:`preset`, sorted."""
        return tuple(sorted(_PRESETS))

    @classmethod
    def preset(cls, name: str, **overrides) -> "ProvisionScenario":
        """Look up a named preset, with a friendly error on a typo.

        Raises:
            FaultInjectionError: for an unknown preset name, listing the
                available presets instead of surfacing a bare KeyError.
        """
        try:
            factory = _PRESETS[name]
        except KeyError:
            raise FaultInjectionError(
                f"unknown provision scenario preset {name!r}; available "
                f"presets: {', '.join(cls.preset_names())} "
                f"({PRESET_HINT})"
            ) from None
        return factory(**overrides)


#: Registry behind :meth:`ProvisionScenario.preset` (and the CLI
#: ``--provision`` choices) — add new presets here so every consumer
#: (CLI, chaos CI, ``list-presets``) sees them.
_PRESETS: dict[str, Callable[..., ProvisionScenario]] = {
    "none": ProvisionScenario.none,
    "feed-loss": ProvisionScenario.feed_loss,
    "pdu-failure": ProvisionScenario.pdu_failure,
    "breaker-stress": ProvisionScenario.breaker_stress,
    "cap-order": ProvisionScenario.cap_order,
    "grid-storm": ProvisionScenario.grid_storm,
}
