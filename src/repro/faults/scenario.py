"""Fault-scenario configuration.

A :class:`FaultScenario` is a frozen, validated description of *which*
failure processes run during an experiment and at *what* rates — the
monitoring-plane failure law the architecture's §III.A silently assumes
away.  It carries no runtime state and draws no randomness itself: the
:class:`~repro.faults.injector.FaultInjector` builds seeded fault models
from it using the experiment's :class:`~repro.sim.random.RandomSource`
stream registry, so every fault schedule is reproducible from the root
seed and adding fault streams never perturbs the workload streams.

All rates are per control cycle (the manager's τ), matching how the
paper counts everything else.  ``FaultScenario.none()`` is the exact
paper setting — every rate zero — and is guaranteed not to change a
single decision of a run: no fault model is even constructed for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import PRESET_HINT, FaultInjectionError

__all__ = ["FaultScenario"]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultScenario:
    """Rates of every modelled monitoring-plane failure process.

    Attributes:
        telemetry_dropout: Per-agent, per-cycle probability that a
            node's telemetry sample is lost (the collector falls back to
            its last-known-good cache for that node).
        meter_outage_rate: Per-cycle probability that the system power
            meter goes from up to down (start of an outage burst).
        meter_recovery_rate: Per-cycle probability that a down meter
            comes back up — outage bursts are geometric with mean
            ``1 / meter_recovery_rate`` cycles.
        meter_noise_fraction: Standard deviation of *additive* gaussian
            meter noise, as a fraction of the true reading (on top of
            whatever multiplicative noise the meter itself models).
        command_loss: Per-command probability that a DVFS command never
            lands (the actuator's readback verification catches it and
            re-issues with backoff).
        command_delay: Per-command probability that a DVFS command lands
            late instead of immediately.
        command_delay_cycles: How many cycles late a delayed command
            lands.
        node_crash_rate: Per-node, per-cycle probability that a node's
            monitoring plane crashes (agent and DVFS endpoint both dark:
            telemetry lost and commands dropped while down; the node
            keeps computing — the §I.A observation that the monitoring
            plane fails more often than the computation does).
        node_recovery_rate: Per-node, per-cycle probability that a
            crashed node recovers.
        controller_crash_rate: Per-cycle probability that the *active
            global power manager itself* crashes.  A controller crash
            only has an effect when the run uses the high-availability
            harness (:mod:`repro.ha`): the crashed manager loses all
            in-memory state and a successor (warm standby, or the same
            process after :class:`~repro.ha.config.HaConfig`'s
            ``restart_cycles``) recovers from the state journal under a
            new fencing epoch.
    """

    telemetry_dropout: float = 0.0
    meter_outage_rate: float = 0.0
    meter_recovery_rate: float = 0.25
    meter_noise_fraction: float = 0.0
    command_loss: float = 0.0
    command_delay: float = 0.0
    command_delay_cycles: int = 2
    node_crash_rate: float = 0.0
    node_recovery_rate: float = 0.1
    controller_crash_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("telemetry_dropout", self.telemetry_dropout)
        _check_probability("meter_outage_rate", self.meter_outage_rate)
        _check_probability("meter_recovery_rate", self.meter_recovery_rate)
        _check_probability("command_loss", self.command_loss)
        _check_probability("command_delay", self.command_delay)
        _check_probability("node_crash_rate", self.node_crash_rate)
        _check_probability("node_recovery_rate", self.node_recovery_rate)
        _check_probability("controller_crash_rate", self.controller_crash_rate)
        if self.meter_noise_fraction < 0.0:
            raise FaultInjectionError("meter_noise_fraction must be non-negative")
        if self.command_delay_cycles < 1:
            raise FaultInjectionError("command_delay_cycles must be >= 1")
        if self.meter_outage_rate > 0.0 and self.meter_recovery_rate == 0.0:
            raise FaultInjectionError(
                "meter outages enabled but meter_recovery_rate is 0 "
                "(the meter would never come back)"
            )
        if self.node_crash_rate > 0.0 and self.node_recovery_rate == 0.0:
            raise FaultInjectionError(
                "node crashes enabled but node_recovery_rate is 0 "
                "(crashed nodes would never come back)"
            )

    @property
    def enabled(self) -> bool:
        """Whether any failure process has a non-zero rate."""
        return (
            self.telemetry_dropout > 0.0
            or self.meter_outage_rate > 0.0
            or self.meter_noise_fraction > 0.0
            or self.command_loss > 0.0
            or self.command_delay > 0.0
            or self.node_crash_rate > 0.0
            or self.controller_crash_rate > 0.0
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def none(cls, **overrides) -> "FaultScenario":
        """The paper's fault-free setting (all rates zero)."""
        return replace(cls(), **overrides)

    @classmethod
    def light(cls, **overrides) -> "FaultScenario":
        """The acceptance scenario: 10% telemetry dropout + 1% command
        loss — a realistically flaky monitoring plane with a healthy
        meter."""
        base = cls(telemetry_dropout=0.10, command_loss=0.01)
        return replace(base, **overrides)

    @classmethod
    def heavy(cls, **overrides) -> "FaultScenario":
        """Everything failing at once: heavy sample loss, meter outage
        bursts with additive noise, lossy and laggy actuation, and
        monitoring-plane crashes."""
        base = cls(
            telemetry_dropout=0.30,
            meter_outage_rate=0.02,
            meter_recovery_rate=0.20,
            meter_noise_fraction=0.01,
            command_loss=0.05,
            command_delay=0.10,
            command_delay_cycles=3,
            node_crash_rate=0.001,
            node_recovery_rate=0.05,
        )
        return replace(base, **overrides)

    @classmethod
    def controller_crash(cls, **overrides) -> "FaultScenario":
        """The light monitoring-plane scenario plus crashes of the
        central power manager itself (run with the :mod:`repro.ha`
        harness; laggy actuation keeps commands in flight across the
        crash so the fencing epoch has something to reject)."""
        base = cls(
            telemetry_dropout=0.10,
            command_loss=0.01,
            command_delay=0.05,
            command_delay_cycles=3,
            controller_crash_rate=0.005,
        )
        return replace(base, **overrides)

    @classmethod
    def preset_names(cls) -> tuple[str, ...]:
        """Names accepted by :meth:`preset`, sorted."""
        return tuple(sorted(_PRESETS))

    @classmethod
    def preset(cls, name: str, **overrides) -> "FaultScenario":
        """Look up a named preset, with a friendly error on a typo.

        Raises:
            FaultInjectionError: for an unknown preset name, listing the
                available presets instead of surfacing a bare KeyError.
        """
        try:
            factory = _PRESETS[name]
        except KeyError:
            raise FaultInjectionError(
                f"unknown fault scenario preset {name!r}; available "
                f"presets: {', '.join(cls.preset_names())} "
                f"({PRESET_HINT})"
            ) from None
        return factory(**overrides)


#: Registry behind :meth:`FaultScenario.preset` (and the CLI ``--faults``
#: choices) — add new presets here so every consumer sees them.
_PRESETS: dict[str, "classmethod"] = {
    "none": FaultScenario.none,
    "light": FaultScenario.light,
    "heavy": FaultScenario.heavy,
    "controller-crash": FaultScenario.controller_crash,
}
