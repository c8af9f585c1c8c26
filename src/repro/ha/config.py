"""High-availability configuration for the global power manager.

The paper's architecture (Figure 1) has exactly one global power
manager; §I.A motivates the whole design with component failure rates at
scale, yet the manager itself is a single point of failure.
:class:`HaConfig` describes how a deployment closes that gap: whether a
warm standby is provisioned, how long detection-plus-takeover (the lease
timeout) or a cold restart takes, and — for deterministic experiments —
an explicit script of controller-crash cycles.  How often the state
journal compacts is :class:`~repro.ha.journal.StateJournal`'s own
default (every 64 records).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["HaConfig"]


@dataclass(frozen=True)
class HaConfig:
    """Knobs of the controller crash-recovery layer (:mod:`repro.ha`).

    Attributes:
        enabled: Arm the HA layer.  Disabled, the run is bit-for-bit the
            non-HA run (no journal appends, no crash handling).
        warm_standby: Keep a standby manager ready to take over.  A
            crash then costs only ``lease_timeout_cycles`` of downtime
            (lease expiry + fenced takeover); without a standby every
            crash costs a full ``restart_cycles`` cold restart.
        lease_timeout_cycles: Control cycles the primary's lease lives
            without renewal; the standby may only act after it expires,
            so this is also the warm-failover downtime.
        restart_cycles: Control cycles to cold-restart a crashed
            manager (process launch + journal recovery) — the downtime
            when no ready standby exists.
        crash_at_cycles: Explicit 1-based controller-cycle indices at
            which the primary crashes, independent of any stochastic
            crash process — the deterministic sweep the failover
            benchmarks drive.
    """

    enabled: bool = False
    warm_standby: bool = True
    lease_timeout_cycles: int = 3
    restart_cycles: int = 20
    crash_at_cycles: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.lease_timeout_cycles < 1:
            raise ConfigurationError("lease_timeout_cycles must be >= 1")
        if self.restart_cycles < 1:
            raise ConfigurationError("restart_cycles must be >= 1")
        if any(c < 1 for c in self.crash_at_cycles):
            raise ConfigurationError("crash_at_cycles are 1-based cycle indices")
        if len(set(self.crash_at_cycles)) != len(self.crash_at_cycles):
            raise ConfigurationError("crash_at_cycles must be distinct")

    @classmethod
    def warm(cls, **overrides) -> "HaConfig":
        """Warm-standby HA (the recommended deployment)."""
        return replace(cls(enabled=True, warm_standby=True), **overrides)

    @classmethod
    def restart_only(cls, **overrides) -> "HaConfig":
        """HA by cold restart only (no standby provisioned)."""
        return replace(cls(enabled=True, warm_standby=False), **overrides)
