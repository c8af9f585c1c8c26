"""Seeded fault models: the stochastic processes behind a scenario.

Each model owns one named substream of the experiment's
:class:`~repro.sim.random.RandomSource` and advances exactly once per
control cycle, so a fault schedule is a pure function of ``(root seed,
scenario)`` — reruns reproduce the same outages at the same cycles, and
two policies compared under the same seed face the *identical* fault
schedule (the robustness analogue of the workload harness's "identical
12-hour streams").

The models are deliberately simple, standard processes:

* **Bernoulli sample loss** for telemetry dropout (i.i.d. per agent per
  cycle — the collector's staleness cache turns correlated consequences
  out of uncorrelated losses);
* a **two-state Markov (Gilbert) process** for meter outages and node
  crashes, giving geometrically-distributed burst lengths, the textbook
  model for repairable-component availability;
* **per-command classification** (land / delay / lose) for actuation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultInjectionError

__all__ = [
    "TelemetryFaultModel",
    "MeterFaultModel",
    "ActuationFaultModel",
    "NodeCrashModel",
    "ControllerCrashModel",
]


class TelemetryFaultModel:
    """I.i.d. per-agent sample loss.

    Args:
        rng: The model's dedicated random substream.
        dropout: Per-agent, per-cycle loss probability.
    """

    def __init__(self, rng: np.random.Generator, dropout: float) -> None:
        if not 0.0 <= dropout <= 1.0:
            raise FaultInjectionError("dropout must lie in [0, 1]")
        self._rng = rng
        self._dropout = float(dropout)
        self._dropped = 0

    @property
    def dropped_samples(self) -> int:
        """Total samples lost so far."""
        return self._dropped

    def dropped_mask(self, n: int) -> np.ndarray:
        """Which of ``n`` agents lose their sample this cycle."""
        if self._dropout <= 0.0 or n == 0:
            return np.zeros(n, dtype=bool)
        mask = self._rng.random(n) < self._dropout
        self._dropped += int(mask.sum())
        return mask


class MeterFaultModel:
    """Meter availability as a two-state Markov chain, plus noise.

    Args:
        rng: The model's dedicated random substream.
        outage_rate: Per-cycle up→down transition probability.
        recovery_rate: Per-cycle down→up transition probability.
        noise_fraction: Std of additive gaussian noise as a fraction of
            the reading.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        outage_rate: float,
        recovery_rate: float,
        noise_fraction: float,
    ) -> None:
        if not 0.0 <= outage_rate <= 1.0 or not 0.0 <= recovery_rate <= 1.0:
            raise FaultInjectionError("meter rates must lie in [0, 1]")
        if noise_fraction < 0.0:
            raise FaultInjectionError("noise_fraction must be non-negative")
        self._rng = rng
        self._outage = float(outage_rate)
        self._recovery = float(recovery_rate)
        self._noise = float(noise_fraction)
        self._up = True
        self._outage_cycles = 0
        self._outages = 0
        self._clamped_readings = 0

    @property
    def available(self) -> bool:
        """Whether the meter is up right now."""
        return self._up

    @property
    def outage_cycles(self) -> int:
        """Total cycles spent down so far."""
        return self._outage_cycles

    @property
    def outages(self) -> int:
        """Number of distinct outage bursts started."""
        return self._outages

    @property
    def clamped_readings(self) -> int:
        """Readings the zero-watt clamp had to correct: a noise draw
        below ``-reading`` is unphysical, so the wattmeter bottoms out at
        0 W instead.  A non-trivial rate means the noise fraction is
        unphysically large."""
        return self._clamped_readings

    def step(self) -> bool:
        """Advance one cycle; returns availability for this cycle."""
        if self._outage > 0.0:
            if self._up:
                if self._rng.random() < self._outage:
                    self._up = False
                    self._outages += 1
            elif self._rng.random() < self._recovery:
                self._up = True
        if not self._up:
            self._outage_cycles += 1
        return self._up

    def perturb(self, reading_w: float) -> float:
        """Apply additive sensor noise to an available reading.

        Clamped at zero — a wattmeter cannot report negative power —
        and each clamp of a strictly negative reading counted.
        """
        if self._noise <= 0.0:
            return reading_w
        noisy = reading_w + self._rng.normal(0.0, self._noise * reading_w)
        if noisy < 0.0:
            self._clamped_readings += 1
        return max(0.0, noisy)


class ActuationFaultModel:
    """Per-command loss and delay classification.

    Args:
        rng: The model's dedicated random substream.
        loss: Per-command probability of never landing.
        delay: Per-command probability of landing late.
        delay_cycles: Lateness of delayed commands, cycles.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        loss: float,
        delay: float,
        delay_cycles: int,
    ) -> None:
        if not 0.0 <= loss <= 1.0 or not 0.0 <= delay <= 1.0:
            raise FaultInjectionError("command rates must lie in [0, 1]")
        if delay_cycles < 1:
            raise FaultInjectionError("delay_cycles must be >= 1")
        self._rng = rng
        self._loss = float(loss)
        self._delay = float(delay)
        self.delay_cycles = int(delay_cycles)

    def classify(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Classify ``n`` outgoing commands.

        Returns:
            ``(lost, delayed)`` boolean masks; commands in neither mask
            land immediately.  Loss takes precedence over delay.
        """
        if n == 0 or (self._loss <= 0.0 and self._delay <= 0.0):
            z = np.zeros(n, dtype=bool)
            return z, z.copy()
        draw = self._rng.random(n)
        lost = draw < self._loss
        delayed = ~lost & (draw < self._loss + self._delay)
        return lost, delayed


class NodeCrashModel:
    """Per-node monitoring-plane availability (two-state Markov).

    A down node's agent reports nothing and its DVFS endpoint drops
    commands; the node itself keeps computing (§I.A: the monitoring
    plane fails more often than the nodes do).

    Args:
        rng: The model's dedicated random substream.
        num_nodes: Cluster size.
        crash_rate: Per-node, per-cycle up→down probability.
        recovery_rate: Per-node, per-cycle down→up probability.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        num_nodes: int,
        crash_rate: float,
        recovery_rate: float,
    ) -> None:
        if not 0.0 <= crash_rate <= 1.0 or not 0.0 <= recovery_rate <= 1.0:
            raise FaultInjectionError("crash rates must lie in [0, 1]")
        if num_nodes < 1:
            raise FaultInjectionError("num_nodes must be >= 1")
        self._rng = rng
        self._crash = float(crash_rate)
        self._recovery = float(recovery_rate)
        self._online = np.ones(num_nodes, dtype=bool)
        self._crashes = 0
        self._offline_node_cycles = 0

    @property
    def online(self) -> np.ndarray:
        """Per-node availability mask (read-only semantics)."""
        return self._online

    @property
    def crashes(self) -> int:
        """Total crash events so far."""
        return self._crashes

    @property
    def offline_node_cycles(self) -> int:
        """Σ over cycles of the number of offline nodes."""
        return self._offline_node_cycles

    def step(self) -> np.ndarray:
        """Advance one cycle; returns this cycle's availability mask."""
        if self._crash > 0.0:
            draw = self._rng.random(len(self._online))
            crashing = self._online & (draw < self._crash)
            recovering = ~self._online & (draw < self._recovery)
            self._crashes += int(crashing.sum())
            self._online[crashing] = False
            self._online[recovering] = True
        self._offline_node_cycles += int((~self._online).sum())
        return self._online


class ControllerCrashModel:
    """Crash events of the central power manager itself.

    Unlike the node models this is an *event* process, not an
    availability chain: each cycle the model draws whether the active
    controller fails right now.  Repair timing is not random — a crashed
    controller comes back after the HA layer's fixed downtime
    (:class:`~repro.ha.config.HaConfig`'s ``lease_timeout_cycles`` for a
    warm standby's takeover, ``restart_cycles`` for a cold restart:
    journal recovery plus process restart), which the
    :class:`~repro.ha.failover.HaController` enforces; the model only
    decides *when* crashes strike, so primary/standby and
    restart-in-place variants face the identical crash schedule under
    the same seed.

    Args:
        rng: The model's dedicated random substream.
        crash_rate: Per-cycle crash probability of the active manager.
    """

    def __init__(self, rng: np.random.Generator, crash_rate: float) -> None:
        if not 0.0 <= crash_rate <= 1.0:
            raise FaultInjectionError("controller crash rate must lie in [0, 1]")
        self._rng = rng
        self._crash = float(crash_rate)
        self._crashes = 0

    @property
    def crashes(self) -> int:
        """Total controller crash events drawn so far."""
        return self._crashes

    def step(self) -> bool:
        """Advance one cycle; returns True when a crash strikes now."""
        if self._crash <= 0.0:
            return False
        hit = bool(self._rng.random() < self._crash)
        if hit:
            self._crashes += 1
        return hit
