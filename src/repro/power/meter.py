"""Whole-system power meter.

The architecture's Observability assumption says the *total* system power
"can be measured directly" — in the machine room that is a wall-power
meter; here it is the ground-truth power model plus an optional gaussian
sensor-noise term and a record of readings.  The power manager consumes
exactly one scalar per control cycle from :meth:`SystemPowerMeter.read`.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.state import ClusterState
from repro.errors import ConfigurationError
from repro.obs.facade import Observability, resolve_obs
from repro.power.model import PowerModel

__all__ = ["SystemPowerMeter"]


class SystemPowerMeter:
    """Measures total cluster power with optional gaussian noise.

    Args:
        model: Ground-truth power model.
        state: The cluster state being metered.
        noise_std_fraction: Standard deviation of multiplicative sensor
            noise, as a fraction of the true reading (0 disables noise —
            the default, since the paper treats the system meter as
            accurate).
        rng: Random generator for the noise stream (required when noise
            is enabled).
        obs: Observability facade; when its metric registry is live the
            zero-watt clamp count is mirrored as a collected series.
    """

    def __init__(
        self,
        model: PowerModel,
        state: ClusterState,
        noise_std_fraction: float = 0.0,
        rng: np.random.Generator | None = None,
        obs: Observability | None = None,
    ) -> None:
        if noise_std_fraction < 0.0:
            raise ConfigurationError("noise_std_fraction must be non-negative")
        if noise_std_fraction > 0.0 and rng is None:
            raise ConfigurationError("noisy meter needs an rng")
        self._model = model
        self._state = state
        self._noise_std = float(noise_std_fraction)
        self._rng = rng
        self._last_reading: float | None = None
        self._readings = 0
        self._clamped_readings = 0
        facade = resolve_obs(obs)
        if facade.metrics_on:
            facade.metrics.counter_func(
                "repro_meter_clamped_readings_total",
                "Meter readings the physical zero-watt clamp corrected",
                lambda: float(self._clamped_readings),
            )

    @property
    def last_reading(self) -> float | None:
        """Most recent value returned by :meth:`read` (None before any)."""
        return self._last_reading

    @property
    def readings(self) -> int:
        """Number of times the meter has been read."""
        return self._readings

    @property
    def clamped_readings(self) -> int:
        """Readings the zero-watt clamp had to correct.

        A gaussian noise factor ``1 + N(0, σ)`` goes non-positive on a
        draw of ``-1/σ`` standard deviations; physically the wattmeter
        bottoms out at 0 W instead of reporting negative power.  Each
        such clamp is counted — a non-trivial rate means the configured
        noise fraction is unphysically large.
        """
        return self._clamped_readings

    def true_power(self) -> float:
        """Noise-free total power, watts (the simulator's ground truth)."""
        return self._model.system_power(self._state)

    def read(self) -> float:
        """One metered sample of total system power, watts.

        Noise is multiplicative and clamped so a reading can never go
        negative even under extreme noise settings.
        """
        power = self._model.system_power(self._state)
        if self._noise_std > 0.0:
            assert self._rng is not None
            factor = 1.0 + self._rng.normal(0.0, self._noise_std)
            if factor < 0.0:
                factor = 0.0
                self._clamped_readings += 1
            power *= factor
        self._last_reading = power
        self._readings += 1
        return power
