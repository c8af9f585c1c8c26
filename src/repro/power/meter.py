"""Whole-system power meter.

The architecture's Observability assumption says the *total* system power
"can be measured directly" — in the machine room that is a wall-power
meter; here it is the ground-truth power model plus a record of
readings.  The power manager consumes exactly one scalar per control
cycle from :meth:`SystemPowerMeter.read`, unless the meter is down: the
degraded-mode ladder (:class:`~repro.faults.degraded.DegradedModeLadder`)
clears :attr:`SystemPowerMeter.available` during an outage and puts the
fault injector's sensor error — its noise and any byzantine meter
error — on every reading through :attr:`SystemPowerMeter.perturbation`.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.state import ClusterState
from repro.power.model import PowerModel

__all__ = ["SystemPowerMeter"]


class SystemPowerMeter:
    """Measures total cluster power.

    Args:
        model: Ground-truth power model.
        state: The cluster state being metered.
    """

    def __init__(self, model: PowerModel, state: ClusterState) -> None:
        self._model = model
        self._state = state
        self._last_reading: float | None = None
        self._readings = 0
        #: Whether the meter produces a reading this cycle.
        self.available = True
        #: Sensor error applied to each reading, or None.
        self.perturbation: Callable[[float], float] | None = None

    @property
    def last_reading(self) -> float | None:
        """Most recent value returned by :meth:`read` (None before any)."""
        return self._last_reading

    @property
    def readings(self) -> int:
        """Number of times the meter has been read."""
        return self._readings

    def true_power(self) -> float:
        """Noise-free total power, watts (the simulator's ground truth)."""
        return self._model.system_power(self._state)

    def read(self) -> float:
        """One metered sample of total system power, watts.

        The :attr:`perturbation` (if any) is applied last, after
        :attr:`last_reading` is recorded.
        """
        power = self._model.system_power(self._state)
        self._last_reading = power
        self._readings += 1
        return power if self.perturbation is None else self.perturbation(power)
