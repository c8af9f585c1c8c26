"""Node thermal model and reliability accounting.

The paper motivates power capping partly through heat (§I.A): high
density power "causes overheating, which leads to problems of the
reliability and availability of the system", citing Feng's observation
that "the failure rate of a computing node doubles with every 10°C
increase in the temperature", and the ΔP×T metric is explicitly framed
as "the accumulative thermal impact caused by overspending power
budget".  This module closes that loop quantitatively:

* :class:`ThermalModel` — a first-order RC model per node: each node's
  temperature relaxes toward ``ambient + R_th · P`` with time constant
  ``tau``; vectorised over the whole cluster (one fused update per tick);
* :func:`failure_rate_multiplier` — Feng's doubling law,
  ``2^((T − T_ref)/10)``;
* :class:`ReliabilityTracker` — integrates the expected failure count
  over a run, so experiments can report "expected failures avoided by
  capping" alongside ΔP×T.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.types import Seconds

__all__ = [
    "ThermalModel",
    "BreakerThermalModel",
    "failure_rate_multiplier",
    "ReliabilityTracker",
]

#: Inlet air temperature, °C.
AMBIENT_C = 22.0
#: ``R_th`` — steady-state °C per watt of node power.
THERMAL_RESISTANCE_C_PER_W = 0.155
#: ``tau`` — a node's thermal relaxation time, seconds.
TIME_CONSTANT_S = 120.0

#: Seconds of sustained 2× overload that trip a branch breaker.
TRIP_TIME_S = 60.0
#: Seconds of deep cool-down that drain a full trip integral.
COOL_TIME_S = 300.0
#: Lower edge of a breaker's no-heat/no-cool band, as a fraction of its
#: rating.
COOLDOWN_FRACTION = 0.9

#: ``λ₀``: failures per node-hour at :data:`REFERENCE_C` — one failure
#: per node-decade, ≈ 1.14e-5 / node-hour.
BASE_RATE_PER_NODE_HOUR = 1.0 / (10 * 365 * 24)
#: ``T_ref``: the temperature at which the base failure rate applies, °C.
REFERENCE_C = 50.0


class ThermalModel:
    """First-order RC thermal model of every node in the cluster.

    ``dT/dt = (T_ss(P) − T) / tau`` with steady state
    ``T_ss = ambient + R_th · P``.  The exact discrete update over a
    tick of length ``dt`` is ``T ← T_ss + (T − T_ss)·exp(−dt/tau)``.

    :data:`AMBIENT_C`, :data:`THERMAL_RESISTANCE_C_PER_W` and
    :data:`TIME_CONSTANT_S` put an idle blade (~160 W) near 47°C and a
    saturated one (~340 W) near 75°C with a two-minute time constant —
    representative of air-cooled 2010-era blades.

    Args:
        num_nodes: Cluster size.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self.temperature_c = np.full(num_nodes, AMBIENT_C)

    @property
    def num_nodes(self) -> int:
        """Number of modelled nodes."""
        return len(self.temperature_c)

    def steady_state(self, power_w: np.ndarray) -> np.ndarray:
        """Equilibrium temperature for the given per-node power, °C."""
        return AMBIENT_C + THERMAL_RESISTANCE_C_PER_W * np.asarray(
            power_w, dtype=np.float64
        )

    def step(self, power_w: np.ndarray, dt: Seconds) -> np.ndarray:
        """Advance every node's temperature by ``dt`` seconds.

        Args:
            power_w: Per-node power draw over the interval, shape (N,).
            dt: Interval length, seconds.

        Returns:
            The updated per-node temperatures (the internal array).
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        p = np.asarray(power_w, dtype=np.float64)
        if p.shape != self.temperature_c.shape:
            raise ConfigurationError("power array shape mismatch")
        t_ss = self.steady_state(p)
        decay = np.exp(-dt / TIME_CONSTANT_S)
        self.temperature_c = t_ss + (self.temperature_c - t_ss) * decay
        return self.temperature_c

    def settle(self, power_w: np.ndarray) -> np.ndarray:
        """Jump every node straight to its equilibrium temperature."""
        self.temperature_c = self.steady_state(np.asarray(power_w, dtype=np.float64))
        return self.temperature_c


class BreakerThermalModel:
    """Thermal-magnetic breaker trip model for a set of branch circuits.

    A molded-case breaker does not open the instant current exceeds its
    rating — a bimetal element heats with sustained overload and trips
    once enough ``I²t`` has accumulated.  This model captures that with a
    dimensionless **trip integral** ``u ∈ [0, 1]`` per branch:

    * **overload** (``P > rated``): ``u`` rises at rate
      ``(P/rated − 1) /`` :data:`TRIP_TIME_S` — a 2× overload trips
      after that many seconds; milder overloads take proportionally
      longer (the inverse-time characteristic);
    * **hysteresis band** (:data:`COOLDOWN_FRACTION` ``· rated ≤ P ≤
      rated``): the element neither heats nor cools — exactly-rated load
      *holds* the integral where it is;
    * **cool-down** (below the band): ``u`` decays at
      ``1 /`` :data:`COOL_TIME_S` toward zero.

    Reaching ``u ≥ 1`` **latches** the breaker open (the branch is dark)
    for the rest of the run — re-closing a breaker is an operator action,
    never an automatic one.

    Args:
        rated_w: Per-branch continuous power rating, watts, shape (B,).
    """

    def __init__(self, rated_w: np.ndarray) -> None:
        rated = np.asarray(rated_w, dtype=np.float64)
        if rated.ndim != 1 or rated.size < 1:
            raise ConfigurationError("rated_w must be a 1-D array of branches")
        if np.any(rated <= 0):
            raise ConfigurationError("breaker ratings must be positive")
        self._rated = rated.copy()
        self._rated.setflags(write=False)
        self._integral = np.zeros(rated.size, dtype=np.float64)
        self._set_tripped(np.zeros(rated.size, dtype=bool))
        self._trip_count = 0

    @property
    def num_branches(self) -> int:
        """Number of modelled branch circuits."""
        return len(self._rated)

    @property
    def rated_w(self) -> np.ndarray:
        """Per-branch continuous rating, watts (read-only)."""
        return self._rated

    @property
    def trip_integral(self) -> np.ndarray:
        """Current per-branch trip integral ``u`` (copy)."""
        return self._integral.copy()

    @property
    def tripped(self) -> np.ndarray:
        """Boolean mask of latched-open branches (read-only: a trip
        replaces it)."""
        return self._tripped

    def _set_tripped(self, mask: np.ndarray) -> None:
        mask.setflags(write=False)
        self._tripped = mask

    @property
    def trip_count(self) -> int:
        """Cumulative number of trip events."""
        return self._trip_count

    def step(self, power_w: np.ndarray, dt: Seconds) -> np.ndarray:
        """Advance the trip integrals by ``dt`` seconds of branch load.

        Args:
            power_w: Per-branch power draw over the interval, shape (B,).
            dt: Interval length, seconds.

        Returns:
            Boolean mask of branches that tripped *during this step*
            (already-open branches never re-trip).
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        p = np.asarray(power_w, dtype=np.float64)
        if p.shape != self._integral.shape:
            raise ConfigurationError("branch power array shape mismatch")
        ratio = p / self._rated
        closed = ~self._tripped
        heating = closed & (ratio > 1.0)
        cooling = closed & (ratio < COOLDOWN_FRACTION)
        self._integral[heating] += (ratio[heating] - 1.0) * (dt / TRIP_TIME_S)
        self._integral[cooling] = np.maximum(
            self._integral[cooling] - dt / COOL_TIME_S, 0.0
        )
        new_trips = closed & (self._integral >= 1.0)
        if new_trips.any():
            self._set_tripped(self._tripped | new_trips)
            self._integral[new_trips] = 1.0
            self._trip_count += int(new_trips.sum())
        return new_trips


def failure_rate_multiplier(temperature_c: float | np.ndarray) -> float | np.ndarray:
    """Feng's law: failure rate doubles per 10°C above :data:`REFERENCE_C`.

    Returns 1.0 at the reference temperature; 2.0 at +10°C; 0.5 at −10°C.
    """
    t = np.asarray(temperature_c, dtype=np.float64)
    mult = np.exp2((t - REFERENCE_C) / 10.0)
    if np.ndim(mult) == 0:
        return float(mult)
    return mult


class ReliabilityTracker:
    """Integrates expected node failures over a run.

    Expected failures over ``[0, T]`` = ``Σ_nodes ∫ λ₀ · 2^((T_i(t) −
    T_ref)/10) dt`` with ``λ₀`` (:data:`BASE_RATE_PER_NODE_HOUR`) the
    baseline per-node failure rate at ``T_ref`` (:data:`REFERENCE_C`).
    """

    def __init__(self) -> None:
        self._expected_failures = 0.0
        self._peak_c = float("-inf")

    @property
    def expected_failures(self) -> float:
        """Accumulated expected failure count."""
        return self._expected_failures

    @property
    def peak_temperature_c(self) -> float:
        """Hottest node temperature seen."""
        return self._peak_c

    def accumulate(self, temperature_c: np.ndarray, dt: Seconds) -> None:
        """Charge ``dt`` seconds at the given per-node temperatures."""
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        t = np.asarray(temperature_c, dtype=np.float64)
        mult = np.asarray(failure_rate_multiplier(t))
        lambda0_per_s = BASE_RATE_PER_NODE_HOUR / 3600.0
        self._expected_failures += float(lambda0_per_s * dt * mult.sum())
        self._peak_c = max(self._peak_c, float(t.max()))
