"""Discrete DVFS (P-state) tables.

The paper's experiment platform controls node power exclusively through
processor DVFS: *"Each level of node power degradation is implemented by
decreasing one level of processor frequency"* (§V.A).  A
:class:`DvfsTable` captures the discrete ladder of (frequency, voltage)
operating points; level ``0`` is the lowest frequency (the node's "lowest
power state") and level ``num_levels - 1`` the highest, matching the
paper's convention that throttling *decreases* ``l``.

Power physics encoded here: CMOS dynamic power scales as ``f · V²``.  The
table exposes :meth:`DvfsTable.dynamic_scale`, the per-level dynamic-power
multiplier normalised to 1.0 at the top level, and
:meth:`DvfsTable.speed`, the compute-throughput multiplier ``f / f_max``
used by the workload runtime-stretch model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.units import ghz

__all__ = ["DvfsTable"]

#: Supply-voltage range of the built-in ladders, volts: the Xeon X5670's
#: VID range, which the synthetic :meth:`DvfsTable.linear` ladder shares.
V_MIN = 0.85
V_MAX = 1.25


@dataclass(frozen=True)
class DvfsTable:
    """An immutable ladder of DVFS operating points.

    Args:
        frequencies_hz: Core frequencies in hertz, strictly increasing;
            index in this tuple is the DVFS *level*.
        voltages_v: Supply voltage at each level, non-decreasing.

    Raises:
        ConfigurationError: on empty, non-monotone or mismatched tables.
    """

    frequencies_hz: tuple[float, ...]
    voltages_v: tuple[float, ...]
    _dynamic_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _speed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        freqs = self.frequencies_hz
        volts = self.voltages_v
        if len(freqs) == 0:
            raise ConfigurationError("DvfsTable needs at least one level")
        if len(freqs) != len(volts):
            raise ConfigurationError(
                f"{len(freqs)} frequencies but {len(volts)} voltages"
            )
        if any(f <= 0 for f in freqs) or any(v <= 0 for v in volts):
            raise ConfigurationError("frequencies and voltages must be positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigurationError("frequencies must be strictly increasing")
        if any(b < a for a, b in zip(volts, volts[1:])):
            raise ConfigurationError("voltages must be non-decreasing")
        f = np.asarray(freqs, dtype=np.float64)
        v = np.asarray(volts, dtype=np.float64)
        scale = (f * v**2) / (f[-1] * v[-1] ** 2)
        object.__setattr__(self, "_dynamic_scale", scale)
        object.__setattr__(self, "_speed", f / f[-1])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def xeon_x5670(cls) -> "DvfsTable":
        """The 10-level ladder of the Intel Xeon X5670 (1.60–2.93 GHz).

        Frequencies follow the X5670's 133 MHz-bus multiplier steps; the
        voltage ramp is a linear interpolation across the part's VID range,
        which is accurate enough for the f·V² dynamic-power scaling the
        simulator needs.
        """
        freqs = tuple(
            ghz(f) for f in (1.60, 1.73, 1.86, 2.00, 2.13, 2.26, 2.40, 2.53, 2.66, 2.93)
        )
        f_lo, f_hi = freqs[0], freqs[-1]
        volts = tuple(
            V_MIN + (V_MAX - V_MIN) * (f - f_lo) / (f_hi - f_lo) for f in freqs
        )
        return cls(frequencies_hz=freqs, voltages_v=volts)

    @classmethod
    def linear(cls, num_levels: int, f_min_hz: float, f_max_hz: float) -> "DvfsTable":
        """A synthetic evenly-spaced ladder — handy for tests and what-ifs —
        with voltages evenly spaced over [:data:`V_MIN`, :data:`V_MAX`]."""
        if num_levels < 1:
            raise ConfigurationError("num_levels must be >= 1")
        if num_levels == 1:
            return cls(frequencies_hz=(float(f_max_hz),), voltages_v=(V_MAX,))
        if f_min_hz >= f_max_hz:
            raise ConfigurationError("f_min_hz must be below f_max_hz")
        freqs = tuple(np.linspace(f_min_hz, f_max_hz, num_levels).tolist())
        volts = tuple(np.linspace(V_MIN, V_MAX, num_levels).tolist())
        return cls(frequencies_hz=freqs, voltages_v=volts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Number of P-states in the ladder."""
        return len(self.frequencies_hz)

    @property
    def top_level(self) -> int:
        """Index of the highest-frequency (highest-power) state."""
        return len(self.frequencies_hz) - 1

    def frequency(self, level: int) -> float:
        """Core frequency in hertz at ``level``."""
        self._check_level(level)
        return self.frequencies_hz[level]

    def voltage(self, level: int) -> float:
        """Supply voltage in volts at ``level``."""
        self._check_level(level)
        return self.voltages_v[level]

    def speed(self, level: int | np.ndarray) -> float | np.ndarray:
        """Relative compute throughput ``f(level) / f_max`` in ``(0, 1]``.

        Accepts a scalar level or an integer array of levels (vectorised).
        """
        return self._speed[level]

    def dynamic_scale(self, level: int | np.ndarray) -> float | np.ndarray:
        """Relative dynamic power ``f·V² / (f_max·V_max²)`` in ``(0, 1]``.

        Accepts a scalar level or an integer array of levels (vectorised).
        """
        return self._dynamic_scale[level]

    def clamp(self, level: int) -> int:
        """Clamp an arbitrary integer into the valid level range."""
        return max(0, min(self.top_level, int(level)))

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise ConfigurationError(
                f"DVFS level {level} outside [0, {self.num_levels - 1}]"
            )
