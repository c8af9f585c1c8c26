"""Reproducible random-stream management.

Every stochastic component draws from a named substream of one
:class:`~repro.sim.random.RandomSource`, so the same root seed reproduces
a whole run.  Simulated time belongs to the fixed-period control loop
of :mod:`repro.experiments.common`: one sampling period τ per tick.
"""

from repro.sim.random import RandomSource

__all__ = ["RandomSource"]
