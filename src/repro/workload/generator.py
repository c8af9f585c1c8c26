"""The §V.C random job stream.

    "evaluation jobs were generated at random by first selecting one
    application from the benchmark, and then set the NPROCS parameter at
    random to be one of the values 8, 16, 32, 64, 128 to 256."

:class:`RandomJobGenerator` reproduces exactly that: uniform application
choice, uniform NPROCS choice from the paper's set, monotonically
increasing job ids.  A ``runtime_scale`` knob compresses nominal runtimes
uniformly so tests and CI can run minutes-long experiments with the same
statistical structure as the 12-hour evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.applications import NPB_APPLICATIONS, ApplicationProfile
from repro.workload.job import Job

__all__ = ["RandomJobGenerator", "PAPER_NPROCS_CHOICES"]

#: The paper's NPROCS values (§V.B).
PAPER_NPROCS_CHOICES: tuple[int, ...] = (8, 16, 32, 64, 128, 256)


class RandomJobGenerator:
    """Generates jobs with the paper's random mix: one of the five NPB
    profiles (:data:`~repro.workload.applications.NPB_APPLICATIONS`) and
    one of :data:`PAPER_NPROCS_CHOICES`, each uniformly.

    Args:
        rng: Random generator (a named stream from
            :class:`repro.sim.random.RandomSource`).
        runtime_scale: Multiplier applied to every generated job's
            nominal runtime (via a scaled copy of its profile).  1.0
            reproduces the library profiles; small values (e.g. 0.02)
            give statistically similar but fast experiments.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        runtime_scale: float = 1.0,
        priority_choices: tuple[int, ...] = (0,),
    ) -> None:
        if runtime_scale <= 0:
            raise ConfigurationError("runtime_scale must be positive")
        if not priority_choices:
            raise ConfigurationError("priority_choices must be non-empty")
        self._rng = rng
        self._apps = [
            self._scaled(a, runtime_scale) for a in NPB_APPLICATIONS.values()
        ]
        self._priorities = tuple(priority_choices)
        self._priority_by_job: dict[int, int] = {}
        self._next_id = 0

    @staticmethod
    def _scaled(app: ApplicationProfile, scale: float) -> ApplicationProfile:
        if scale == 1.0:
            return app
        return ApplicationProfile(
            name=app.name,
            schedule=app.schedule,
            mem_fraction=app.mem_fraction,
            mem_ramp_s=app.mem_ramp_s * scale,
            ref_nprocs=app.ref_nprocs,
            ref_runtime_s=app.ref_runtime_s * scale,
            scaling_exponent=app.scaling_exponent,
            gflops_per_node=app.gflops_per_node,
        )

    @property
    def generated(self) -> int:
        """Number of jobs produced so far."""
        return self._next_id

    def next_job(self, submit_time: float) -> Job:
        """Draw one job: uniform application × uniform NPROCS (× uniform
        priority class when priority_choices has several entries)."""
        app = self._apps[int(self._rng.integers(0, len(self._apps)))]
        choices = PAPER_NPROCS_CHOICES
        nprocs = int(choices[int(self._rng.integers(0, len(choices)))])
        if len(self._priorities) == 1:
            priority = int(self._priorities[0])
        else:
            priority = int(
                self._priorities[int(self._rng.integers(0, len(self._priorities)))]
            )
        job = Job(
            job_id=self._next_id,
            app=app,
            nprocs=nprocs,
            submit_time=float(submit_time),
            priority=priority,
        )
        self._priority_by_job[job.job_id] = priority
        self._next_id += 1
        return job

    def priority_of(self, job_id: int) -> int:
        """Priority class of a previously generated job (0 if unknown —
        a safe default for jobs injected from outside this generator)."""
        return self._priority_by_job.get(int(job_id), 0)
