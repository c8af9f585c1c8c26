"""Workload substrate: phase-based models of the NPB evaluation jobs.

The paper evaluates with five NAS Parallel Benchmarks (EP, CG, LU, BT,
SP), class D, at NPROCS ∈ {8, 16, 32, 64, 128, 256} (§V.B).  We cannot run
real MPI binaries inside a simulator, so each application is modelled as
the thing the power-capping architecture actually reacts to — its
*operating-point trajectory*:

* a cyclic sequence of :class:`~repro.workload.phases.Phase` records
  (compute / memory / communication signatures: CPU utilisation, NIC
  rate, per-phase compute-boundness β);
* a steady-state memory footprint as a fraction of node memory;
* a nominal runtime versus process count (strong-scaling law);
* a runtime-stretch model under DVFS: a phase that is β compute-bound
  on a node at relative speed ``s = f/f_max`` progresses at rate
  ``1/((1−β) + β/s)``, and a well-balanced synchronous job progresses
  at the rate of its *slowest* node — exactly the bottleneck argument
  §IV.A builds the state-based policies on.  The cluster engines
  (:mod:`repro.cluster.vector`, :mod:`repro.cluster.object_engine`)
  apply this law when they step jobs.

Modules:

* :mod:`repro.workload.phases` — phase records and cyclic schedules;
* :mod:`repro.workload.applications` — the NPB profile library;
* :mod:`repro.workload.job` — job lifecycle state;
* :mod:`repro.workload.generator` — the §V.C random job stream;
* :mod:`repro.workload.executor` — advances running jobs each control
  tick and writes their load into the cluster state.
"""

from repro.workload.applications import (
    ApplicationProfile,
    NPB_APPLICATIONS,
    get_application,
)
from repro.workload.executor import JobExecutor
from repro.workload.generator import RandomJobGenerator
from repro.workload.job import Job, JobState
from repro.workload.phases import Phase, PhaseSchedule

__all__ = [
    "ApplicationProfile",
    "Job",
    "JobExecutor",
    "JobState",
    "NPB_APPLICATIONS",
    "Phase",
    "PhaseSchedule",
    "RandomJobGenerator",
    "get_application",
]
