"""repro: a reproduction of *A Power Provision and Capping Architecture
for Large Scale Systems* (Liu, Zhu, Lu & Liu, IPPS 2012).

The package simulates the paper's evaluation platform — a 128-node
Tianhe-1A variant running an NPB job mix — and implements its power
provision and capping architecture on top: node-set classification,
green/yellow/red thresholding with peak-derived learning, the power
capping algorithm (Algorithm 1), and the full zoo of target-set selection
policies (MPC, MPC-C, LPC, LPC-C, BFP, HRI, HRI-C plus extensions).

Quick start::

    from repro import ExperimentConfig, run_experiment
    from repro.metrics import compare_runs

    config = ExperimentConfig.quick(seed=1)
    baseline = run_experiment(config, None)      # unmanaged
    capped = run_experiment(config, "mpc")       # most-power-consuming job
    print(compare_runs(capped.metrics, baseline.metrics))

Subpackages
-----------

=====================  ====================================================
``repro.sim``          seeded, named random substreams
``repro.cluster``      node/DVFS/device machine model
``repro.power``        Formula (1) power model, meter, provision
``repro.workload``     NPB phase profiles, jobs, generator, executor
``repro.scheduler``    FCFS queue, first-fit allocator, feeders
``repro.telemetry``    profiling agents, collector, cost model, integrity
``repro.core``         THE PAPER: sets, thresholds, Algorithm 1, policies
``repro.faults``       seeded fault injection + degraded-mode config
``repro.ha``           controller crash-recovery: journal, failover, fencing
``repro.obs``          cycle tracing, metric registry, flight recorder
``repro.metrics``      Performance(cap), CPLJ, P_max, ΔP×T, fault metrics
``repro.analysis``     tables, ASCII charts, Markdown reports
``repro.experiments``  per-figure harnesses (Fig. 5/6/7, ablations)
=====================  ====================================================
"""

from repro.cluster import Cluster, NodeSpec
from repro.core import (
    NodeSets,
    PowerManager,
    PowerState,
    ThresholdController,
    available_policies,
    make_policy,
)
from repro.experiments import ExperimentConfig, ExperimentResult, run_experiment
from repro.faults import DegradedModeConfig, FaultInjector, FaultScenario, FaultStats
from repro.metrics import RunMetrics, compare_runs
from repro.obs import Observability, ObsConfig
from repro.power import PowerModel, PowerProvision, SystemPowerMeter
from repro.sim import RandomSource

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DegradedModeConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultInjector",
    "FaultScenario",
    "FaultStats",
    "NodeSets",
    "NodeSpec",
    "ObsConfig",
    "Observability",
    "PowerManager",
    "PowerModel",
    "PowerProvision",
    "PowerState",
    "RandomSource",
    "RunMetrics",
    "SystemPowerMeter",
    "ThresholdController",
    "available_policies",
    "compare_runs",
    "make_policy",
    "run_experiment",
    "__version__",
]
