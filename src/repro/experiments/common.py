"""Experiment configuration and the single-run engine.

One :func:`run_experiment` call reproduces the paper's §V.C protocol end
to end, in a fresh simulated world:

1. **Training period** — the cluster runs the random job stream with all
   nodes at the highest power state and no management; the peak power is
   recorded (paper: 24 hours; configurable).
2. **Threshold learning** — ``P_peak`` ← training peak; ``P_H = 93% ·
   P_peak``, ``P_L = 84% · P_peak`` (margins configurable), and the
   provision threshold for ΔP×T is fixed at ``provision_fraction ×
   training peak``.
3. **Main window** — the stream continues for the evaluation duration
   (paper: 12 hours) either unmanaged (``policy=None``, the baseline) or
   under a :class:`~repro.core.manager.PowerManager` running the chosen
   policy each control cycle.
4. **Metrics** — every §V.C metric evaluated over the main window only.

Identical seeds give identical training periods and identical job
*sequences* across policies (the k-th generated job is the same tuple),
so cross-policy comparisons differ only in what the manager did — the
simulator's sharper version of the paper's "statistically identical
12-hour streams".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.engine import available_engines, canonical_power_sums
from repro.core.manager import PowerManager
from repro.core.policies.base import SelectionPolicy, make_policy
from repro.core.sets import NodeSets
from repro.core.states import PowerState
from repro.core.thresholds import ThresholdController
from repro.errors import ConfigurationError
from repro.core.actuator import DvfsActuator
from repro.faults.corruption import CorruptionScenario
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.scenario import FaultScenario
from repro.ha import HaConfig, HaController, HaStats, StateJournal
from repro.metrics.summary import RunMetrics
from repro.obs import Observability, ObsConfig
from repro.power.meter import SystemPowerMeter
from repro.power.hetero import make_power_model
from repro.power.supply import PowerProvision
from repro.power.thermal import ReliabilityTracker, ThermalModel
from repro.provision import (
    PowerTopology,
    ProvisionRuntime,
    ProvisionScenario,
    ProvisionStats,
)
from repro.scheduler.backfill import BackfillScheduler
from repro.scheduler.feeder import KeepQueueFilledFeeder
from repro.scheduler.scheduler import BatchScheduler
from repro.sim.random import RandomSource
from repro.telemetry.cost import cpu_utilization
from repro.telemetry.integrity import IntegrityConfig
from repro.workload.executor import JobExecutor
from repro.workload.generator import RandomJobGenerator
from repro.workload.job import Job

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run.

    Defaults follow the paper's §V values where the paper gives them
    (128 nodes, T_g = 10 cycles, 7%/16% margins, five NPB applications
    via the generator) and practical simulated-time compressions where
    it does not (we cannot wait 24 wall-clock hours; ``runtime_scale``
    compresses job runtimes and the windows shrink proportionally).
    """

    seed: int = 2012
    num_nodes: int = 128
    #: Control-cycle period == telemetry sampling interval τ, seconds.
    control_period_s: float = 1.0
    #: Uniform compression of job nominal runtimes (1.0 = paper-scale).
    runtime_scale: float = 0.05
    #: Training-period length, simulated seconds (paper: 24 h).
    training_duration_s: float = 1800.0
    #: Main evaluation window, simulated seconds (paper: 12 h).
    run_duration_s: float = 3600.0
    #: ``T_g``, control cycles of steady green before upgrades (paper: 10).
    steady_green_cycles: int = 10
    #: Candidate-set size (the lowest-numbered controllable nodes);
    #: None = all controllable nodes.
    candidate_size: int | None = None
    #: Privileged node ids (``A_uncontrollable``).
    privileged_nodes: tuple[int, ...] = ()
    #: Threshold margins (paper: 7% / 16% below ``P_peak``).
    margin_high: float = 0.07
    margin_low: float = 0.16
    #: ``t_p``: threshold re-adjustment period, control cycles.
    adjust_every_cycles: int = 600
    #: ΔP×T threshold ``P_th`` as a fraction of the training peak.  It
    #: sits just *below* the P_L band (84%), so even a well-capped run —
    #: which hovers under P_L and transiently crosses it — retains some
    #: overspend; that is what makes the ΔP×T reductions land near the
    #: paper's 73%/66% rather than a trivial 100%.
    provision_fraction: float = 0.82
    #: Track per-node temperatures and expected failures during the main
    #: window (the §I.A reliability motivation, quantified via the RC
    #: thermal model and Feng's doubling law).
    track_thermal: bool = False
    #: Batch scheduler flavour: "fcfs" (the paper's §V.C launcher) or
    #: "backfill" (EASY backfill; an ablation of the workload substrate).
    scheduler: str = "fcfs"
    #: Priority classes the generator draws uniformly (higher = more
    #: important); only the ``sla`` policy consults priorities.
    priority_choices: tuple[int, ...] = (0,)
    #: Monitoring-plane fault scenario; the default injects nothing and
    #: reproduces the fault-free run bit for bit.
    faults: FaultScenario = field(default_factory=FaultScenario.none)
    #: Sensor-corruption scenario (telemetry that arrives but lies); the
    #: default corrupts nothing and reproduces the clean run bit for bit.
    corruption: CorruptionScenario = field(default_factory=CorruptionScenario.none)
    #: Telemetry-integrity defense (validation + trust/quarantine +
    #: meter cross-check); ``None`` disables it, which is the undefended
    #: setting corruption benchmarks compare against.
    integrity: IntegrityConfig | None = None
    #: Controller crash-recovery layer (journal + failover + fencing);
    #: disabled by default, which reproduces the single-manager run bit
    #: for bit.
    ha: HaConfig = field(default_factory=HaConfig)
    #: Observability layer (:mod:`repro.obs`): cycle tracing, metric
    #: registry, flight recorder.  Off by default; enabling it never
    #: changes any capping decision, only records them.
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Power-delivery fault scenario (:mod:`repro.provision`); the
    #: default configures a healthy delivery path and — unless
    #: ``attach_provision`` forces the topology on — attaches nothing,
    #: reproducing the seed run bit for bit.
    provision: ProvisionScenario = field(default_factory=ProvisionScenario.none)
    #: Attach the delivery topology/runtime even when the scenario is
    #: healthy (used to prove the healthy attach changes no decision).
    attach_provision: bool = False
    #: Hot-path engine: "vector" (SoA production path) or "object" (the
    #: paper-literal per-node reference).  Bit-identical by construction;
    #: the differential equivalence suite enforces it.
    engine: str = "vector"

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.engine not in available_engines():
            raise ConfigurationError(
                f"engine must be one of {available_engines()}, got {self.engine!r}"
            )
        if self.control_period_s <= 0:
            raise ConfigurationError("control period must be positive")
        if self.runtime_scale <= 0:
            raise ConfigurationError("runtime_scale must be positive")
        if self.training_duration_s <= 0 or self.run_duration_s <= 0:
            raise ConfigurationError("durations must be positive")
        if self.steady_green_cycles < 1:
            raise ConfigurationError("T_g must be >= 1")
        if not 0.0 < self.provision_fraction < 1.5:
            raise ConfigurationError("provision_fraction out of range")
        if self.scheduler not in ("fcfs", "backfill"):
            raise ConfigurationError(
                f"scheduler must be 'fcfs' or 'backfill', got {self.scheduler!r}"
            )
        if not self.ha.enabled and (
            self.faults.controller_crash_rate > 0.0 or self.ha.crash_at_cycles
        ):
            raise ConfigurationError(
                "controller crashes are configured but the HA layer is "
                "disabled: enable ExperimentConfig.ha or the run would "
                "simply lose its manager"
            )

    @property
    def effective_modulation_tau_s(self) -> float:
        """Modulation correlation time, scaled from the runtime scale.

        Derived as 400 s × runtime_scale clamped to [20 s, 400 s]:
        excursions last minutes at paper scale and shrink with the
        compression so a compressed run sees a similar *number* of
        excursions per job."""
        return float(min(400.0, max(20.0, 400.0 * self.runtime_scale)))

    @classmethod
    def quick(cls, **overrides) -> "ExperimentConfig":
        """A seconds-scale configuration for tests and smoke runs."""
        base = cls(
            runtime_scale=0.02,
            training_duration_s=600.0,
            run_duration_s=900.0,
            adjust_every_cycles=300,
        )
        return replace(base, **overrides)

    @classmethod
    def calibrated(cls, **overrides) -> "ExperimentConfig":
        """The configuration the benchmark suite runs: 2 h training +
        1.5 h evaluation at quarter-scale runtimes.  This is the smallest
        setting whose results sit inside the paper's reported bands (see
        EXPERIMENTS.md).  One run takes about 0.4 s of wall clock
        uncapped and 1.3 s under MPC (one core of a 2-vCPU VM, Python
        3.11, numpy 2.4)."""
        base = cls(
            runtime_scale=0.25,
            training_duration_s=7200.0,
            run_duration_s=5400.0,
        )
        return replace(base, **overrides)

    @classmethod
    def paper(cls, **overrides) -> "ExperimentConfig":
        """The paper's full protocol (24 h training + 12 h run at full
        runtimes).  Hours of simulated time — minutes of wall clock."""
        base = cls(
            runtime_scale=1.0,
            training_duration_s=24 * 3600.0,
            run_duration_s=12 * 3600.0,
        )
        return replace(base, **overrides)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produced.

    Attributes:
        label: Policy name or "uncapped".
        config: The configuration that produced the run.
        training_peak_w: Peak power recorded during training.
        provision_w: ``P_th`` used by ΔP×T.
        times: Main-window sample times (one per control period).
        power_w: Ground-truth total power at those times.
        finished_jobs: Jobs that completed inside the main window.
        metrics: The §V.C metric bundle for the main window.
        p_low_w / p_high_w: Thresholds in force at the end of the run.
        state_cycles: Cycles spent green/yellow/red (empty when
            unmanaged).
        management_cpu: Modelled Figure 5 management-node utilisation
            (0 when unmanaged).
        commands_sent: DVFS commands issued (0 when unmanaged).
        entered_red: Whether any cycle classified red.
        peak_temperature_c: Hottest node temperature over the main
            window (None unless ``track_thermal``).
        expected_failures: Integrated expected node-failure count over
            the main window (None unless ``track_thermal``).
        fault_stats: Aggregate fault/degraded-mode accounting (None
            unless the run injected faults).
        degraded_flags: Per-cycle degraded-sensing flag series aligned
            with ``times`` (None unless the run injected faults).
        ha_stats: Crash/failover accounting (None unless the run had
            the HA layer enabled).
        controlled_flags: Per-cycle flag series aligned with ``times``:
            1.0 when a manager completed the cycle, 0.0 for controller
            crash/downtime cycles (None unless HA was enabled).
        true_power_w: Ground-truth total power aligned with ``times``
            (None unless the run configured corruption or the integrity
            defense); for those runs ``power_w`` is what the controller
            *acted on*, and the run's metrics are graded against this
            ground truth instead.
        observability: The run's :class:`~repro.obs.Observability`
            facade — spans, metrics and flight dumps, already exported
            to any configured paths (None unless ``config.obs`` enabled
            something).
        provision_stats: Power-delivery accounting — capacity events,
            breaker trips, emergency-ladder actions (None unless the
            run attached a provision runtime).
    """

    label: str
    config: ExperimentConfig
    training_peak_w: float
    provision_w: float
    times: np.ndarray
    power_w: np.ndarray
    finished_jobs: list[Job]
    metrics: RunMetrics
    p_low_w: float
    p_high_w: float
    state_cycles: dict[str, int]
    management_cpu: float
    commands_sent: int
    entered_red: bool
    peak_temperature_c: float | None = None
    expected_failures: float | None = None
    fault_stats: FaultStats | None = None
    degraded_flags: np.ndarray | None = None
    ha_stats: HaStats | None = None
    controlled_flags: np.ndarray | None = None
    true_power_w: np.ndarray | None = None
    observability: Observability | None = None
    provision_stats: ProvisionStats | None = None


#: The most control periods one unmanaged step covers; it bounds the
#: ``(ticks, N)`` arrays a step holds.
BLOCK_TICKS = 512

#: Cluster-wide correlated load-modulation strength (see
#: :class:`repro.workload.executor.JobExecutor`); this is what makes
#: power show occasional excursions above the thresholds.
MODULATION_STD = 0.12


class _World:
    """A fresh simulated world: cluster + scheduler + stream + model."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        #: The run's observability facade (None when everything is off,
        #: so un-instrumented paths stay exactly as before).
        self.obs: Observability | None = (
            Observability(config.obs) if config.obs.enabled else None
        )
        self.rng = RandomSource(seed=config.seed)
        self.cluster = Cluster.tianhe_1a(
            num_nodes=config.num_nodes, engine=config.engine
        )
        if config.privileged_nodes:
            self.cluster.set_privileged_nodes(np.asarray(config.privileged_nodes))
        self.model = make_power_model(self.cluster)
        self.generator = RandomJobGenerator(
            self.rng.stream("workload.generator"),
            runtime_scale=config.runtime_scale,
            priority_choices=config.priority_choices,
        )
        generator = self.generator
        executor = JobExecutor(
            self.cluster.state,
            self.rng.stream("workload.executor"),
            modulation_std=MODULATION_STD,
            modulation_tau_s=config.effective_modulation_tau_s,
            engine=self.cluster.engine,
        )
        scheduler_cls = (
            BackfillScheduler if config.scheduler == "backfill" else BatchScheduler
        )
        self.scheduler = scheduler_cls(
            self.cluster, executor, KeepQueueFilledFeeder(generator), obs=self.obs
        )
        self.now = 0.0

    def tick(self) -> float:
        """Advance one control period; returns the new simulated time."""
        dt = self.config.control_period_s
        self.now += dt
        self.scheduler.tick(self.now, dt)
        return self.now

    def advance(self, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Advance the unmanaged world by one scheduler step: every
        control period up to the next job event, at most
        :data:`BLOCK_TICKS` of them and none past ``end``.

        With no manager attached no DVFS level changes, so while the
        scheduler is quiet the periods up to the next job finish are
        one block of the executor's (see
        :meth:`~repro.scheduler.scheduler.BatchScheduler.tick_block`).
        The times advance by sequential ``+= dt`` as :meth:`tick` does.

        Returns:
            The periods' end times ``(ticks,)`` and each period's
            per-node power ``(ticks, N)``, bit for bit what
            :meth:`tick` followed by ``model.node_power`` gives.
        """
        dt = self.config.control_period_s
        steps = np.full(BLOCK_TICKS + 1, dt)
        steps[0] = self.now
        times = np.add.accumulate(steps)[1:]
        times = times[: np.count_nonzero(times <= end + 1e-9)]
        block = self.scheduler.tick_block(times, dt)
        ticks = block.ticks
        self.now = float(times[ticks - 1])
        # The last tick draws what the state now holds (finishers
        # released, new starts not yet loaded).  Before it, every node
        # but the block's running ones held that same load.
        state = self.cluster.state
        node_power = np.repeat(self.model.node_power(state)[None, :], ticks, 0)
        if ticks > 1:
            ids = block.node_ids
            node_power[:-1, ids] = self.model.evaluate_for_nodes(
                ids,
                state.level[ids],
                block.cpu_util[:-1],
                block.mem_frac[:-1],
                block.nic_frac[:-1],
            )
        return times[:ticks], node_power

    def true_power(self) -> float:
        return self.model.system_power(self.cluster.state)


def _run_unmanaged(
    world: _World,
    end: float,
    on_node_power: Callable[[np.ndarray], None] | None = None,
) -> tuple[list[float], list[float]]:
    """Run the world with no manager attached until ``end``.

    This is the training period and the uncapped baseline's main window.
    ``on_node_power`` sees each period's per-node power in turn.

    Returns:
        Each control period's end time and total power.
    """
    dt = world.config.control_period_s
    times: list[float] = []
    power: list[float] = []
    while world.now + dt <= end + 1e-9:
        ticks, node_power = world.advance(end)
        times.extend(ticks.tolist())
        power.extend(canonical_power_sums(node_power).tolist())
        if on_node_power is not None:
            for row in node_power:
                on_node_power(row)
    return times, power


def _run_training(world: _World) -> float:
    """Run the unmanaged training period; return the recorded peak."""
    _, power = _run_unmanaged(world, world.config.training_duration_s)
    return max([0.0, *power])


def run_experiment(
    config: ExperimentConfig,
    policy: str | SelectionPolicy | None,
    label: str | None = None,
    manager_factory: type[PowerManager] | None = None,
) -> ExperimentResult:
    """Run the full §V.C protocol once.

    Args:
        config: The experiment configuration.
        policy: Policy name (see :func:`repro.core.policies.make_policy`),
            a pre-built policy instance, or ``None`` for the unmanaged
            baseline.
        label: Report label; defaults to the policy name or "uncapped".
        manager_factory: Manager class to instantiate (defaults to the
            paper's :class:`~repro.core.manager.PowerManager`); pass a
            baseline controller from :mod:`repro.core.baselines` to run
            a related-work comparison on the identical protocol.

    Returns:
        The run's :class:`ExperimentResult`.
    """
    world = _World(config)
    training_peak = _run_training(world)
    provision_w = config.provision_fraction * training_peak

    # Sanity: the provision must satisfy the §II.D assumptions.
    PowerProvision(capability_w=provision_w).check_assumptions(world.cluster)

    injected = config.faults.enabled or config.corruption.enabled
    manager: PowerManager | None = None
    ha: HaController | None = None
    if policy is not None:
        if isinstance(policy, str):
            kwargs = {}
            if policy == "random":
                kwargs["rng"] = world.rng.stream("policy.random")
            elif policy == "sla":
                kwargs["priority_of"] = world.generator.priority_of
            policy_obj = make_policy(policy, **kwargs)
        else:
            policy_obj = policy
        sets = (
            NodeSets(world.cluster)
            if config.candidate_size is None
            else NodeSets.select(world.cluster, config.candidate_size)
        )
        meter = SystemPowerMeter(world.model, world.cluster.state)
        factory = PowerManager if manager_factory is None else manager_factory
        manager_kwargs: dict[str, Any] = {"obs": world.obs}
        if injected:
            manager_kwargs["fault_injector"] = FaultInjector(
                config.faults,
                world.rng,
                num_nodes=config.num_nodes,
                corruption=(
                    config.corruption if config.corruption.enabled else None
                ),
                obs=world.obs,
            )
        if config.integrity is not None:
            manager_kwargs["integrity"] = config.integrity
        if config.provision.enabled or config.attach_provision:
            topology = PowerTopology.for_cluster(
                world.cluster,
                nodes_per_rack=config.provision.nodes_per_rack,
                rack_headroom=config.provision.rack_headroom,
            )
            # §II.D, branch edition: a rack that overloads its breaker
            # even fully throttled can never be defended.
            topology.check_assumptions(world.cluster)
            manager_kwargs["provision"] = ProvisionRuntime(
                topology,
                config.provision,
                rng=world.rng,
                obs=world.obs,
            )
            manager_kwargs["scheduler"] = world.scheduler
        journal: StateJournal | None = None
        if config.ha.enabled:
            # HA wiring: the actuator and journal outlive any single
            # manager incarnation (in-flight commands are in the
            # network; the journal is the recovery source).
            journal = StateJournal()
            manager_kwargs["actuator"] = DvfsActuator(
                world.cluster.state,
                manager_kwargs.get("fault_injector"),
                obs=world.obs,
            )
            manager_kwargs["journal"] = journal

        def make_manager() -> PowerManager:
            # Every incarnation gets a *fresh* threshold controller and
            # collector: a successor's learned state comes from the
            # journal, not from here.
            return factory(
                world.cluster,
                sets,
                meter,
                ThresholdController.from_training(
                    training_peak,
                    margin_high=config.margin_high,
                    margin_low=config.margin_low,
                    adjust_every_cycles=config.adjust_every_cycles,
                ),
                policy_obj,
                steady_green_cycles=config.steady_green_cycles,
                **manager_kwargs,
            )

        manager = make_manager()
        if journal is not None:
            ha = HaController(
                manager, make_manager, journal, config.ha, obs=world.obs
            )
    controller = manager if ha is None else ha

    # Main window.
    window_start = world.now
    window_end = window_start + config.run_duration_s
    jobs_before = {j.job_id for j in world.scheduler.finished_jobs}
    track_node_power: Callable[[np.ndarray], None] | None = None
    reliability: ReliabilityTracker | None = None
    if config.track_thermal:
        thermal = ThermalModel(config.num_nodes)
        thermal.settle(world.model.node_power(world.cluster.state))
        tracker = reliability = ReliabilityTracker()

        def step_thermal(node_power: np.ndarray) -> None:
            temps = thermal.step(node_power, config.control_period_s)
            tracker.accumulate(temps, config.control_period_s)

        track_node_power = step_thermal
    track_truth = config.corruption.enabled or config.integrity is not None
    truth: list[float] = []
    degraded: list[float] = []
    controlled: list[float] = []
    if controller is None:
        times, power = _run_unmanaged(world, window_end, track_node_power)
        truth = power
    else:
        times, power = [], []
        while world.now + config.control_period_s <= window_end + 1e-9:
            now = world.tick()
            if track_truth:
                truth.append(world.true_power())
            report = controller.control_cycle(now)
            times.append(now)
            if report is None:
                # Controller down: nobody sensed, so the recorded value
                # is the ground truth the dead manager never saw.
                power.append(world.true_power())
                controlled.append(0.0)
            else:
                power.append(report.power_w)
                controlled.append(1.0)
                degraded.append(1.0 if report.degraded else 0.0)
            if track_node_power is not None:
                track_node_power(world.model.node_power(world.cluster.state))

    if world.obs is not None:
        # End-of-run trigger: the flight recorder's last-N window, then
        # every configured output file.
        world.obs.trip("run_end", world.now)
        world.obs.export()

    finished = [
        j
        for j in world.scheduler.finished_jobs
        if j.job_id not in jobs_before
    ]
    t_arr = np.asarray(times)
    p_arr = np.asarray(power)
    run_label = label or (
        "uncapped" if manager is None else getattr(manager.policy, "name", "custom")
    )
    # Corruption runs are graded on ground truth: ``p_arr`` is whatever
    # the (possibly lied-to) controller acted on, and a byzantine meter
    # would otherwise grade its own lie as a perfect run.
    metrics = RunMetrics.evaluate(
        run_label,
        t_arr,
        np.asarray(truth) if track_truth else p_arr,
        finished,
        provision_w,
    )
    if ha is not None:
        # Failovers may have replaced the primary; report the
        # incarnation that finished the run (its counters include
        # everything the journal carried across takeovers).
        manager = ha.manager
    return ExperimentResult(
        label=run_label,
        config=config,
        training_peak_w=training_peak,
        provision_w=provision_w,
        times=t_arr,
        power_w=p_arr,
        finished_jobs=finished,
        metrics=metrics,
        p_low_w=(
            (1.0 - config.margin_low) * training_peak
            if manager is None
            else manager.thresholds.p_low
        ),
        p_high_w=(
            (1.0 - config.margin_high) * training_peak
            if manager is None
            else manager.thresholds.p_high
        ),
        state_cycles=(
            {}
            if manager is None
            else {s.value: manager.state_count(s) for s in PowerState}
        ),
        management_cpu=(
            0.0
            if manager is None
            else float(cpu_utilization(manager.collector.size))
        ),
        commands_sent=0 if manager is None else manager.actuator.commands_sent,
        entered_red=manager is not None and manager.ever_entered_red(),
        peak_temperature_c=(
            None if reliability is None else reliability.peak_temperature_c
        ),
        expected_failures=(
            None if reliability is None else reliability.expected_failures
        ),
        fault_stats=None if manager is None else manager.fault_report(),
        # Downtime cycles sense nothing, so their flags cannot be
        # aligned with the run's time axis.
        degraded_flags=(
            np.asarray(degraded)
            if injected and len(degraded) == len(times)
            else None
        ),
        ha_stats=None if ha is None else ha.stats(),
        controlled_flags=None if ha is None else np.asarray(controlled),
        true_power_w=np.asarray(truth) if track_truth else None,
        observability=world.obs,
        provision_stats=None if manager is None else manager.provision_report(),
    )
