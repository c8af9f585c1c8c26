"""Whole-program flow rules (RL5xx): taint-tracked trust boundaries.

These rules run on the project model, not on a single file.  The
architecture's safety argument rests on values crossing specific
checkpoints — raw telemetry must pass the integrity layer before it can
teach thresholds (RL501), every actuation's outcome must be looked at
(RL502), a named RNG substream belongs to one domain (RL503), and
simulated time never mixes with host time (RL504).  A refactor can break
any of these *across* module boundaries while every individual file
still lints clean; the :class:`FlowAnalyzer` closes that gap by
evaluating the per-file taint summaries against the project's call
graph.

The **policy** below is the single place that says what is a source,
a sanitizer, or a sink; the engine underneath
(:mod:`tools.reprolint.dataflow` / :mod:`tools.reprolint.summaries`) is
rule-agnostic.  ``docs/static-analysis.md`` carries the full tables and
a walkthrough for adding a new flow rule.
"""

from __future__ import annotations

from tools.reprolint.diagnostics import Diagnostic, Rule, Severity
from tools.reprolint.project import ProjectModel
from tools.reprolint.summaries import ModuleIR, SummaryEvaluator, Value

# ----------------------------------------------------------------------
# RL501 policy: untrusted telemetry → threshold learning / budget checks
# ----------------------------------------------------------------------
#: Taint sources: calls that produce raw (possibly byzantine) readings.
_TELEMETRY_SOURCES = {
    "repro.power.meter.SystemPowerMeter.read": "telemetry.meter",
    "repro.telemetry.agent.AgentPool.sample_arrays": "telemetry.raw",
}

#: Sanitizers: the integrity layer launders its outputs, and the
#: collector's sweep is trusted egress (it validates internally and its
#: snapshots carry explicit honesty signals).
_SANITIZER_PREFIXES = ("repro.telemetry.integrity.",)
_SANITIZERS = frozenset(
    {"repro.telemetry.collector.TelemetryCollector.collect"}
)

#: Sinks: (canonical callable → parameter index, 0-based past the
#: receiver) where a raw reading poisons learned state or a budget
#: comparison.
_TELEMETRY_SINKS = {
    "repro.core.thresholds.ThresholdController.observe": 0,
    "repro.core.states.classify_power_state": 0,
}

_TELEMETRY_KINDS = frozenset({"telemetry.meter", "telemetry.raw"})

# ----------------------------------------------------------------------
# RL502 policy: actuation results that must be looked at
# ----------------------------------------------------------------------
_ACTUATION_CALLS = frozenset(
    {
        "repro.core.actuator.DvfsActuator.apply",
        "repro.core.actuator.DvfsActuator.release",
    }
)

# ----------------------------------------------------------------------
# RL503 policy: RNG substream custody
# ----------------------------------------------------------------------
_STREAM_CALL = "repro.sim.random.RandomSource.stream"

#: Stream-name prefix → packages allowed to consume that substream.
#: Unlisted prefixes default to ``repro.<prefix>``.  Stream names are
#: part of the seeding contract (draws are keyed by name), so the
#: registry grandfathers the existing names rather than renaming them.
_CUSTODY = {
    "faults": ("repro.faults", "repro.provision"),
    "policy": ("repro.core.policies",),
    "candidate": ("repro.core.sets",),
    "meter": ("repro.power",),
}

#: Generator methods that consume randomness (draw sites).
_DRAW_METHODS = frozenset(
    {
        "random",
        "normal",
        "standard_normal",
        "uniform",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "exponential",
        "poisson",
        "lognormal",
        "gamma",
        "beta",
        "binomial",
        "geometric",
    }
)

# ----------------------------------------------------------------------
# RL504 policy: sim time vs host time
# ----------------------------------------------------------------------
_HOST_TIME_CALLS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

#: (canonical type, attribute) pairs that read the simulated clock.
_SIM_TIME_ATTRS = frozenset(
    {
        ("repro.telemetry.collector.TelemetrySnapshot", "time"),
    }
)


def _custody_tokens(prefix: str) -> frozenset:
    """Module-path components compatible with a stream-name prefix."""
    allowed = _CUSTODY.get(prefix, (f"repro.{prefix}",))
    tokens = {prefix}
    for pkg in allowed:
        tokens.add(pkg.rsplit(".", 1)[-1])
    return frozenset(tokens)


def _custody_ok(prefix: str, module_name: str) -> bool:
    components = set(module_name.split(".")) - {"repro"}
    return bool(_custody_tokens(prefix) & components)


class ReproFlowPolicy:
    """The repo's trust-boundary tables, in :class:`FlowPolicy` shape."""

    def __init__(self, project: ProjectModel) -> None:
        self._project = project

    def call_source(self, canonical: str, args: tuple) -> frozenset:
        kind = _TELEMETRY_SOURCES.get(canonical)
        if kind is not None:
            return frozenset({kind})
        if canonical in _HOST_TIME_CALLS:
            return frozenset({"time.host"})
        return frozenset()

    def attr_source(self, type_name: str, attr: str) -> frozenset:
        canonical = self._project.canonical(type_name)
        if (canonical, attr) in _SIM_TIME_ATTRS:
            return frozenset({"time.sim"})
        return frozenset()

    def is_sanitizer(self, canonical: str) -> bool:
        return canonical in _SANITIZERS or canonical.startswith(
            _SANITIZER_PREFIXES
        )

    def propagates(self, canonical: str) -> bool:
        # Unknown callables (builtins, numpy, helper objects we cannot
        # type) conservatively forward their arguments' taint.
        return True


def _stream_names(value: Value, project: ProjectModel) -> set:
    """Stream names minted by ``RandomSource.stream`` atop ``value``.

    Only *top-level* stream atoms count: a stream nested inside another
    call's arguments was consumed by that call (e.g. a generator object
    constructed around it), so the object being passed is no longer the
    substream itself and custody stays with the consumer.
    """
    names: set = set()
    for atom in value:
        if (
            atom[0] == "call"
            and project.canonical(atom[1]) == _STREAM_CALL
            and len(atom[2]) > 1
        ):
            for lit in atom[2][1]:
                if lit[0] == "lit":
                    names.add(lit[1])
    return names


class FlowAnalyzer:
    """RL501–RL504 over a :class:`ProjectModel`.

    :meth:`analyze` returns diagnostics *before* suppression filtering;
    the runner filters them against each module's suppressions so it can
    also account for suppression usage (``--warn-unused-suppressions``).
    """

    rules = (
        Rule(
            "RL501",
            "untrusted-telemetry-flow",
            Severity.ERROR,
            "raw telemetry reaches threshold learning or a budget check",
            "A meter reading or agent sample that skips the integrity "
            "layer can poison learned thresholds for every later cycle; "
            "byzantine inputs must cross repro.telemetry.integrity first.",
        ),
        Rule(
            "RL502",
            "unchecked-actuation-report",
            Severity.ERROR,
            "DvfsActuator.apply/release result is discarded",
            "A dropped ActuationReport (or release write-count) silently "
            "swallows fencing rejections and lost commands; every "
            "actuation outcome must reach a status check or counter.",
        ),
        Rule(
            "RL503",
            "rng-substream-custody",
            Severity.ERROR,
            "RNG substream used outside the domain it was minted for",
            "Substreams are independence domains keyed by name; a "
            "stream drawn from two domains couples their randomness and "
            "breaks composition-insensitive reproducibility.",
        ),
        Rule(
            "RL504",
            "sim-time-purity",
            Severity.ERROR,
            "simulated time mixed with a host-derived quantity",
            "Sim-clock values and host-clock values live on different "
            "timelines; arithmetic across them is meaningless and "
            "breaks bit-identical replay.",
        ),
    )

    def __init__(self) -> None:
        self._by_id = {rule.rule_id: rule for rule in self.rules}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def analyze(
        self, project: ProjectModel, targets: frozenset | None = None
    ) -> list[Diagnostic]:
        """Every RL5xx finding in ``project``.

        Args:
            project: The whole-program model (may include context
                modules beyond the lint targets).
            targets: Paths to report on; ``None`` reports on every
                module in the project.
        """
        policy = ReproFlowPolicy(project)
        evaluator = SummaryEvaluator(project, policy)
        sink_params = self._sink_param_fixpoint(project, evaluator)
        found: dict[tuple, Diagnostic] = {}
        for ir in project.modules():
            if targets is not None and ir.path not in targets:
                continue
            for diag in self._check_module(ir, project, evaluator, sink_params):
                key = (diag.line, diag.column, diag.rule_id, diag.message)
                found[(ir.path,) + key] = diag
        return sorted(found.values())

    # ------------------------------------------------------------------
    # RL501 sink-parameter fixpoint over the call graph
    # ------------------------------------------------------------------
    def _sink_param_fixpoint(
        self, project: ProjectModel, evaluator: SummaryEvaluator
    ) -> dict:
        """Functions whose parameters flow (transitively) into a sink.

        Starts from the declared sink table and iterates: if function
        ``F`` passes its parameter ``j`` into a known sink parameter,
        then ``F``'s parameter ``j`` is itself a sink parameter for
        ``F``'s callers.  Converges because the map only grows.
        """
        sink_params: dict = {
            canon: {idx} for canon, idx in sorted(_TELEMETRY_SINKS.items())
        }
        for _ in range(len(project.modules()) + 2):
            changed = False
            for ir in project.modules():
                for fname, fir in sorted(ir.functions.items()):
                    if fname == "<module>":
                        continue
                    own = f"{ir.module_name}.{fname}"
                    for call in fir.calls:
                        canon = project.canonical(call.qualname)
                        params = sink_params.get(canon)
                        if not params or canon == own:
                            continue
                        for idx in sorted(params):
                            if idx + 1 >= len(call.args):
                                continue
                            reached = evaluator.param_indices(
                                call.args[idx + 1]
                            )
                            for j in sorted(reached):
                                mine = sink_params.setdefault(own, set())
                                if j not in mine:
                                    mine.add(j)
                                    changed = True
            if not changed:
                break
        return sink_params

    # ------------------------------------------------------------------
    # Per-module rule evaluation
    # ------------------------------------------------------------------
    def _check_module(
        self,
        ir: ModuleIR,
        project: ProjectModel,
        evaluator: SummaryEvaluator,
        sink_params: dict,
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for _, fir in sorted(ir.functions.items()):
            for call in fir.calls:
                canon = project.canonical(call.qualname)
                diagnostics.extend(
                    self._check_telemetry_sink(
                        ir, canon, call, evaluator, sink_params
                    )
                )
                diagnostics.extend(self._check_actuation(ir, canon, call))
                diagnostics.extend(
                    self._check_custody(ir, canon, call, project)
                )
            for mix in fir.mixes:
                diagnostics.extend(self._check_time_mix(ir, mix, evaluator))
        return diagnostics

    def _check_telemetry_sink(
        self, ir, canon, call, evaluator, sink_params
    ) -> list[Diagnostic]:
        params = sink_params.get(canon)
        if not params:
            return []
        out = []
        for idx in sorted(params):
            if idx + 1 >= len(call.args):
                continue
            kinds = evaluator.concrete(call.args[idx + 1])
            bad = kinds & _TELEMETRY_KINDS
            if not bad:
                continue
            origin = (
                "meter reading" if "telemetry.meter" in bad else "agent sample"
            )
            out.append(
                self._emit(
                    ir,
                    call.line,
                    call.col,
                    "RL501",
                    f"raw {origin} reaches {canon} (argument {idx + 1}) "
                    "without passing repro.telemetry.integrity; screen it "
                    "before it can teach thresholds or gate the budget",
                )
            )
        return out

    def _check_actuation(self, ir, canon, call) -> list[Diagnostic]:
        if canon not in _ACTUATION_CALLS or call.result_used:
            return []
        short = canon.rsplit(".", 1)[-1]
        return [
            self._emit(
                ir,
                call.line,
                call.col,
                "RL502",
                f"result of DvfsActuator.{short}() is discarded; a fenced "
                "or lost actuation would vanish silently — check the "
                "report (or written count) or feed the retry ladder",
            )
        ]

    def _check_custody(self, ir, canon, call, project) -> list[Diagnostic]:
        out = []
        # (a) Draw sites: the receiver carries a named substream.
        method = call.qualname.rsplit(".", 1)[-1]
        if method in _DRAW_METHODS and call.args:
            for name in sorted(_stream_names(call.args[0], project)):
                prefix = name.split(".", 1)[0]
                if not _custody_ok(prefix, ir.module_name):
                    out.append(
                        self._emit(
                            ir,
                            call.line,
                            call.col,
                            "RL503",
                            f'substream "{name}" (domain "{prefix}") drawn '
                            f"in {ir.module_name}, outside its custody "
                            "domain; mint a stream named for this domain "
                            "instead",
                        )
                    )
        # (b) Handing a substream to a project callee in a foreign domain.
        callee_mod, _ = project.split_module(canon)
        if callee_mod is not None and callee_mod != ir.module_name:
            for i, arg in enumerate(call.args):
                if i == 0:
                    continue
                for name in sorted(_stream_names(arg, project)):
                    prefix = name.split(".", 1)[0]
                    if not _custody_ok(prefix, callee_mod):
                        out.append(
                            self._emit(
                                ir,
                                call.line,
                                call.col,
                                "RL503",
                                f'substream "{name}" (domain "{prefix}") '
                                f"passed to {canon} in {callee_mod}, "
                                "outside its custody domain",
                            )
                        )
        return out

    def _check_time_mix(self, ir, mix, evaluator) -> list[Diagnostic]:
        left = evaluator.concrete(mix.left)
        right = evaluator.concrete(mix.right)
        crossed = ("time.sim" in left and "time.host" in right) or (
            "time.host" in left and "time.sim" in right
        )
        if not crossed:
            return []
        return [
            self._emit(
                ir,
                mix.line,
                mix.col,
                "RL504",
                "simulated-clock value mixed with a host-clock value in "
                "arithmetic/comparison; the two timelines are not "
                "commensurable",
            )
        ]

    def _emit(
        self, ir: ModuleIR, line: int, col: int, rule_id: str, message: str
    ) -> Diagnostic:
        rule = self._by_id[rule_id]
        return Diagnostic(
            path=ir.path,
            line=line,
            column=col,
            rule_id=rule_id,
            severity=rule.severity,
            message=message,
        )
