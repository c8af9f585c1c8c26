"""Absolute result pins: every manager layer, digested.

The equivalence matrix compares the vector engine with the object
engine, and both run the same :class:`~repro.core.manager.PowerManager`:
a manager change that moved a decision would move both and still pass.
This golden pins results absolutely instead.  Each cell is one seeded
``run_experiment`` on a small world; its digest is
:func:`tests.equivalence.harness.fingerprint` of every
``ExperimentResult`` field except ``config`` and ``observability``.  The
obs cell also digests the trace, metrics and flight files it exports.

Every cell also asserts that the mechanism it is in the matrix for
fired, so a digest can never pin a path the run did not take.

Digests depend on numpy's floating-point kernels, so they are stored
under numpy's ``major.minor`` and compared only under it (another
version skips).  On a mismatch the test prints the whole new file; paste
it over ``tests/golden/result_digests.json`` only for a deliberate
change of results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable
from unittest import mock

import numpy as np
import pytest

from repro import ExperimentConfig, ObsConfig, run_experiment
from repro.experiments.common import ExperimentResult
from repro.faults import CorruptionScenario, FaultScenario
from repro.ha import HaConfig
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig
from tests.equivalence.harness import fingerprint

GOLDEN_PATH = Path(__file__).resolve().parent / "result_digests.json"
NUMPY_KEY = ".".join(np.__version__.split(".")[:2])
POLICIES = ("mpc", "hri-c")
CRASH_CYCLE = 100

_BREAKER_UNDEFENDED = ProvisionScenario.preset(
    "breaker-stress", defend=False, pdu_failure_at_cycle=10
)


def _faults(result: ExperimentResult) -> Any:
    assert result.fault_stats is not None
    return result.fault_stats


def _prov(result: ExperimentResult) -> Any:
    assert result.provision_stats is not None
    return result.provision_stats


def _ha(result: ExperimentResult) -> Any:
    assert result.ha_stats is not None
    return result.ha_stats


Check = Callable[[ExperimentResult], bool]

#: Cell → (``ExperimentConfig`` overrides, whether the cell runs
#: managed, the mechanism it is there for).
CELLS: dict[str, tuple[dict[str, Any], bool, Check]] = {
    "uncapped": ({}, False, lambda r: r.state_cycles == {}),
    "clean": ({}, True, lambda r: r.fault_stats is None and r.commands_sent > 0),
    "faults-light": (
        {"faults": FaultScenario.preset("light")},
        True,
        lambda r: _faults(r).dropped_samples > 0,
    ),
    "faults-heavy": (
        {"faults": FaultScenario.preset("heavy")},
        True,
        lambda r: _faults(r).estimated_power_cycles > 0,
    ),
    "faults-dropout": (
        {"faults": FaultScenario(telemetry_dropout=0.6)},
        True,
        lambda r: _faults(r).forced_red_cycles > 0,
    ),
    "faults-controller-crash": (
        {"faults": FaultScenario.preset("controller-crash"), "ha": HaConfig.warm()},
        True,
        lambda r: _ha(r).crashes > 0 and _ha(r).failovers > 0,
    ),
    **{
        f"integrity-{name}": (
            {
                "corruption": CorruptionScenario.preset(name),
                "integrity": IntegrityConfig(),
            },
            True,
            (
                (lambda r: _faults(r).meter_distrusted_cycles > 0)
                if name == "byzantine-meter"
                else (lambda r: _faults(r).corrupted_samples > 0)
                if name == "gain-error"
                else (lambda r: _faults(r).quarantine_entries > 0)
            ),
        )
        for name in CorruptionScenario.preset_names()
        if name != "none"
    },
    "stuck-at-undefended": (
        {"corruption": CorruptionScenario.preset("stuck-at")},
        True,
        lambda r: _faults(r).corrupted_samples > 0
        and _faults(r).quarantine_entries == 0,
    ),
    **{
        f"provision-{name}": (
            {"provision": ProvisionScenario.preset(name), "attach_provision": True},
            True,
            (
                (
                    lambda r: _prov(r).branch_cap_interventions > 0
                    and _prov(r).emergency_red_cycles > 0
                    and _prov(r).envelope_renegotiations > 0
                    and _prov(r).jobs_suspended > 0
                )
                if name == "grid-storm"
                else (lambda r: r.provision_stats is not None)
            ),
        )
        for name in ProvisionScenario.preset_names()
        if name != "none"
    },
    # No preset reaches the ladder's last rung; a one-cycle escalation
    # with a near-empty suspend budget (``PATCHES``) sheds nodes.
    "provision-shed": (
        {"provision": ProvisionScenario.preset("grid-storm"), "attach_provision": True},
        True,
        lambda r: _prov(r).nodes_shed > 0,
    ),
    "breaker-undefended": (
        {"provision": _BREAKER_UNDEFENDED, "attach_provision": True},
        True,
        lambda r: _prov(r).breaker_trips > 0 and _prov(r).jobs_killed > 0,
    ),
    "ha-warm": (
        {"ha": HaConfig.warm(crash_at_cycles=(CRASH_CYCLE,))},
        True,
        lambda r: _ha(r).warm_failovers == 1,
    ),
    "ha-cold": (
        {"ha": HaConfig.restart_only(crash_at_cycles=(CRASH_CYCLE,))},
        True,
        lambda r: _ha(r).cold_restarts == 1,
    ),
    "everything": (
        {
            "faults": FaultScenario.preset("light"),
            "corruption": CorruptionScenario.preset("stuck-at"),
            "integrity": IntegrityConfig(),
            "provision": ProvisionScenario.preset("grid-storm"),
            "attach_provision": True,
            "ha": HaConfig.warm(crash_at_cycles=(CRASH_CYCLE,)),
        },
        True,
        lambda r: _ha(r).warm_failovers == 1
        and _faults(r).quarantine_entries > 0
        and _prov(r).emergency_red_cycles > 0,
    ),
}

#: Cell → module constants the cell patches for its run:
#: the states no configuration reaches.
PATCHES: dict[str, dict[str, Any]] = {
    "provision-shed": {
        "repro.provision.emergency.ESCALATE_AFTER_CYCLES": 1,
        "repro.provision.emergency.MAX_SUSPEND_FRACTION": 0.05,
    },
    # Breakers that trip in 2 s, on a PDU that keeps 30% of its rating.
    "breaker-undefended": {
        "repro.power.thermal.TRIP_TIME_S": 2.0,
        "repro.provision.runtime.PDU_DERATE_FRACTION": 0.3,
    },
}

_EXCLUDED = frozenset({"config", "observability"})


def _config(**overrides: Any) -> ExperimentConfig:
    return ExperimentConfig.quick(
        num_nodes=32, training_duration_s=200.0, run_duration_s=300.0, **overrides
    )


def _job_fields(job: Any) -> dict[str, Any]:
    # An application profile holds its phase schedule, whose repr is an
    # object address; the profile's name identifies it.
    fields = {f.name: getattr(job, f.name) for f in dataclasses.fields(job)}
    fields["app"] = job.app.name
    return fields


def result_digest(result: ExperimentResult) -> str:
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in _EXCLUDED
    }
    fields["finished_jobs"] = [_job_fields(job) for job in result.finished_jobs]
    return fingerprint(fields)


def _run_obs(tmp_path: Path, policy: str) -> tuple[ExperimentResult, dict[str, str]]:
    paths = {
        "trace": tmp_path / f"trace-{policy}.jsonl",
        "metrics": tmp_path / f"metrics-{policy}.prom",
        "flight": tmp_path / f"flight-{policy}.jsonl",
    }
    obs = ObsConfig(
        trace=True,
        metrics=True,
        flight_recorder_cycles=8,
        trace_path=str(paths["trace"]),
        metrics_path=str(paths["metrics"]),
        flight_path=str(paths["flight"]),
    )
    result = run_experiment(
        _config(faults=FaultScenario.preset("light"), obs=obs), policy
    )
    files = {
        kind: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for kind, path in paths.items()
    }
    return result, files


def compute_digests(tmp_path: Path) -> tuple[dict[str, str], list[str]]:
    """``({cell/policy: digest}, [cells whose mechanism did not fire])``."""
    digests: dict[str, str] = {}
    silent: list[str] = []
    for name, (overrides, managed, fired) in CELLS.items():
        for policy in POLICIES if managed else (None,):
            key = f"{name}/{policy or 'uncapped'}"
            with ExitStack() as patches:
                for target, value in PATCHES.get(name, {}).items():
                    patches.enter_context(mock.patch(target, value))
                result = run_experiment(_config(**overrides), policy)
            digests[key] = result_digest(result)
            if not fired(result):
                silent.append(key)
    for policy in POLICIES:
        result, files = _run_obs(tmp_path, policy)
        digests[f"obs/{policy}"] = result_digest(result)
        for kind, digest in files.items():
            digests[f"obs/{policy}/{kind}"] = digest
        if not (result.observability is not None and result.observability.spans):
            silent.append(f"obs/{policy}")
    return digests, silent


@pytest.fixture(scope="module")
def computed(
    tmp_path_factory: pytest.TempPathFactory,
) -> tuple[dict[str, str], list[str]]:
    return compute_digests(tmp_path_factory.mktemp("digests"))


def test_every_cell_exercises_its_mechanism(computed):
    _, silent = computed
    assert silent == [], f"cells whose mechanism never fired: {silent}"


def test_results_match_the_golden_digests(computed):
    digests, _ = computed
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    pinned = golden["numpy"].get(NUMPY_KEY)
    if pinned is None:
        pytest.skip(f"no digests pinned under numpy {NUMPY_KEY}")
    if digests != pinned:
        golden["numpy"][NUMPY_KEY] = digests
        print(json.dumps(golden, indent=2, sort_keys=True))
        diverged = sorted(
            k for k in set(digests) | set(pinned) if digests.get(k) != pinned.get(k)
        )
        pytest.fail(f"result digests moved for {diverged}; new file printed above")
