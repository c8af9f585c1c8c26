"""The metric catalogue in ``docs/observability.md`` matches what runs export."""

import re
from pathlib import Path

from repro import ExperimentConfig, ObsConfig, run_experiment
from repro.faults import CorruptionScenario, FaultScenario
from repro.ha import HaConfig
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

#: One catalogue row: ``| `family{label=}` | kind | source |``.
ROW = re.compile(r"^\| `(repro_[a-z_]+)(?:\{[a-z]+=\})?` \| (\w+) \|", re.M)


def test_catalogue_lists_every_exported_family():
    section = DOC.read_text(encoding="utf-8").split("## Metric catalogue")[1]
    catalogue = dict(ROW.findall(section.split("\n## ")[0]))
    config = ExperimentConfig.quick(
        num_nodes=64,
        faults=FaultScenario.light(),
        corruption=CorruptionScenario.preset("stuck-at"),
        integrity=IntegrityConfig(),
        provision=ProvisionScenario.preset("breaker-stress"),
        attach_provision=True,
        ha=HaConfig.warm(),
        scheduler="backfill",
        obs=ObsConfig(metrics=True),
    )
    registry = run_experiment(config, "mpc").observability.metrics
    assert sorted(catalogue) == registry.names()
    assert catalogue == {name: registry.kind(name) for name in registry.names()}
