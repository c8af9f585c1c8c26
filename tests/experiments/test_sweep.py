"""Tests for the deterministic parallel sweep runner.

The two contracts under test:

1. **Parallel equals serial, bit for bit.**  Worker count and cell
   submission order may only affect scheduling; the merged canonical
   JSON must be byte-identical for every ``jobs`` value.
2. **The shared baseline simulates once.**  fig6, fig7 and the
   manager-knob ablations all dedupe onto one normalized unmanaged
   cell; with a shared cache, the whole grid family computes it once.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.sweep as sweep_module
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, ResultCache, run_fig6, run_fig7
from repro.experiments.ablations import sweep_steady_green
from repro.experiments.common import run_experiment
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.experiments.sweep import (
    MANAGER_ONLY_FIELDS,
    SweepCell,
    baseline_cell,
    baseline_config,
    cell_key,
    run_sweep,
    validate_jobs,
)
from repro.faults import FaultScenario
from repro.ha import HaConfig
from repro.obs import ObsConfig

from .test_common import tiny_config


def _grid(n_extra_seeds=2):
    """A small fig7-style grid: shared baseline + policies + seeds."""
    config = tiny_config(num_nodes=32, training_duration_s=120.0)
    cells = [baseline_cell(config)]
    cells += [SweepCell(config, policy) for policy in ("mpc", "hri")]
    cells += [
        SweepCell(tiny_config(num_nodes=32, training_duration_s=120.0, seed=s), "bfp")
        for s in range(7, 7 + n_extra_seeds)
    ]
    return cells


# ----------------------------------------------------------------------
# --jobs validation
# ----------------------------------------------------------------------
def test_validate_jobs_defaults_serial():
    assert validate_jobs(None) == 1


@pytest.mark.parametrize("value,expect", [(1, 1), (4, 4), ("2", 2), ("16", 16)])
def test_validate_jobs_accepts_positive_ints(value, expect):
    assert validate_jobs(value) == expect


@pytest.mark.parametrize("bad", [0, -1, -8, "0", "abc", "2.5", 2.5, True, []])
def test_validate_jobs_rejects_non_positive_non_int(bad):
    with pytest.raises(ConfigurationError, match="positive integer"):
        validate_jobs(bad)


# ----------------------------------------------------------------------
# Cell / grid basics
# ----------------------------------------------------------------------
def test_cell_rejects_policy_instances():
    with pytest.raises(ConfigurationError, match="policy"):
        SweepCell(tiny_config(), policy=object())  # type: ignore[arg-type]


def test_empty_grid_rejected():
    with pytest.raises(ConfigurationError, match="empty"):
        run_sweep([])


def test_result_for_unknown_cell_raises():
    cells = [SweepCell(tiny_config(num_nodes=32), "mpc")]
    report = run_sweep(cells)
    with pytest.raises(ConfigurationError, match="not part of this sweep"):
        report.result_for(SweepCell(tiny_config(num_nodes=32, seed=99), "mpc"))


def test_duplicate_cells_collapse():
    config = tiny_config(num_nodes=32)
    calls = []
    original = run_experiment

    def counting(cfg, policy, label=None):
        calls.append(policy)
        return original(cfg, policy, label=label)

    sweep_module.run_experiment, saved = counting, sweep_module.run_experiment
    try:
        cells = [SweepCell(config, "mpc")] * 3 + [baseline_cell(config)] * 2
        report = run_sweep(cells)
    finally:
        sweep_module.run_experiment = saved
    assert len(calls) == 2
    assert report.stats.cells == 2
    assert report.stats.computed == 2


def test_obs_cells_refuse_parallel_jobs(tmp_path):
    config = tiny_config(
        num_nodes=32,
        obs=ObsConfig(trace=True, trace_path=str(tmp_path / "t.jsonl")),
    )
    cells = [SweepCell(config, "mpc"), SweepCell(config, "hri")]
    with pytest.raises(ConfigurationError, match="observability"):
        run_sweep(cells, jobs=2)
    # Serial is fine: the run stays in-process with live instruments.
    report = run_sweep([SweepCell(config, "mpc")])
    assert report.stats.computed == 1


# ----------------------------------------------------------------------
# Bit-identity: jobs ∈ {1, 2, 4} × shuffled submission order
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_merged():
    return run_sweep(_grid(), jobs=1).merged_json()


@settings(max_examples=4, deadline=None)
@given(
    jobs=st.sampled_from((1, 2, 4)),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_merged_json_identical_across_jobs_and_order(
    serial_merged, jobs, order_seed
):
    cells = _grid()
    random.Random(order_seed).shuffle(cells)
    assert run_sweep(cells, jobs=jobs).merged_json() == serial_merged


def test_parallel_report_results_bit_identical_per_cell(serial_merged):
    cells = _grid()
    report = run_sweep(cells, jobs=2)
    assert report.merged_json() == serial_merged
    for cell in cells:
        encoded = canonical_json(result_to_dict(report.result_for(cell)))
        assert encoded in serial_merged


# ----------------------------------------------------------------------
# Shared-baseline normalization and dedup
# ----------------------------------------------------------------------
def test_baseline_config_resets_only_manager_fields():
    config = tiny_config(
        num_nodes=32,
        candidate_size=8,
        margin_high=0.10,
        margin_low=0.22,
        steady_green_cycles=3,
        faults=FaultScenario.light(),
        ha=HaConfig.warm(crash_at_cycles=(10,)),
        track_thermal=True,
        scheduler="backfill",
    )
    normalized = baseline_config(config)
    defaults = ExperimentConfig()
    for name in MANAGER_ONLY_FIELDS:
        assert getattr(normalized, name) == getattr(defaults, name), name
    # Simulation-relevant fields survive untouched.
    assert normalized.seed == config.seed
    assert normalized.num_nodes == config.num_nodes
    assert normalized.track_thermal is True
    assert normalized.scheduler == "backfill"


@pytest.mark.parametrize(
    "overrides",
    [
        {"candidate_size": 8},
        {"margin_high": 0.10, "margin_low": 0.22, "steady_green_cycles": 3},
        {"adjust_every_cycles": 30, "faults": FaultScenario.light()},
        {"ha": HaConfig.warm(crash_at_cycles=(10,))},
    ],
)
def test_manager_only_fields_do_not_affect_unmanaged_runs(overrides):
    """The property behind the shared baseline: an unmanaged run is
    bit-identical under any manager-only override, except for the
    echoed config and the informational threshold fields derived from
    the margins."""
    base = tiny_config(num_nodes=32, training_duration_s=120.0)
    varied = tiny_config(num_nodes=32, training_duration_s=120.0, **overrides)
    r_base = result_to_dict(run_experiment(baseline_config(varied), None))
    r_varied = result_to_dict(run_experiment(varied, None))
    for node in (r_base, r_varied):
        for informational in ("config", "p_low_w", "p_high_w"):
            node["fields"].pop(informational)
    assert canonical_json(r_base) == canonical_json(r_varied)
    # And the normalized cell is literally the same address as the
    # plain config's baseline — that's what makes it shared.
    assert cell_key(baseline_cell(varied)) == cell_key(baseline_cell(base))


def test_baseline_simulates_once_per_grid():
    """fig6 + fig7 + an ablation against one cache: the shared
    unmanaged baseline is computed exactly once across the family."""
    baseline_runs = []
    original = run_experiment

    def counting(cfg, policy, label=None):
        if policy is None:
            baseline_runs.append(cfg)
        return original(cfg, policy, label=label)

    config = tiny_config(num_nodes=32, training_duration_s=120.0)
    sweep_module.run_experiment, saved = counting, sweep_module.run_experiment
    try:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            run_fig7(config, policies=("mpc",), cache=cache)
            run_fig6(config, sizes=(0, 8), policies=("mpc",), cache=cache)
            sweep_steady_green(config, values=(2, 20), cache=cache)
    finally:
        sweep_module.run_experiment = saved
    assert len(baseline_runs) == 1
    # ... and it ran with the normalized (default manager knobs) config.
    assert baseline_runs[0] == baseline_config(config)


def test_cache_round_trip_preserves_merged_bytes(tmp_path):
    cells = _grid(n_extra_seeds=0)
    cache = ResultCache(tmp_path)
    cold = run_sweep(cells, jobs=2, cache=cache)
    warm = run_sweep(cells, jobs=2, cache=cache)
    assert warm.stats.computed == 0
    assert warm.stats.cache_hits == cold.stats.cells
    assert warm.merged_json() == cold.merged_json()
