"""The differential matrix: five scenario presets, two engines, zero bits
of divergence.

Each preset runs the identical seeded experiment on the vector and the
object engine and compares every ``ExperimentResult`` field (power
series, metrics, fault/provision/HA statistics, per-job outcomes) by
exact digest; the journal test compares the raw ``CycleRecord`` decision
traces of a manually-driven manager.  The uncapped cells run the main
window unmanaged, where the vector engine steps blocks of ticks and the
object engine ticks, so they check the block path end to end.
"""

from __future__ import annotations

import pytest

from tests.equivalence.harness import (
    ENGINES,
    PRESETS,
    assert_records_equal,
    assert_results_equal,
    run_decision_trace,
    run_pair,
)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_results_bit_identical(preset: str) -> None:
    vector, obj = run_pair(policy="mpc", seed=2012, preset=preset)
    assert_results_equal(vector, obj, context=preset)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_uncapped_results_bit_identical(preset: str) -> None:
    vector, obj = run_pair(policy=None, seed=2012, preset=preset)
    assert_results_equal(vector, obj, context=f"{preset}/uncapped")


def test_uncapped_thermal_tracking_bit_identical() -> None:
    # Thermal tracking steps on each tick's node-power row of a block.
    vector, obj = run_pair(policy=None, seed=2012, track_thermal=True)
    assert vector.peak_temperature_c is not None
    assert_results_equal(vector, obj, context="clean/uncapped/thermal")


def test_clean_preset_across_policies() -> None:
    # The policy families score target sets differently (job tables,
    # savings, priorities) — each exercises a different engine kernel mix.
    for policy in ("lpc", "bfp", "hri-c", "sla"):
        vector, obj = run_pair(policy=policy, seed=2012, preset="clean")
        assert_results_equal(vector, obj, context=f"clean/{policy}")


@pytest.mark.parametrize("policy", ["mpc", "mpc-c"])
def test_journal_decision_traces_bit_identical(policy: str) -> None:
    traces = {name: run_decision_trace(name, seed=7, policy=policy) for name in ENGINES}
    assert len(traces["vector"]) == 80
    assert_records_equal(traces["vector"], traces["object"], context=policy)


def test_same_engine_reruns_are_deterministic() -> None:
    # Sanity anchor for the whole suite: the comparison machinery sees
    # *zero* diff when the engine is held fixed too.
    first, _ = run_pair(policy="mpc", seed=99, preset="clean")
    again, _ = run_pair(policy="mpc", seed=99, preset="clean")
    assert_results_equal(first, again, context="vector-rerun")
