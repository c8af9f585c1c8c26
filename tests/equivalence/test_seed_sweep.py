"""Property-based seed sweep: random seeds × run lengths × policies.

Hypothesis drives the harness over a much wider slice of configuration
space than the fixed preset matrix — any divergence between the engines
on any seeded world is a failing example with a minimal reproduction.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MetricError
from tests.equivalence import harness
from tests.equivalence.harness import assert_results_equal, run_pair

#: Policies spanning every engine kernel mix: power-ranked (mpc/lpc),
#: savings-ranked (bfp), increase-rate (hri), stochastic and priority.
_POLICIES = ("mpc", "lpc", "bfp", "mpc-c", "hri", "random", "sla")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    policy=st.sampled_from(_POLICIES),
    run_s=st.sampled_from([150.0, 240.0, 330.0]),
    num_nodes=st.sampled_from([24, 32]),
)
# No job finishes in this world's main window: both engines raise the
# same MetricError, which is agreement.
@example(seed=221, policy="mpc", run_s=150.0, num_nodes=24)
def test_engines_identical_over_random_worlds(
    seed: int, policy: str, run_s: float, num_nodes: int
) -> None:
    pair = run_pair(
        policy=policy,
        seed=seed,
        preset="clean",
        run_s=run_s,
        num_nodes=num_nodes,
        training_s=120.0,
    )
    if pair is not None:
        assert_results_equal(
            *pair, context=f"seed={seed} policy={policy} run={run_s}"
        )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    preset=st.sampled_from(["meter-outage", "corruption"]),
)
def test_engines_identical_under_random_fault_seeds(seed: int, preset: str) -> None:
    pair = run_pair(policy="bfp", seed=seed, preset=preset)
    if pair is not None:
        assert_results_equal(*pair, context=f"seed={seed} preset={preset}")


def test_run_pair_fails_unless_both_engines_raise_alike(monkeypatch):
    outcomes: dict[str, str | None] = {}

    def fake_run(config, policy):
        message = outcomes[config.engine]
        if message is None:
            return object()
        raise MetricError(message)

    monkeypatch.setattr(harness, "run_experiment", fake_run)
    outcomes.update(vector="no finished jobs", object="no finished jobs")
    assert run_pair() is None
    for vector, obj in (("no jobs", None), (None, "no jobs"), ("a", "b")):
        outcomes.update(vector=vector, object=obj)
        with pytest.raises(AssertionError):
            run_pair()
