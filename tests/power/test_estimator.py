"""Unit tests for per-node/per-job power estimation."""

import numpy as np
import pytest

from repro.power import NodePowerEstimator


def test_estimate_nodes_matches_model(estimator, power_model):
    levels = np.array([9, 5, 0])
    utils = np.array([0.9, 0.5, 0.1])
    mems = np.array([0.4, 0.3, 0.05])
    nics = np.array([0.2, 0.1, 0.0])
    est = estimator.estimate_nodes(levels, utils, mems, nics)
    expected = power_model.evaluate(levels, utils, mems, nics)
    np.testing.assert_allclose(est, expected)


def test_estimate_savings_zero_at_bottom(estimator):
    savings = estimator.estimate_savings(
        np.array([0, 9]), np.array([0.9, 0.9]), np.array([0.5, 0.5]), np.array([0.2, 0.2])
    )
    assert savings[0] == pytest.approx(0.0)
    assert savings[1] > 0


def test_aggregate_by_job_sums(estimator):
    job_id = np.array([3, 3, 7, -1, 7, 7])
    power = np.array([10.0, 20.0, 5.0, 99.0, 5.0, 5.0])
    table = estimator.aggregate_by_job(job_id, power)
    assert len(table) == 2
    assert table.power_of(3) == pytest.approx(30.0)
    assert table.power_of(7) == pytest.approx(15.0)
    assert 3 in table and 7 in table and -1 not in table


def test_aggregate_excludes_idle(estimator):
    table = estimator.aggregate_by_job(np.array([-1, -1]), np.array([1.0, 2.0]))
    assert len(table) == 0


def test_aggregate_node_counts(estimator):
    table = estimator.aggregate_by_job(
        np.array([1, 1, 1, 2]), np.array([1.0, 1.0, 1.0, 4.0])
    )
    idx = {int(j): int(c) for j, c in zip(table.job_ids, table.node_counts)}
    assert idx == {1: 3, 2: 1}


def test_sorted_by_power_descending_default(estimator):
    table = estimator.aggregate_by_job(
        np.array([1, 2, 3]), np.array([5.0, 50.0, 0.5])
    )
    assert list(table.sorted_by_power()) == [2, 1, 3]
    assert list(table.sorted_by_power(descending=False)) == [3, 1, 2]


def test_sorted_ties_break_by_job_id(estimator):
    # A stable ascending sort reversed for the descending order: equal
    # powers rank by ascending job id going up, by descending job id
    # going down.
    table = estimator.aggregate_by_job(
        np.array([9, 3, 7]), np.array([80.0, 50.0, 80.0])
    )
    assert table.sorted_by_power(descending=True).tolist() == [9, 7, 3]
    assert table.sorted_by_power(descending=False).tolist() == [3, 7, 9]
    tied = estimator.aggregate_by_job(
        np.array([5, 3, 9]), np.array([7.0, 7.0, 7.0])
    )
    assert tied.sorted_by_power(descending=True).tolist() == [9, 5, 3]
    assert tied.sorted_by_power(descending=False).tolist() == [3, 5, 9]


def test_power_of_unknown_job_raises(estimator):
    table = estimator.aggregate_by_job(np.array([1]), np.array([1.0]))
    with pytest.raises(KeyError):
        table.power_of(99)


def test_model_accessor(estimator, power_model):
    assert estimator.model is power_model
