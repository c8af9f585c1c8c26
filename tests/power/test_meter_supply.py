"""Unit tests for the system power meter and the provision model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power import PowerModel, PowerProvision, SystemPowerMeter


# ----------------------------------------------------------------------
# SystemPowerMeter
# ----------------------------------------------------------------------
def test_noiseless_meter_reads_truth(small_cluster):
    model = PowerModel(small_cluster.spec)
    meter = SystemPowerMeter(model, small_cluster.state)
    assert meter.read() == pytest.approx(model.system_power(small_cluster.state))
    assert meter.readings == 1
    assert meter.last_reading == pytest.approx(meter.true_power())


def test_meter_tracks_state_changes(small_cluster):
    model = PowerModel(small_cluster.spec)
    meter = SystemPowerMeter(model, small_cluster.state)
    before = meter.read()
    small_cluster.state.set_load(np.arange(8), 0.9, 0.5, 0.3)
    after = meter.read()
    assert after > before


# ----------------------------------------------------------------------
# PowerProvision
# ----------------------------------------------------------------------
def test_for_cluster_fraction(small_cluster):
    prov = PowerProvision.for_cluster(small_cluster, 0.85)
    assert prov.capability_w == pytest.approx(
        0.85 * small_cluster.theoretical_max_power()
    )


def test_necessity_check(small_cluster):
    prov = PowerProvision.for_cluster(small_cluster, 0.85)
    assert prov.satisfies_necessity(small_cluster)
    over = PowerProvision(capability_w=2 * small_cluster.theoretical_max_power())
    assert not over.satisfies_necessity(small_cluster)


def test_for_cluster_rejects_invalid_fraction(small_cluster):
    with pytest.raises(ConfigurationError):
        PowerProvision.for_cluster(small_cluster, 1.0)
    with pytest.raises(ConfigurationError):
        PowerProvision.for_cluster(small_cluster, 0.0)


def test_check_assumptions_raises_on_violation(small_cluster):
    floor = small_cluster.num_nodes * small_cluster.spec.min_power()
    tiny = PowerProvision(capability_w=floor * 0.5)
    with pytest.raises(ConfigurationError):
        tiny.check_assumptions(small_cluster)


def test_throttled_floor_accounts_for_privileged(small_cluster):
    prov = PowerProvision.for_cluster(small_cluster, 0.85)
    floor_all = prov.throttled_floor(small_cluster)
    small_cluster.set_privileged_nodes([0, 1, 2, 3])
    floor_with_privileged = prov.throttled_floor(small_cluster)
    # Privileged nodes count at max power, so the floor rises.
    assert floor_with_privileged > floor_all
    expected = 12 * small_cluster.spec.min_power() + 4 * small_cluster.spec.max_power()
    assert floor_with_privileged == pytest.approx(expected)


def test_headroom(small_cluster):
    prov = PowerProvision(capability_w=1000.0)
    assert prov.headroom(600.0) == pytest.approx(400.0)
    assert prov.headroom(1500.0) == pytest.approx(-500.0)
    assert prov.overspend_threshold_w == pytest.approx(1000.0)


def test_positive_capability_required():
    with pytest.raises(ConfigurationError):
        PowerProvision(capability_w=0.0)
