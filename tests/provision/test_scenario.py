"""Unit tests for the provision scenario configuration and presets."""

import pytest

from repro.errors import FaultInjectionError
from repro.provision import ProvisionScenario
from repro.provision.scenario import PRESET_HINT


def test_none_is_disabled_and_deterministic():
    scenario = ProvisionScenario.none()
    assert not scenario.enabled
    assert not scenario.stochastic


@pytest.mark.parametrize(
    "name", ["feed-loss", "pdu-failure", "breaker-stress", "cap-order", "grid-storm"]
)
def test_fault_presets_are_enabled(name):
    assert ProvisionScenario.preset(name).enabled


def test_grid_storm_is_stochastic_others_not():
    assert ProvisionScenario.preset("grid-storm").stochastic
    assert not ProvisionScenario.preset("feed-loss").stochastic


def test_preset_names_sorted_and_complete():
    names = ProvisionScenario.preset_names()
    assert names == tuple(sorted(names))
    assert "none" in names and "feed-loss" in names


def test_unknown_preset_lists_catalogue_and_hint():
    with pytest.raises(FaultInjectionError) as err:
        ProvisionScenario.preset("feedloss")
    message = str(err.value)
    assert "feed-loss" in message
    assert PRESET_HINT in message


def test_preset_accepts_overrides():
    scenario = ProvisionScenario.preset("feed-loss", feed_loss_at_cycle=5)
    assert scenario.feed_loss_at_cycle == 5


@pytest.mark.parametrize(
    "overrides",
    [
        {"nodes_per_rack": 0},
        {"rack_headroom": -1.0},
        {"feed_loss_at_cycle": -1},
        {"feed_restore_after_cycles": 0},
        {"cap_order_fraction": 1.5},
        {"cap_order_duration_cycles": 0},
        {"feed_loss_rate": 1.5},
    ],
)
def test_invalid_scenarios_rejected(overrides):
    with pytest.raises(FaultInjectionError):
        ProvisionScenario(**overrides)

