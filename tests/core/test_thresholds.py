"""Unit tests for threshold learning and adjustment (§III.A)."""

import pytest

from repro.core import PowerThresholds, ThresholdController
from repro.errors import ConfigurationError, PowerManagementError


def test_paper_margin_formulas():
    c = ThresholdController(initial_peak_w=10000.0)
    assert c.p_high == pytest.approx(0.93 * 10000.0)
    assert c.p_low == pytest.approx(0.84 * 10000.0)


def test_thresholds_dataclass_validation():
    with pytest.raises(ConfigurationError):
        PowerThresholds(p_low=0.0, p_high=1.0)
    with pytest.raises(ConfigurationError):
        PowerThresholds(p_low=2.0, p_high=1.0)
    t = PowerThresholds(p_low=1.0, p_high=1.0)  # equality allowed
    assert t.p_low == t.p_high


def test_running_peak_ratchets_immediately():
    c = ThresholdController(initial_peak_w=1000.0, adjust_every_cycles=10)
    c.observe(1500.0)
    assert c.running_peak == 1500.0
    assert c.peak == 1000.0  # thresholds not yet re-derived


def test_adjustment_every_tp_cycles():
    c = ThresholdController(initial_peak_w=1000.0, adjust_every_cycles=5)
    changed = [c.observe(1200.0) for _ in range(5)]
    assert changed == [False, False, False, False, True]
    assert c.peak == 1200.0
    assert c.p_high == pytest.approx(0.93 * 1200.0)
    assert c.adjustments == 1


def test_no_adjustment_without_new_peak():
    c = ThresholdController(initial_peak_w=1000.0, adjust_every_cycles=2)
    assert not c.observe(500.0)
    assert not c.observe(400.0)  # t_p cycle, but peak unchanged
    assert c.adjustments == 0


def test_peak_never_decreases():
    c = ThresholdController(initial_peak_w=1000.0, adjust_every_cycles=1)
    c.observe(1500.0)
    c.observe(200.0)
    assert c.peak == 1500.0


def test_from_training_constructor():
    c = ThresholdController.from_training(2000.0)
    assert c.peak == 2000.0
    assert c.p_high == pytest.approx(1860.0)


def test_fixed_thresholds_never_change():
    c = ThresholdController.fixed(p_low=800.0, p_high=900.0)
    assert c.p_low == 800.0 and c.p_high == 900.0
    for _ in range(10):
        c.observe(5000.0)
    assert c.p_low == 800.0 and c.p_high == 900.0


def test_fixed_validation():
    with pytest.raises(ConfigurationError):
        ThresholdController.fixed(p_low=900.0, p_high=800.0)


def test_custom_margins():
    c = ThresholdController(initial_peak_w=1000.0, margin_high=0.05, margin_low=0.2)
    assert c.p_high == pytest.approx(950.0)
    assert c.p_low == pytest.approx(800.0)


def test_margin_validation():
    with pytest.raises(ConfigurationError):
        ThresholdController(1000.0, margin_high=0.2, margin_low=0.1)
    with pytest.raises(ConfigurationError):
        ThresholdController(1000.0, margin_high=-0.1, margin_low=0.16)
    with pytest.raises(ConfigurationError):
        ThresholdController(1000.0, margin_high=0.07, margin_low=1.0)


def test_observe_validation():
    c = ThresholdController(initial_peak_w=1000.0)
    with pytest.raises(PowerManagementError):
        c.observe(-1.0)


def test_invalid_construction():
    with pytest.raises(ConfigurationError):
        ThresholdController(initial_peak_w=0.0)
    with pytest.raises(ConfigurationError):
        ThresholdController(1000.0, adjust_every_cycles=0)


# ----------------------------------------------------------------------
# Provisioned-capacity envelope (repro.provision renegotiation)
# ----------------------------------------------------------------------
def test_envelope_clamps_current_thresholds():
    c = ThresholdController(initial_peak_w=10000.0)
    changed = c.set_envelope(5000.0)
    assert changed
    assert c.p_high == pytest.approx(0.93 * 5000.0)
    assert c.p_low == pytest.approx(0.84 * 5000.0)
    assert c.envelope_w == 5000.0


def test_envelope_noop_when_capacity_is_ample():
    c = ThresholdController(initial_peak_w=1000.0)
    assert c.set_envelope(50000.0) is False
    assert c.p_high == pytest.approx(930.0)


def test_envelope_release_restores_learned_thresholds():
    c = ThresholdController(initial_peak_w=10000.0)
    c.set_envelope(5000.0)
    assert c.set_envelope(None) is True
    assert c.p_high == pytest.approx(9300.0)
    assert c.envelope_w is None


def test_envelope_validation_and_idempotence():
    c = ThresholdController(initial_peak_w=1000.0)
    with pytest.raises(ConfigurationError):
        c.set_envelope(0.0)
    c.set_envelope(500.0)
    assert c.set_envelope(500.0) is False  # unchanged: no churn


def test_relearning_never_widens_past_envelope():
    c = ThresholdController(initial_peak_w=1000.0, adjust_every_cycles=1)
    c.set_envelope(800.0)
    # A big new peak would re-derive wider thresholds, but the envelope
    # must keep the effective budget pinned to surviving capacity.
    c.observe(5000.0)
    assert c.p_high == pytest.approx(0.93 * 800.0)
    assert c.p_low == pytest.approx(0.84 * 800.0)
    # Capacity back: the learned (wider) thresholds reappear at once.
    c.set_envelope(None)
    assert c.p_high == pytest.approx(0.93 * 5000.0)


def test_envelope_clamps_frozen_controllers_too():
    c = ThresholdController.fixed(p_low=840.0, p_high=930.0)
    c.set_envelope(500.0)
    assert c.p_high == pytest.approx(0.93 * 500.0)
    c.set_envelope(None)
    assert c.p_high == pytest.approx(930.0)


def test_restore_state_keeps_stricter_live_envelope():
    # Failover regression: the journal was written under full capacity,
    # but a feed was lost before the standby finished restoring.  The
    # live (shrunken) envelope must win over the journaled one.
    primary = ThresholdController(initial_peak_w=10000.0)
    checkpoint = primary.state_dict()  # envelope_w is None here
    standby = ThresholdController(initial_peak_w=10000.0)
    standby.set_envelope(4000.0)  # feed loss observed before restore
    standby.restore_state(checkpoint)
    assert standby.envelope_w == 4000.0
    assert standby.p_high == pytest.approx(0.93 * 4000.0)
    # Re-learning after the restore stays inside the envelope as well.
    standby.observe(20000.0)
    assert standby.p_high == pytest.approx(0.93 * 4000.0)


def test_restore_state_takes_min_of_both_envelopes():
    primary = ThresholdController(initial_peak_w=10000.0)
    primary.set_envelope(6000.0)
    checkpoint = primary.state_dict()
    standby = ThresholdController(initial_peak_w=10000.0)
    standby.set_envelope(4000.0)
    standby.restore_state(checkpoint)
    assert standby.envelope_w == 4000.0  # stricter of 6000 vs 4000
    loose = ThresholdController(initial_peak_w=10000.0)
    loose.restore_state(checkpoint)
    assert loose.envelope_w == 6000.0  # journaled envelope still applies
    assert loose.p_high == pytest.approx(0.93 * 6000.0)
