"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


def test_configuration_error_is_value_error():
    """Config mistakes should be catchable as plain ValueError too."""
    assert issubclass(errors.ConfigurationError, ValueError)
    assert issubclass(errors.WorkloadError, ValueError)
    assert issubclass(errors.MetricError, ValueError)


def test_runtime_family():
    for exc in (
        errors.SchedulingError,
        errors.PowerManagementError,
        errors.TelemetryError,
    ):
        assert issubclass(exc, RuntimeError)


def test_specialisations():
    assert issubclass(errors.AllocationError, errors.SchedulingError)
    assert issubclass(errors.PolicyError, errors.PowerManagementError)


def test_one_except_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.AllocationError("x")
    with pytest.raises(errors.ReproError):
        raise errors.MetricError("y")


def test_fault_injection_error_is_configuration_error():
    """Bad fault scenarios are config mistakes: ValueError-compatible."""
    assert issubclass(errors.FaultInjectionError, errors.ConfigurationError)
    assert issubclass(errors.FaultInjectionError, ValueError)


def test_degraded_mode_error_is_power_management_error():
    """Losing the last estimation basis is a runtime control failure."""
    assert issubclass(errors.DegradedModeError, errors.PowerManagementError)
    assert issubclass(errors.DegradedModeError, RuntimeError)
    with pytest.raises(errors.PowerManagementError):
        raise errors.DegradedModeError("no power signal")
