"""Unit tests for processor, memory and NIC specifications."""

import numpy as np
import pytest

from repro.cluster import DvfsTable, MemorySpec, NicSpec, ProcessorSpec
from repro.errors import ConfigurationError
from repro.units import gib


# ----------------------------------------------------------------------
# ProcessorSpec
# ----------------------------------------------------------------------
def test_xeon_spec_figures():
    cpu = ProcessorSpec.xeon_x5670()
    assert cpu.cores == 6
    assert cpu.max_power_w == pytest.approx(95.0)
    assert cpu.dvfs.num_levels == 10


def test_idle_power_per_level_monotone_and_bounded():
    cpu = ProcessorSpec.xeon_x5670()
    idle = cpu.idle_power_per_level()
    assert idle[0] == pytest.approx(cpu.idle_power_bottom_w)
    assert idle[-1] == pytest.approx(cpu.idle_power_top_w)
    assert np.all(np.diff(idle) >= 0)


def test_dynamic_power_top_is_max_minus_idle():
    cpu = ProcessorSpec.xeon_x5670()
    dyn = cpu.dynamic_power_per_level()
    assert dyn[-1] == pytest.approx(cpu.max_power_w - cpu.idle_power_top_w)
    assert np.all(np.diff(dyn) > 0)


def test_max_power_per_level_top_equals_tdp():
    cpu = ProcessorSpec.xeon_x5670()
    assert cpu.max_power_per_level()[-1] == pytest.approx(cpu.max_power_w)


def test_processor_validation():
    dvfs = DvfsTable.xeon_x5670()
    with pytest.raises(ConfigurationError):
        ProcessorSpec("x", 0, dvfs, 95.0, 32.0, 20.0)
    with pytest.raises(ConfigurationError):
        ProcessorSpec("x", 6, dvfs, -1.0, 32.0, 20.0)
    with pytest.raises(ConfigurationError):
        ProcessorSpec("x", 6, dvfs, 95.0, 20.0, 32.0)  # bottom > top
    with pytest.raises(ConfigurationError):
        ProcessorSpec("x", 6, dvfs, 95.0, 96.0, 20.0)  # idle >= max


# ----------------------------------------------------------------------
# MemorySpec
# ----------------------------------------------------------------------
def test_tianhe_memory_capacity():
    mem = MemorySpec.tianhe_ddr3()
    assert mem.devices == 12
    assert mem.total_capacity_bytes == gib(48)


def test_memory_power_aggregates():
    mem = MemorySpec.tianhe_ddr3()
    assert mem.max_dynamic_power_w == pytest.approx(12 * 3.0)
    assert mem.total_idle_power_w == pytest.approx(12 * 1.5)


def test_memory_dynamic_power_level_coupling():
    mem = MemorySpec.tianhe_ddr3()
    dvfs = DvfsTable.xeon_x5670()
    p = mem.dynamic_power_per_level(dvfs)
    assert p[-1] == pytest.approx(mem.max_dynamic_power_w)
    assert np.all(np.diff(p) > 0)  # coupled part rises with speed
    # At coupling c, bottom = max·((1-c) + c·s0).
    s0 = dvfs.speed(0)
    expected = mem.max_dynamic_power_w * ((1 - 0.4) + 0.4 * s0)
    assert p[0] == pytest.approx(expected)


def test_memory_zero_coupling_is_flat():
    mem = MemorySpec(
        devices=2,
        capacity_per_device_bytes=gib(4),
        max_dynamic_power_per_device_w=3.0,
        idle_power_per_device_w=1.0,
        dvfs_coupling=0.0,
    )
    p = mem.dynamic_power_per_level(DvfsTable.xeon_x5670())
    assert np.allclose(p, p[0])


def test_memory_validation():
    with pytest.raises(ConfigurationError):
        MemorySpec(0, gib(4), 3.0, 1.0)
    with pytest.raises(ConfigurationError):
        MemorySpec(2, 0, 3.0, 1.0)
    with pytest.raises(ConfigurationError):
        MemorySpec(2, gib(4), -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        MemorySpec(2, gib(4), 3.0, 1.0, dvfs_coupling=1.5)


# ----------------------------------------------------------------------
# NicSpec
# ----------------------------------------------------------------------
def test_tianhe_nic_figures():
    nic = NicSpec.tianhe_interconnect()
    assert nic.bandwidth_bytes_per_s == pytest.approx(20e9)


def test_nic_dynamic_power_per_level():
    nic = NicSpec.tianhe_interconnect()
    p = nic.dynamic_power_per_level(DvfsTable.xeon_x5670())
    assert p[-1] == pytest.approx(nic.max_dynamic_power_w)
    assert np.all(p > 0)


def test_nic_validation():
    with pytest.raises(ConfigurationError):
        NicSpec(0.0, 15.0, 10.0)
    with pytest.raises(ConfigurationError):
        NicSpec(1e9, -1.0, 10.0)
    with pytest.raises(ConfigurationError):
        NicSpec(1e9, 15.0, -1.0)
    with pytest.raises(ConfigurationError):
        NicSpec(1e9, 15.0, 10.0, dvfs_coupling=2.0)
