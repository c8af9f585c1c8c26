"""Unit tests for tables and ASCII charts."""

import numpy as np
import pytest

from repro.analysis import Table, ascii_chart
from repro.errors import MetricError


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------
def test_table_renders_aligned():
    table = Table(["name", "value"])
    table.add_row("alpha", 1)
    table.add_row("b", 23456)
    text = table.render()
    lines = text.splitlines()
    assert len(lines) == 4  # header, separator, 2 rows
    assert lines[0].startswith("name")
    assert "23456" in lines[3]
    # All lines align to the same width structure.
    assert lines[1].startswith("-")


def test_table_row_width_validation():
    table = Table(["a", "b"])
    with pytest.raises(MetricError):
        table.add_row(1)


def test_table_empty_headers_rejected():
    with pytest.raises(MetricError):
        Table([])


def test_table_str_matches_render():
    table = Table(["x"])
    table.add_row(5)
    assert str(table) == table.render()


# ----------------------------------------------------------------------
# ASCII charts
# ----------------------------------------------------------------------
def test_ascii_chart_contains_series_markers():
    x = np.arange(10, dtype=float)
    text = ascii_chart(x, {"up": x, "down": x[::-1]}, title="test chart")
    assert "test chart" in text
    assert "* up" in text
    assert "o down" in text


def test_ascii_chart_flat_series_ok():
    x = np.arange(3, dtype=float)
    text = ascii_chart(x, {"flat": np.ones(3)})
    assert "flat" in text


def test_ascii_chart_validation():
    with pytest.raises(MetricError):
        ascii_chart(np.array([]), {"a": np.array([])})
    with pytest.raises(MetricError):
        ascii_chart(np.arange(3.0), {})
    with pytest.raises(MetricError):
        ascii_chart(np.arange(3.0), {"a": np.arange(4.0)})


def test_ascii_chart_title_and_axis_labels():
    x = np.array([0.0, 10.0])
    out = ascii_chart(x, {"s": np.array([1.0, 2.0])}, title="my chart")
    lines = out.splitlines()
    assert lines[0] == "my chart"
    assert "10" in lines[-2]  # x-axis extremes under the frame
    assert "* s" in lines[-1]  # legend carries the marker


def test_ascii_chart_single_point_degenerate_ranges():
    out = ascii_chart(np.array([5.0]), {"s": np.array([3.0])})
    assert "*" in out  # both axes had zero span and were widened


def test_ascii_chart_marker_wraps_past_eight_series():
    x = np.array([0.0, 1.0])
    series = {f"s{i}": np.array([float(i), float(i)]) for i in range(9)}
    out = ascii_chart(x, series)
    legend = out.splitlines()[-1]
    # Ninth series reuses the first marker.
    assert legend.count("* ") == 2
