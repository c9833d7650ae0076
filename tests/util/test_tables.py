"""Tests for repro.util.tables."""

import math

import numpy as np
import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["name", "x"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].startswith("a")
        # Right-aligned numeric column: widths match the header row.
        assert len(lines[2]) == len(lines[3])

    def test_none_renders_na(self):
        out = format_table(["k", "v"], [["a", None]])
        assert "N/A" in out

    def test_nan_renders_na(self):
        out = format_table(["k", "v"], [["a", math.nan]])
        assert "N/A" in out

    def test_float_format_applied(self):
        out = format_table(["k", "v"], [["a", 0.123456]], float_fmt="{:.2f}")
        assert "0.12" in out

    def test_title_prepended(self):
        out = format_table(["k"], [["a"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError, match="row 0 has"):
            format_table(["a", "b"], [["only-one"]])

    def test_int_rendering(self):
        out = format_table(["v"], [[7]])
        assert "7" in out and "7.0" not in out

    def test_numpy_values_accepted(self):
        out = format_table(["v"], [[np.float64(1.5)], [np.int32(2)]])
        assert "1.5" in out and "2" in out

    def test_bool_rendering(self):
        out = format_table(["v"], [[True]])
        assert "True" in out

    def test_empty_rows_ok(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out
