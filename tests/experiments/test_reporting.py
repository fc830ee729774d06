"""Tests for text reporting helpers."""

import numpy as np
import pytest

from repro.experiments.reporting import (
    ascii_series,
    format_table,
    front_rows,
    overlay_series,
)


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_numeric_formatting(self):
        text = format_table(["v"], [[0.000123456]])
        assert "0.0001235" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestAsciiSeries:
    def test_contains_markers(self):
        text = ascii_series(np.arange(10), np.arange(10) ** 2)
        assert "*" in text

    def test_empty(self):
        assert "empty" in ascii_series(np.zeros(0), np.zeros(0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ascii_series(np.arange(3), np.arange(4))

    def test_constant_series(self):
        text = ascii_series(np.arange(5), np.full(5, 2.0))
        assert "*" in text  # zero-span handled

    def test_labels_in_output(self):
        text = ascii_series(np.arange(3), np.arange(3), x_label="gen", y_label="hv")
        assert "gen" in text and "hv" in text


class TestOverlaySeries:
    def test_legend(self):
        text = overlay_series(
            [
                ("A", np.arange(4), np.arange(4), "o"),
                ("B", np.arange(4), 4 - np.arange(4), "*"),
            ]
        )
        assert "o = A" in text and "* = B" in text

    def test_empty_series_list(self):
        assert "no series" in overlay_series([])

    def test_all_empty(self):
        assert "empty" in overlay_series([("A", np.zeros(0), np.zeros(0), "o")])


class TestFrontRows:
    def test_rows_sorted_by_c_load(self):
        front = np.array(
            [[1e-3, 0.0], [0.5e-3, 4e-12], [0.8e-3, 2e-12]]
        )
        rows = front_rows(front)
        c_loads = [r[0] for r in rows]
        assert c_loads == sorted(c_loads)
        assert rows[-1][0] == pytest.approx(5.0)  # deficit 0 -> 5 pF

    def test_unit_conversion(self):
        rows = front_rows(np.array([[2e-3, 1e-12]]))
        assert rows[0][0] == pytest.approx(4.0)  # pF
        assert rows[0][1] == pytest.approx(2.0)  # mW

    def test_max_rows_thinning(self):
        front = np.column_stack(
            [np.linspace(1e-3, 2e-3, 100), np.linspace(0, 5e-12, 100)]
        )
        rows = front_rows(front, max_rows=10)
        assert len(rows) == 10

    def test_empty(self):
        assert front_rows(np.zeros((0, 2))) == []

    @pytest.mark.parametrize("max_rows", [0, -3])
    def test_non_positive_max_rows_rejected(self, max_rows):
        front = np.array([[1e-3, 1e-12], [2e-3, 2e-12]])
        with pytest.raises(ValueError, match="max_rows must be >= 1"):
            front_rows(front, max_rows=max_rows)

    def test_unbounded_rows(self):
        front = np.column_stack([np.ones(30), np.linspace(0, 5e-12, 30)])
        assert len(front_rows(front, max_rows=None)) == 30
