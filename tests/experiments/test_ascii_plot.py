"""ASCII plot renderers."""

import pytest

from repro.experiments.ascii_plot import line_plot


class TestLinePlot:
    def test_renders_all_series_markers(self):
        out = line_plot([1, 2, 3], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
        assert "o" in out and "x" in out
        assert "o=a" in out and "x=b" in out

    def test_extremes_labeled(self):
        out = line_plot([0, 10], {"s": [5.0, 25.0]})
        assert "25" in out
        assert "5" in out

    def test_constant_series_does_not_crash(self):
        out = line_plot([0, 1, 2], {"flat": [2.0, 2.0, 2.0]})
        assert "o" in out

    def test_title_first_line(self):
        out = line_plot([0, 1], {"s": [0.0, 1.0]}, title="My Plot")
        assert out.splitlines()[0] == "My Plot"

    def test_monotone_series_slopes_correctly(self):
        out = line_plot([0, 1, 2, 3], {"up": [0.0, 1.0, 2.0, 3.0]})
        rows = [ln for ln in out.splitlines() if "|" in ln and ln.rstrip().endswith("|")]
        first_marker_col = [r.index("o") for r in rows if "o" in r]
        # Higher rows (earlier lines) hold larger y -> larger x positions.
        assert first_marker_col == sorted(first_marker_col, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": [], "series": {"s": []}},
            {"x": [1], "series": {}},
            {"x": [1, 2], "series": {"s": [1.0]}},
        ],
    )
    def test_validation(self, kwargs):
        x = kwargs.pop("x")
        series = kwargs.pop("series")
        with pytest.raises(ValueError):
            line_plot(x, series, **kwargs)
