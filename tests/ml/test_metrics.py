"""Error metrics (Eqs. 5-6) and the paper's error histograms."""

import numpy as np
import pytest

from repro.ml import (
    DEVICE_ERROR_BINS,
    HOST_ERROR_BINS,
    absolute_error,
    error_histogram,
    mean_absolute_error,
    mean_percent_error,
    percent_error,
)


class TestErrors:
    def test_absolute_error_eq5(self):
        out = absolute_error(np.array([1.0, 2.0]), np.array([1.5, 1.0]))
        assert out.tolist() == [0.5, 1.0]

    def test_percent_error_eq6(self):
        out = percent_error(np.array([2.0, 4.0]), np.array([1.0, 5.0]))
        assert out.tolist() == [50.0, 25.0]

    def test_percent_error_rejects_zero_measured(self):
        with pytest.raises(ValueError, match="zero"):
            percent_error(np.array([0.0]), np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            absolute_error(np.zeros(2), np.zeros(3))

    def test_means(self):
        m = np.array([1.0, 2.0])
        p = np.array([1.1, 1.8])
        assert mean_absolute_error(m, p) == pytest.approx(0.15)
        assert mean_percent_error(m, p) == pytest.approx((10.0 + 10.0) / 2)


class TestHistogram:
    def test_counts_sum_to_n(self):
        errs = np.linspace(0.0, 0.5, 101)
        h = error_histogram(errs, HOST_ERROR_BINS)
        assert h.n_predictions == 101

    def test_binning_edges_inclusive_upper(self):
        h = error_histogram(np.array([0.01, 0.011, 0.02]), (0.01, 0.02))
        # 0.01 -> first bin, 0.011 and 0.02 -> second, none overflow.
        assert h.counts == (1, 2, 0)

    def test_overflow_bin(self):
        h = error_histogram(np.array([99.0]), (0.01, 0.02))
        assert h.counts == (0, 0, 1)

    def test_rows_labels(self):
        h = error_histogram(np.array([0.005]), (0.01,))
        labels = [r[0] for r in h.rows()]
        assert labels == ["<= 0.01", "> 0.01"]

    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError, match="negative"):
            error_histogram(np.array([-0.1]))

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError, match="increasing"):
            error_histogram(np.array([0.1]), (0.2, 0.1))

    def test_paper_bin_tables(self):
        assert len(HOST_ERROR_BINS) == 10  # Fig. 7 has 10 bins
        assert len(DEVICE_ERROR_BINS) == 14  # Fig. 8 has 14 bins
        assert HOST_ERROR_BINS[0] == 0.01
        assert DEVICE_ERROR_BINS[0] == 0.015
