"""Dataset container, feature encoding."""

import numpy as np
import pytest

from repro.ml import (
    DEVICE_FEATURE_NAMES,
    HOST_FEATURE_NAMES,
    Dataset,
    encode_device_row,
    encode_host_row,
)


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3), ("a", "b"))
        assert len(ds) == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            Dataset(np.zeros((3, 2)), np.zeros(4), ("a", "b"))

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            Dataset(np.zeros((3, 2)), np.zeros(3), ("a",))

    def test_rejects_1d_x(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3), np.zeros(3), ("a",))

    def test_subset(self):
        ds = Dataset(np.arange(6).reshape(3, 2), np.arange(3), ("a", "b"))
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) == 2
        assert sub.y.tolist() == [0, 2]


class TestEncoding:
    def test_host_row_layout(self):
        row = encode_host_row(24, "scatter", 1500.0)
        assert row == [24.0, 0.0, 1.0, 0.0, 1500.0]
        assert len(row) == len(HOST_FEATURE_NAMES)

    def test_device_row_layout(self):
        row = encode_device_row(120, "balanced", 800.0)
        assert row == [120.0, 1.0, 0.0, 0.0, 800.0]
        assert len(row) == len(DEVICE_FEATURE_NAMES)

    def test_one_hot_is_exclusive(self):
        for aff in ("none", "scatter", "compact"):
            row = encode_host_row(2, aff, 1.0)
            assert sum(row[1:4]) == 1.0

    def test_unknown_affinity_rejected(self):
        with pytest.raises(ValueError, match="unknown level"):
            encode_host_row(2, "balanced", 1.0)
