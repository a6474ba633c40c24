"""Train/test protocol: the half split."""

import numpy as np
import pytest

from repro.ml import half_split


class TestHalfSplit:
    def test_disjoint_and_covering(self):
        train, test = half_split(101, seed=0)
        combined = np.sort(np.concatenate([train, test]))
        assert np.array_equal(combined, np.arange(101))

    def test_half_sizes(self):
        train, test = half_split(100)
        assert len(train) == 50
        assert len(test) == 50

    def test_deterministic_by_seed(self):
        a = half_split(50, seed=3)
        b = half_split(50, seed=3)
        assert np.array_equal(a[0], b[0])

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            half_split(1)
