"""Cache model: locality factors and scaling-law helpers."""

import pytest

from repro.machines.cache import (
    device_locality_factor,
    host_locality_factor,
    locality_factor,
    log2_threads,
    working_set_kb,
)
from repro.machines.spec import CPUSpec, PhiSpec


class TestLocalityFactor:
    def test_zero_footprint_is_free(self):
        assert locality_factor(0.0, 32, 256, 30720) == 1.0

    def test_tiny_table_is_nearly_free(self):
        assert locality_factor(1.0, 32, 256, 30720) > 0.99

    def test_monotone_nonincreasing_in_footprint(self):
        sizes = [1, 8, 64, 512, 4096, 32768, 262144]
        factors = [locality_factor(s, 32, 256, 30720) for s in sizes]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_dram_resident_table_is_penalized_hard(self):
        assert locality_factor(1e6, 32, 256, 30720) < 0.5

    def test_floor_at_5_percent(self):
        assert locality_factor(1e12, 32, 256, 30720) >= 0.05

    def test_negative_footprint_rejected(self):
        with pytest.raises(ValueError, match="table_kb"):
            locality_factor(-1.0, 32, 256, 30720)

    def test_host_wrapper_uses_cpu_hierarchy(self):
        cpu = CPUSpec()
        assert host_locality_factor(1.0, cpu) > host_locality_factor(1e5, cpu)

    def test_device_wrapper_uses_phi_hierarchy(self):
        phi = PhiSpec()
        assert device_locality_factor(1.0, phi) > device_locality_factor(1e5, phi)


class TestWorkingSet:
    def test_dense_dfa_footprint(self):
        # 53 states x 5 symbols x 4 bytes = 1060 bytes.
        assert working_set_kb(53, 5) == pytest.approx(1060 / 1024)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            working_set_kb(-1, 5)


class TestScalingLaws:

    def test_log2_threads(self):
        assert log2_threads(8) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            log2_threads(0)
