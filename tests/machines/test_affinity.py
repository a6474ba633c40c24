"""Affinity policies: none/scatter/compact (host), balanced/scatter/compact (device)."""

import pytest

from repro.machines import (
    DEVICE_AFFINITIES,
    EMIL,
    HOST_AFFINITIES,
    affinity_index,
    place_device_threads,
    place_host_threads,
    placement_stats,
)


def assert_physical(slots, cores, threads_per_core):
    """No hardware thread is used twice and every slot is in range."""
    assert len(set(slots)) == len(slots)
    for slot in slots:
        assert 0 <= slot.core < cores
        assert 0 <= slot.hwthread < threads_per_core


class TestHostPlacement:
    @pytest.mark.parametrize("affinity", HOST_AFFINITIES)
    @pytest.mark.parametrize("n", [1, 2, 6, 12, 24, 36, 48])
    def test_placements_are_physically_valid(self, affinity, n):
        slots = place_host_threads(n, affinity, EMIL)
        assert len(slots) == n
        assert_physical(slots, EMIL.cpu.cores, EMIL.cpu.threads_per_core)

    def test_scatter_spreads_across_sockets_first(self):
        stats = placement_stats(place_host_threads(2, "scatter", EMIL))
        assert stats.sockets_used == 2
        assert stats.cores_used == 2

    def test_scatter_avoids_hyperthreads_until_cores_full(self):
        stats = placement_stats(place_host_threads(24, "scatter", EMIL))
        assert stats.cores_used == 24
        assert max(k for k, _ in stats.threads_per_core) == 1

    def test_scatter_48_fills_every_hwthread(self):
        stats = placement_stats(place_host_threads(48, "scatter", EMIL))
        assert dict(stats.threads_per_core) == {2: 24}

    def test_compact_packs_one_socket_first(self):
        stats = placement_stats(place_host_threads(24, "compact", EMIL))
        assert stats.sockets_used == 1
        assert stats.cores_used == 12
        assert max(k for k, _ in stats.threads_per_core) == 2

    def test_compact_two_threads_share_core(self):
        stats = placement_stats(place_host_threads(2, "compact", EMIL))
        assert stats.cores_used == 1
        assert dict(stats.threads_per_core) == {2: 1}

    def test_none_spreads_like_scatter(self):
        assert place_host_threads(13, "none", EMIL) == place_host_threads(
            13, "scatter", EMIL
        )

    def test_rejects_overflow(self):
        with pytest.raises(ValueError, match="at most 48"):
            place_host_threads(49, "scatter", EMIL)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError, match="positive"):
            place_host_threads(0, "scatter", EMIL)

    def test_rejects_unknown_affinity(self):
        with pytest.raises(ValueError, match="unknown host affinity"):
            place_host_threads(2, "balanced", EMIL)  # balanced is device-only


class TestDevicePlacement:
    @pytest.mark.parametrize("affinity", DEVICE_AFFINITIES)
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 60, 120, 240])
    def test_placements_are_physically_valid(self, affinity, n):
        slots = place_device_threads(n, affinity, EMIL.device)
        assert len(slots) == n
        assert_physical(slots, EMIL.device.usable_cores, EMIL.device.threads_per_core)

    def test_balanced_spreads_across_cores(self):
        stats = placement_stats(place_device_threads(60, "balanced", EMIL.device))
        assert stats.cores_used == 60
        assert max(k for k, _ in stats.threads_per_core) == 1

    def test_balanced_120_two_per_core(self):
        stats = placement_stats(place_device_threads(120, "balanced", EMIL.device))
        assert dict(stats.threads_per_core) == {2: 60}

    def test_balanced_keeps_consecutive_threads_together(self):
        slots = place_device_threads(90, "balanced", EMIL.device)
        # 90 threads on 60 cores: 30 cores with 2, 30 with 1, consecutive
        # threads 0,1 share core 0.
        assert slots[0].core == slots[1].core == 0
        stats = placement_stats(slots)
        assert dict(stats.threads_per_core) == {1: 30, 2: 30}

    def test_compact_fills_cores_fully(self):
        stats = placement_stats(place_device_threads(8, "compact", EMIL.device))
        assert stats.cores_used == 2
        assert dict(stats.threads_per_core) == {4: 2}

    def test_scatter_round_robins(self):
        stats = placement_stats(place_device_threads(61, "scatter", EMIL.device))
        assert stats.cores_used == 60
        assert dict(stats.threads_per_core) == {1: 59, 2: 1}

    def test_rejects_overflow(self):
        with pytest.raises(ValueError, match="at most 240"):
            place_device_threads(241, "balanced", EMIL.device)

    def test_rejects_host_affinity_name(self):
        with pytest.raises(ValueError, match="unknown device affinity"):
            place_device_threads(2, "none", EMIL.device)


class TestAffinityIndex:
    def test_host_indices_are_stable(self):
        assert [affinity_index(a, "host") for a in HOST_AFFINITIES] == [0, 1, 2]

    def test_device_indices_are_stable(self):
        assert [affinity_index(a, "device") for a in DEVICE_AFFINITIES] == [0, 1, 2]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            affinity_index("interleave", "host")
