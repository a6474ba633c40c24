"""Slot enumeration and placement statistics."""

from repro.machines import EMIL, Slot, device_slots, placement_stats


class TestEnumeration:
    def test_device_slot_count_excludes_os_core(self):
        assert len(device_slots(EMIL.device)) == 240

    def test_device_slots_are_socket_zero(self):
        assert all(s.socket == 0 for s in device_slots(EMIL.device))


class TestPlacementStats:
    def test_empty_placement(self):
        stats = placement_stats([])
        assert stats.n_threads == 0
        assert stats.cores_used == 0
        assert stats.sockets_used == 0
        assert stats.threads_per_core == ()

    def test_single_core_two_threads(self):
        stats = placement_stats([Slot(0, 3, 0), Slot(0, 3, 1)])
        assert stats.n_threads == 2
        assert stats.cores_used == 1
        assert stats.sockets_used == 1
        assert stats.threads_per_core == ((2, 1),)

    def test_cross_socket_spread(self):
        stats = placement_stats([Slot(0, 0, 0), Slot(1, 0, 0), Slot(1, 5, 0)])
        assert stats.sockets_used == 2
        assert stats.cores_used == 3
        assert stats.threads_per_core == ((1, 3),)

    def test_mixed_occupancy_histogram(self):
        slots = [Slot(0, 0, 0), Slot(0, 0, 1), Slot(0, 1, 0)]
        stats = placement_stats(slots)
        assert stats.threads_per_core == ((1, 1), (2, 1))
