"""Multi-device configurations, spaces, and tables (core/params.py)."""

import numpy as np
import pytest

from repro.core import DeviceSlot, SystemConfiguration
from repro.core.params import (
    FRACTIONS,
    ConfigTable,
    ParameterSpace,
    platform_space,
    share_simplex,
    share_step_for,
)
from repro.machines import get_platform


def small_space(**overrides) -> ParameterSpace:
    """A tiny 2-device space for exhaustive checks."""
    kwargs = dict(
        host_threads=(2, 48),
        device_threads=(60, 240),
        extra_device_grids=[((30, 120), ("balanced", "scatter"))],
        shares=share_simplex(3, 25.0),
    )
    kwargs.update(overrides)
    return ParameterSpace(**kwargs)


def two_device_config(host=40.0, extra=35.0) -> SystemConfiguration:
    return SystemConfiguration(
        48, "scatter", 240, "balanced", host,
        (DeviceSlot(120, "balanced", extra),),
    )


class TestShareSimplex:
    def test_two_parts_reproduce_the_fraction_grid(self):
        vectors = share_simplex(2)
        assert tuple(v[0] for v in vectors) == FRACTIONS
        assert all(v[0] + v[1] == 100.0 for v in vectors)

    @pytest.mark.parametrize("parts", [2, 3, 4, 5, 6, 9])
    def test_vectors_sum_to_100_and_stay_bounded(self, parts):
        vectors = share_simplex(parts)
        # Stars and bars: C(units + parts - 1, parts - 1) vectors.
        assert 10 < len(vectors) < 15000
        for v in vectors:
            assert len(v) == parts
            assert sum(v) == pytest.approx(100.0, abs=1e-9)
            assert all(0.0 <= s <= 100.0 for s in v)

    def test_lexicographic_order(self):
        vectors = share_simplex(3, 25.0)
        assert vectors.index((0.0, 0.0, 100.0)) == 0
        assert list(vectors) == sorted(vectors)

    def test_step_must_divide_100(self):
        with pytest.raises(ValueError, match="divide 100"):
            share_simplex(3, 30.0)

    def test_step_grows_with_parts(self):
        steps = [share_step_for(p) for p in range(2, 10)]
        assert steps == sorted(steps)
        assert steps[0] == 2.5

    @pytest.mark.parametrize(
        "parts,step,expected",
        [
            (4, 10.0, 286),  # C(10 + 3, 3)
            (4, 5.0, 1771),  # C(20 + 3, 3)
            (5, 20.0, 126),  # C(5 + 4, 4)
            (5, 10.0, 1001),  # C(10 + 4, 4)
        ],
    )
    def test_fine_step_overrides_follow_stars_and_bars(self, parts, step, expected):
        vectors = share_simplex(parts, step)
        assert len(vectors) == expected
        assert list(vectors) == sorted(vectors)
        for v in vectors:
            assert len(v) == parts
            assert sum(v) == 100.0  # exact, not approximate
            assert all(s % step == 0.0 for s in v)

    @pytest.mark.parametrize("parts,step", [(4, 5.0), (5, 12.5)])
    def test_shard_union_reassembles_the_full_simplex(self, parts, step):
        from repro.core import plan_share_shards

        vectors = share_simplex(parts, step)
        for shards in (1, 3, 7, 16):
            ranges = plan_share_shards(len(vectors), shards)
            union = [v for a, b in ranges for v in vectors[a:b]]
            assert union == list(vectors)


class TestMultiDeviceSystemConfiguration:
    def test_share_vector_and_residual_primary(self):
        c = two_device_config(40.0, 35.0)
        assert c.num_devices == 2
        assert c.shares == (40.0, 25.0, 35.0)
        assert c.primary_device_share == 25.0
        assert [s.share for s in c.device_slots] == [25.0, 35.0]

    def test_overcommitted_shares_rejected(self):
        with pytest.raises(ValueError, match="sum to 100"):
            two_device_config(80.0, 35.0)

    def test_part_megabytes_conserves_work(self):
        c = two_device_config(40.0, 35.0)
        host_mb, dev_mbs = c.part_megabytes(1000.0)
        assert host_mb == 400.0
        assert dev_mbs == (250.0, 350.0)
        assert host_mb + sum(dev_mbs) == 1000.0

    def test_single_device_part_megabytes_unchanged(self):
        c = SystemConfiguration(48, "scatter", 240, "balanced", 62.5)
        host_mb, dev_mbs = c.part_megabytes(3170.0)
        assert host_mb == 3170.0 * 62.5 / 100.0
        assert dev_mbs == (3170.0 - host_mb,)

    def test_with_shares(self):
        c = two_device_config(40.0, 35.0).with_shares((10.0, 50.0, 40.0))
        assert c.shares == (10.0, 50.0, 40.0)
        with pytest.raises(ValueError, match="sum to 100"):
            two_device_config().with_shares((10.0, 50.0, 50.0))

    def test_describe_lists_every_part(self):
        text = two_device_config(40.0, 35.0).describe()
        assert text == "48xscatter | 240xbalanced | 120xbalanced | 40/25/35"

    def test_n1_describe_unchanged(self):
        c = SystemConfiguration(24, "scatter", 120, "balanced", 60.0)
        assert c.describe() == "24xscatter | 120xbalanced | 60/40"

    def test_list_extra_devices_coerced_even_when_empty(self):
        # An empty list must not leak through: the config stays
        # hashable and equal to its tuple-built twin.
        c = SystemConfiguration(48, "scatter", 240, "balanced", 60.0, [])
        assert c.extra_devices == ()
        assert hash(c) == hash(SystemConfiguration(48, "scatter", 240, "balanced", 60.0))
        d = SystemConfiguration(
            48, "scatter", 240, "balanced", 60.0, [DeviceSlot(120, "balanced", 20.0)]
        )
        assert isinstance(d.extra_devices, tuple)
        assert hash(d) is not None


class TestMultiDeviceSpace:
    def test_size_matches_iteration(self):
        space = small_space()
        configs = list(space)
        assert space.size() == len(configs) == 2 * 3 * 2 * 3 * 2 * 2 * 15

    def test_every_config_is_contained(self):
        space = small_space()
        for config in space:
            assert config in space

    def test_share_vectors_must_sum_to_100(self):
        with pytest.raises(ValueError, match="sum to 100"):
            small_space(shares=[(50.0, 30.0, 30.0)])

    def test_share_vectors_checked_at_construction(self):
        with pytest.raises(ValueError, match="parts"):
            small_space(shares=[(50.0, 50.0)])
        with pytest.raises(ValueError, match="outside"):
            small_space(shares=[(150.0, -50.0, 0.0)])

    def test_shares_require_extra_grids(self):
        with pytest.raises(ValueError, match="extra_device_grids"):
            ParameterSpace(shares=[(50.0, 50.0)])

    def test_random_and_neighbor_stay_in_space(self):
        space = small_space()
        rng = np.random.default_rng(7)
        c = space.random_config(rng)
        assert c in space
        for _ in range(300):
            c = space.neighbor(c, rng)
            assert c in space

    def test_neighbor_changes_at_most_one_axis(self):
        space = small_space()
        rng = np.random.default_rng(3)
        c = space.random_config(rng)
        for _ in range(200):
            n = space.neighbor(c, rng)
            diffs = sum(
                (
                    n.host_threads != c.host_threads,
                    n.host_affinity != c.host_affinity,
                    n.device_threads != c.device_threads,
                    n.device_affinity != c.device_affinity,
                    tuple(
                        (s.threads, s.affinity) for s in n.extra_devices
                    ) != tuple((s.threads, s.affinity) for s in c.extra_devices),
                    n.shares != c.shares,
                )
            )
            assert diffs <= 1
            c = n

    def test_platform_space_fits_each_card(self):
        space = platform_space(get_platform("mixedphi"))
        assert space.num_devices == 2
        primary, secondary = space.device_grids
        assert max(primary[0]) == 240  # 7120P
        assert max(secondary[0]) == 236  # 5110P: 59 usable cores x 4
        assert space.share_vectors is not None

    def test_quadphi_space_has_five_part_simplex(self):
        space = platform_space(get_platform("quadphi"))
        assert space.num_devices == 4
        assert all(len(v) == 5 for v in space.share_vectors)

    def test_single_device_platforms_unchanged(self):
        from repro.core.params import DEFAULT_SPACE

        assert platform_space(get_platform("emil")) is DEFAULT_SPACE


class TestMultiDeviceConfigTable:
    def test_round_trip(self):
        space = small_space()
        configs = list(space)[::7]
        table = ConfigTable.from_configs(configs)
        assert table.num_devices == 2
        assert table.configs() == configs

    def test_part_mb_matches_scalar_rule(self):
        space = small_space()
        configs = list(space)[::11]
        table = ConfigTable.from_configs(configs)
        host_mb, dev_mbs = table.part_mb(600.0)
        for i, config in enumerate(configs):
            want_host, want_devs = config.part_megabytes(600.0)
            assert host_mb[i] == want_host
            assert tuple(mb[i] for mb in dev_mbs) == want_devs

    def test_mixed_device_counts_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            ConfigTable.from_configs(
                [two_device_config(), SystemConfiguration(48, "scatter", 240, "balanced", 50.0)]
            )


class TestPartMbResidualClamp:
    def test_adversarial_fractions_clamp_to_zero(self):
        from repro.core.params import part_mb_columns

        # host 0 + three thirds: float64 accumulation leaves the primary
        # residual at ~-1.4e-14, which must clamp to an exactly-zero
        # megabyte column instead of going negative.
        third = 100.0 / 3.0
        host_mb, dev_mbs = part_mb_columns(
            np.array([0.0]), [np.array([third])] * 3, 3170.0
        )
        assert host_mb[0] == 0.0
        assert dev_mbs[0][0] == 0.0  # primary residual, clamped
        for mb in dev_mbs:
            assert (mb >= 0.0).all()
        # Work is still conserved to float precision.
        total = host_mb[0] + sum(mb[0] for mb in dev_mbs)
        assert total == pytest.approx(3170.0, rel=1e-12)

    def test_scalar_rule_clamps_identically(self):
        third = 100.0 / 3.0
        c = SystemConfiguration(
            48, "scatter", 240, "balanced", 0.0,
            (DeviceSlot(120, "balanced", third), DeviceSlot(120, "scatter", third)),
        )
        # primary share = 100 - 0 - 2*third ~= third - 7e-15: fine.
        host_mb, dev_mbs = c.part_megabytes(3170.0)
        assert host_mb == 0.0
        assert all(mb >= 0.0 for mb in dev_mbs)

    def test_residual_beyond_tolerance_still_raises(self):
        from repro.core.params import part_mb_columns

        with pytest.raises(ValueError, match="sum to 100"):
            part_mb_columns(
                np.array([50.0]), [np.array([30.0]), np.array([30.0])], 600.0
            )

    def test_mixed_rows_clamp_only_the_dirty_one(self):
        from repro.core.params import part_mb_columns

        third = 100.0 / 3.0
        host = np.array([0.0, 40.0])
        extras = [np.array([third, 25.0]), np.array([third, 10.0]), np.array([third, 5.0])]
        host_mb, dev_mbs = part_mb_columns(host, extras, 1000.0)
        assert dev_mbs[0][0] == 0.0
        assert dev_mbs[0][1] == pytest.approx(200.0)  # 100-40-40 = 20 %
        assert host_mb[1] == pytest.approx(400.0)
