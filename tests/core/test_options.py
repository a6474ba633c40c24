"""The unified TuningOptions object: the one path for execution knobs."""

import dataclasses

import pytest

from repro.core import CachedEngine, TuningOptions, tune_platform

ITERS = 60


class TestDefaultsAndValidation:
    def test_defaults_match_the_historical_keywords(self):
        opts = TuningOptions()
        assert opts.engine == "cached+batched"
        assert opts.batch_size == 64
        assert opts.shards == 1
        assert opts.refine is None
        assert opts.processes is None
        assert opts.start_method is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TuningOptions().engine = "serial"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"shards": 0},
            {"refine": 0.0},
            {"refine": -2.5},
            {"processes": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TuningOptions(**kwargs)

    def test_engine_names_are_normalized(self):
        assert TuningOptions(engine="  Cached+Batched ").engine == "cached+batched"
        assert TuningOptions(engine="  Cached+Batched ") == TuningOptions()

    @pytest.mark.parametrize("engine", ["bogus", "", 7, CachedEngine()])
    def test_unknown_engines_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            TuningOptions(engine=engine)


class TestViews:
    def test_for_cell_strips_fanout_knobs_only(self):
        opts = TuningOptions(engine="cached", processes=4, start_method="spawn")
        cell = opts.for_cell()
        assert cell.processes is None and cell.start_method is None
        assert cell.engine == "cached" and cell.batch_size == opts.batch_size

    def test_for_cell_is_identity_without_fanout_knobs(self):
        opts = TuningOptions()
        assert opts.for_cell() is opts

    def test_engine_instance_materializes_names(self):
        engine = TuningOptions(engine="cached", batch_size=8).engine_instance()
        assert isinstance(engine, CachedEngine)

    def test_engine_instance_is_none_for_direct_evaluation(self):
        assert TuningOptions(engine=None).engine_instance() is None

    def test_engine_instance_is_fresh_per_call(self):
        opts = TuningOptions(engine="cached")
        assert opts.engine_instance() is not opts.engine_instance()


class TestEntryPoints:
    """``options=None`` means the defaults; knobs reach the cell through options only."""

    def test_tune_platform_none_equals_default_options(self):
        implicit = tune_platform("emil", iterations=ITERS, seed=0)
        explicit = tune_platform(
            "emil", iterations=ITERS, seed=0, options=TuningOptions()
        )
        assert implicit == explicit

    @pytest.mark.parametrize(
        "legacy",
        [{"engine": "serial"}, {"batch_size": 8}, {"shards": 2}, {"refine": 2.5}],
    )
    def test_knobs_are_not_keywords(self, legacy):
        with pytest.raises(TypeError, match="unexpected keyword"):
            tune_platform("emil", iterations=ITERS, seed=0, **legacy)
