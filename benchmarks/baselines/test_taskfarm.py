"""Dynamic task-farm scheduler baseline."""

import pytest

from baselines.taskfarm import TaskFarmScheduler
from repro.machines import PlatformSimulator


@pytest.fixture(scope="module")
def farm():
    return TaskFarmScheduler(PlatformSimulator(seed=0, noise=False), seed=0)


class TestRun:
    def test_all_tasks_scheduled(self, farm):
        res = farm.run(3170.0, 32)
        assert res.host_tasks + res.device_tasks == 32
        assert len(res.timeline) == 32

    def test_timeline_is_consistent(self, farm):
        res = farm.run(3170.0, 16)
        per_worker = {"host": [], "device": []}
        for rec in res.timeline:
            assert rec.end_s > rec.start_s
            per_worker[rec.worker].append(rec)
        # Tasks on the same worker never overlap.
        for recs in per_worker.values():
            recs.sort(key=lambda r: r.start_s)
            for a, b in zip(recs, recs[1:]):
                assert b.start_s >= a.end_s - 1e-12

    def test_makespan_is_last_completion(self, farm):
        res = farm.run(3170.0, 16)
        assert res.makespan_s == pytest.approx(max(r.end_s for r in res.timeline))

    def test_faster_host_pulls_more_tasks(self, farm):
        res = farm.run(3170.0, 64)
        # Host scan rate ~3.5 GB/s vs device ~3.1 GB/s minus transfer:
        # the host should take the majority of tasks.
        assert res.host_tasks > res.device_tasks

    def test_single_task_runs_on_host(self, farm):
        # The host is free at t=0; the device pays its launch latency.
        res = farm.run(100.0, 1)
        assert res.host_tasks == 1
        assert res.device_tasks == 0

    def test_validation(self, farm):
        with pytest.raises(ValueError):
            farm.run(0.0, 4)
        with pytest.raises(ValueError):
            farm.run(100.0, 0)
        with pytest.raises(ValueError):
            TaskFarmScheduler(PlatformSimulator(), dispatch_overhead_s=-1.0)


class TestGranularity:
    def test_sweep_returns_all_counts(self, farm):
        sweep = farm.sweep_granularity(3170.0, (2, 8, 32))
        assert set(sweep) == {2, 8, 32}

    def test_moderate_granularity_beats_extremes(self, farm):
        sweep = farm.sweep_granularity(3170.0, (2, 32, 4096))
        assert sweep[32].makespan_s < sweep[2].makespan_s
        assert sweep[32].makespan_s < sweep[4096].makespan_s

    def test_best_granularity_is_argmin(self, farm):
        n, best = farm.best_granularity(3170.0, (2, 8, 32, 128))
        sweep = farm.sweep_granularity(3170.0, (2, 8, 32, 128))
        assert best.makespan_s == min(r.makespan_s for r in sweep.values())
        assert sweep[n].makespan_s == best.makespan_s


class TestAgainstStatic:
    def test_near_static_optimum_without_tuning(self):
        """At good granularity the farm self-balances close to the EM
        split's performance — the related-work claim."""
        sim = PlatformSimulator(seed=0, noise=False)
        farm = TaskFarmScheduler(sim, seed=0)
        _, best = farm.best_granularity(3170.0)
        host_only = sim.true_host_time(48, "scatter", 3170.0)
        # EM optimum is ~0.54 s; host-only ~0.88 s.
        assert best.makespan_s < host_only
        assert best.makespan_s < 0.80

    def test_balanced_shares_emerge(self):
        sim = PlatformSimulator(seed=0, noise=False)
        farm = TaskFarmScheduler(sim, seed=0)
        res = farm.run(3170.0, 128)
        # The pull model should discover a host share near the static
        # optimum (~60%) without being told any rates.
        assert 45.0 <= res.host_share_percent <= 75.0
        assert res.utilization > 0.9
