"""Parallel seed sweeps: worker correctness, pool equivalence, aggregation."""

from repro.sim.sweep import aggregate, run_sweep, summarize
from repro.sim import RolloutConfig, RolloutSimulation


class TestSummarize:
    def test_summary_fields(self):
        sim = RolloutSimulation(
            RolloutConfig(population_size=300, seed=7, real_login_fraction=0.0)
        )
        summary = summarize(sim.run(), seed=7, population=300)
        assert summary.seed == 7
        assert 0 < summary.predeadline_share <= 1
        assert 0 <= summary.ticket_share_2016 <= 1
        assert summary.soft_percent > summary.hard_percent
        assert 0 < summary.holiday_dip < 1


class TestSweep:
    def test_inline_sweep(self):
        summaries = run_sweep([11, 22], population=300, processes=1)
        assert [s.seed for s in summaries] == [11, 22]
        assert summaries[0] != summaries[1]

    def test_parallel_matches_inline(self):
        """Pool execution must be bit-identical to inline execution."""
        inline = run_sweep([5, 6], population=300, processes=1)
        parallel = run_sweep([5, 6], population=300, processes=2)
        assert inline == parallel

    def test_single_seed_runs_inline(self):
        summaries = run_sweep([3], population=300)
        assert len(summaries) == 1


class TestAggregate:
    def test_aggregate_shape(self):
        summaries = run_sweep([1, 2, 3], population=300, processes=1)
        stats = aggregate(summaries)
        assert "sep7_rank" in stats and "soft_percent" in stats
        for entry in stats.values():
            assert entry["min"] <= entry["mean"] <= entry["max"]

    def test_empty(self):
        assert aggregate([]) == {}

    def test_paper_shapes_hold_across_seeds(self):
        """The robustness claim itself, at small scale."""
        summaries = run_sweep([101, 202, 303], population=400, processes=1)
        for s in summaries:
            assert s.sep7_rank <= 3, s.seed
            assert s.predeadline_share > 0.5, s.seed
            assert s.phase2_traffic_drop > 0.1, s.seed
            assert s.soft_percent > s.sms_percent > s.hard_percent, s.seed

    def test_summary_is_picklable(self):
        import pickle

        (summary,) = run_sweep([3], population=300)
        assert pickle.loads(pickle.dumps(summary)) == summary
