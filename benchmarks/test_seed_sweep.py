"""SWEEP — cross-seed robustness of the reproduced figures.

Runs the rollout at several independent seeds in parallel and prints the
mean/min/max of every figure-level statistic: the evidence that the
reproduced shapes are properties of the model, not of one lucky seed.
"""

import pytest

from repro.analysis.report import PAPER
from repro.sim.sweep import aggregate, run_sweep

SEEDS = [20160810, 7, 123, 2024]
#: The paper's population: under ~2,000 accounts the hard-token share (1.43 %)
#: is a dozen pairings and Table 1's ordering is noise.
POPULATION = 10_000


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SEEDS, population=POPULATION, processes=2)


class TestSweep:
    def test_print_cross_seed_table(self, sweep):
        stats = aggregate(sweep)
        print(f"\n=== Cross-seed sweep ({len(sweep)} seeds x {POPULATION:,} accounts) ===")
        print(f"    {'statistic':<22} {'mean':>8} {'min':>8} {'max':>8} {'paper':>8}")
        for name, entry in stats.items():
            paper = PAPER.get(name)
            paper_text = f"{paper:>8}" if paper is not None else "       -"
            print(
                f"    {name:<22} {entry['mean']:>8.3f} {entry['min']:>8.3f} "
                f"{entry['max']:>8.3f} {paper_text}"
            )

    def test_sep7_always_near_top(self, sweep):
        assert all(s.sep7_rank <= 3 for s in sweep)

    def test_oct4_always_a_spike_never_the_runaway_peak(self, sweep):
        assert all(2 <= s.oct4_rank <= 8 for s in sweep)

    def test_majority_always_paired_early(self, sweep):
        assert all(s.predeadline_share > 0.55 for s in sweep)

    def test_ticket_share_always_wanes(self, sweep):
        assert all(s.ticket_share_2017 < s.ticket_share_2016 for s in sweep)

    def test_table1_ordering_stable(self, sweep):
        for s in sweep:
            assert s.soft_percent > s.sms_percent > s.training_percent > s.hard_percent

    def test_holiday_dip_universal(self, sweep):
        assert all(s.holiday_dip < 0.6 for s in sweep)

    def test_bench_parallel_sweep(self, benchmark):
        """Wall-clock of a 2-seed parallel sweep at reduced population."""
        result = benchmark.pedantic(
            lambda: run_sweep([1, 2], population=300, processes=2),
            rounds=2,
            iterations=1,
        )
        assert len(result) == 2
