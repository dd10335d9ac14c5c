"""Reproducibility of the rollout simulation.

The paper's figures must be regenerable: identical configuration produces
bit-identical series; different seeds move the noise but not the shape.
"""

import hashlib
import json
from dataclasses import fields
from datetime import date

from repro.sim import DailyMetrics, RolloutConfig, RolloutSimulation

#: SHA-256 of :func:`digest` for 1,000 accounts at seed 20160810 with 5 %
#: of external logins run through the real stack.  A change that moves it
#: moves a figure: re-mint it and say which series moved and why.
GOLDEN_1000 = "3073136906b4e1a99c41be0d752d1be7f17d531aaf320c9980de3b61d6a2e089"


def run(seed, population=400):
    sim = RolloutSimulation(
        RolloutConfig(population_size=population, seed=seed, real_login_fraction=0.0)
    )
    return sim.run()


def digest(metrics: DailyMetrics) -> str:
    """One hash over every day series, the pairing split and the real-path
    cross-check counters."""
    record = {f.name: getattr(metrics, f.name).tolist() for f in fields(metrics) if not f.init}
    record["pairing_types"] = metrics.pairing_types
    record["real_logins_run"] = metrics.real_logins_run
    record["real_login_mismatches"] = metrics.real_login_mismatches
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


class TestDeterminism:
    def test_identical_seeds_identical_series(self):
        a = run(123)
        b = run(123)
        for name in (
            "unique_mfa_users",
            "external_mfa",
            "external_nonmfa",
            "internal",
            "mfa_tickets",
            "other_tickets",
            "new_pairings",
        ):
            assert (getattr(a, name) == getattr(b, name)).all(), name
        assert a.pairing_types == b.pairing_types

    def test_golden_rollout(self):
        """Pinned across code changes, not just across two runs of one build."""
        sim = RolloutSimulation(
            RolloutConfig(population_size=1000, seed=20160810, real_login_fraction=0.05)
        )
        metrics = sim.run()
        assert metrics.real_logins_run > 1000 and metrics.real_login_mismatches == 0
        assert digest(metrics) == GOLDEN_1000

    def test_different_seeds_differ(self):
        a = run(123)
        b = run(456)
        assert (a.new_pairings != b.new_pairings).any()

    def test_shape_stable_across_seeds(self):
        """The qualitative claims hold for any seed, not one lucky draw."""
        for seed in (5, 77):
            m = run(seed)
            # Adoption rises across phases.
            p1 = m.mean_over(m.unique_mfa_users, date(2016, 8, 15), date(2016, 9, 5))
            p3 = m.mean_over(m.unique_mfa_users, date(2016, 10, 10), date(2016, 12, 10))
            assert p3 > p1, seed
            # Phase-2 drop in non-MFA external traffic.
            t1 = m.mean_over(m.external_nonmfa, date(2016, 8, 10), date(2016, 9, 5))
            t2 = m.mean_over(m.external_nonmfa, date(2016, 9, 10), date(2016, 10, 3))
            assert t2 < t1, seed
            # Soft remains the most popular device.
            breakdown = m.pairing_breakdown_percent()
            assert breakdown["soft"] > breakdown["sms"], seed

    def test_population_scaling(self):
        """Twice the users produce roughly twice the traffic, same shape."""
        small = run(9, population=300)
        large = run(9, population=600)
        ratio = large.all_traffic.sum() / small.all_traffic.sum()
        assert 1.4 < ratio < 2.8

    def test_run_idempotent(self):
        sim = RolloutSimulation(
            RolloutConfig(population_size=300, seed=3, real_login_fraction=0.0)
        )
        first = sim.run()
        snapshot = first.new_pairings.copy()
        second = sim.run()  # a second run() must not re-simulate
        assert second is first
        assert (first.new_pairings == snapshot).all()


class TestCSVExport:
    def test_export_round_trip(self, tmp_path):
        m = run(55, population=300)
        path = tmp_path / "series.csv"
        rows = m.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert rows == m.days
        assert len(lines) == m.days + 1  # header + one row per day
        header = lines[0].split(",")
        assert header[0] == "date"
        assert "new_pairings" in header
        # Spot-check one row against the arrays.
        first = lines[1].split(",")
        assert first[0] == m.date_of(0).isoformat()
        column = header.index("new_pairings")
        assert int(first[column]) == int(m.new_pairings[0])
