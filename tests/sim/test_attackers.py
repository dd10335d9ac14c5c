"""Adversarial campaigns: determinism, invariants, and deterrence shape.

The blocked-rate table has a known shape from the MFA-effectiveness
literature (arXiv 2305.00945): stuffing is ~fully blocked by any real
token, real-time phishing partially defeats code entry, SIM swap fully
defeats SMS, and the unpaired tail is the single-factor success channel.
These tests pin that shape, the adversarial invariants, and that two runs
of the same campaign are equal down to the event-log digest.
"""

import pytest

from repro.chaos import campaigns, run

SCENARIOS = [campaign.name for campaign in campaigns.CAMPAIGNS]


@pytest.fixture(scope="module")
def reports():
    """One run per campaign at 10k accounts, shared across the module."""
    return {s: run(s, 101) for s in SCENARIOS}


def by_group(report):
    return report.summary()["attack"]["by_group"]


class TestConfigValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run("ddos", 101)


class TestDeterminism:
    def test_same_config_same_summary_and_digest(self):
        a = run("stuffing", 101).summary()
        b = run("stuffing", 101).summary()
        assert a == b
        assert a["digest"] == b["digest"]

    def test_different_seeds_differ(self):
        a = run("stuffing", 101).summary()
        b = run("stuffing", 202).summary()
        assert a["digest"] != b["digest"]

    def test_population_assignment_shared_across_scenarios(self, reports):
        populations = {s: r.summary()["run"]["population"] for s, r in reports.items()}
        # The federated scenario deploys the soft-token cohort as federated
        # pairings — same underlying assignment, one kind relabeled.
        federated = populations.pop("federated", None)
        assert len({tuple(sorted(p.items())) for p in populations.values()}) == 1
        if federated is not None:
            baseline = populations["stuffing"]
            # The soft cohort left the "totp" reporting group wholesale...
            assert federated["federated"] + federated["totp"] == baseline["totp"]
            assert federated["federated"] > 0
            # ...and every other group is untouched.
            for group, count in baseline.items():
                if group != "totp":
                    assert federated[group] == count

    def test_no_wall_clock_in_summary(self, reports):
        summary = reports["stuffing"].summary()
        flat = repr(summary)
        assert "2026" not in flat  # no real-world dates leak in
        for key in summary:
            assert "time" not in key and "date" not in key


class TestInvariants:
    """The adversarial invariants hold for every shipped campaign."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_zero_violations(self, reports, scenario):
        assert reports[scenario].violations() == []

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_success_was_flagged(self, reports, scenario):
        for a in reports[scenario].rows("attack"):
            if a["ok"]:
                assert a["flagged"], a

    def test_honey_uses_equal_alarms(self, reports):
        report = reports["stuffing"]
        uses = sum(
            1
            for a in report.rows("attack")
            if a["group"] == "honeytoken" and a["blocked_by"] != "no_code"
        )
        assert uses > 0
        assert uses == report.alarms


class TestDeterrenceShape:
    """Blocked rates match the literature's qualitative findings."""

    def test_stuffing_blocked_by_every_real_token(self, reports):
        rates = by_group(reports["stuffing"])
        attacked = [g for g in ("totp", "sms", "hotp", "static") if g in rates]
        assert attacked  # at least some real tokens were in the dump
        for group in attacked:
            assert rates[group]["blocked_rate"] == 1.0, group

    def test_stuffing_unpaired_is_the_open_channel(self, reports):
        rates = by_group(reports["stuffing"])
        # Single-factor accounts fall to stolen credentials unless the
        # risk stage denies outright.
        assert rates["none"]["succeeded"] + rates["none"]["blocked"] == rates[
            "none"
        ]["attempts"]
        summary = reports["stuffing"].summary()
        assert set(summary["attack"]["success_channels"]) <= {"password_only", "stolen_seed"}

    def test_phishing_partially_defeats_totp(self, reports):
        stuffing = by_group(reports["stuffing"])["totp"]["blocked_rate"]
        phishing = by_group(reports["phishing"])["totp"]["blocked_rate"]
        assert phishing < stuffing
        assert 0.0 < phishing < 1.0

    def test_phishing_never_breaks_static_codes_twice(self, reports):
        # A phished static code is simply the credential: relaying it
        # succeeds unless the victim's own login tripped replay defenses.
        assert by_group(reports["phishing"])["static"]["blocked_rate"] < 1.0

    def test_simswap_defeats_sms(self, reports):
        assert by_group(reports["simswap"])["sms"]["blocked_rate"] < 0.2
        # Non-SMS targets fall back to stuffing, so sim_swap successes can
        # only come from accounts whose number the attacker ported.
        for a in reports["simswap"].rows("attack"):
            if a["channel"] == "sim_swap":
                assert a["group"] == "sms"

    def test_honeytokens_catch_their_attackers(self, reports):
        for scenario in SCENARIOS:
            honeytoken = reports[scenario].summary()["attack"]["honeytoken"]
            assert honeytoken["uses"] == honeytoken["alarms"]
            assert honeytoken["uses"] > 0

    def test_legit_traffic_unharmed(self, reports):
        # Deterrence must not come from breaking the real users.
        honest = reports["stuffing"].summary()["honest"]
        assert honest["attempts"] > 0
        assert honest["succeeded"] == honest["attempts"]


class TestReportMechanics:
    def test_summary_counts_are_consistent(self, reports):
        attack = reports["mixed"].summary()["attack"]
        blocked = sum(attack["blocked_by"].values())
        succeeded = sum(attack["success_channels"].values())
        assert blocked + succeeded == attack["attempts"]
        assert sum(r["attempts"] for r in attack["by_group"].values()) == attack["attempts"]

    def test_risk_snapshot_travels_with_report(self, reports):
        risk = reports["stuffing"].summary()["risk"]
        assert risk["assessed"] > 0
        assert risk["flagged_users"] > 0
        assert risk["step_up_threshold"] <= risk["deny_threshold"]

    def test_simulation_enrolls_only_targets(self, monkeypatch):
        monkeypatch.setattr(campaigns, "ACCOUNTS", 2000)
        sim = campaigns.AttackSimulation(campaigns.CAMPAIGNS[0], 101)
        enrolled = sum(sim.server.token_count_by_type().values())
        paired_targets = sum(1 for t in sim.targets if t.kind != "none")
        assert enrolled == paired_targets
        assert len(sim.targets) < 2000
