"""The headline deliverable: whole-workload invariants under every plan.

Each test drives (via the cached :func:`report_for`) a 120-login workload
through the full stack — sshd, PAM, the health-aware RADIUS client, the
LinOTP back end, sharded storage — while one shipped fault plan fires,
and asserts the properties that must survive *any* of the shipped chaos:

a. a wrong token code is never accepted;
b. availability stays at or above the plan's floor while at least one
   RADIUS server is free of deterministic blocking;
c. every denial showed the user a reason beyond the login banner;
d. identical seeds yield byte-identical event logs.
"""

import pytest

from repro.chaos import run, shipped_plans

from .conftest import report_for

PLAN_NAMES = sorted(shipped_plans())


@pytest.mark.parametrize("plan_name", PLAN_NAMES)
class TestInvariants:
    def test_no_false_accepts(self, plan_name, seed):
        rows = report_for(plan_name, seed).rows("attempt")
        assert [row for row in rows if row["ok"] and not row["expect"]] == []

    def test_availability_floor(self, plan_name, seed):
        report = report_for(plan_name, seed)
        eligible = [row for row in report.rows("attempt") if row["expect"] and row["healthy"]]
        assert eligible, "workload produced no eligible honest logins"
        assert sum(row["ok"] for row in eligible) / len(eligible) >= report.floor

    def test_every_denial_has_a_reason(self, plan_name, seed):
        rows = report_for(plan_name, seed).rows("attempt")
        assert [row for row in rows if not row["ok"] and row["silent"]] == []

    def test_no_violations_reported(self, plan_name, seed):
        # The judge agrees with the individual assertions.
        assert report_for(plan_name, seed).violations() == []


class TestDeterminism:
    @pytest.mark.parametrize("plan_name", ["partition", "kitchen-sink"])
    def test_same_seed_same_event_log(self, plan_name, seed):
        cached = report_for(plan_name, seed)
        fresh = run(plan_name, seed)
        assert fresh.log.lines() == cached.log.lines()
        assert fresh.log.digest() == cached.log.digest()

    def test_different_seeds_differ(self):
        a = report_for("loss-burst", 101)
        b = run("loss-burst", 102)
        assert a.log.digest() != b.log.digest()


class TestWorkloadShape:
    def test_wrong_code_probes_present(self, seed):
        rows = report_for("baseline", seed).rows("attempt")
        probes = [row for row in rows if not row["expect"]]
        assert len(probes) == 120 // 9
        assert all(not row["ok"] for row in probes)
        # Probes are rejected with the wire's uniform error, not silently.
        assert all(not row["silent"] for row in probes)

    def test_baseline_all_honest_logins_succeed(self, seed):
        rows = report_for("baseline", seed).rows("attempt")
        assert all(row["ok"] for row in rows if row["expect"])

    def test_partition_marks_servers_unhealthy_not_the_farm(self, seed):
        # Two of three servers blocked still leaves the farm "healthy" for
        # the availability invariant — and logins keep succeeding.
        report = report_for("partition", seed)
        assert all(row["healthy"] for row in report.rows("attempt"))
        assert report.rows("partition_drop"), "the partition never vetoed a datagram"
