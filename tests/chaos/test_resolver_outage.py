"""The resolver-outage plan: LDAP goes dark mid-run, nobody notices.

The shipped ``resolver-outage`` plan wires the workload's MFACenter with
an LDAP-primary resolver chain and kills the LDAP resolver for ten
minutes.  The directory resolver must absorb the traffic (failover, not
denial), the chain's health tracking must demote the dead primary, and
the run must stay violation-free and bit-for-bit deterministic.
"""

import pytest

from repro.chaos import run
from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import ResolverOutage
from repro.chaos.plan import FaultPlan

from .conftest import report_for


@pytest.fixture(scope="module")
def outage_report():
    return run("resolver-outage", 101)


class TestFailoverUnderOutage:
    def test_outage_and_restore_events_bracket_the_window(self, outage_report):
        (outage,) = outage_report.rows("resolver_outage")
        (restore,) = outage_report.rows("resolver_restore")
        assert outage["resolver"] == "ldap"
        assert outage["t"] == 300 and restore["t"] == 900

    def test_traffic_failed_over_instead_of_failing(self, outage_report):
        (restore,) = outage_report.rows("resolver_restore")
        assert restore["failovers"] >= 1
        assert outage_report.summary()["honest"]["availability"] == 1.0

    def test_dead_primary_demoted_while_dark(self, outage_report):
        # The outage event snapshots the chain right after the first
        # failover: ldap already took its scoring hit.
        (outage,) = outage_report.rows("resolver_outage")
        (restore,) = outage_report.rows("resolver_restore")
        assert outage["state"] in ("closed", "half_open", "open")
        assert restore["state"] in ("closed", "half_open", "open")

    def test_no_invariant_violations(self, outage_report):
        assert outage_report.violations() == []


class TestDeterminism:
    def test_same_seed_same_digest(self, outage_report):
        assert run("resolver-outage", 101).log.digest() == outage_report.log.digest()

    def test_different_seed_different_digest(self, outage_report, seed):
        if seed == 101:
            pytest.skip("same seed as the module fixture")
        assert report_for("resolver-outage", seed).log.digest() != outage_report.log.digest()


class TestFaultValidation:
    def test_fault_requires_a_resolver_name(self):
        with pytest.raises(ValueError, match="needs a resolver name"):
            ResolverOutage(start=0, duration=10)

    def test_engine_without_chain_refuses_the_fault(self, clock):
        plan = FaultPlan(
            "bad", "outage with nothing attached",
            (ResolverOutage(start=0, duration=10, resolver="ldap"),),
        )
        engine = ChaosEngine(plan, clock=clock, seed=1)
        clock.advance(1.0)
        with pytest.raises(TypeError, match="no resolver chain attached"):
            engine.tick()

    def test_unknown_resolver_name_refused(self, clock):
        from repro.resolvers import ResolverChain

        plan = FaultPlan(
            "bad", "outage names a resolver the chain lacks",
            (ResolverOutage(start=0, duration=10, resolver="ghost"),),
        )
        engine = ChaosEngine(
            plan, clock=clock, seed=1, resolvers=ResolverChain(clock=clock)
        )
        clock.advance(1.0)
        with pytest.raises(TypeError, match="ghost"):
            engine.tick()
