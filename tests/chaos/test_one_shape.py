"""One deployment under test.

``run_plan`` builds the same ``MFACenter`` — the production shape: sharded
and replicated storage, ingest queue, risk stage, LDAP-first resolvers —
for every shipped plan, with or without the attacker's attempts.  The plan
decides what happens to the deployment, never what it is made of, so every
fault meets the stack that ships.
"""

import pytest

from repro.chaos import BatchBackfill, FaultPlan, run, runner, shipped_plans

from .conftest import report_for


class _Built(Exception):
    """Raised by the spy: the deployment's shape is known, skip the run."""


def center_kwargs(monkeypatch, plan_name: str, attacker: bool) -> dict:
    def spy(**kwargs):
        raise _Built(kwargs)

    monkeypatch.setattr(runner, "MFACenter", spy)
    monkeypatch.setattr(runner, "ATTACKER_ATTEMPTS", 12 if attacker else 0)
    with pytest.raises(_Built) as built:
        run(shipped_plans()[plan_name], 101)
    kwargs = dict(built.value.args[0])
    # Live objects compare by what they were built from.
    clock, rng = kwargs.pop("clock"), kwargs.pop("rng")
    kwargs["clock"] = (type(clock), clock.now())
    kwargs["rng"] = (type(rng), rng.getstate())
    kwargs["radius_wait_clock"] = kwargs["radius_wait_clock"] is clock
    return kwargs


@pytest.mark.parametrize("attacker", [False, True])
@pytest.mark.parametrize("plan_name", sorted(shipped_plans()))
def test_every_plan_builds_the_same_deployment(monkeypatch, plan_name, attacker):
    reference = center_kwargs(monkeypatch, "baseline", False)
    assert center_kwargs(monkeypatch, plan_name, attacker) == reference
    assert reference["storage"].replicas == 2 and reference["storage"].shards == 2
    assert reference["ingest"] and reference["risk"] is True
    assert reference["resolvers"].use_ldap and reference["radius_wait_clock"]


def test_shard_crash_still_promotes_and_rejoins_on_the_one_shape(seed):
    report = report_for("kill-a-shard", seed)
    crash, rejoin = report.rows("shard_crash"), report.rows("shard_rejoin")
    assert len(crash) == len(rejoin) == 1
    assert crash[0]["digest_match"] is True and rejoin[0]["digest_match"] is True


def test_backfill_still_drains_on_the_one_shape(seed):
    drains = report_for("resync-storm", seed).rows("backfill_drain")
    assert len(drains) == 1 and drains[0]["remaining"] == 0


def test_a_plan_without_deferred_work_schedules_no_pump(monkeypatch):
    """The backfill window owns the pump: only a plan with one attaches it."""
    from repro.ingest import IngestQueue

    attached = []
    attach = IngestQueue.attach
    monkeypatch.setattr(
        IngestQueue,
        "attach",
        lambda self, *a, **kw: attached.append(1) or attach(self, *a, **kw),
    )
    monkeypatch.setattr(runner, "LOGINS", 5)
    run("partition", 101)
    assert attached == []
    monkeypatch.setattr(runner, "LOGINS", 3)
    storm = FaultPlan("mini-storm", "", (BatchBackfill(start=10, duration=20, items=50),))
    report = run(storm, 101)
    assert attached == [1]
    assert report.rows("backfill_drain")[0]["remaining"] == 0


def test_first_event_names_the_run(monkeypatch):
    monkeypatch.setattr(runner, "LOGINS", 3)
    report = run("baseline", 7)
    assert report.log.events[0] == {
        "kind": "run", "t": 0.0, "scenario": "baseline", "seed": 7, "logins": 3,
    }
    assert report.summary()["run"] == {"scenario": "baseline", "seed": 7, "logins": 3}
