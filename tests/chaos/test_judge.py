"""The judge, by example: one synthetic event log per invariant.

:func:`repro.chaos.report.judge` is the only place the scenario invariants
live, so each rule gets one log that breaks it and nothing else, and a
clean log breaks none.
"""

import pytest

from repro.chaos import judge


def honest(**fields):
    row = {"user": "u", "expect": True, "healthy": True, "ok": True, "silent": False}
    return {"kind": "attempt", "t": 1.0, **row, "latency": 0.0, **fields}


def attack(**fields):
    row = {"user": "v", "group": "totp", "channel": "guessed_code", "ok": False}
    flags = {"blocked_by": "otp_reject", "flagged": False, "alarmed": False}
    return {"kind": "attack", "t": 2.0, **row, **flags, **fields}


#: Every kind of row the judge reads, each on its passing side.  The one
#: honeytoken use raised the one alarm; a null request (``no_code``) is no use.
CLEAN = [
    {"kind": "run", "t": 0.0, "scenario": "synthetic", "seed": 1},
    honest(),
    honest(expect=False, ok=False),
    honest(healthy=False, ok=False),
    attack(),
    attack(group="honeytoken", channel="stolen_seed", ok=True, blocked_by="",
           flagged=True, alarmed=True),
    attack(group="honeytoken", channel="sim_swap", blocked_by="no_code"),
    {"kind": "shard_crash", "t": 3.0, "shard": 0, "digest_match": True},
    {"kind": "backfill_drain", "t": 4.0, "remaining": 0},
]

#: invariant -> (the rows that break it, the alarms the deployment raised).
BROKEN = {
    "wrong-code accept": ([honest(expect=False, ok=True)], 1),
    "availability floor": ([honest(ok=False)], 1),
    "silent denial": ([honest(expect=False, ok=False, silent=True)], 1),
    "storage digest mismatch": (
        [{"kind": "shard_rejoin", "t": 5.0, "shard": 1, "digest_match": False}], 1
    ),
    "undrained backfill": ([{"kind": "backfill_drain", "t": 6.0, "remaining": 3}], 1),
    # The second alarm came from somewhere else: this use raised none.
    "unalarmed honeytoken use": ([attack(group="honeytoken")], 2),
    "unflagged attacker success": ([attack(ok=True, blocked_by="")], 1),
    "honeytoken uses != alarms": ([], 2),
}


def test_a_clean_log_breaks_nothing():
    assert judge(CLEAN, 0.99, 1) == []


@pytest.mark.parametrize("invariant", sorted(BROKEN))
def test_each_rule_names_its_one_violation(invariant):
    rows, alarms = BROKEN[invariant]
    violations = judge(CLEAN + rows, 0.99, alarms)
    assert len(violations) == 1, violations
    assert violations[0].startswith(f"{invariant}: "), violations
