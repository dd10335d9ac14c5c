"""Property-based contracts of the risk engine (Hypothesis).

Three invariants every scoring configuration must satisfy, regardless of
which weights an operator dials in:

* the score is always clamped to [0, 1];
* firing an additional signal never *lowers* the score (monotonicity —
  more evidence of attack cannot make a login look safer);
* the threshold ordering ``step_up <= deny`` is enforced at construction,
  and the action mapping respects it for every score.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.policy.risk import RiskAction, RiskEngine, RiskWeights

#: The signals a bare engine (no geo monitor) can fire, with the state
#: manipulation that arms each one.
SIGNALS = ("failure_burst", "novel_origin", "unusual_hour", "watchlisted_network")

weight = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
weights_strategy = st.fixed_dictionaries({name: weight for name in SIGNALS})
flags_strategy = st.fixed_dictionaries({name: st.booleans() for name in SIGNALS})
threshold = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

ATTACKER_IP = "203.0.113.5"


def build_engine(flags, weights, step_up=0.0, deny=1.0):
    """An engine whose next ``assess`` fires exactly the flagged signals."""
    clock = VirtualClock.at(
        "2016-10-05T03:00:00" if flags["unusual_hour"] else "2016-10-05T12:00:00"
    )
    engine = RiskEngine(
        clock=clock,
        weights=RiskWeights(impossible_travel=0.0, **weights),
        step_up_threshold=step_up,
        deny_threshold=deny,
    )
    if flags["novel_origin"]:
        # A known origin that is not the attacker's address.  Recorded
        # *before* the failures: a success resets the burst window.
        engine.record_success("alice", "198.51.100.1")
    if flags["failure_burst"]:
        for _ in range(3):
            engine.record_failure("alice")
    if flags["watchlisted_network"]:
        engine.add_watchlist("203.0.113.0/24")
    return engine


@settings(max_examples=60, deadline=None)
@given(flags=flags_strategy, weights=weights_strategy)
def test_score_always_clamped(flags, weights):
    decision = build_engine(flags, weights).assess("alice", ATTACKER_IP)
    assert 0.0 <= decision.score <= 1.0


@settings(max_examples=60, deadline=None)
@given(flags=flags_strategy, weights=weights_strategy)
def test_score_is_clamped_signal_sum(flags, weights):
    decision = build_engine(flags, weights).assess("alice", ATTACKER_IP)
    expected = min(sum(weights[name] for name in SIGNALS if flags[name]), 1.0)
    assert decision.score == pytest.approx(expected)
    assert sorted(decision.signals) == sorted(n for n in SIGNALS if flags[n])


@settings(max_examples=60, deadline=None)
@given(
    flags=flags_strategy,
    weights=weights_strategy,
    extra=st.sampled_from(SIGNALS),
)
def test_adding_a_signal_never_lowers_score(flags, weights, extra):
    base = build_engine(flags, weights).assess("alice", ATTACKER_IP)
    more = build_engine({**flags, extra: True}, weights).assess("alice", ATTACKER_IP)
    assert more.score >= base.score


@settings(max_examples=60, deadline=None)
@given(step_up=threshold, deny=threshold)
def test_threshold_ordering_enforced_at_construction(step_up, deny):
    if step_up <= deny:
        engine = RiskEngine(step_up_threshold=step_up, deny_threshold=deny)
        assert engine.step_up_threshold <= engine.deny_threshold
    else:
        with pytest.raises(ValueError):
            RiskEngine(step_up_threshold=step_up, deny_threshold=deny)


@settings(max_examples=60, deadline=None)
@given(
    flags=flags_strategy,
    weights=weights_strategy,
    step_up=threshold,
    deny=threshold,
)
def test_action_respects_threshold_ordering(flags, weights, step_up, deny):
    if step_up > deny:
        step_up, deny = deny, step_up
    engine = build_engine(flags, weights, step_up=step_up, deny=deny)
    decision = engine.assess("alice", ATTACKER_IP)
    if decision.score >= deny:
        assert decision.action is RiskAction.DENY
    elif decision.score >= step_up:
        assert decision.action is RiskAction.STEP_UP
    else:
        assert decision.action is RiskAction.ALLOW
