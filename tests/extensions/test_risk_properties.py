"""Property-based contracts of the risk engine (Hypothesis).

Three invariants every scoring configuration must satisfy, regardless of
which weights an operator dials in:

* the score is always clamped to [0, 1];
* firing an additional signal never *lowers* the score (monotonicity —
  more evidence of attack cannot make a login look safer);
* the threshold ordering ``step_up <= deny`` is enforced at construction,
  and the action mapping respects it for every score.

The weights and the deny bar are module constants of
:mod:`repro.policy.risk`; each example patches them for its own duration.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.policy import risk
from repro.policy.risk import RiskAction, RiskEngine

#: The signals a bare engine (no geo monitor) can fire, with the state
#: manipulation that arms each one.
SIGNALS = ("failure_burst", "novel_origin", "unusual_hour", "watchlisted_network")

weight = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
weights_strategy = st.fixed_dictionaries({name: weight for name in SIGNALS})
flags_strategy = st.fixed_dictionaries({name: st.booleans() for name in SIGNALS})
threshold = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

ATTACKER_IP = "203.0.113.5"


def constants(weights=None, deny=1.0):
    """Patch the signal weights and the deny bar for one example."""
    values = {f"{name.upper()}_WEIGHT": w for name, w in (weights or {}).items()}
    return mock.patch.multiple(risk, DENY_THRESHOLD=deny, **values)


def assess(flags, weights, step_up=0.0, deny=1.0):
    """Score the attacker's attempt on an engine that fires exactly the
    flagged signals, under the given weights and thresholds."""
    with constants(weights, deny):
        return build_engine(flags, step_up).assess("alice", ATTACKER_IP)


def build_engine(flags, step_up):
    clock = VirtualClock.at(
        "2016-10-05T03:00:00" if flags["unusual_hour"] else "2016-10-05T12:00:00"
    )
    engine = RiskEngine(clock=clock, step_up_threshold=step_up)
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
    decision = assess(flags, weights)
    assert 0.0 <= decision.score <= 1.0


@settings(max_examples=60, deadline=None)
@given(flags=flags_strategy, weights=weights_strategy)
def test_score_is_clamped_signal_sum(flags, weights):
    decision = assess(flags, weights)
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
    base = assess(flags, weights)
    more = assess({**flags, extra: True}, weights)
    assert more.score >= base.score


@settings(max_examples=60, deadline=None)
@given(step_up=threshold, deny=threshold)
def test_threshold_ordering_enforced_at_construction(step_up, deny):
    with constants(deny=deny):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        if step_up <= deny:
            engine = RiskEngine(clock, step_up_threshold=step_up)
            assert engine.step_up_threshold <= engine.snapshot()["deny_threshold"]
        else:
            with pytest.raises(ValueError):
                RiskEngine(clock, step_up_threshold=step_up)


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
    decision = assess(flags, weights, step_up=step_up, deny=deny)
    if decision.score >= deny:
        assert decision.action is RiskAction.DENY
    elif decision.score >= step_up:
        assert decision.action is RiskAction.STEP_UP
    else:
        assert decision.action is RiskAction.ALLOW
