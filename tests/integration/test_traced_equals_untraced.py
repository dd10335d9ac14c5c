"""Telemetry observes a validate; it never changes what the validate decides.

With telemetry on, the pipeline reads the clock at every stage boundary and
each stage takes its instant from that read instead of asking the clock
itself (docs/ARCHITECTURE.md "Telemetry").  That is only sound where
nothing can move the clock between the boundary and the stage's question,
so this differential runs one scripted session twice on a
:class:`VirtualClock` — telemetry on, then off — with a slow storage shard
and a slow LDAP resolver moving the clock inside validates, and requires
every recorded fact to be identical: verdicts, audit rows (timestamps
included), the risk engine's flags and counters, the TOTP replay floors
and learned offsets, the resolver chain's view and the storage state.
"""

import dataclasses
import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.results import ValidateStatus
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.resolvers import ResolverConfig
from repro.storage import StorageConfig, find_layer, shards_of, state_digest

SMS_PHONE = "5125550199"
WATCHLISTED = "203.0.113.5"
HOME = "198.51.100.7"


def mistyped(code):
    """A six-digit code that is not ``code``."""
    return f"{(int(code) + 500_000) % 1_000_000:06d}"


def run_session(telemetry):
    """Every observable the session leaves behind, as plain data."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(20160810),
        storage=StorageConfig(shards=2),
        resolvers=ResolverConfig(use_ldap=True),
        risk=True,
        telemetry=telemetry,
    )
    risk = center.risk_stage
    risk.add_watchlist("203.0.113.0/24")
    for name in ("alice", "bob", "carol", "dave", "erin"):
        center.create_user(name, password=f"pw-{name}")
    # The clock moves inside a validate: every op on the shard that holds
    # carol's SMS challenge, and every LDAP lookup (a resolver-cache miss).
    engine = center.otp.db.engine
    slow = find_layer(engine, "shards")._shard_of("challenges", center.uid_of("carol"))
    find_layer(shards_of(engine)[slow], "set_latency").set_latency(0.05)
    ldap = center.resolver_chain.resolver("ldap")
    ldap.set_latency(0.2)
    _, alice_secret = center.pair_soft("alice")
    batch = center.receive_hard_batch(1)
    (fob,) = batch.serials()
    center.pair_hard("bob", fob)
    center.pair_sms("carol", SMS_PHONE)
    center.pair_training("dave", "424242")
    _, erin_secret = center.pair_soft("erin")
    alice = TOTPGenerator(alice_secret, clock)
    bob = TOTPGenerator(batch.secret_for(fob), clock, skew=75.0)  # a fast fob
    erin = TOTPGenerator(erin_secret, clock)

    verdicts = []

    def validate(name, code, source=None, advance=7.0):
        """``code`` is the text typed, or the device that shows it after
        ``advance`` seconds."""
        clock.advance(advance)
        if callable(code):
            code = code()
        result = center.otp.validate(name, code, source=source)
        verdicts.append(
            (name, code, source, result.status, result.reason, result.serial, clock.now())
        )
        return result

    def text():
        clock.advance(20.0)  # the SMS gateway's delivery delay
        return center.sms_gateway.latest(SMS_PHONE).body.split()[-1]

    # Soft: a first login, its replay, then a novel watchlisted origin
    # (a risk step-up, still answered by the code).
    code = alice.current_code()
    validate("alice", code, HOME)
    validate("alice", code, HOME)
    validate("alice", alice.current_code, WATCHLISTED, advance=31.0)
    # Hard with skew: the window finds the fob's step and learns its offset.
    validate("bob", bob.current_code)
    validate("bob", bob.current_code, advance=31.0)
    # SMS: the null request, an answer, a pending repeat, an expired code.
    validate("carol", None)
    validate("carol", text())
    validate("carol", "")
    validate("carol", "")
    validate("carol", text(), advance=400.0)
    # A code answered as its challenge expires: the expiry check reads the
    # clock after the challenge reads moved it past the expiry.
    validate("carol", None)
    code = text()
    expires = center.otp.challenges.get(center.uid_of("carol"))["expires_at"]
    ldap.set_latency(0.0)
    clock.set(expires - 0.06)
    validate("carol", code, advance=0.0)
    ldap.set_latency(0.2)
    # Static: right, then wrong.
    validate("dave", "424242")
    validate("dave", "000000")
    # Wrong codes up to the lockout, a failure burst among them; one from
    # the watchlist is denied outright, then the right code meets the lock.
    for attempt in range(20):
        validate("erin", mistyped(erin.current_code()), HOME if attempt % 2 else None)
    validate("erin", mistyped(erin.current_code()), WATCHLISTED)
    validate("erin", erin.current_code, HOME)
    # An unknown name; a lookup that fails over; one after the cache expired.
    validate("nobody", "123456")
    center.resolver_chain.invalidate("alice")
    ldap.inject_failures(1)
    validate("alice", alice.current_code, HOME, advance=31.0)
    validate("alice", alice.current_code, HOME, advance=301.0)

    validator = center.otp._validator
    chain = center.resolver_chain.snapshot()
    return {
        "verdicts": verdicts,
        "audit": [dataclasses.astuple(e) for e in center.otp.audit.entries()],
        "risk": {
            "snapshot": risk.snapshot(),
            "flagged": risk.flagged(),
            "flags": {name: risk.flags_for(name) for name in ("alice", "erin")},
        },
        "totp": {
            "floors": dict(validator._last_accepted),
            "offsets": dict(validator._offsets),
        },
        "resolvers": {key: chain[key] for key in ("resolvers", "cache", "failovers")},
        "storage": state_digest(center.otp.db.engine),
        "clock": clock.now(),
    }


@pytest.fixture(scope="module")
def sessions():
    return run_session(telemetry=True), run_session(telemetry=False)


def test_the_session_reaches_every_path_it_names(sessions):
    traced, _ = sessions
    statuses = {status for *_, status, _, _, _ in traced["verdicts"]}
    assert {
        ValidateStatus.OK, ValidateStatus.REJECT, ValidateStatus.LOCKED,
        ValidateStatus.NO_TOKEN, ValidateStatus.CHALLENGE_SENT,
        ValidateStatus.CHALLENGE_PENDING,
    } <= statuses
    reasons = {reason for *_, reason, _, _ in traced["verdicts"]}
    assert {"code already used", "token code expired"} <= reasons
    name, code, _, _, reason, _, _ = traced["verdicts"][11]  # answered at expiry
    assert (name, reason) == ("carol", "token code expired") and code
    assert any(reason.startswith("risk score") for reason in reasons)
    assert traced["risk"]["snapshot"]["step_ups"] > 0
    assert traced["risk"]["snapshot"]["denies"] > 0
    assert any(offset != 0 for offset in traced["totp"]["offsets"].values())
    assert traced["resolvers"]["failovers"] == 1


@pytest.mark.parametrize(
    "fact", ["verdicts", "audit", "risk", "totp", "resolvers", "storage", "clock"]
)
def test_telemetry_changes_no_fact(sessions, fact):
    traced, untraced = sessions
    assert traced[fact] == untraced[fact]
