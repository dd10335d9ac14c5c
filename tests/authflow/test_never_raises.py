"""``validate`` never raises: a stage that throws fails the attempt closed.

``AuthPipeline.run`` used to wrap each stage in ``try/finally`` for timing
only, so a storage fault inside a stage escaped through the RADIUS server,
the fabric, the RADIUS client and PAM into ``SSHClient.connect`` — which
crashed — while the same fault under ``ingest=True`` was a clean REJECT
only because the queue happened to catch it.  Now the pipeline itself
answers REJECT "internal error", writes one audit row naming the stage and
exception type and counts ``authflow_stage_errors_total{stage}``, on every
configuration.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.results import ValidateResult, ValidateStatus
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver import OTPServer
from repro.resolvers import ResolverConfig
from repro.ssh import SSHClient


def _center(ingest):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock, rng=random.Random(11), telemetry=True, ingest=ingest
    )
    center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw-alice")
    _, secret = center.pair_soft("alice")
    return center, TOTPGenerator(secret=secret, clock=clock)


def _break_updates(center):
    def broken(table, pk, changes):
        raise RuntimeError("disk on fire")

    center.otp.db.engine.update = broken


@pytest.mark.parametrize("ingest", [None, True], ids=["default", "ingest"])
class TestStorageFaultInsideAStage:
    def test_same_verdict_and_one_audit_row(self, ingest):
        center, device = _center(ingest)
        _break_updates(center)
        before = len(center.otp.audit)
        result = center.radius_backend.validate("alice", device.current_code())
        # A correct code, but the success could not be applied: fail closed.
        assert result == ValidateResult(ValidateStatus.REJECT, "internal error")
        rows = center.otp.audit.entries()[before:]
        assert [(row.action, row.success, row.detail) for row in rows] == [
            ("validate", False, "internal error: apply_outcome raised RuntimeError")
        ]
        assert rows[0].user_id == center.uid_of("alice")
        errors = center.telemetry.counter("authflow_stage_errors_total")
        assert errors.series() == {(("stage", "apply_outcome"),): 1.0}
        # Timing still lands for every stage that ran, the failed one included.
        stages = center.telemetry.histogram("authflow_stage_seconds")
        assert stages.count(stage="apply_outcome") == stages.count(stage="audit") == 1

    def test_connect_returns_a_failed_login(self, ingest):
        center, device = _center(ingest)
        _break_updates(center)
        result, _ = SSHClient(source_ip="198.51.100.7").connect(
            center.system("stampede").login_node(),
            "alice",
            password="pw-alice",
            token=device.current_code,
        )
        assert not result.success
        assert center.telemetry.counter("authflow_stage_errors_total").total() >= 1


def test_a_failed_apply_overrides_the_ok_and_the_audit_still_flushes():
    """The stage after the one that throws still runs: terminal stages are
    under the same guard, and a throwing *audit* stage cannot raise either."""
    center, device = _center(None)
    center.otp.audit.record = None  # the Audit stage itself now throws
    result = center.otp.validate("alice", device.current_code())
    assert result == ValidateResult(ValidateStatus.REJECT, "internal error")
    errors = center.telemetry.counter("authflow_stage_errors_total")
    assert errors.value(stage="audit") == 1


# -- any input at all ---------------------------------------------------------

_anything = st.one_of(st.text(max_size=40), st.binary(max_size=40))


@pytest.fixture(scope="module")
def every_token_type():
    """One account per token type on a chained, risk-scoring center, plus a
    bare server (no resolver chain) holding the same kinds."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(5),
        risk=True,
        resolvers=ResolverConfig(use_ldap=True),
    )
    center.risk_stage.add_watchlist("203.0.113.0/24")
    for name in ("soft", "sms", "hard", "static", "honey", "fed"):
        center.create_user(name, password="pw")
    center.pair_soft("soft")
    center.pair_sms("sms", "5125550100")
    center.pair_hard("hard", center.receive_hard_batch(1).serials()[0])
    center.pair_training("static", "424242")
    center.pair_honeytoken("honey")
    center.pair_federated("fed", "fed@partner", step_up_code="135790")
    bare = OTPServer(clock=clock, rng=random.Random(6))
    bare.enroll_soft("soft")
    bare.enroll_sms("sms", "5125550100")
    bare.enroll_hotp("hotp")
    bare.enroll_static("static", "424242")
    bare.enroll_honeytoken("honey")
    bare.enroll_federated("fed", "fed@partner")
    return center.otp, bare


_names = st.sampled_from(
    ["soft", "sms", "hard", "hotp", "static", "honey", "fed", "fed@partner"]
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    user=st.one_of(_names, _anything),
    code=st.one_of(st.none(), st.just("424242"), _anything),
    source=st.one_of(st.none(), st.just("203.0.113.9"), _anything),
)
@example(user="soft", code="１２３４５６", source=None)  # isdigit(), not ASCII
@example(user="\ud800", code="1", source=None)  # not encodable as UTF-8
@example(user="fed@partner", code=b"FED1.x.y", source="203.0.113.9")
def test_validate_never_raises_on_any_input(every_token_type, user, code, source):
    for server in every_token_type:
        result = server.validate(user, code, source)
        assert isinstance(result, ValidateResult)
        if isinstance(user, bytes) or isinstance(code, bytes):
            assert not result.ok  # a mistyped credential never authenticates
