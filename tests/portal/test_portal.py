"""Portal flows: interstitial, three pairings, unpairing, signed URLs."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError, ValidationError
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.portal import HardTokenStore, UserPortal
from repro.portal.pairing import PairingState
from repro.qr import decode_matrix, parse_otpauth_uri
from repro.resolvers import ResolverConfig
from repro.storage import StorageConfig


@pytest.fixture
def clock():
    return VirtualClock.at("2016-08-15T10:00:00")


def make_rig(clock, **stack):
    center = MFACenter(clock=clock, rng=random.Random(1), **stack)
    api = AdminAPI(center.otp, rng=random.Random(2))
    api.add_admin("portal-svc", "s3cret")
    client = AdminAPIClient(api, "portal-svc", "s3cret", rng=random.Random(3))
    portal = UserPortal(center.identity, client, clock=clock, rng=random.Random(4))
    center.create_user("alice", password="pw")

    class Rig:
        pass

    r = Rig()
    r.center, r.portal, r.clock = center, portal, clock
    return r


@pytest.fixture
def rig(clock):
    return make_rig(clock)


def scan_and_confirm(rig, username="alice"):
    """Helper: run the whole soft pairing flow; returns the device."""
    session, qr = rig.portal.begin_soft_pairing(username)
    parsed = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
    device = TOTPGenerator(secret=parsed.secret, clock=rig.clock)
    assert rig.portal.confirm_pairing(session.session_id, device.current_code())
    return device


class TestLoginAndInterstitial:
    def test_login_success(self, rig):
        login = rig.portal.login("alice", "pw")
        assert login.success

    def test_login_failure(self, rig):
        assert not rig.portal.login("alice", "wrong").success

    def test_unpaired_user_prompted(self, rig):
        assert rig.portal.login("alice", "pw").needs_mfa_prompt

    def test_reprompted_every_login(self, rig):
        rig.portal.login("alice", "pw")
        rig.portal.login("alice", "pw")
        assert rig.portal.interstitial_shown == 2

    def test_paired_user_not_prompted(self, rig):
        scan_and_confirm(rig)
        login = rig.portal.login("alice", "pw")
        assert not login.needs_mfa_prompt
        assert login.pairing_status.value == "soft"


class TestSoftPairing:
    def test_qr_contains_otpauth_uri(self, rig):
        _, qr = rig.portal.begin_soft_pairing("alice")
        uri = decode_matrix(qr.matrix).decode()
        parsed = parse_otpauth_uri(uri)
        assert parsed.account == "alice"
        assert parsed.issuer == rig.portal.issuer

    def test_full_pairing_flow(self, rig):
        scan_and_confirm(rig)
        assert rig.center.identity.get("alice").pairing_status.value == "soft"
        assert rig.center.otp.has_pairing(rig.center.uid_of("alice"))

    def test_wrong_code_keeps_session_retryable(self, rig):
        session, qr = rig.portal.begin_soft_pairing("alice")
        assert not rig.portal.confirm_pairing(session.session_id, "000000")
        assert session.state is PairingState.AWAITING_CONFIRMATION
        parsed = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        device = TOTPGenerator(secret=parsed.secret, clock=rig.clock)
        rig.clock.advance(31)
        assert rig.portal.confirm_pairing(session.session_id, device.current_code())

    def test_refresh_aborts_and_rolls_back(self, rig):
        session, _ = rig.portal.begin_soft_pairing("alice")
        rig.portal.refresh(session.session_id)
        assert session.state is PairingState.ABORTED
        assert not rig.center.otp.has_pairing(rig.center.uid_of("alice"))

    def test_confirm_after_refresh_rejected(self, rig):
        session, _ = rig.portal.begin_soft_pairing("alice")
        rig.portal.refresh(session.session_id)
        with pytest.raises(ValidationError):
            rig.portal.confirm_pairing(session.session_id, "123456")

    def test_double_confirm_rejected(self, rig):
        """Form resubmission hardening."""
        session, qr = rig.portal.begin_soft_pairing("alice")
        parsed = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        device = TOTPGenerator(secret=parsed.secret, clock=rig.clock)
        assert rig.portal.confirm_pairing(session.session_id, device.current_code())
        with pytest.raises(ValidationError):
            rig.portal.confirm_pairing(session.session_id, device.current_code())

    def test_new_flow_replaces_abandoned_flow(self, rig):
        first, _ = rig.portal.begin_soft_pairing("alice")
        second, qr = rig.portal.begin_soft_pairing("alice")
        assert first.state is PairingState.ABORTED
        parsed = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        device = TOTPGenerator(secret=parsed.secret, clock=rig.clock)
        assert rig.portal.confirm_pairing(second.session_id, device.current_code())

    def test_unknown_session_rejected(self, rig):
        with pytest.raises(NotFoundError):
            rig.portal.confirm_pairing("pair-999999", "123456")


class TestSMSPairing:
    def test_ten_digit_number_required(self, rig):
        with pytest.raises(ValidationError, match="ten-digit"):
            rig.portal.begin_sms_pairing("alice", "12345")

    def test_formatted_numbers_accepted(self, rig):
        session = rig.portal.begin_sms_pairing("alice", "512-555-1234")
        assert session.state is PairingState.AWAITING_CONFIRMATION

    def test_full_sms_flow(self, rig):
        session = rig.portal.begin_sms_pairing("alice", "5125551234")
        rig.clock.advance(10)
        message = rig.center.sms_gateway.latest("5125551234")
        assert message is not None  # the portal triggered the send
        code = message.body.split()[-1]
        assert rig.portal.confirm_pairing(session.session_id, code)
        assert rig.center.identity.get("alice").pairing_status.value == "sms"


class TestHardPairing:
    def test_store_order_and_pair(self, rig):
        batch = rig.center.receive_hard_batch(5)
        store = HardTokenStore(batch, rig.clock)
        order = store.order("alice", "United Kingdom")
        assert order.fee_charged == 25.00
        assert store.delivered_serial("alice") is None  # still in transit
        rig.clock.advance(11 * 86400)
        serial = store.delivered_serial("alice")
        session = rig.portal.begin_hard_pairing("alice", serial)
        fob = TOTPGenerator(secret=batch.secret_for(serial), clock=rig.clock)
        assert rig.portal.confirm_pairing(session.session_id, fob.current_code())
        assert rig.center.identity.get("alice").pairing_status.value == "hard"

    def test_unknown_serial_rejected(self, rig):
        with pytest.raises((ValidationError, NotFoundError)):
            rig.portal.begin_hard_pairing("alice", "FT-nope")

    def test_store_inventory_exhaustion(self, rig):
        batch = rig.center.receive_hard_batch(1)
        store = HardTokenStore(batch, rig.clock)
        store.order("alice")
        rig.center.create_user("bob", password="pw")
        with pytest.raises(ValidationError, match="exhausted"):
            store.order("bob")

    def test_unsupported_country(self, rig):
        batch = rig.center.receive_hard_batch(2)
        store = HardTokenStore(batch, rig.clock)
        with pytest.raises(ValidationError, match="shipping"):
            store.order("alice", "Atlantis")

    def test_store_revenue(self, rig):
        batch = rig.center.receive_hard_batch(3)
        store = HardTokenStore(batch, rig.clock)
        store.order("alice")
        assert store.revenue == 25.00


class TestUnpairing:
    def test_soft_unpair_with_current_code(self, rig):
        device = scan_and_confirm(rig)
        session_id = rig.portal.begin_unpair("alice")
        rig.clock.advance(31)
        assert rig.portal.confirm_unpair(session_id, device.current_code())
        assert rig.center.identity.get("alice").pairing_status.value == "unpaired"

    def test_unpair_wrong_code_fails(self, rig):
        scan_and_confirm(rig)
        session_id = rig.portal.begin_unpair("alice")
        assert not rig.portal.confirm_unpair(session_id, "000000")
        assert rig.center.identity.get("alice").pairing_status.value == "soft"

    def test_sms_unpair_triggers_code_send(self, rig):
        session = rig.portal.begin_sms_pairing("alice", "5125551234")
        rig.clock.advance(10)
        code = rig.center.sms_gateway.latest("5125551234").body.split()[-1]
        rig.portal.confirm_pairing(session.session_id, code)
        sent_before = rig.center.sms_gateway.messages_sent
        unpair_id = rig.portal.begin_unpair("alice")
        assert rig.center.sms_gateway.messages_sent == sent_before + 1
        rig.clock.advance(10)
        code = rig.center.sms_gateway.latest("5125551234").body.split()[-1]
        assert rig.portal.confirm_unpair(unpair_id, code)

    def test_unpaired_user_cannot_unpair(self, rig):
        with pytest.raises(ValidationError, match="no device pairing"):
            rig.portal.begin_unpair("alice")

    def test_hard_unpair_requires_ticket(self, rig):
        batch = rig.center.receive_hard_batch(2)
        serial = batch.serials()[0]
        batch.ship(serial, "United States")
        session = rig.portal.begin_hard_pairing("alice", serial)
        fob = TOTPGenerator(secret=batch.secret_for(serial), clock=rig.clock)
        rig.portal.confirm_pairing(session.session_id, fob.current_code())
        with pytest.raises(ValidationError, match="ticket"):
            rig.portal.begin_unpair("alice")
        ticket = rig.portal.open_hard_unpair_ticket("alice", "fob broke")
        rig.portal.staff_resolve_hard_unpair(ticket.ticket_id)
        assert rig.center.identity.get("alice").pairing_status.value == "unpaired"
        assert ticket.closed

    def test_resolve_unknown_ticket(self, rig):
        with pytest.raises(NotFoundError):
            rig.portal.staff_resolve_hard_unpair("ticket-999999")


class TestProductionStack(TestSoftPairing, TestSMSPairing, TestHardPairing, TestUnpairing):
    """The same ceremonies where the portal's names meet the sharded,
    queued, risk-scored back end behind an LDAP-primary resolver chain:
    ``/validate/check`` gets the login name, ``/admin/*`` the uid."""

    @pytest.fixture
    def rig(self, clock):
        return make_rig(
            clock,
            storage=StorageConfig(shards=4),
            ingest=True,
            risk=True,
            resolvers=ResolverConfig(use_ldap=True),
        )


class TestOutOfBandUnpair:
    def test_email_link_flow(self, rig):
        scan_and_confirm(rig)
        url = rig.portal.request_unpair_email("alice")
        email = rig.portal.mailer.latest("alice@example.edu")
        assert email is not None and url in email.body
        assert rig.portal.visit_unpair_url(url)
        assert rig.center.identity.get("alice").pairing_status.value == "unpaired"

    def test_tampered_link_rejected(self, rig):
        rig.center.create_user("mallory", password="pw")
        scan_and_confirm(rig)
        url = rig.portal.request_unpair_email("alice")
        assert not rig.portal.visit_unpair_url(url.replace("alice", "mallory"))
        assert rig.center.identity.get("alice").pairing_status.value == "soft"

    def test_expired_link_rejected(self, rig):
        scan_and_confirm(rig)
        url = rig.portal.request_unpair_email("alice")
        rig.clock.advance(25 * 3600)  # past the 24 h TTL
        assert not rig.portal.visit_unpair_url(url)
