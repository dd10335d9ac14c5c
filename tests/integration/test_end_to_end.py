"""Cross-module integration: the full user journeys of the paper."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import AccountClass
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.portal import HardTokenStore, UserPortal
from repro.qr import decode_matrix, parse_otpauth_uri
from repro.ssh import KeyPair, SSHClient


@pytest.fixture
def clock():
    return VirtualClock.at("2016-08-15T10:00:00")


@pytest.fixture
def world(clock):
    """The full deployment: center + portal + one system in paired mode."""
    center = MFACenter(clock=clock, rng=random.Random(1))
    system = center.add_system("stampede", mode="paired")
    api = AdminAPI(center.otp, rng=random.Random(2))
    api.add_admin("portal-svc", "s3cret")
    portal = UserPortal(
        center.identity,
        AdminAPIClient(api, "portal-svc", "s3cret", rng=random.Random(3)),
        clock=clock,
        rng=random.Random(4),
    )

    class World:
        pass

    w = World()
    w.center, w.system, w.portal, w.clock = center, system, portal, clock
    return w


class TestNewUserJourney:
    """Sign up -> portal prompt -> pair by QR -> SSH with password+token."""

    def test_complete_soft_token_journey(self, world):
        center, portal, clock = world.center, world.portal, world.clock
        center.create_user("newphd", password="thesis!")

        # Portal login prompts for MFA setup.
        login = portal.login("newphd", "thesis!")
        assert login.needs_mfa_prompt

        # Pair: scan the QR, confirm with the first code.
        session, qr = portal.begin_soft_pairing("newphd")
        uri = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        phone_app = TOTPGenerator(secret=uri.secret, clock=clock)
        assert portal.confirm_pairing(session.session_id, phone_app.current_code())

        # SSH in: password first factor, token second.
        clock.advance(31)
        client = SSHClient("198.51.100.20")
        result, _ = client.connect(
            world.system.login_node(), "newphd",
            password="thesis!", token=phone_app.current_code,
        )
        assert result.success
        assert result.session_items["second_factor"] == "soft"

        # Audit trail exists end to end.
        uid = center.uid_of("newphd")
        assert center.otp.audit.entries(user_id=uid, action="validate")

    def test_journey_with_public_key(self, world):
        center, clock = world.center, world.clock
        center.create_user("poweruser", password="pw")
        _, secret = center.pair_soft("poweruser")
        device = TOTPGenerator(secret=secret, clock=clock)
        key = KeyPair.generate(rng=random.Random(5))
        node = world.system.login_node()
        node.authorize_key("poweruser", key)
        client = SSHClient("198.51.100.21")
        result, conversation = client.connect(
            node, "poweruser", key=key, token=device.current_code
        )
        assert result.success
        assert result.session_items["first_factor"] == "publickey"
        assert not any("assword" in p for p in conversation.prompts_seen)


class TestSMSUserJourney:
    def test_complete_sms_journey(self, world):
        center, portal, clock = world.center, world.portal, world.clock
        center.create_user("texter", password="pw")
        session = portal.begin_sms_pairing("texter", "5125554321")
        clock.advance(10)
        code = center.sms_gateway.latest("5125554321").body.split()[-1]
        assert portal.confirm_pairing(session.session_id, code)

        def read_sms():
            clock.advance(10)
            return center.sms_gateway.latest("5125554321").body.split()[-1]

        client = SSHClient("198.51.100.22")
        result, conversation = client.connect(
            world.system.login_node(), "texter",
            password="pw", extra_answers={"token code": read_sms},
        )
        assert result.success
        assert any("sent" in m.lower() for m in conversation.displayed)

    def test_sms_costs_accrue(self, world):
        center, portal, clock = world.center, world.portal, world.clock
        center.create_user("texter", password="pw")
        portal.begin_sms_pairing("texter", "5125554321")
        assert center.sms_gateway.message_charges == pytest.approx(0.0075)


class TestHardTokenJourney:
    def test_order_ship_pair_login(self, world):
        center, portal, clock = world.center, world.portal, world.clock
        center.create_user("airgapped", password="pw")
        batch = center.receive_hard_batch(10)
        store = HardTokenStore(batch, clock)
        order = store.order("airgapped", "Switzerland")
        clock.advance(11 * 86400)
        serial = store.delivered_serial("airgapped")
        assert serial == order.serial
        session = portal.begin_hard_pairing("airgapped", serial)
        fob = TOTPGenerator(secret=batch.secret_for(serial), clock=clock)
        assert portal.confirm_pairing(session.session_id, fob.current_code())
        clock.advance(31)
        client = SSHClient("203.0.113.77")
        result, _ = client.connect(
            world.system.login_node(), "airgapped",
            password="pw", token=fob.current_code,
        )
        assert result.success


class TestTrainingAccountJourney:
    def test_workshop_static_codes(self, world):
        """Training accounts: staff assign a static code per session, the
        participants log in with it, staff regenerate afterwards."""
        center, clock = world.center, world.clock
        center.create_user("train01", password="workshop",
                           account_class=AccountClass.TRAINING)
        code = center.pair_training("train01")
        client = SSHClient("198.51.100.30")
        result, _ = client.connect(
            world.system.login_node(), "train01", password="workshop", token=code
        )
        assert result.success
        # After the session, the code is rotated; the old one is dead.
        center.otp.enroll_static(center.uid_of("train01"), "999999")
        clock.advance(31)
        result, _ = client.connect(
            world.system.login_node(), "train01", password="workshop", token=code
        )
        assert not result.success


class TestGatewayJourney:
    def test_gateway_automation_uninterrupted(self, world):
        """Gateways keep running through every phase: pubkey + exemption."""
        center = world.center
        center.create_user("sciencegw", account_class=AccountClass.GATEWAY)
        key = KeyPair.generate(rng=random.Random(6))
        node = world.system.login_node()
        node.authorize_key("sciencegw", key)
        world.system.add_exemption(accounts="sciencegw", origins="203.0.113.0/24")
        client = SSHClient("203.0.113.50")
        # Works in paired mode...
        assert client.connect(node, "sciencegw", key=key)[0].success
        # ...and stays working when MFA goes mandatory.
        world.system.set_mode("full")
        ok = sum(
            1 for _ in range(10)
            if client.connect(node, "sciencegw", key=key, tty=False)[0].success
        )
        assert ok == 10

    def test_gateway_from_wrong_subnet_blocked_in_full(self, world):
        center = world.center
        center.create_user("sciencegw2", account_class=AccountClass.GATEWAY)
        key = KeyPair.generate(rng=random.Random(7))
        node = world.system.login_node()
        node.authorize_key("sciencegw2", key)
        world.system.add_exemption(accounts="sciencegw2", origins="203.0.113.0/24")
        world.system.set_mode("full")
        rogue = SSHClient("8.8.8.8")  # outside the exempted range
        assert not rogue.connect(node, "sciencegw2", key=key)[0].success


class TestDeviceReplacementJourney:
    def test_new_phone_flow(self, world):
        """Unpair with the old device, pair the new one."""
        center, portal, clock = world.center, world.portal, world.clock
        center.create_user("upgrader", password="pw")
        session, qr = portal.begin_soft_pairing("upgrader")
        old_uri = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        old_phone = TOTPGenerator(secret=old_uri.secret, clock=clock)
        portal.confirm_pairing(session.session_id, old_phone.current_code())

        clock.advance(31)
        unpair = portal.begin_unpair("upgrader")
        assert portal.confirm_unpair(unpair, old_phone.current_code())

        session, qr = portal.begin_soft_pairing("upgrader")
        new_uri = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        assert new_uri.secret != old_uri.secret  # a fresh secret
        new_phone = TOTPGenerator(secret=new_uri.secret, clock=clock)
        clock.advance(31)
        assert portal.confirm_pairing(session.session_id, new_phone.current_code())

    def test_lost_phone_flow(self, world):
        center, portal, clock = world.center, world.portal, world.clock
        center.create_user("loser", password="pw")
        center.pair_soft("loser")
        url = portal.request_unpair_email("loser")
        assert portal.visit_unpair_url(url)
        # Old pairing gone; the user can pair a new device.
        assert center.identity.get("loser").pairing_status.value == "unpaired"
        session, qr = portal.begin_soft_pairing("loser")
        uri = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        device = TOTPGenerator(secret=uri.secret, clock=clock)
        assert portal.confirm_pairing(session.session_id, device.current_code())
