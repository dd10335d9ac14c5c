"""Pairing session state machine and the mailer."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.portal.mailer import Mailer
from repro.portal.pairing import PairingSession, PairingState


class TestPairingSession:
    def make(self):
        return PairingSession("pair-000001", "alice", "soft")

    def test_initial_state(self):
        session = self.make()
        assert session.state is PairingState.STARTED
        assert session.live

    def test_happy_path(self):
        session = self.make()
        session.to_awaiting("LSSO-000001")
        assert session.state is PairingState.AWAITING_CONFIRMATION
        session.confirm()
        assert session.state is PairingState.CONFIRMED
        assert not session.live

    def test_confirm_before_awaiting_rejected(self):
        with pytest.raises(ValidationError):
            self.make().confirm()

    def test_double_to_awaiting_rejected(self):
        session = self.make()
        session.to_awaiting("S1")
        with pytest.raises(ValidationError):
            session.to_awaiting("S2")

    def test_abort_from_any_live_state(self):
        session = self.make()
        session.abort()
        assert session.state is PairingState.ABORTED
        session2 = self.make()
        session2.to_awaiting("S1")
        session2.abort()
        assert session2.state is PairingState.ABORTED

    def test_abort_after_confirm_rejected(self):
        session = self.make()
        session.to_awaiting("S1")
        session.confirm()
        with pytest.raises(ValidationError):
            session.abort()

    def test_confirm_after_abort_rejected(self):
        session = self.make()
        session.to_awaiting("S1")
        session.abort()
        with pytest.raises(ValidationError):
            session.confirm()

    def test_double_confirm_rejected(self):
        session = self.make()
        session.to_awaiting("S1")
        session.confirm()
        with pytest.raises(ValidationError):
            session.confirm()


class TestMailer:
    def test_send_and_read(self):
        mailer = Mailer(VirtualClock(100.0))
        mailer.send("a@x.edu", "subject", "body text")
        inbox = mailer.inbox("a@x.edu")
        assert len(inbox) == 1
        assert inbox[0].subject == "subject"
        assert inbox[0].sent_at == 100.0

    def test_latest(self):
        clock = VirtualClock(0.0)
        mailer = Mailer(clock)
        mailer.send("a@x.edu", "first", "1")
        clock.advance(10)
        mailer.send("a@x.edu", "second", "2")
        assert mailer.latest("a@x.edu").subject == "second"

    def test_empty_inbox(self):
        mailer = Mailer(VirtualClock(0.0))
        assert mailer.inbox("nobody@x.edu") == []
        assert mailer.latest("nobody@x.edu") is None

    def test_broadcast(self):
        mailer = Mailer(VirtualClock(0.0))
        count = mailer.broadcast(["a@x", "b@x", "c@x"], "MFA announcement", "...")
        assert count == 3
        assert mailer.sent_count == 3
        assert mailer.latest("b@x").subject == "MFA announcement"
