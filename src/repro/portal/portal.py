"""The user portal application (Section 3.5).

One class, :class:`UserPortal`, models the Liferay portlet:

* portal login with the interstitial "splash screen" prompting unpaired
  users to set up MFA (dismissible, re-shown every login);
* the three pairing flows — soft (QR code), SMS (phone number + delivered
  code), hard (serial number + current code) — each a stateful
  :class:`~repro.portal.pairing.PairingSession` where refresh/back aborts
  and rolls back;
* unpairing with proof of possession (current token code), the signed-URL
  out-of-band email flow for lost devices, and the support-ticket path for
  hard tokens;
* all OTP-server operations go through the digest-authenticated admin REST
  client; the identity back end is notified after every (un)pairing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import IdAllocator
from repro.crypto.signing import URLSigner
from repro.directory.identity import IdentityBackend, PairingStatus
from repro.otpserver.admin_api import AdminAPIClient
from repro.portal.mailer import Mailer
from repro.portal.pairing import PairingSession, PairingState
from repro.qr import QRCode, build_otpauth_uri, encode


@dataclass
class PortalLogin:
    """Result of a portal (web) login."""

    success: bool
    username: str = ""
    needs_mfa_prompt: bool = False  # the interstitial splash screen
    pairing_status: Optional[PairingStatus] = None


@dataclass
class SupportTicket:
    ticket_id: str
    username: str
    subject: str
    body: str
    opened_at: float
    closed: bool = False
    resolution: str = ""


class UserPortal:
    """The center's account-management portal with the MFA portlet."""

    UNPAIR_PATH = "/mfa/unpair"

    def __init__(
        self,
        identity: IdentityBackend,
        admin_client: AdminAPIClient,
        mailer: Optional[Mailer] = None,
        signer: Optional[URLSigner] = None,
        clock: Optional[Clock] = None,
        issuer: str = "HPC-Center",
        rng: Optional[random.Random] = None,
    ) -> None:
        self.identity = identity
        self._admin = admin_client
        self.clock = clock or WallClock()
        self.mailer = mailer if mailer is not None else Mailer(self.clock)
        self._signer = signer or URLSigner(b"portal-unpair-signing-key!!", self.clock)
        self.issuer = issuer
        self._rng = rng or random.Random()
        self._ids = IdAllocator()
        self._sessions: Dict[str, PairingSession] = {}
        self._unpair_sessions: Dict[str, str] = {}  # session id -> username
        self.tickets: List[SupportTicket] = []
        self.interstitial_shown = 0

    # -- portal login + interstitial -------------------------------------------

    def login(self, username: str, password: str) -> PortalLogin:
        """Web login.  Unpaired users get the interstitial prompt; they can
        dismiss it "but they are re-prompted upon each log in"."""
        if not self.identity.check_password(username, password):
            return PortalLogin(False)
        status = self.identity.get(username).pairing_status
        needs_prompt = status is PairingStatus.UNPAIRED
        if needs_prompt:
            self.interstitial_shown += 1
        return PortalLogin(True, username, needs_prompt, status)

    # -- shared session plumbing -------------------------------------------------

    def _uid(self, username: str) -> str:
        """The key ``/admin/*`` takes; ``/validate/check`` takes the login
        name and the OTP server resolves it."""
        return self.identity.get(username).uid

    def _new_session(self, username: str, method: str) -> PairingSession:
        # Starting a new flow abandons (and rolls back) any previous live one.
        for session in list(self._sessions.values()):
            if session.username == username and session.live:
                self._abort_and_rollback(session)
        session = PairingSession(self._ids.next("pair"), username, method)
        self._sessions[session.session_id] = session
        return session

    def _get_session(self, session_id: str) -> PairingSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise NotFoundError(f"no such pairing session: {session_id}")
        return session

    def _abort_and_rollback(self, session: PairingSession) -> None:
        if session.state is PairingState.AWAITING_CONFIRMATION:
            # The token was created server-side but never confirmed: remove it.
            self._admin.call("POST", "/admin/remove", {"user": self._uid(session.username)})
        if session.live:
            session.abort()

    def refresh(self, session_id: str) -> None:
        """The browser refresh / back-button event: abort the flow."""
        self._abort_and_rollback(self._get_session(session_id))

    # -- soft token pairing --------------------------------------------------------

    def begin_soft_pairing(self, username: str) -> Tuple[PairingSession, QRCode]:
        """Create the token and render the provisioning QR code."""
        session = self._new_session(username, "soft")
        body = self._admin.call(
            "POST", "/admin/init", {"user": self._uid(username), "type": "soft"}
        )
        secret = bytes.fromhex(body["otpkey"])
        uri = build_otpauth_uri(secret, issuer=self.issuer, account=username)
        qr = encode(uri, level="M")
        session.to_awaiting(body["serial"])
        session.context["otpauth_uri"] = uri
        return session, qr

    # -- SMS token pairing -----------------------------------------------------------

    def begin_sms_pairing(self, username: str, phone_number: str) -> PairingSession:
        """Register the phone number and trigger the confirmation SMS."""
        digits = phone_number.replace("-", "").replace(" ", "")
        if not (digits.isdigit() and len(digits) == 10):
            # "the user is prompted to enter a ten-digit, US-based phone number"
            raise ValidationError("a ten-digit US phone number is required")
        session = self._new_session(username, "sms")
        body = self._admin.call(
            "POST",
            "/admin/init",
            {"user": self._uid(username), "type": "sms", "phone": digits},
        )
        session.to_awaiting(body["serial"])
        # "The portal then triggers the LinOTP server to send a token code."
        self._admin.call("POST", "/validate/check", {"user": username})
        return session

    # -- hard token pairing -----------------------------------------------------------

    def begin_hard_pairing(self, username: str, serial: str) -> PairingSession:
        """Pair by the serial number on the back of a delivered fob."""
        session = self._new_session(username, "hard")
        body = self._admin.call(
            "POST",
            "/admin/init",
            {"user": self._uid(username), "type": "hard", "serial": serial},
        )
        session.to_awaiting(body["serial"])
        return session

    # -- confirmation (all three flows) --------------------------------------------

    def confirm_pairing(self, session_id: str, code: str) -> bool:
        """Validate the user's entered code and finalize the pairing.

        A wrong code leaves the session awaiting (the user can retry);
        a correct one confirms, notifies identity management, and closes
        the session.  Confirming an aborted or finished session raises —
        the replay/resubmission hardening.
        """
        session = self._get_session(session_id)
        if session.state is not PairingState.AWAITING_CONFIRMATION:
            raise ValidationError(
                f"pairing session is {session.state.value}; restart the flow"
            )
        body = self._admin.call(
            "POST",
            "/validate/check",
            {"user": session.username, "pass": code},
        )
        if body["status"] != "ok":
            return False
        session.confirm()
        self.identity.notify_pairing(session.username, PairingStatus(session.method))
        return True

    # -- unpairing -------------------------------------------------------------------

    def begin_unpair(self, username: str) -> str:
        """Start device removal.  Soft/SMS users must prove possession with
        the current code; hard tokens go through the support ticket path."""
        status = self.identity.get(username).pairing_status
        if status is PairingStatus.UNPAIRED:
            raise ValidationError(f"{username} has no device pairing to remove")
        if status is PairingStatus.HARD:
            raise ValidationError(
                "hard tokens are unpaired via the user support ticketing system"
            )
        if status is PairingStatus.SMS:
            # Trigger the SMS so the user has a current code to prove with.
            self._admin.call("POST", "/validate/check", {"user": username})
        session_id = self._ids.next("unpair")
        self._unpair_sessions[session_id] = username
        return session_id

    def confirm_unpair(self, session_id: str, code: str) -> bool:
        username = self._unpair_sessions.get(session_id)
        if username is None:
            raise NotFoundError(f"no such unpair session: {session_id}")
        body = self._admin.call(
            "POST", "/validate/check", {"user": username, "pass": code}
        )
        if body["status"] != "ok":
            return False
        del self._unpair_sessions[session_id]
        self._remove_pairing(username)
        return True

    def _remove_pairing(self, username: str) -> None:
        self._admin.call("POST", "/admin/remove", {"user": self._uid(username)})
        self.identity.notify_pairing(username, PairingStatus.UNPAIRED)

    # -- out-of-band unpair (lost device) ----------------------------------------------

    def request_unpair_email(self, username: str) -> str:
        """Email a signed unpair URL to the account's address; returns the
        URL (tests read it from the mailer inbox, as the user would)."""
        account = self.identity.get(username)
        url = self._signer.sign(self.UNPAIR_PATH, username)
        self.mailer.send(
            account.email,
            "MFA device removal request",
            f"Follow this link to remove your MFA device pairing: {url}",
        )
        return url

    def visit_unpair_url(self, url: str) -> bool:
        """Clicking the emailed link: signature proves control of the email."""
        username = self._signer.verify(url)
        if username is None:
            return False
        try:
            self._remove_pairing(username)
        except NotFoundError:
            return False
        return True

    # -- hard-token support path -----------------------------------------------------

    def open_hard_unpair_ticket(self, username: str, body: str = "") -> SupportTicket:
        ticket = SupportTicket(
            ticket_id=self._ids.next("ticket"),
            username=username,
            subject="disable hard token",
            body=body,
            opened_at=self.clock.now(),
        )
        self.tickets.append(ticket)
        return ticket

    def staff_resolve_hard_unpair(self, ticket_id: str) -> None:
        """Staff action: permanently disable the fob and keep the audit."""
        for ticket in self.tickets:
            if ticket.ticket_id == ticket_id and not ticket.closed:
                self._remove_pairing(ticket.username)
                ticket.closed = True
                ticket.resolution = "hard token disabled; pairing removed"
                return
        raise NotFoundError(f"no open ticket {ticket_id}")
