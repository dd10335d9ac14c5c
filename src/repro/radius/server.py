"""The RADIUS server: the connector between login nodes and the OTP back end.

Each server accepts Access-Requests from known clients (login nodes or
proxies, identified by source address with a per-client shared secret),
recovers the hidden User-Password — the token code, or empty for the SMS
"null request" — asks the OTP back end to validate, and answers with
Access-Accept, Access-Reject or Access-Challenge exactly as Section 3.2
describes.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.common.cache import MISSING, BoundedCache
from repro.common.errors import ProtocolError
from repro.common.results import TokenBackend, ValidateStatus
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    decode_packet,
    encode_packet,
    recover_password,
)
from repro.radius.transport import UDPFabric
from repro.telemetry import NOOP_REGISTRY

#: Requests remembered for duplicate detection; the oldest is forgotten first.
DUPLICATE_WINDOW = 1024

#: ValidateStatus -> (packet code, reply message)
_STATUS_MAP = {
    ValidateStatus.OK: (PacketCode.ACCESS_ACCEPT, "authentication successful"),
    ValidateStatus.REJECT: (PacketCode.ACCESS_REJECT, "invalid token code"),
    ValidateStatus.LOCKED: (
        PacketCode.ACCESS_REJECT,
        "account temporarily deactivated after repeated failures",
    ),
    ValidateStatus.NO_TOKEN: (PacketCode.ACCESS_REJECT, "no MFA device pairing"),
    ValidateStatus.CHALLENGE_SENT: (
        PacketCode.ACCESS_CHALLENGE,
        "an SMS token code has been sent to your phone; enter it now",
    ),
    ValidateStatus.CHALLENGE_PENDING: (
        PacketCode.ACCESS_CHALLENGE,
        "an SMS token code has already been sent; enter it when it arrives",
    ),
}


class RADIUSServer:
    """One RADIUS daemon bound to a fabric address."""

    def __init__(
        self,
        address: str,
        fabric: UDPFabric,
        backend: TokenBackend,
        name: str = "",
        telemetry=None,
    ) -> None:
        self.address = address
        self.name = name or address
        self._backend = backend
        self._clients: Dict[str, bytes] = {}
        # Guards the counts and the duplicate window; never held across validate.
        self._lock = threading.Lock()
        self.handled = 0
        self.rejected_clients = 0
        self.duplicates_replayed = 0
        self.duplicates_dropped = 0
        self.telemetry = telemetry if telemetry is not None else NOOP_REGISTRY
        self._tracer = self.telemetry.tracer()
        # RFC 5080 duplicate detection: retransmissions of a request we
        # already answered get the cached response replayed instead of
        # being re-validated (which would burn the one-time code when the
        # original response was lost in flight).  A request is claimed here
        # *before* it is validated — ``None`` marks it in flight.
        self._responses = BoundedCache(DUPLICATE_WINDOW)
        fabric.register(address, self.handle_datagram)

    def add_client(self, source: str, secret: bytes) -> None:
        """Authorize a NAS (login node) or proxy by source address."""
        self._clients[source] = secret

    def _secret_for(self, source: str) -> Optional[bytes]:
        if source in self._clients:
            return self._clients[source]
        # Allow prefix entries like "129.114." covering a login-node subnet.
        for prefix, secret in self._clients.items():
            if prefix.endswith(".") and source.startswith(prefix):
                return secret
        return None

    def handle_datagram(self, datagram: bytes, source: str) -> Optional[bytes]:
        """The UDP receive path.  Unknown clients and undecodable packets
        are silently discarded, per RFC 2865 (never answer an unauthenticated
        speaker — answering would leak the secret check)."""
        if not self.telemetry.enabled:
            return self._receive(datagram, source)[0]
        with self._tracer.span("radius.server.handle", server=self.name) as span:
            response, note = self._receive(datagram, source)
            if note is not None:
                span.annotate(*note)
            return response

    def _receive(self, datagram: bytes, source: str) -> tuple:
        """The reply, and the ``(key, value)`` note a dropped or duplicate
        datagram leaves on the span (``None`` for a fresh request)."""
        secret = self._secret_for(source)
        if secret is None:
            with self._lock:
                self.rejected_clients += 1
            return None, ("drop", "unknown_client")
        try:
            request = decode_packet(datagram)
        except ProtocolError:
            return None, ("drop", "undecodable")
        if request.code != PacketCode.ACCESS_REQUEST:
            return None, ("drop", "not_access_request")
        cache_key = (source, request.identifier, request.authenticator)
        with self._lock:
            cached = self._responses.get(cache_key)
            if cached is not MISSING:
                if cached is None:
                    # Still being validated: drop silently (RFC 5080 section
                    # 2.2.2) — the client's next retransmit finds the answer.
                    self.duplicates_dropped += 1
                    return None, ("drop", "duplicate_in_flight")
                self.duplicates_replayed += 1
                return cached, ("duplicate", True)
            self._responses.put(cache_key, None)
            self.handled += 1
        response: Optional[bytes] = None
        try:
            response = self._respond(request, secret)
            if response is None:
                return None, ("drop", "bad_password_attribute")
            return response, None
        finally:
            # The response replaces the claim; no response (a dropped
            # packet, a raising back end) releases it.
            with self._lock:
                if response is None:
                    self._responses.pop(cache_key)
                else:
                    self._responses.put(cache_key, response)

    def _respond(self, request: RADIUSPacket, secret: bytes) -> Optional[bytes]:
        """The reply; ``None`` when User-Password does not decrypt."""
        username = request.get_str(Attr.USER_NAME)
        if username is None:
            return self._reply(
                request, secret, PacketCode.ACCESS_REJECT, "User-Name is required"
            )
        hidden = request.get(Attr.USER_PASSWORD)
        code: Optional[str] = None
        if hidden is not None:
            try:
                code = recover_password(hidden, secret, request.authenticator)
            except ProtocolError:
                return None
        result = self._backend.validate(username, code if code else None)
        # Reply with the canned per-status message, never the back end's
        # internal reason — drift-window details and replay diagnostics
        # would hand an attacker an oracle.
        return self._reply(request, secret, *_STATUS_MAP[result.status])

    def _reply(
        self, request: RADIUSPacket, secret: bytes, code: PacketCode, message: str
    ) -> bytes:
        """Every answer this server sends.  RFC 2865 section 5.33: the reply
        copies each Proxy-State of the request unmodified and in order."""
        response = RADIUSPacket(code, request.identifier)
        response.add(Attr.REPLY_MESSAGE, message)
        if code == PacketCode.ACCESS_CHALLENGE:
            # Opaque challenge state the client must echo back with the code.
            username = request.get_str(Attr.USER_NAME) or ""
            response.add(Attr.STATE, f"sms-challenge:{username}".encode())
        for proxy_state in request.get_all(Attr.PROXY_STATE):
            response.add(Attr.PROXY_STATE, proxy_state)
        return encode_packet(response, secret, request.authenticator)

    def snapshot(self) -> Dict[str, object]:
        """This server's entry in the ``radius`` section of ``status()``."""
        with self._lock:
            return {
                "handled": self.handled,
                "duplicates_replayed": self.duplicates_replayed,
                "duplicates_dropped": self.duplicates_dropped,
                "rejected_clients": self.rejected_clients,
            }
