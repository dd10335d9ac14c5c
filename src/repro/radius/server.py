"""The RADIUS server: the connector between login nodes and the OTP back end.

Each server accepts Access-Requests from known clients (login nodes or
proxies, identified by source address with a per-client shared secret),
recovers the hidden User-Password — the token code, or empty for the SMS
"null request" — asks the OTP back end to validate, and answers with
Access-Accept, Access-Reject or Access-Challenge exactly as Section 3.2
describes.

A request is read in one scan of its decoded attributes (User-Name,
User-Password, every Proxy-State), and a reply is signed over a
Reply-Message encoded once per verdict, with only a challenge's State and
the echoed Proxy-States appended.  A request whose User-Name is missing or
is not UTF-8 is rejected without reaching the back end.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.common.cache import MISSING, BoundedCache
from repro.common.errors import ProtocolError
from repro.common.results import TokenBackend, ValidateStatus
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import MAX_ATTRIBUTE, decode, encode, recover_password, tlv
from repro.radius.transport import UDPFabric
from repro.telemetry import resolve_registry

#: Requests remembered for duplicate detection; the oldest is forgotten first.
DUPLICATE_WINDOW = 1024

def _canned(code: PacketCode, message: str) -> Tuple[PacketCode, bytes]:
    """A verdict's packet code and its Reply-Message attribute on the wire."""
    return code, tlv(Attr.REPLY_MESSAGE, message.encode())


#: ValidateStatus -> (packet code, Reply-Message attribute), encoded once.
_REPLIES = {
    ValidateStatus.OK: _canned(PacketCode.ACCESS_ACCEPT, "authentication successful"),
    ValidateStatus.REJECT: _canned(PacketCode.ACCESS_REJECT, "invalid token code"),
    ValidateStatus.LOCKED: _canned(
        PacketCode.ACCESS_REJECT,
        "account temporarily deactivated after repeated failures",
    ),
    ValidateStatus.NO_TOKEN: _canned(PacketCode.ACCESS_REJECT, "no MFA device pairing"),
    ValidateStatus.CHALLENGE_SENT: _canned(
        PacketCode.ACCESS_CHALLENGE,
        "an SMS token code has been sent to your phone; enter it now",
    ),
    ValidateStatus.CHALLENGE_PENDING: _canned(
        PacketCode.ACCESS_CHALLENGE,
        "an SMS token code has already been sent; enter it when it arrives",
    ),
}
_NO_USER_NAME = _canned(PacketCode.ACCESS_REJECT, "User-Name is required")


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
        # The prefix entries of ``_clients``, in the order they were added.
        self._prefixes: Dict[str, bytes] = {}
        # Guards the counts and the duplicate window; never held across validate.
        self._lock = threading.Lock()
        self.handled = 0
        self.rejected_clients = 0
        self.duplicates_replayed = 0
        self.duplicates_dropped = 0
        self.telemetry = resolve_registry(telemetry)
        self._tracer = self.telemetry.tracer()
        # RFC 5080 duplicate detection: retransmissions of a request we
        # already answered get the cached response replayed instead of
        # being re-validated (which would burn the one-time code when the
        # original response was lost in flight).  A request is claimed here
        # *before* it is validated — ``None`` marks it in flight.
        self._responses = BoundedCache(DUPLICATE_WINDOW)
        fabric.register(address, self.handle_datagram)

    def add_client(self, source: str, secret: bytes) -> None:
        """Authorize a NAS (login node) or proxy by source address, or a
        subnet of them by a prefix ending in ``.`` (``"129.114."``)."""
        self._clients[source] = secret
        if source.endswith("."):
            self._prefixes[source] = secret

    def _secret_for(self, source: str) -> Optional[bytes]:
        if source in self._clients:
            return self._clients[source]
        for prefix in self._prefixes:
            if source.startswith(prefix):
                return self._prefixes[prefix]
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
                key, value = note
                span.attributes[key] = value
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
            code, identifier, authenticator, attributes = decode(datagram)
        except ProtocolError:
            return None, ("drop", "undecodable")
        if code != PacketCode.ACCESS_REQUEST:
            return None, ("drop", "not_access_request")
        cache_key = (source, identifier, authenticator)
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
            response = self._respond(identifier, authenticator, attributes, secret)
            if response is None:
                return None, ("drop", "bad_password_attribute")
            return response, None
        except ProtocolError:
            # Proxy-States that leave no room for the reply in one packet.
            return None, ("drop", "reply_too_large")
        finally:
            # The response replaces the claim; no response (a dropped
            # packet, a raising back end) releases it.
            with self._lock:
                if response is None:
                    self._responses.pop(cache_key)
                else:
                    self._responses.put(cache_key, response)

    def _respond(
        self,
        identifier: int,
        authenticator: bytes,
        attributes: List[Tuple[int, bytes]],
        secret: bytes,
    ) -> Optional[bytes]:
        """The signed reply; ``None`` when User-Password does not decrypt.

        One scan finds the first User-Name and User-Password and every
        Proxy-State, which RFC 2865 section 5.33 has each reply copy
        unmodified and in order.
        """
        name = hidden = None
        proxy_states = b""
        for attr, value in attributes:
            if attr == Attr.USER_NAME:
                if name is None:
                    name = value
            elif attr == Attr.USER_PASSWORD:
                if hidden is None:
                    hidden = value
            elif attr == Attr.PROXY_STATE:
                proxy_states += tlv(Attr.PROXY_STATE, value)
        username = None
        if name is not None:
            try:
                username = name.decode()
            except UnicodeDecodeError:
                pass  # unreadable is as good as absent
        if username is None:
            code, attrs = _NO_USER_NAME
        else:
            password = None
            if hidden is not None:
                try:
                    password = recover_password(hidden, secret, authenticator)
                except ProtocolError:
                    return None
            result = self._backend.validate(username, password or None)
            # Reply with the canned per-status message, never the back end's
            # internal reason — drift-window details and replay diagnostics
            # would hand an attacker an oracle.
            code, attrs = _REPLIES[result.status]
            if code == PacketCode.ACCESS_CHALLENGE:
                # Opaque challenge state the client must echo back with the
                # code; cut to one attribute's worth for a very long name.
                state = b"sms-challenge:" + name
                attrs += tlv(Attr.STATE, state[:MAX_ATTRIBUTE])
        return encode(code, identifier, authenticator, attrs + proxy_states, secret)

    def snapshot(self) -> Dict[str, object]:
        """This server's entry in the ``radius`` section of ``status()``."""
        with self._lock:
            return {
                "handled": self.handled,
                "duplicates_replayed": self.duplicates_replayed,
                "duplicates_dropped": self.duplicates_dropped,
                "rejected_clients": self.rejected_clients,
            }
