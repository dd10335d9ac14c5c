"""The RADIUS server: the connector between login nodes and the OTP back end.

Each server accepts Access-Requests from known clients (login nodes or
proxies, identified by source address with a per-client shared secret),
recovers the hidden User-Password — the token code, or empty for the SMS
"null request" — asks the OTP back end to validate, and answers with
Access-Accept, Access-Reject or Access-Challenge exactly as Section 3.2
describes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ProtocolError
from repro.common.results import SubmitAPI, TokenBackend, ValidateStatus
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    decode_packet,
    encode_packet,
    recover_password,
)
from repro.radius.transport import UDPFabric
from repro.telemetry import NOOP_REGISTRY


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
        self.handled = 0
        self.rejected_clients = 0
        self.duplicates_replayed = 0
        self.telemetry = telemetry if telemetry is not None else NOOP_REGISTRY
        self._tracer = self.telemetry.tracer()
        self._m_requests = self.telemetry.counter(
            "radius_server_requests_total", "Access-Requests validated, by server"
        )
        self._m_duplicates = self.telemetry.counter(
            "radius_server_duplicates_total",
            "retransmissions answered from the RFC 5080 dup cache",
        )
        self._m_unknown = self.telemetry.counter(
            "radius_server_unknown_clients_total",
            "datagrams silently dropped from unauthorized sources",
        )
        # RFC 5080 duplicate detection: retransmissions of a request we
        # already answered get the cached response replayed instead of
        # being re-validated (which would burn the one-time code when the
        # original response was lost in flight).
        self._response_cache: "OrderedDict[Tuple[str, int, bytes], bytes]" = OrderedDict()
        self._response_cache_size = 1024
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
        with self._tracer.span("radius.server.handle", server=self.name) as span:
            secret = self._secret_for(source)
            if secret is None:
                self.rejected_clients += 1
                self._m_unknown.inc(server=self.name)
                span.annotate("drop", "unknown_client")
                return None
            try:
                request = decode_packet(datagram)
            except ProtocolError:
                span.annotate("drop", "undecodable")
                return None
            if request.code != PacketCode.ACCESS_REQUEST:
                span.annotate("drop", "not_access_request")
                return None
            cache_key = (source, request.identifier, request.authenticator)
            cached = self._response_cache.get(cache_key)
            if cached is not None:
                self.duplicates_replayed += 1
                self._m_duplicates.inc(server=self.name)
                span.annotate("duplicate", True)
                return cached
            self.handled += 1
            self._m_requests.inc(server=self.name)
            response = self._respond(request, secret)
            self._cache_response(cache_key, response)
            return response

    def handle_batch(
        self, datagrams: Sequence[Tuple[bytes, str]]
    ) -> List[Optional[bytes]]:
        """Drain a burst of ``(datagram, source)`` pairs in one call.

        Each datagram goes through the same gauntlet as
        :meth:`handle_datagram` — secret check, decode, dup cache — but the
        surviving Access-Requests are submitted together through the back
        end's :class:`~repro.otpserver.SubmitAPI` (when it implements the
        protocol), so a burst of logins rides the OTP pipeline's striped
        locks — or the ingestion queue's admission ordering — instead of
        serialising.  Responses come back positionally: ``None`` where
        the datagram was silently dropped.
        """
        with self._tracer.span(
            "radius.server.batch", server=self.name, size=len(datagrams)
        ):
            responses: List[Optional[bytes]] = [None] * len(datagrams)
            pending: List[Tuple[int, RADIUSPacket, bytes, Tuple[str, int, bytes]]] = []
            to_validate: List[Tuple[str, Optional[str]]] = []
            # A retransmission can land twice inside one burst; the second
            # copy waits for the first to resolve, then replays its answer.
            batch_dups: List[Tuple[int, Tuple[str, int, bytes]]] = []
            seen_keys = set()
            for i, (datagram, source) in enumerate(datagrams):
                secret = self._secret_for(source)
                if secret is None:
                    self.rejected_clients += 1
                    self._m_unknown.inc(server=self.name)
                    continue
                try:
                    request = decode_packet(datagram)
                except ProtocolError:
                    continue
                if request.code != PacketCode.ACCESS_REQUEST:
                    continue
                cache_key = (source, request.identifier, request.authenticator)
                cached = self._response_cache.get(cache_key)
                if cached is not None:
                    self.duplicates_replayed += 1
                    self._m_duplicates.inc(server=self.name)
                    responses[i] = cached
                    continue
                if cache_key in seen_keys:
                    self.duplicates_replayed += 1
                    self._m_duplicates.inc(server=self.name)
                    batch_dups.append((i, cache_key))
                    continue
                seen_keys.add(cache_key)
                self.handled += 1
                self._m_requests.inc(server=self.name)
                username = request.get_str(Attr.USER_NAME)
                if username is None:
                    response = self._reply(
                        request, secret, PacketCode.ACCESS_REJECT, "User-Name is required"
                    )
                    self._cache_response(cache_key, response)
                    responses[i] = response
                    continue
                hidden = request.get(Attr.USER_PASSWORD)
                if hidden is None:
                    code: Optional[str] = None
                else:
                    try:
                        code = recover_password(hidden, secret, request.authenticator)
                    except ProtocolError:
                        continue  # wrong shared secret or mangled packet
                pending.append((i, request, secret, cache_key))
                to_validate.append((username, code if code else None))
            if pending:
                if isinstance(self._backend, SubmitAPI) and len(to_validate) > 1:
                    tickets = self._backend.submit_many(to_validate)
                    results = [ticket.result() for ticket in tickets]
                else:
                    results = [
                        self._backend.validate(user, code)
                        for user, code in to_validate
                    ]
                for (i, request, secret, cache_key), result in zip(pending, results):
                    response = self._access_response(request, secret, result)
                    self._cache_response(cache_key, response)
                    responses[i] = response
            for i, cache_key in batch_dups:
                responses[i] = self._response_cache.get(cache_key)
            return responses

    def _respond(self, request: RADIUSPacket, secret: bytes) -> Optional[bytes]:
        username = request.get_str(Attr.USER_NAME)
        if username is None:
            return self._reply(
                request, secret, PacketCode.ACCESS_REJECT, "User-Name is required"
            )
        hidden = request.get(Attr.USER_PASSWORD)
        if hidden is None:
            code: Optional[str] = None
        else:
            try:
                code = recover_password(hidden, secret, request.authenticator)
            except ProtocolError:
                return None  # wrong shared secret or mangled packet
        result = self._backend.validate(username, code if code else None)
        return self._access_response(request, secret, result)

    def _access_response(
        self, request: RADIUSPacket, secret: bytes, result
    ) -> bytes:
        # Reply with the canned per-status message, never the back end's
        # internal reason — drift-window details and replay diagnostics
        # would hand an attacker an oracle.
        packet_code, message = _STATUS_MAP[result.status]
        response = RADIUSPacket(packet_code, request.identifier)
        response.add(Attr.REPLY_MESSAGE, message)
        if packet_code == PacketCode.ACCESS_CHALLENGE:
            # Opaque challenge state the client must echo back with the code.
            username = request.get_str(Attr.USER_NAME) or ""
            response.add(Attr.STATE, f"sms-challenge:{username}".encode())
        for proxy_state in request.get_all(Attr.PROXY_STATE):
            response.add(Attr.PROXY_STATE, proxy_state)
        return encode_packet(response, secret, request.authenticator)

    def _cache_response(
        self, cache_key: Tuple[str, int, bytes], response: Optional[bytes]
    ) -> None:
        if response is None:
            return
        self._response_cache[cache_key] = response
        while len(self._response_cache) > self._response_cache_size:
            self._response_cache.popitem(last=False)

    def _reply(
        self, request: RADIUSPacket, secret: bytes, code: PacketCode, message: str
    ) -> bytes:
        response = RADIUSPacket(code, request.identifier)
        response.add(Attr.REPLY_MESSAGE, message)
        return encode_packet(response, secret, request.authenticator)
