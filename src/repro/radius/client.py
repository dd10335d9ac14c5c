"""The RADIUS client embedded in the PAM token module.

"These API calls communicate with RADIUS servers in a round-robin fashion
to provide load balancing and resiliency if specific RADIUS servers are
unavailable" (Section 3.4).  The client rotates a starting index across
calls (load balancing) and walks the server list with retransmits on
timeout (resiliency); response authenticators are verified so a spoofed
server cannot mint an Access-Accept.

On top of the paper's blind round-robin the client is *health-aware*: a
per-server EWMA score and circuit breaker eject servers that keep timing
out, retransmits wait out a deterministic jittered backoff schedule (both
from :mod:`repro.common.resilience`), and an optional deadline budget
bounds how much simulated time one authenticate() may burn before giving
up.  While every circuit is closed the attempt order is the precomputed
rotation, and with no budget no deadline is built, so a healthy round trip
reads no circuit and no clock to plan itself.

A request is one concatenation of attribute bytes (NAS-Identifier encoded
once, at construction), and a verified reply is read in one scan.  A reply
that is forged, corrupt, answers another request or carries a Reply-Message
that is not UTF-8 counts as no reply: the server's health suffers and the
request is retransmitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.clock import Clock, VirtualClock
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.ids import random_octets
from repro.common.resilience import (
    BackoffSchedule,
    CircuitState,
    HealthTracker,
    stable_seed,
)
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import decode_response, encode, hide_password, tlv
from repro.radius.transport import UDPFabric
from repro.telemetry import resolve_registry


#: What every login node calls itself in NAS-Identifier.
NAS_IDENTIFIER = "login-node"
#: Simulated seconds one unanswered attempt costs before the retransmit.
ATTEMPT_TIMEOUT = 1.0
#: Attempts per server before failing over.  Same-server retransmits matter
#: beyond raw loss recovery: when an Access-Accept is lost on the response
#: leg the server has already consumed the one-time code, and only a
#: retransmit of the *same* packet to the *same* server can be rescued by
#: its RFC 5080 duplicate-detection cache -- a different server
#: replay-rejects.  Three is the classic RADIUS retransmit count.
RETRIES = 3
#: Order attempts by circuit health; False is the paper's blind round-robin
#: (the failover benchmark compares the two).
HEALTH_AWARE = True


class AuthStatus(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    CHALLENGE = "challenge"
    TIMEOUT = "timeout"


@dataclass
class AuthResponse:
    """What the PAM module sees from one authenticate() call."""

    status: AuthStatus
    message: str = ""
    state: Optional[bytes] = None
    server: str = ""

    @property
    def ok(self) -> bool:
        return self.status is AuthStatus.ACCEPT


class RADIUSClient:
    """Health-aware round-robin RADIUS client with circuit breaking."""

    def __init__(
        self,
        fabric: UDPFabric,
        servers: List[str],
        secret: bytes,
        source: str,
        rng: Optional[random.Random] = None,
        telemetry=None,
        clock: Optional[Clock] = None,
        deadline_budget: Optional[float] = None,
        wait_clock: Optional[Clock] = None,
    ) -> None:
        if not servers:
            raise ConfigurationError("RADIUS client requires at least one server")
        self._fabric = fabric
        self._servers = list(servers)
        self._secret = secret
        self._source = source
        #: Simulated seconds one authenticate() may spend; None = unbounded.
        self._deadline_budget = deadline_budget
        self._rng = rng or random.Random()
        self._next_start = 0
        self._identifier = self._rng.randrange(256)
        self.per_server_attempts = {s: 0 for s in servers}
        # Time is read from ``clock`` and waiting (timeouts, backoff) is
        # charged to ``wait_clock.sleep()`` — injecting a VirtualClock makes
        # waits advance simulated time so deadline budgets bind; wait_clock
        # None makes waits free (the in-process fabric answers instantly,
        # and moving shared time mid-call would shift TOTP steps under the
        # caller's feet, so only the chaos/benchmark rigs opt in).  Without
        # a clock at all, a private VirtualClock plays both roles so probe
        # intervals still mean something.
        if clock is None:
            clock = VirtualClock()
            if wait_clock is None:
                wait_clock = clock
        self._clock = clock
        self._wait_clock = wait_clock
        self.telemetry = resolve_registry(telemetry, clock=clock)
        self._tracer = self.telemetry.tracer()
        self.health = HealthTracker(self._servers)
        # The attempt order while every circuit is closed, per start index.
        self._rotations = [
            tuple((server, False) for server in self._servers[i:] + self._servers[:i])
            for i in range(len(self._servers))
        ]
        self._nas_identifier = tlv(Attr.NAS_IDENTIFIER, NAS_IDENTIFIER.encode())
        # Backoff schedules are keyed per (source, server): deterministic
        # across runs (CRC-based seed, no shared-RNG draws) yet distinct
        # across the fleet so retries never synchronize.
        self._backoff: Dict[str, BackoffSchedule] = {
            s: BackoffSchedule(stable_seed(source, s)) for s in self._servers
        }
        retransmits = self.telemetry.counter(
            "radius_client_retransmits_total",
            "same-server retransmissions after a timeout",
        )
        self._m_retransmits = {s: retransmits.labels(server=s) for s in self._servers}
        failovers = self.telemetry.counter(
            "radius_client_failovers_total",
            "server switches after a server exhausted its retries",
        )
        self._m_failovers = {s: failovers.labels(to_server=s) for s in self._servers}
        responses = self.telemetry.counter(
            "radius_client_responses_total", "authenticate() outcomes by status"
        )
        self._m_responses = {
            status: responses.labels(status=status.value) for status in AuthStatus
        }
        self._m_skipped = self.telemetry.counter(
            "radius_client_ejected_skips_total",
            "sends avoided because the target's circuit was open",
        ).labels()

    # -- time ----------------------------------------------------------------

    def _elapse(self, seconds: float) -> None:
        """Charge a wait to the injected wait clock (no clock = free)."""
        if seconds > 0 and self._wait_clock is not None:
            self._wait_clock.sleep(seconds)

    # -- server ordering ------------------------------------------------------

    def _attempt_plan(self, start: int) -> Sequence[Tuple[str, bool]]:
        """Order of ``(server, is_probe)`` for one call.

        Probe-due ejected servers go first (half-open trials — the only
        way a recovered server gets re-admitted while its peers are
        healthy), then healthy servers in rotated round-robin order, then
        still-cooling ejected servers as last resorts so a total-outage
        recovery is never invisible.  Every server reached gets the full
        retransmit budget: a single-shot attempt whose Access-Accept is
        lost has no dup-cache rescue and poisons the one-time code.  While
        every circuit is closed that order is the rotation, precomputed.
        """
        rotation = self._rotations[start]
        if not HEALTH_AWARE or not self.health.ejected:
            return rotation
        now = self._clock.now()
        probes: List[Tuple[str, bool]] = []
        closed: List[Tuple[str, bool]] = []
        cooling: List[Tuple[str, bool]] = []
        for server, _ in rotation:
            if self.health.probe_due(server, now):
                probes.append((server, True))
            elif self.health.state(server) is CircuitState.CLOSED:
                closed.append((server, False))
            else:
                cooling.append((server, False))
        return probes + closed + cooling

    # -- the call --------------------------------------------------------------

    def authenticate(
        self,
        username: str,
        password: str = "",
        state: Optional[bytes] = None,
        source_override: Optional[str] = None,
    ) -> AuthResponse:
        """One challenge-response round trip.

        ``password`` is the token code ("" sends the SMS null request);
        ``state`` echoes an Access-Challenge's State attribute back.
        """
        args = (username, password, state, source_override)
        if not self.telemetry.enabled:
            return self._authenticate(*args, False)[0]
        with self._tracer.span("radius.client.authenticate", user=username) as span:
            auth_response, deadline_hit = self._authenticate(*args, True)
            attributes = span.attributes
            if auth_response.server:
                attributes["server"] = auth_response.server
            attributes["status"] = auth_response.status._value_
            if auth_response.status is AuthStatus.TIMEOUT:
                if deadline_hit:
                    attributes["deadline_exhausted"] = True
                span.status = "error"
            self._m_responses[auth_response.status].inc()
            return auth_response

    def _authenticate(
        self, username: str, password: str, state, source_override, live: bool
    ) -> Tuple[AuthResponse, bool]:
        """The round trip, and whether the deadline budget cut it short;
        ``live`` says whether the failover counters record."""
        authenticator = random_octets(self._rng, 16)
        self._identifier = identifier = (self._identifier + 1) % 256
        attrs = (
            tlv(Attr.USER_NAME, username.encode())
            + tlv(Attr.USER_PASSWORD, hide_password(password, self._secret, authenticator))
            + self._nas_identifier
        )
        if state is not None:
            attrs += tlv(Attr.STATE, state)
        wire = encode(PacketCode.ACCESS_REQUEST, identifier, authenticator, attrs)

        start = self._next_start
        self._next_start = (start + 1) % len(self._servers)
        source = source_override or self._source
        budget = self._deadline_budget
        deadline = None if budget is None else self._clock.deadline(budget)
        # Retransmit to the same server before failing over: the server's
        # duplicate-detection cache (RFC 5080) can then replay a response
        # whose first copy was lost, instead of re-consuming the one-time
        # code on a different server.
        deadline_hit = False
        for index, (server, is_probe) in enumerate(self._attempt_plan(start)):
            if deadline is not None and deadline.expired():
                deadline_hit = True
                break
            if index and not is_probe and live:
                self._m_failovers[server].inc()
            if is_probe:
                self.health.begin_probe(server, self._clock.now())
            for attempt in range(RETRIES):
                if deadline is not None and deadline.expired():
                    deadline_hit = True
                    break
                if attempt:
                    if live:
                        self._m_retransmits[server].inc()
                    self._elapse(self._backoff[server].delay(attempt))
                self.per_server_attempts[server] += 1
                response_bytes = self._fabric.send_request(server, wire, source)
                if response_bytes is not None:
                    response = self._to_auth_response(
                        response_bytes, authenticator, identifier, server
                    )
                    if response is not None:
                        self.health.on_success(server, self._clock.now())
                        return response, False
                # A timeout, or a reply no better than one: retransmit.
                self._elapse(ATTEMPT_TIMEOUT)
                self.health.on_failure(server, self._clock.now())
            if deadline_hit:
                break
        if HEALTH_AWARE and live and self.health.ejected:
            self._m_skipped.inc(self.health.ejected)
        message = (
            "RADIUS deadline budget exhausted"
            if deadline_hit
            else "no RADIUS server responded"
        )
        return AuthResponse(AuthStatus.TIMEOUT, message), deadline_hit

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per server: its circuit's health plus the datagrams this client
        sent it (the round-robin balance) — one login node's entry under
        ``systems.<name>.radius`` in the status view."""
        snap = self.health.snapshot()
        for server, entry in snap.items():
            entry["attempts"] = self.per_server_attempts[server]
        return snap

    def _to_auth_response(
        self, data: bytes, authenticator: bytes, identifier: int, server: str
    ) -> Optional[AuthResponse]:
        """The reply to this request as the PAM module sees it; ``None`` for
        one that is forged or corrupt, answers another identifier or carries
        a Reply-Message that is not UTF-8."""
        try:
            code, answered, _, attributes = decode_response(
                data, authenticator, self._secret
            )
        except ProtocolError:
            return None
        if answered != identifier:
            return None
        message = state = None
        for attr, value in attributes:
            if attr == Attr.REPLY_MESSAGE:
                if message is None:
                    message = value
            elif attr == Attr.STATE:
                if state is None:
                    state = value
        text = ""
        if message is not None:
            try:
                text = message.decode()
            except UnicodeDecodeError:
                return None
        if code == PacketCode.ACCESS_ACCEPT:
            status = AuthStatus.ACCEPT
        elif code == PacketCode.ACCESS_CHALLENGE:
            status = AuthStatus.CHALLENGE
        else:
            status = AuthStatus.REJECT
        return AuthResponse(status, text, state, server)
