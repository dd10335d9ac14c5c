"""HTTP Digest Access Authentication (RFC 7616 subset).

"The portal back end authenticates to the admin API using HTTP Digest
Authentication over a TLS-secured connection" (Section 3.5).  We implement
the qop="auth" digest handshake — challenge generation, response
computation, nonce-count replay tracking and verification — which the
portal client and the LinOTP admin API simulation both use.  TLS itself is
out of scope (the in-process transport is already private); what matters to
reproduce is that the portal never sends the admin password in the clear
and that replayed requests are rejected.

For qop="auth", HA2 = H(method:uri) depends on the request line alone, so
a server with fixed routes hashes it once per route: both halves take a
``route_ha2`` table, ``{(method, uri): HA2}``, and a request on a route in
it makes one MD5 per side, its response digest.  A request line outside
the table is hashed for that request alone and stored nowhere.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import re
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.common.cache import MISSING, BoundedCache


def _h(text: str) -> str:
    # "surrogatepass": a lone surrogate in a header field hashes, not raises.
    return hashlib.md5(text.encode("utf-8", "surrogatepass")).hexdigest()


def ha1(username: str, realm: str, password: str) -> str:
    """RFC 7616 HA1 = H(username:realm:password)."""
    return _h(f"{username}:{realm}:{password}")


def ha2(method: str, uri: str) -> str:
    """RFC 7616 HA2 = H(method:uri) for qop=auth."""
    return _h(f"{method}:{uri}")


def digest_response(
    _ha1: str, nonce: str, nc: str, cnonce: str, qop: str, _ha2: str
) -> str:
    """The response field: H(HA1:nonce:nc:cnonce:qop:HA2) — the one hash a
    routed request makes on each side, so it is hashed in this frame."""
    text = f"{_ha1}:{nonce}:{nc}:{cnonce}:{qop}:{_ha2}"
    return hashlib.md5(text.encode("utf-8", "surrogatepass")).hexdigest()


#: ``{(method, uri): HA2}`` for the routes a server serves.
RouteHA2 = Mapping[Tuple[str, str], str]

#: The table of a caller with no fixed routes: every request line is hashed.
NO_ROUTES: RouteHA2 = MappingProxyType({})


@dataclass
class DigestChallenge:
    """The WWW-Authenticate challenge a server issues."""

    realm: str
    nonce: str
    qop: str = "auth"
    opaque: str = ""


@dataclass
class DigestCredentials:
    """The Authorization header fields a client sends back."""

    username: str
    realm: str
    nonce: str
    uri: str
    response: str
    nc: str
    cnonce: str
    qop: str = "auth"


class DigestClient:
    """Client half: answer challenges for a (username, password) pair, and
    sign later requests under the last one with the next nonce count (RFC
    7616 §3.4, as ``requests``' ``HTTPDigestAuth`` does)."""

    def __init__(self, username: str, password: str, rng: random.Random | None = None) -> None:
        self.username = username
        self._password = password
        self._rng = rng or random.Random()
        self._challenge: Optional[DigestChallenge] = None
        self._ha1 = ""
        self._nc = 0

    def respond(
        self, challenge: DigestChallenge, method: str, uri: str,
        route_ha2: RouteHA2 = NO_ROUTES,
    ) -> DigestCredentials:
        """Build credentials for one request under ``challenge`` (a new
        challenge starts its nonce count at 1)."""
        if challenge != self._challenge:
            self._challenge = challenge
            self._ha1 = ha1(self.username, challenge.realm, self._password)
            self._nc = 0
        return self.reuse(method, uri, route_ha2)

    def reuse(
        self, method: str, uri: str, route_ha2: RouteHA2 = NO_ROUTES
    ) -> Optional[DigestCredentials]:
        """Credentials under the last challenge answered, with the next
        nonce count; None before the first challenge.  HA2 is read from
        ``route_ha2`` when the request line is in it."""
        challenge = self._challenge
        if challenge is None:
            return None
        self._nc += 1
        nc = f"{self._nc:08x}"
        cnonce = f"{self._rng.getrandbits(64):016x}"
        route = (method, uri)
        request_ha2 = route_ha2[route] if route in route_ha2 else ha2(method, uri)
        resp = digest_response(
            self._ha1, challenge.nonce, nc, cnonce, challenge.qop, request_ha2
        )
        return DigestCredentials(
            username=self.username,
            realm=challenge.realm,
            nonce=challenge.nonce,
            uri=uri,
            response=resp,
            nc=nc,
            cnonce=cnonce,
            qop=challenge.qop,
        )


#: How many issued nonces the verifier remembers; the oldest goes first.
NONCE_TABLE = 1024
_NC = re.compile(r"[0-9a-f]{8}")  # RFC 7616's nc: eight lower-case hex digits


class DigestVerifier:
    """Server half: issue challenges and verify credential responses.

    Tracks nonce counts so a captured Authorization header cannot be
    replayed — part of the "hardened to handle form resubmissions and
    replays" behaviour of the portlet application.

    The nonce table holds issued nonces, so it may be bounded: forgetting
    one fails closed (a 401 and a fresh challenge, never a pass), unlike the
    federation ``NonceCache`` of used nonces, where forgetting is a replay.
    """

    def __init__(self, realm: str, rng: random.Random | None = None) -> None:
        self.realm = realm
        self._rng = rng or random.Random()
        self._users: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._nonces = BoundedCache(NONCE_TABLE)  # nonce -> highest nc accepted

    def add_user(self, username: str, password: str) -> None:
        self._users[username] = ha1(username, self.realm, password)

    def challenge(self) -> DigestChallenge:
        nonce = f"{self._rng.getrandbits(128):032x}"
        with self._lock:
            self._nonces.put(nonce, 0)
        return DigestChallenge(realm=self.realm, nonce=nonce)

    def verify(
        self, creds: DigestCredentials, method: str, uri: str,
        route_ha2: RouteHA2 = NO_ROUTES,
    ) -> bool:
        """Return True iff the credentials authenticate this request (any
        field values get a bool, never an exception).  HA2 is read from
        ``route_ha2`` when the request line is in it.  A ``qop`` other than the
        offered ``auth`` is refused (RFC 7616 §3.4)."""
        if not (
            creds.username.__class__ is str and creds.uri.__class__ is str
            and creds.nonce.__class__ is str and creds.nc.__class__ is str
            and creds.response.__class__ is str and method.__class__ is str
            and creds.qop.__class__ is str and creds.qop == "auth"
        ):
            return False  # a field used as a key or read as text, a qop not offered
        stored_ha1 = self._users.get(creds.username)
        if stored_ha1 is None or creds.uri != uri or creds.realm != self.realm:
            return False
        if not (_NC.fullmatch(creds.nc) and creds.response.isascii()):
            return False  # a malformed count; a response no hex digest equals
        route = (method, uri)  # hashable: a str method, a uri equal to a str
        request_ha2 = route_ha2[route] if route in route_ha2 else ha2(method, uri)
        expected = digest_response(
            stored_ha1, creds.nonce, creds.nc, creds.cnonce, creds.qop, request_ha2
        )
        if not hmac.compare_digest(expected, creds.response):
            return False
        nc = int(creds.nc, 16)
        with self._lock:  # lookup and advance in one step: one request per nc
            highest = self._nonces.get(creds.nonce)
            if highest is MISSING or nc <= highest:
                return False  # a stale, fabricated or forgotten nonce; a replay
            self._nonces.put(creds.nonce, nc)
        return True
