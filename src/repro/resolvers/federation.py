"""Federated bearer-token authentication (arXiv 1908.07573's flow).

A partner site ("home site") attests that it has already authenticated a
user; the HPC center accepts the attestation as the second factor for the
mapped local account — without ever holding the partner's credentials.
The moving parts:

* :class:`AttestationIssuer` — the home-site side.  Issues HMAC-SHA256
  signed bearer assertions: ``FED1.<b64url payload>.<hex signature>``
  where the payload is canonical JSON with the keys ``aud`` (audience),
  ``exp``/``iat`` (validity window), ``nonce`` (single-use replay
  guard), ``site`` (issuer) and ``sub`` (the user at the home site).
  Clients may append a fourth dot-part — a local step-up code — which
  is *not* covered by the signature and is consumed by the dispatch
  handler when the risk stage demands a second local factor.
* :class:`AttestationVerifier` — the center side.  Holds the per-site
  trust registry (site → shared HMAC key), checks signature, expiry and
  audience, and burns each nonce in a TTL'd :class:`NonceCache` so a
  stolen assertion replays exactly zero times.
* :class:`FederatedResolver` — maps ``user@homesite`` principals onto
  local accounts, so federated visitors flow through the same resolver
  chain, policy engine and risk stage as everyone else.

Keys follow the :mod:`repro.crypto.signing` rule: at least 16 bytes.
"""

from __future__ import annotations

import base64
import heapq
import hmac
import json
import random
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.errors import ValidationError
from repro.resolvers.base import IdentityResolver, ResolvedIdentity, split_realm

#: Version tag leading every assertion; bump on any format change.
ASSERTION_PREFIX = "FED1"

MIN_KEY_BYTES = 16

#: The ``aud`` every issuer stamps and the verifier demands: this center.
AUDIENCE = "hpc-center"

#: Seconds an assertion stays valid when ``issue`` is not told otherwise.
ASSERTION_TTL = 300.0


class AssertionInvalid(ValidationError):
    """An attestation failed verification; ``str(exc)`` says why."""


def _b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def _unb64url(text: str) -> bytes:
    padded = text + "=" * (-len(text) % 4)
    return base64.urlsafe_b64decode(padded.encode("ascii"))


def _sign(key: bytes, signing_input: str) -> str:
    return hmac.digest(key, signing_input.encode("ascii"), "sha256").hex()


class AttestationIssuer:
    """The home site's assertion mint."""

    def __init__(
        self,
        site: str,
        key: bytes,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not site:
            raise ValueError("issuer site name must be non-empty")
        if len(key) < MIN_KEY_BYTES:
            raise ValueError(f"attestation key must be >= {MIN_KEY_BYTES} bytes")
        self.site = site
        self._key = key
        self._clock = clock or WallClock()
        self._rng = rng or random.Random()
        self.issued = 0

    def issue(
        self,
        subject: str,
        audience: Optional[str] = None,
        ttl: Optional[float] = None,
        nonce: Optional[str] = None,
    ) -> str:
        """Mint a bearer assertion for ``subject`` (the home-site user)."""
        now = self._clock.now()
        payload = {
            "aud": audience or AUDIENCE,
            "exp": round(now + (ttl if ttl is not None else ASSERTION_TTL), 3),
            "iat": round(now, 3),
            "nonce": nonce or f"{self._rng.getrandbits(128):032x}",
            "site": self.site,
            "sub": subject,
        }
        body = _b64url(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
        signing_input = f"{ASSERTION_PREFIX}.{body}"
        self.issued += 1
        return f"{signing_input}.{_sign(self._key, signing_input)}"


class NonceCache:
    """Single-use nonce ledger, TTL'd on each assertion's own expiry.

    A ledger, not a cache: forgetting a live nonce would replay its
    assertion, so it has no capacity.  Lifetimes differ per issuer and per
    assertion, so expiry order is not burn order: a heap of expiries, soonest
    first, lets each burn drop every expired entry and nothing else, so no
    expired nonce outlives the next burn.

    ``consume`` is check-then-set, and the pipeline's per-user lock
    stripes do not cover it: two spellings of one account (``alice``,
    ``alice@partner``) hash to different stripes, so the same assertion
    can arrive on two threads at once.  The ledger's own lock makes the
    burn exactly-once.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._seen: Set[str] = set()
        #: ``(expires_at, nonce)`` for each member of ``_seen``, soonest first.
        self._expiries: List[Tuple[float, str]] = []
        self.replays_blocked = 0

    def __len__(self) -> int:
        return len(self._seen)

    def consume(self, nonce: str, expires_at: float) -> bool:
        """Burn ``nonce``; False when it was already used (a replay)."""
        now = self._clock.now()
        with self._lock:
            expiries = self._expiries
            while expiries and expiries[0][0] <= now:
                self._seen.remove(heapq.heappop(expiries)[1])
            if nonce in self._seen:  # every member is live after the purge
                self.replays_blocked += 1
                return False
            self._seen.add(nonce)
            heapq.heappush(expiries, (expires_at, nonce))
            return True


class AttestationVerifier:
    """The center's verification side: trust registry + nonce ledger."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or WallClock()
        self._trusted: Dict[str, bytes] = {}
        self.nonces = NonceCache(self._clock)
        self.verified = 0
        self.rejected = 0

    def trust(self, site: str, key: bytes) -> None:
        """Register (or rotate) a home site's shared attestation key."""
        if len(key) < MIN_KEY_BYTES:
            raise ValueError(f"attestation key must be >= {MIN_KEY_BYTES} bytes")
        self._trusted[site] = key

    def trusted_sites(self) -> list:
        return sorted(self._trusted)

    def verify(self, assertion: str) -> Dict[str, object]:
        """Validate an assertion end to end and burn its nonce.

        Returns the payload on success; raises :class:`AssertionInvalid`
        with a caller-visible reason otherwise.  Verification order is
        cheapest-first, and the nonce burns *last* so a malformed replay
        probe cannot consume a victim's live nonce.
        """
        try:
            prefix, body, signature = assertion.split(".")
            payload = json.loads(_unb64url(body))
            if prefix != ASSERTION_PREFIX or not isinstance(payload, dict):
                raise ValueError
            site = payload["site"]
            subject = payload["sub"]
            nonce = payload["nonce"]
            expires = float(payload["exp"])
            audience = payload["aud"]
        except (ValueError, KeyError, TypeError):
            self.rejected += 1
            raise AssertionInvalid("assertion malformed") from None
        _ = subject
        key = self._trusted.get(site)
        if key is None:
            self.rejected += 1
            raise AssertionInvalid(f"unknown home site {site!r}")
        expected = _sign(key, f"{prefix}.{body}")
        if not hmac.compare_digest(expected, signature):
            self.rejected += 1
            raise AssertionInvalid("assertion signature invalid")
        if audience != AUDIENCE:
            self.rejected += 1
            raise AssertionInvalid("assertion audience mismatch")
        if self._clock.now() >= expires:
            self.rejected += 1
            raise AssertionInvalid("assertion expired")
        if not self.nonces.consume(nonce, expires):
            self.rejected += 1
            raise AssertionInvalid("assertion replayed")
        self.verified += 1
        return payload


def split_assertion_code(code: str):
    """Split a submitted code into (assertion, step-up code or None).

    The step-up code is an optional fourth dot-part; base64url and hex
    never contain dots, so the split is unambiguous.
    """
    parts = code.split(".")
    if len(parts) == 4:
        return ".".join(parts[:3]), parts[3]
    return code, None


class FederatedResolver(IdentityResolver):
    """Map ``user@homesite`` principals onto local accounts."""

    name = "federated"

    def __init__(self) -> None:
        super().__init__()
        self._mappings: Dict[str, str] = {}

    def map(self, principal: str, uid: str) -> None:
        """Bind a federated principal to a local unique user id."""
        if "@" not in principal:
            raise ValueError(f"federated principal needs a realm: {principal!r}")
        self._mappings[principal] = str(uid)

    def unmap(self, principal: str) -> None:
        self._mappings.pop(principal, None)

    def __len__(self) -> int:
        return len(self._mappings)

    def _lookup(self, username: str) -> Optional[ResolvedIdentity]:
        uid = self._mappings.get(username)
        if uid is None:
            return None
        _, realm = split_realm(username)
        return ResolvedIdentity(
            username=username,
            uid=uid,
            realm=realm,
            resolver=self.name,
            federated=True,
            home_site=realm,
        )
