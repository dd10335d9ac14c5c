"""Dynamic risk assessment as a policy rule (conclusion future-work item #2).

One :class:`RiskEngine` scores each login attempt from signals the
infrastructure already produces, maps the score to one of three actions,
and keeps the record of what it decided.  :class:`PolicyEngine` folds the
verdict into its single ``evaluate()`` surface — the shape of the
OpenStack RBA implementation (PAPERS.md, arXiv 2303.12361): risk
*tightens* the static policy, never loosens it.

* **ALLOW** — proceed normally (the exemption/token policy still applies);
* **STEP_UP** — force the second factor even where policy would have
  waived it (e.g. an exempted account from a never-seen origin);
* **DENY** — refuse outright.

Signals and their weights:

=====================  ======  ==========================================
signal                 weight  source
=====================  ======  ==========================================
failure burst          0.40    recent failed logins for the account
novel origin           0.25    first login ever from this IP
unusual hour           0.10    00:00-05:00 local logins for day-working
                               accounts
impossible travel      0.50    :class:`~repro.policy.geo.GeoVelocityMonitor`
watchlisted network    0.35    operator-maintained CIDR watchlist
=====================  ======  ==========================================

Scores clamp to [0, 1]; a login steps up at 0.3 (``step_up_threshold``)
and is denied at ``DENY_THRESHOLD`` (0.7).  The weights and the deny bar
are module constants; only a benchmark and an example set the step-up bar,
and no deployment builds a ``GeoVelocityMonitor`` (ROADMAP item 11 decides
both).

Beyond scoring (:meth:`RiskEngine.assess`), the engine keeps what a
score alone cannot answer after the fact (:meth:`RiskEngine.evaluate`):

* counters (``assessed`` / ``step_ups`` / ``denies`` /
  ``honeytoken_alarms``) surfaced through ``status("policy")``;
* a bounded log of **flagged** verdicts — every STEP_UP, DENY, and
  honeytoken alarm — plus a per-user flag count that survives log
  eviction.  The chaos invariant "no attacker success without a flagged
  risk event" is checked against exactly this record.

Honeytoken alarms (arXiv 2112.08431) enter here too: a decoy credential
being *used* is the highest-confidence compromise signal there is, so
the dispatch stage reports it to the shared engine and the verdict is
visible to PAM and the OTP server alike.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Set

from repro.common.clock import Clock
from repro.common.origin import OriginIndex, OriginMatcher, ipv4_to_int
from repro.policy.geo import GeoVelocityMonitor


class RiskAction(str, Enum):
    ALLOW = "allow"
    STEP_UP = "step_up"
    DENY = "deny"


@dataclass(slots=True)
class RiskDecision:
    """Score, action, and the named signals that fired."""

    score: float
    action: RiskAction
    signals: List[str] = field(default_factory=list)


#: What each signal adds to the score (the table above).
FAILURE_BURST_WEIGHT = 0.40
NOVEL_ORIGIN_WEIGHT = 0.25
UNUSUAL_HOUR_WEIGHT = 0.10
IMPOSSIBLE_TRAVEL_WEIGHT = 0.50
WATCHLISTED_NETWORK_WEIGHT = 0.35
#: A score at or above this is a DENY.
DENY_THRESHOLD = 0.7
#: Flagged verdicts kept in the detailed log; per-user counts survive it.
FLAG_LOG_LIMIT = 512

#: The shared nothing-fired verdict.  Treated as immutable by every
#: consumer (the flag log copies signal lists before storing them), and
#: exported so hot-path callers can recognise the quiet case by
#: *identity* and skip flag/step-up bookkeeping entirely.
QUIET_ALLOW = RiskDecision(0.0, RiskAction.ALLOW, [])

#: The failure-burst signal: this many failed attempts on one account
#: inside this many seconds.
FAILURE_BURST_SIZE = 3
FAILURE_WINDOW = 600.0


class RiskEngine:
    """Scores logins, remembers per-user history, records flagged verdicts.

    One instance is shared by every policy consumer of a deployment (the
    OTP server's pipeline engine and each system's PAM-side engine), so
    they see one verdict stream, one flag log, one set of counters.
    """

    def __init__(
        self,
        clock: Clock,
        geo_monitor: Optional[GeoVelocityMonitor] = None,
        step_up_threshold: float = 0.3,
    ) -> None:
        if not 0 <= step_up_threshold <= DENY_THRESHOLD:
            raise ValueError("need 0 <= step_up_threshold <= DENY_THRESHOLD")
        self._clock = clock
        self._geo = geo_monitor
        self.step_up_threshold = step_up_threshold
        self._known_origins: Dict[str, Set[str]] = {}
        self._failures: Dict[str, List[float]] = {}
        self._watchlist = OriginIndex()
        # Every validate thread feeds and reads this engine: one lock for
        # the feeds, the scoring, the counters and the flag log.
        self._lock = threading.Lock()
        self.assessed = 0
        self.step_ups = 0
        self.denies = 0
        self.honeytoken_alarms = 0
        self._flag_log: Deque[dict] = deque(maxlen=FLAG_LOG_LIMIT)
        self._flag_counts: Dict[str, int] = {}

    # -- signal feeds ------------------------------------------------------------

    def record_failure(self, username: str) -> None:
        """Feed from the authlog: a failed login for this account."""
        with self._lock:
            self._failures.setdefault(username, []).append(self._clock.now())

    def record_success(self, username: str, ip: str) -> None:
        """Feed on successful entry: the origin becomes known-good and the
        failure burst resets (the legitimate user is clearly present)."""
        with self._lock:
            known = self._known_origins.get(username)
            if known is None:
                known = self._known_origins[username] = set()
            if ip not in known:
                known.add(ip)
            if username in self._failures:
                del self._failures[username]

    def add_watchlist(self, cidr: str) -> None:
        """Operator action: flag a hostile network range."""
        with self._lock:
            self._watchlist.add(OriginMatcher.parse(cidr), cidr)

    # -- scoring --------------------------------------------------------------------

    def _recent_failures(self, username: str, now: float) -> int:
        """The account's failures inside the burst window.  Caller holds the lock."""
        timestamps = self._failures.get(username)
        if not timestamps:
            return 0
        cutoff = now - FAILURE_WINDOW
        if timestamps[0] >= cutoff:
            # Append-only and time-ordered: nothing aged out, skip the copy.
            return len(timestamps)
        live = [t for t in timestamps if t >= cutoff]
        self._failures[username] = live
        return len(live)

    def assess(self, username: str, ip: str) -> RiskDecision:
        """Score one attempt (before the credentials are even checked)."""
        with self._lock:
            return self._score(username, ip, self._clock.now())

    def _score(self, username: str, ip: str, now: float) -> RiskDecision:
        """The verdict on an attempt made at ``now``.  Caller holds the lock."""
        hour = int(now // 3600)
        score = 0.0
        signals: List[str] = []
        if (
            self._failures
            and self._recent_failures(username, now) >= FAILURE_BURST_SIZE
        ):
            score += FAILURE_BURST_WEIGHT
            signals.append("failure_burst")
        known = self._known_origins.get(username)
        if known and ip not in known:
            score += NOVEL_ORIGIN_WEIGHT
            signals.append("novel_origin")
        if hour % 24 < 5:
            score += UNUSUAL_HOUR_WEIGHT
            signals.append("unusual_hour")
        watchlist = self._watchlist.buckets
        if watchlist:  # the index's walk, inline: no call per mask
            address = ipv4_to_int(ip)
            for _, mask, networks in watchlist:
                if mask is None or (
                    address is not None and (address & mask) in networks
                ):
                    score += WATCHLISTED_NETWORK_WEIGHT
                    signals.append("watchlisted_network")
                    break
        if self._geo is not None:
            verdict = self._geo.observe(username, ip)
            if not verdict.plausible:
                score += IMPOSSIBLE_TRAVEL_WEIGHT
                signals.append("impossible_travel")
        if not signals and score < self.step_up_threshold:
            # The overwhelmingly common quiet verdict, allocation-free:
            # every login is scored, so the nothing-fired path
            # reuses one immutable decision (guarded against a zero
            # step-up threshold, where even a 0.0 score must step up).
            return QUIET_ALLOW
        score = min(score, 1.0)
        if score >= DENY_THRESHOLD:
            action = RiskAction.DENY
        elif score >= self.step_up_threshold:
            action = RiskAction.STEP_UP
        else:
            action = RiskAction.ALLOW
        return RiskDecision(score, action, signals)

    # -- the verdict ---------------------------------------------------------

    def evaluate(
        self, username: str, source_ip: str, now: Optional[float] = None
    ) -> RiskDecision:
        """Score one attempt made at ``now`` (``None``: this engine's clock now)
        and count it in one lock section; STEP_UP and DENY verdicts are flagged."""
        with self._lock:
            now = self._clock.now() if now is None else now
            decision = self._score(username, source_ip or "", now)
            self.assessed += 1
            if decision is QUIET_ALLOW:
                # The overwhelmingly common verdict, recognised by identity:
                # nothing fired, nothing to flag, no enum comparisons needed.
                return decision
            if decision.action is RiskAction.STEP_UP:
                self.step_ups += 1
            elif decision.action is RiskAction.DENY:
                self.denies += 1
            if decision.action is not RiskAction.ALLOW:
                self._flag(
                    username,
                    source_ip,
                    decision.score,
                    decision.action.value,
                    decision.signals,
                )
        return decision

    def raise_alarm(
        self,
        username: str,
        source_ip: str,
        serial: str = "",
        accepted: bool = False,
    ) -> None:
        """A honeytoken was used: flag the account at maximal score.

        The decoy's secret only exists to be stolen, so *any* use —
        whether the submitted code verified (``accepted``) or not — means
        an attacker holds the user's credential material.
        """
        with self._lock:
            self.honeytoken_alarms += 1
            self._flag(
                username,
                source_ip,
                1.0,
                "honeytoken",
                ["honeytoken_use"],
                serial=serial,
                accepted=accepted,
            )

    def _flag(
        self,
        username: str,
        source_ip: str,
        score: float,
        action: str,
        signals: List[str],
        **extra,
    ) -> None:
        """Append to the flag log.  Caller holds the lock."""
        entry = {
            "user": username,
            "ip": source_ip or "",
            "score": round(score, 4),
            "action": action,
            "signals": list(signals),
        }
        entry.update(extra)
        self._flag_log.append(entry)
        self._flag_counts[username] = self._flag_counts.get(username, 0) + 1

    # -- the record ----------------------------------------------------------

    def flags_for(self, username: str) -> int:
        """Flagged-verdict count for one account (survives log eviction)."""
        return self._flag_counts.get(username, 0)

    def flagged(self) -> List[dict]:
        """The most recent flagged verdicts, oldest first."""
        return list(self._flag_log)

    # -- operator view -------------------------------------------------------

    def snapshot(self) -> dict:
        """The engine's state (``risk`` under ``status("policy")``)."""
        return {
            "step_up_threshold": self.step_up_threshold,
            "deny_threshold": DENY_THRESHOLD,
            "assessed": self.assessed,
            "step_ups": self.step_ups,
            "denies": self.denies,
            "honeytoken_alarms": self.honeytoken_alarms,
            "flagged_users": len(self._flag_counts),
        }
