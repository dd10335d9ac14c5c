"""One report for every scenario: the event rows both runners write, judged.

A fault plan's login train and an attack campaign write the same two kinds
of row into their :class:`~repro.simcore.EventLog`:

* ``attempt`` — an honest login: ``user, expect, healthy, ok, silent,
  latency`` (``expect`` is False for a deliberate wrong-code probe,
  ``healthy`` while >= 1 RADIUS server is free of deterministic blocking,
  ``silent`` for a denial that showed the user no reason);
* ``attack`` — an attacker attempt: ``user, group, channel, ok,
  blocked_by, flagged, alarmed`` (``group`` is the target's token type,
  ``blocked_by`` the defence that refused it, ``flagged`` / ``alarmed``
  whether the risk stage's flag log / the honeytoken alarms grew).

:func:`judge` is the one place the invariants live; it reads those rows and
the fault events the engine logs, so no runner keeps a verdict of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.simcore import EventLog

#: Every scenario starts at the same instant (the week of the paper's
#: production rollout, a Wednesday 09:00 UTC): inside business hours, so the
#: risk stage's ``unusual_hour`` signal stays quiet.
EPOCH = "2016-10-05T09:00:00"

#: The attacker's network, on the risk stage's watchlist from the start (a
#: threat-intelligence feed).
WATCHLIST = "203.0.113.0/24"


def availability(honest: List[dict]) -> float:
    """Success rate of correct-code logins made while >= 1 server was
    free of deterministic blocking (1.0 when there were none)."""
    eligible = [row["ok"] for row in honest if row["expect"] and row["healthy"]]
    return sum(eligible) / len(eligible) if eligible else 1.0


def is_honeytoken_use(attack: dict) -> bool:
    """A code played against a decoy (a null request that never got a code
    is not a use)."""
    return attack["group"] == "honeytoken" and attack["blocked_by"] != "no_code"


def judge(events: List[dict], floor: float, alarms: int) -> List[str]:
    """Every violated invariant, each message led by the invariant's name.

    ``floor`` is the scenario's availability bar and ``alarms`` the number
    of honeytoken alarms the deployment raised.
    """
    honest = [e for e in events if e["kind"] == "attempt"]
    attacks = [e for e in events if e["kind"] == "attack"]
    out = []
    accepted = [e["t"] for e in honest if e["ok"] and not e["expect"]]
    if accepted:
        out.append(f"wrong-code accept: {len(accepted)} login(s) at t={accepted}")
    rate = availability(honest)
    if rate < floor:
        out.append(f"availability floor: {rate:.4f} below {floor:.4f}")
    silent = [e["t"] for e in honest if not e["ok"] and e["silent"]]
    if silent:
        out.append(f"silent denial: {len(silent)} denial(s) showed no reason at t={silent}")
    for e in events:
        if e["kind"] in ("shard_crash", "shard_rejoin") and not e["digest_match"]:
            out.append(
                f"storage digest mismatch: {e['kind']} on shard {e['shard']} at "
                f"t={e['t']} lost state"
            )
        elif e["kind"] == "backfill_drain" and e["remaining"]:
            out.append(
                f"undrained backfill: window closed at t={e['t']} with "
                f"{e['remaining']} item(s) still queued"
            )
    for a in attacks:
        where = f"{a['user']} via {a['channel']} at t={a['t']}"
        if is_honeytoken_use(a) and not a["alarmed"]:
            out.append(f"unalarmed honeytoken use: {where}")
        if a["ok"] and not a["flagged"]:
            out.append(f"unflagged attacker success: {where}")
    uses = sum(map(is_honeytoken_use, attacks))
    if uses != alarms:
        out.append(f"honeytoken uses != alarms: {uses} uses, {alarms} alarms")
    return out


def p99(samples: List[float]) -> float:
    """The 99th percentile by nearest rank (0.0 for no samples)."""
    samples = sorted(samples)
    if not samples:
        return 0.0
    return samples[min(max(0, int(len(samples) * 0.99 + 0.5) - 1), len(samples) - 1)]


@dataclass
class Report:
    """One scenario run: its event log, the bar it is judged on, and what
    the deployment counted (honeytoken alarms, the risk stage's snapshot)."""

    scenario: str
    seed: int
    log: EventLog
    floor: float
    alarms: int
    risk: dict

    def rows(self, kind: str) -> List[dict]:
        return [e for e in self.log.events if e["kind"] == kind]

    def violations(self) -> List[str]:
        return judge(self.log.events, self.floor, self.alarms)

    def summary(self) -> dict:
        """The same keys for every scenario; no wall-clock field anywhere."""
        honest, attacks = self.rows("attempt"), self.rows("attack")
        by_group: Dict[str, dict] = {}
        for a in attacks:
            row = by_group.setdefault(a["group"], {"attempts": 0, "succeeded": 0})
            row["attempts"] += 1
            row["succeeded"] += a["ok"]
        for row in by_group.values():
            row["blocked"] = row["attempts"] - row["succeeded"]
            row["blocked_rate"] = round(row["blocked"] / row["attempts"], 4)
        run = {k: v for k, v in self.log.events[0].items() if k not in ("kind", "t")}
        return {
            "run": run,
            "honest": {
                "attempts": len(honest),
                "succeeded": sum(row["ok"] for row in honest),
                "availability": round(availability(honest), 4),
                "floor": self.floor,
                "p99_latency_seconds": round(
                    p99([row["latency"] for row in honest if row["expect"]]), 6
                ),
            },
            "attack": {
                "attempts": len(attacks),
                "succeeded": sum(a["ok"] for a in attacks),
                "by_group": dict(sorted(by_group.items())),
                "blocked_by": dict(sorted(Counter(
                    a["blocked_by"] for a in attacks if not a["ok"]
                ).items())),
                "success_channels": dict(sorted(Counter(
                    a["channel"] for a in attacks if a["ok"]
                ).items())),
                "honeytoken": {
                    "uses": sum(map(is_honeytoken_use, attacks)), "alarms": self.alarms,
                },
            },
            "risk": self.risk,
            "events": len(self.log),
            "digest": self.log.digest(),
            "violations": self.violations(),
        }
