"""Seeded adversarial workloads against the real validate path.

The paper's deployment was never attacked on the record, so its central
security claim — that the token requirement stops credential-based
account takeover — is asserted, not measured.  This module measures it:
a population of accounts with the deployment's device mix is attacked by
the three behaviors the MFA-effectiveness literature identifies as the
dominant channels (arXiv 2305.00945), and every attempt runs through the
*real* ``OTPServer`` pipeline — policy engine, risk stage, replay floor,
lockout counters — on virtual time, so blocked-attack rates come out of
the same code paths production logins use.

Attacker behaviors:

* **stuffing** — credential stuffing with a valid first factor: random
  six-digit guesses against paired accounts, correct codes against
  honeytoken decoys (the attacker "found" those seeds in the planted
  dump), and straight password logins against unpaired accounts.
* **phishing** — real-time relay: the victim types their current code
  into a proxy page; the attacker replays it seconds later.  A fraction
  of victims also complete the real login first, consuming the code.
* **simswap** — SMS interception: the attacker triggers the challenge
  and reads the victim's messages off the (rerouted) phone number.
* **mixed** — each compromised account is attacked by whichever of the
  three channels applies to its device type.
* **federated** — the soft-token population logs in via home-site bearer
  assertions instead; the attacker steals a victim's assertion off a
  proxy page, relays it, replays it, and forges assertions under a key
  the verifier never trusted.  The replay must die in the nonce cache
  and any relay that lands must be flagged by the risk stage.

Everything is seeded — population assignment, target selection, attack
timing, code guesses — and the run appends every attempt to an
:class:`~repro.simcore.EventLog`, so one SHA-256 digest witnesses that
two runs with the same config were byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import VirtualClock
from repro.common.ids import random_octets
from repro.common.results import ValidateResult, ValidateStatus
from repro.crypto.hotp import hotp
from repro.crypto.totp import totp_at
from repro.otpserver.server import OTPServer
from repro.otpserver.tokens import HardTokenBatch, random_static_code
from repro.policy import (
    AuthRequest,
    EnforcementLadder,
    LockoutPolicy,
    PolicyEngine,
    RiskEngine,
)
from repro.simcore import EventLog, EventScheduler

#: Same campaign epoch as the chaos harness (a Wednesday, 09:00 UTC):
#: inside business hours, so the ``unusual_hour`` signal stays quiet and
#: the measured deterrence comes from the adversarial signals alone.
EPOCH = "2016-10-05T09:00:00"

SCENARIOS = ("stuffing", "phishing", "simswap", "mixed", "federated")

#: The home site whose assertions the federated scenario trusts.
HOME_SITE = "partner.edu"

#: Device-type assignment, in draw order.  ``none`` is the unpaired tail
#: (the opt-in ladder's single-factor channel); ``honey`` the planted
#: decoys; the rest split the paired population with the deployment's
#: soft-token-heavy mix (Table 1 shape).
_KINDS = ("none", "honey", "soft", "sms", "hard", "hotp", "static")
_PAIRED_SPLIT = {"soft": 0.55, "sms": 0.36, "hard": 0.04, "hotp": 0.03, "static": 0.02}

#: Reporting groups: soft and hard fobs are both time-based codes, so the
#: blocked-rate table folds them into one ``totp`` row.
GROUP_OF = {
    "none": "none",
    "honey": "honeytoken",
    "soft": "totp",
    "hard": "totp",
    "sms": "sms",
    "hotp": "hotp",
    "static": "static",
    "federated": "federated",
}


#: The unpaired tail of the population (``_KINDS``' ``none``).
UNPAIRED_FRACTION = 0.02
#: Stuffing guesses per compromised account.  Four is enough to cross the
#: risk engine's failure-burst size, so the campaign exercises both the OTP
#: rejection path and the risk DENY path.
ATTEMPTS_PER_TARGET = 4
#: The network the risk stage treats as hostile from the start (threat
#: intelligence feed); the attacker operates out of it.
WATCHLIST = "203.0.113.0/24"


@dataclass(frozen=True)
class AttackConfig:
    """One adversarial campaign, fully determined by its fields."""

    scenario: str = "stuffing"
    seed: int = 101
    accounts: int = 100_000
    #: Fraction of accounts whose first factor the attacker already holds
    #: (the credential-dump premise of the stuffing literature).
    compromised_fraction: float = 0.01
    honeytoken_fraction: float = 0.005
    duration_seconds: float = 6 * 3600.0
    #: Fraction of phished victims who complete the real login before the
    #: attacker relays, consuming the one-time code.
    victim_consumes: float = 0.3

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if self.accounts < 100:
            raise ValueError("attack campaigns need at least 100 accounts")
        if not 0 < self.compromised_fraction <= 0.2:
            raise ValueError("compromised_fraction must be in (0, 0.2]")
        if not 0 <= self.honeytoken_fraction <= 0.1:
            raise ValueError("honeytoken_fraction must be in [0, 0.1]")
        if self.duration_seconds < 3600:
            raise ValueError("campaigns run at least one virtual hour")
        if not 0 <= self.victim_consumes <= 1:
            raise ValueError("victim_consumes must be in [0, 1]")


class _Target:
    """One compromised account, materialized onto the real server."""

    __slots__ = (
        "idx",
        "user",
        "kind",
        "group",
        "secret",
        "static_code",
        "phone",
        "hotp_counter",
        "home_ip",
        "attacker_ip",
    )

    def __init__(self, idx: int, kind: str) -> None:
        self.idx = idx
        self.user = f"acct{idx:07d}"
        self.kind = kind
        self.group = GROUP_OF[kind]
        self.secret: Optional[bytes] = None
        self.static_code: Optional[str] = None
        self.phone: Optional[str] = None
        self.hotp_counter = 0
        # Home addresses sit in the center's campus ranges; the attacker
        # operates out of the watchlisted documentation prefix.
        self.home_ip = f"129.114.{1 + idx % 200}.{1 + (idx // 200) % 250}"
        self.attacker_ip = f"203.0.113.{2 + idx % 250}"


class AttackReport:
    """The measured outcome of one campaign, plus its invariants."""

    def __init__(
        self,
        config: AttackConfig,
        attempts: List[dict],
        population: Dict[str, int],
        targets_by_group: Dict[str, int],
        risk_snapshot: dict,
        honeytoken_alarms: int,
        legit_logins: int,
        legit_succeeded: int,
        log: EventLog,
    ) -> None:
        self.config = config
        self.attempts = attempts
        self.population = population
        self.targets_by_group = targets_by_group
        self.risk_snapshot = risk_snapshot
        self.honeytoken_alarms = honeytoken_alarms
        self.legit_logins = legit_logins
        self.legit_succeeded = legit_succeeded
        self.log = log

    # -- the two adversarial invariants --------------------------------------

    def violations(self) -> List[str]:
        """Empty iff both adversarial invariants held for every attempt.

        1. *No honeytoken use goes unalarmed* — every code submitted
           against a decoy pairing raised an alarm, whether the pipeline
           accepted it, rejected it, or refused it upstream.
        2. *No attacker success goes unflagged* — every attempt that got
           in left a non-ALLOW entry in the risk stage's flag log.
        """
        out: List[str] = []
        honey_uses = 0
        for a in self.attempts:
            if a["group"] == "honeytoken" and a["blocked_by"] != "no_code":
                honey_uses += 1
                if not a["alarmed"]:
                    out.append(
                        f"honeytoken use without alarm: {a['user']} via {a['channel']}"
                    )
            if a["ok"] and not a["flagged"]:
                out.append(
                    f"attacker success without flagged risk event: "
                    f"{a['user']} via {a['channel']}"
                )
        if honey_uses != self.honeytoken_alarms:
            out.append(
                f"honeytoken alarm count mismatch: {honey_uses} uses, "
                f"{self.honeytoken_alarms} alarms"
            )
        return out

    # -- aggregation ----------------------------------------------------------

    def by_token_type(self) -> Dict[str, dict]:
        """Blocked-attack rates per reporting group, the headline table."""
        stats: Dict[str, dict] = {}
        for a in self.attempts:
            row = stats.setdefault(
                a["group"],
                {
                    "targets": self.targets_by_group.get(a["group"], 0),
                    "attempts": 0,
                    "succeeded": 0,
                    "blocked": 0,
                    "blocked_rate": 0.0,
                },
            )
            row["attempts"] += 1
            if a["ok"]:
                row["succeeded"] += 1
            else:
                row["blocked"] += 1
        for row in stats.values():
            if row["attempts"]:
                row["blocked_rate"] = round(row["blocked"] / row["attempts"], 4)
        return dict(sorted(stats.items()))

    def summary(self) -> dict:
        """The full deterministic report (no wall-clock fields anywhere)."""
        blocked_by: Dict[str, int] = {}
        channels: Dict[str, int] = {}
        for a in self.attempts:
            if not a["ok"]:
                blocked_by[a["blocked_by"]] = blocked_by.get(a["blocked_by"], 0) + 1
            else:
                channels[a["channel"]] = channels.get(a["channel"], 0) + 1
        honey_uses = sum(
            1
            for a in self.attempts
            if a["group"] == "honeytoken" and a["blocked_by"] != "no_code"
        )
        return {
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "accounts": self.config.accounts,
            "targets": sum(self.targets_by_group.values()),
            "attempts": len(self.attempts),
            "population": dict(sorted(self.population.items())),
            "by_token_type": self.by_token_type(),
            "blocked_by": dict(sorted(blocked_by.items())),
            "success_channels": dict(sorted(channels.items())),
            "honeytoken": {"uses": honey_uses, "alarms": self.honeytoken_alarms},
            "risk": self.risk_snapshot,
            "legit": {"logins": self.legit_logins, "succeeded": self.legit_succeeded},
            "events": len(self.log),
            "digest": self.log.digest(),
            "violations": self.violations(),
        }


class AttackSimulation:
    """One campaign: build the deployment, schedule attackers, measure."""

    def __init__(self, config: Optional[AttackConfig] = None) -> None:
        self.config = config or AttackConfig()
        cfg = self.config
        self.scheduler = EventScheduler(clock=VirtualClock.at(EPOCH), seed=cfg.seed)
        self.clock = self.scheduler.clock
        self.epoch = self.clock.now()
        self.log = EventLog(clock=self.clock, epoch=self.epoch)
        self.stage = stage = RiskEngine(clock=self.clock)
        stage.add_watchlist(WATCHLIST)
        # The paired ladder phase is the interesting one for deterrence:
        # unpaired accounts are the single-factor channel the literature's
        # baseline measures, everyone else must present a code.
        policy = PolicyEngine(
            ladder=EnforcementLadder("paired"),
            lockout=LockoutPolicy(),
            clock=self.clock,
            risk=stage,
        )
        self.server = OTPServer(
            clock=self.clock, rng=self.scheduler.rng("otp-server"), policy=policy
        )
        self.policy = policy
        # The federated scenario swaps the soft-token population onto
        # home-site bearer assertions: one trusted issuer holds the real
        # signing key, a rogue issuer signs under a key the verifier never
        # saw (the forgery probe).
        self.issuer = None
        self._rogue_issuer = None
        if cfg.scenario == "federated":
            from repro.resolvers.federation import (
                AttestationIssuer,
                AttestationVerifier,
            )

            key_rng = self.scheduler.rng("federation-key")
            key = random_octets(key_rng, 32)
            rogue = random_octets(key_rng, 32)
            self.issuer = AttestationIssuer(
                HOME_SITE,
                key,
                clock=self.clock,
                rng=self.scheduler.rng("federation-issuer"),
            )
            self._rogue_issuer = AttestationIssuer(
                HOME_SITE,
                rogue,
                clock=self.clock,
                rng=self.scheduler.rng("rogue-issuer"),
            )
            verifier = AttestationVerifier(clock=self.clock)
            verifier.trust(HOME_SITE, key)
            self.server.attach_federation(verifier)
        self.attempts: List[dict] = []
        self.legit_logins = 0
        self.legit_succeeded = 0
        self.population: Dict[str, int] = {}
        self.targets: List[_Target] = []
        self._build_population()
        self._enroll_targets()

    # -- population -----------------------------------------------------------

    def _build_population(self) -> None:
        """Assign a device type to every account, materialize the targets.

        Only compromised accounts are enrolled on the real server — the
        other ~99% exist as the population histogram, which is all the
        blocked-rate denominators need.  One draw stream decides types,
        a second picks targets, so the assignment is identical across
        scenarios with the same seed.
        """
        cfg = self.config
        g = self.scheduler.streams.numpy_generator("attack-population")
        paired = 1.0 - UNPAIRED_FRACTION - cfg.honeytoken_fraction
        fractions = [UNPAIRED_FRACTION, cfg.honeytoken_fraction] + [
            paired * _PAIRED_SPLIT[k] for k in _KINDS[2:]
        ]
        bounds = []
        acc = 0.0
        for f in fractions:
            acc += f
            bounds.append(acc)
        draws = g.random(cfg.accounts)
        codes = [0] * cfg.accounts
        counts = [0] * len(_KINDS)
        for i, d in enumerate(draws):
            k = 0
            while k < len(bounds) - 1 and d >= bounds[k]:
                k += 1
            codes[i] = k
            counts[k] += 1
        # The device draw itself is scenario-independent (same seed, same
        # assignment); the federated scenario then deploys its soft-token
        # population as home-site federated logins instead.
        deployed = [self._deployed_kind(k) for k in _KINDS]
        self.population = {GROUP_OF[kind]: 0 for kind in deployed}
        for kind, n in zip(deployed, counts):
            self.population[GROUP_OF[kind]] += n
        n_targets = max(1, int(round(cfg.accounts * cfg.compromised_fraction)))
        chosen = set(int(i) for i in g.choice(cfg.accounts, n_targets, replace=False))
        # Honeytokens are planted *in* the credential dumps attackers buy —
        # being found is their job — so every decoy is in the target set.
        honey_code = _KINDS.index("honey")
        chosen.update(i for i, c in enumerate(codes) if c == honey_code)
        self.targets = [
            _Target(i, self._deployed_kind(_KINDS[codes[i]])) for i in sorted(chosen)
        ]
        self.log.append(
            "population",
            accounts=cfg.accounts,
            targets=n_targets,
            **{k: int(v) for k, v in sorted(self.population.items())},
        )

    def _deployed_kind(self, kind: str) -> str:
        if self.config.scenario == "federated" and kind == "soft":
            return "federated"
        return kind

    def _principal(self, t: _Target) -> str:
        return f"{t.user}@{HOME_SITE}"

    def _enroll_targets(self) -> None:
        server = self.server
        hard_targets = [t for t in self.targets if t.kind == "hard"]
        serials: List[str] = []
        batch = None
        if hard_targets:
            batch = HardTokenBatch(
                len(hard_targets), rng=self.scheduler.rng("hard-batch")
            )
            server.import_hard_batch(batch)
            serials = batch.serials()
        static_rng = self.scheduler.rng("static-codes")
        hard_i = 0
        for t in self.targets:
            if t.kind == "none":
                continue
            if t.kind == "honey":
                _, t.secret = server.enroll_honeytoken(t.user)
            elif t.kind == "soft":
                _, t.secret = server.enroll_soft(t.user)
            elif t.kind == "hard":
                serial = serials[hard_i]
                hard_i += 1
                server.assign_hard(t.user, serial)
                t.secret = batch.secret_for(serial)
            elif t.kind == "hotp":
                _, t.secret = server.enroll_hotp(t.user)
            elif t.kind == "sms":
                t.phone = f"+1512{t.idx % 10_000_000:07d}"
                server.enroll_sms(t.user, t.phone)
                row = server._user_tokens(t.user)[0]
                t.secret = server._sealer.unseal(row["sealed_secret"])
            elif t.kind == "static":
                t.static_code = random_static_code(static_rng)
                server.enroll_static(t.user, t.static_code)
            elif t.kind == "federated":
                # Enrolled with a local step-up PIN (reusing the static
                # slot): the risk stage can force it, the attacker's
                # stolen assertion never carries it.
                pin_rng = self.scheduler.rng("federation-pins", t.idx)
                t.static_code = f"{pin_rng.randrange(10**6):06d}"
                server.enroll_federated(
                    t.user, self._principal(t), step_up_code=t.static_code
                )

    # -- the run --------------------------------------------------------------

    def run(self) -> AttackReport:
        self._schedule_legit()
        self._schedule_attacks()
        self.scheduler.run_until(self.epoch + self.config.duration_seconds + 900)
        return AttackReport(
            config=self.config,
            attempts=self.attempts,
            population=self.population,
            targets_by_group=self._targets_by_group(),
            risk_snapshot=self.stage.snapshot(),
            honeytoken_alarms=len(self.server.honeytoken_alarms),
            legit_logins=self.legit_logins,
            legit_succeeded=self.legit_succeeded,
            log=self.log,
        )

    def _targets_by_group(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.targets:
            out[t.group] = out.get(t.group, 0) + 1
        return dict(sorted(out.items()))

    # -- legitimate traffic ----------------------------------------------------

    def _schedule_legit(self) -> None:
        """Victims log in from home before and during the campaign.

        The warm-up pass teaches the risk engine each victim's known
        origin (so the attacker's address is *novel*, not merely
        watchlisted) and confirms the pairing; the mid-campaign pass
        keeps legitimate traffic interleaved with the attack so failure
        windows and success resets behave as they would in production.
        """
        cfg = self.config
        for t in self.targets:
            if t.kind in ("none", "honey"):
                continue
            r = self.scheduler.rng("legit", t.idx)
            warmup = self.epoch + r.uniform(120.0, 1500.0)
            self.scheduler.schedule_at(warmup, self._legit_login, t)
            if t.kind in ("soft", "hard", "hotp", "static", "federated"):
                mid = self.epoch + r.uniform(1800.0, cfg.duration_seconds)
                self.scheduler.schedule_at(mid, self._legit_login, t)

    def _legit_login(self, t: _Target) -> None:
        if t.kind == "sms":
            result = self.server.validate(t.user, None, source=t.home_ip)
            if result.status is ValidateStatus.CHALLENGE_SENT:
                self.scheduler.schedule(60.0, self._legit_sms_submit, t)
            return
        self._submit_legit(t, self._current_code(t))

    def _legit_sms_submit(self, t: _Target) -> None:
        message = self.server.sms.latest(t.phone)
        if message is None:
            # Carrier stall: the victim never saw the code this pass.
            return
        self._submit_legit(t, message.body.rsplit(" ", 1)[-1])

    def _submit_legit(self, t: _Target, code: str) -> None:
        result = self.server.validate(t.user, code, source=t.home_ip)
        if (
            t.kind == "federated"
            and result.status is not ValidateStatus.OK
            and (result.reason or "").startswith("risk step-up")
        ):
            # The portal's step-up prompt: the user re-authenticates at
            # the home site (the first assertion's nonce is spent) and
            # appends their local PIN as the fourth dot-part.
            fresh = self.issuer.issue(t.user)
            result = self.server.validate(
                t.user, f"{fresh}.{t.static_code}", source=t.home_ip
            )
        if result.status is ValidateStatus.OK and t.kind == "hotp":
            t.hotp_counter += 1
        self.legit_logins += 1
        if result.status is ValidateStatus.OK:
            self.legit_succeeded += 1
        self.log.append(
            "legit", idx=t.idx, ok=result.status is ValidateStatus.OK
        )

    def _current_code(self, t: _Target) -> str:
        """The code the legitimate device would show right now."""
        if t.kind == "static":
            return t.static_code
        if t.kind == "hotp":
            return hotp(t.secret, t.hotp_counter)
        if t.kind == "federated":
            # The home-site SSO mints a fresh single-use assertion for
            # the user's *home-site* name (``sub``); the verifier joins
            # it with the site to form the enrolled principal.
            return self.issuer.issue(t.user)
        return totp_at(t.secret, self.clock.now())

    # -- attacker behaviors ----------------------------------------------------

    def _channel_for(self, t: _Target, r) -> str:
        """Which behavior attacks this target under the configured scenario."""
        scenario = self.config.scenario
        if scenario != "mixed":
            return scenario
        if t.kind in ("none", "honey"):
            return "stuffing"
        if t.kind == "sms":
            return r.choice(("stuffing", "phishing", "simswap"))
        return r.choice(("stuffing", "phishing"))

    def _schedule_attacks(self) -> None:
        cfg = self.config
        attack_floor = self.epoch + 1800.0
        attack_ceiling = self.epoch + max(2700.0, cfg.duration_seconds - 1200.0)
        for t in self.targets:
            r = self.scheduler.rng("attacker", t.idx)
            base = r.uniform(attack_floor, attack_ceiling)
            channel = self._channel_for(t, r)
            if channel == "simswap" and t.kind != "sms":
                channel = "stuffing"
            if channel == "phishing" and t.kind in ("none", "honey"):
                channel = "stuffing"
            if channel == "federated" and t.kind != "federated":
                channel = "stuffing"
            if channel == "stuffing":
                for k in range(ATTEMPTS_PER_TARGET if t.kind != "none" else 1):
                    self.scheduler.schedule_at(
                        base + 7.0 * k, self._stuffing_attempt, t, r
                    )
            elif channel == "phishing":
                self.scheduler.schedule_at(base, self._phish, t, r)
            elif channel == "federated":
                self.scheduler.schedule_at(base, self._federated_attack, t, r)
            else:
                self.scheduler.schedule_at(base, self._simswap_trigger, t, r)

    # stuffing ---------------------------------------------------------------

    def _stuffing_attempt(self, t: _Target, r) -> None:
        if t.kind == "none":
            # The stolen password is the whole login: no token round trip
            # exists for an unpaired account, so the attacker asks the
            # policy engine the same question PAM would.
            before = self.stage.flags_for(t.user)
            decision = self.policy.evaluate(
                AuthRequest(t.user, t.attacker_ip, pairing=None)
            )
            self._record(
                t,
                "password_only",
                ok=decision.allows_entry,
                blocked_by=(
                    "" if decision.allows_entry else "risk_deny"
                ),
                flagged=self.stage.flags_for(t.user) > before,
                alarmed=False,
            )
            return
        if t.kind == "honey":
            # The planted dump included the decoy's seed, so the attacker
            # submits *correct* codes — indistinguishability is the point.
            code = totp_at(t.secret, self.clock.now())
        else:
            code = f"{r.randrange(10**6):06d}"
        self._attack_validate(t, "stolen_seed" if t.kind == "honey" else "guessed_code", code)

    # phishing ---------------------------------------------------------------

    def _phish(self, t: _Target, r) -> None:
        """The victim enters their current code into the proxy page."""
        if t.kind == "sms":
            # The proxy triggers the real SMS challenge; the code lands on
            # the victim's phone and is typed into the fake page.
            result = self.server.validate(t.user, None, source=t.attacker_ip)
            if result.status not in (
                ValidateStatus.CHALLENGE_SENT,
                ValidateStatus.CHALLENGE_PENDING,
            ):
                self._record_from_result(t, "phished_code", result, flagged=None)
                return
            consumed = r.random() < self.config.victim_consumes
            delay = r.uniform(15.0, 120.0)
            if consumed:
                self.scheduler.schedule(8.0, self._victim_consume_sms, t)
            self.scheduler.schedule(delay, self._relay_sms, t, "phished_code")
            return
        code = self._current_code(t)
        consumed = r.random() < self.config.victim_consumes
        if consumed:
            self.scheduler.schedule(8.0, self._victim_consume, t, code)
        self.scheduler.schedule(r.uniform(15.0, 120.0), self._relay_code, t, code)

    def _victim_consume(self, t: _Target, code: str) -> None:
        self._submit_legit(t, code)

    def _victim_consume_sms(self, t: _Target) -> None:
        message = self.server.sms.latest(t.phone)
        if message is not None:
            self._submit_legit(t, message.body.rsplit(" ", 1)[-1])

    def _relay_code(self, t: _Target, code: str) -> None:
        self._attack_validate(t, "phished_code", code)

    def _relay_sms(self, t: _Target, channel: str) -> None:
        message = self.server.sms.latest(t.phone)
        if message is None:
            self._record(
                t, channel, ok=False, blocked_by="no_code", flagged=False, alarmed=False
            )
            return
        self._attack_validate(t, channel, message.body.rsplit(" ", 1)[-1])

    # federated --------------------------------------------------------------

    def _federated_attack(self, t: _Target, r) -> None:
        """The attacker lifts a victim's fresh assertion off a proxy page.

        Three probes per target, in order: the stolen assertion relayed
        once (possibly after the victim already consumed its nonce), the
        *same* assertion replayed — which must always die in the nonce
        cache, whoever burned it first — and a forgery signed under the
        rogue key the verifier never trusted.
        """
        assertion = self.issuer.issue(t.user)
        consumed = r.random() < self.config.victim_consumes
        if consumed:
            self.scheduler.schedule(8.0, self._submit_legit, t, assertion)
        delay = r.uniform(15.0, 120.0)
        self.scheduler.schedule(
            delay, self._attack_validate, t, "stolen_assertion", assertion
        )
        self.scheduler.schedule(
            delay + 7.0, self._attack_validate, t, "replayed_assertion", assertion
        )
        forged = self._rogue_issuer.issue(t.user)
        self.scheduler.schedule(
            delay + 14.0, self._attack_validate, t, "forged_assertion", forged
        )

    # SIM swap ---------------------------------------------------------------

    def _simswap_trigger(self, t: _Target, r) -> None:
        """With the number ported, the attacker owns the SMS channel."""
        result = self.server.validate(t.user, None, source=t.attacker_ip)
        if result.status not in (
            ValidateStatus.CHALLENGE_SENT,
            ValidateStatus.CHALLENGE_PENDING,
        ):
            self._record_from_result(t, "sim_swap", result, flagged=None)
            return
        self.scheduler.schedule(r.uniform(30.0, 45.0), self._relay_sms, t, "sim_swap")

    # -- attempt bookkeeping ---------------------------------------------------

    def _attack_validate(self, t: _Target, channel: str, code: str) -> None:
        before_flags = self.stage.flags_for(t.user)
        before_alarms = len(self.server.honeytoken_alarms)
        result = self.server.validate(t.user, code, source=t.attacker_ip)
        self._record(
            t,
            channel,
            ok=result.status is ValidateStatus.OK,
            blocked_by=(
                "" if result.status is ValidateStatus.OK else _classify(result)
            ),
            flagged=self.stage.flags_for(t.user) > before_flags,
            alarmed=len(self.server.honeytoken_alarms) > before_alarms,
        )

    def _record_from_result(
        self, t: _Target, channel: str, result: ValidateResult, flagged
    ) -> None:
        self._record(
            t,
            channel,
            ok=False,
            blocked_by=_classify(result),
            flagged=bool(flagged) if flagged is not None else False,
            alarmed=False,
        )

    def _record(
        self,
        t: _Target,
        channel: str,
        ok: bool,
        blocked_by: str,
        flagged: bool,
        alarmed: bool,
    ) -> None:
        attempt = {
            "idx": t.idx,
            "user": t.user,
            "kind": t.kind,
            "group": t.group,
            "channel": channel,
            "ok": bool(ok),
            "blocked_by": blocked_by,
            "flagged": bool(flagged),
            "alarmed": bool(alarmed),
        }
        self.attempts.append(attempt)
        self.log.append(
            "attack",
            idx=t.idx,
            group=t.group,
            channel=channel,
            ok=bool(ok),
            blocked_by=blocked_by,
            flagged=bool(flagged),
            alarmed=bool(alarmed),
        )


def _classify(result: ValidateResult) -> str:
    """Which defense layer blocked the attempt."""
    if result.status is ValidateStatus.LOCKED:
        return "lockout"
    reason = result.reason or ""
    if reason.startswith("risk score"):
        return "risk_deny"
    if reason.startswith("rate limit"):
        return "throttle"
    if reason.startswith("risk step-up"):
        return "step_up"
    if "replayed" in reason:
        return "replay"
    if reason.startswith("assertion") or reason.startswith("federation"):
        return "assertion_reject"
    return "otp_reject"


def run_attack(config: Optional[AttackConfig] = None) -> AttackReport:
    """Build and run one campaign; the one-call entry the CLI uses."""
    return AttackSimulation(config).run()
