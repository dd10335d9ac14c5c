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
timing, code guesses — and the run appends every honest login and attack
to an :class:`~repro.simcore.EventLog` as the rows a fault plan's run
writes too (:mod:`repro.chaos.report`), so one SHA-256 digest witnesses
that two runs of a campaign with the same seed were byte-identical, and
one judge reads both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.chaos.report import EPOCH, WATCHLIST, Report
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


@dataclass(frozen=True)
class Campaign:
    """A reproducible attack campaign: its name picks the attacker's
    behaviour; everything else about it is a module constant."""

    name: str
    description: str


CAMPAIGNS = (
    Campaign("stuffing", "credential stuffing with a valid first factor"),
    Campaign("phishing", "real-time relay of the code a victim types into a proxy"),
    Campaign("simswap", "SMS interception from a ported number"),
    Campaign("mixed", "each target attacked by a channel its device allows"),
    Campaign("federated", "stolen, replayed and forged home-site assertions"),
)

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


#: The attacked population: the paper's 10,000 accounts, of which the
#: unpaired tail (``_KINDS``' ``none``) and the planted decoys are fixed
#: fractions.
ACCOUNTS = 10_000
UNPAIRED_FRACTION = 0.02
HONEYTOKEN_FRACTION = 0.005
#: Fraction of accounts whose first factor the attacker already holds (the
#: credential-dump premise of the stuffing literature).
COMPROMISED_FRACTION = 0.01
#: Fraction of phished victims who complete the real login before the
#: attacker relays, consuming the one-time code.
VICTIM_CONSUMES = 0.3
DURATION_SECONDS = 6 * 3600.0
#: Stuffing guesses per compromised account.  Four is enough to cross the
#: risk engine's failure-burst size, so the campaign exercises both the OTP
#: rejection path and the risk DENY path.
ATTEMPTS_PER_TARGET = 4
#: The honest bar: a campaign injects no fault, so every honest login is
#: judged, and the attacker may cost its victims (a phished HOTP code spent
#: by the relay desynchronises the victim's counter) at most 1 % of them.
AVAILABILITY_FLOOR = 0.99


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


class AttackSimulation:
    """One campaign: build the deployment, schedule attackers, measure."""

    def __init__(self, campaign: Campaign, seed: int) -> None:
        self.campaign = campaign
        self.seed = seed
        self.scheduler = EventScheduler(clock=VirtualClock.at(EPOCH), seed=seed)
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
        if campaign.name == "federated":
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
        g = self.scheduler.streams.numpy_generator("attack-population")
        paired = 1.0 - UNPAIRED_FRACTION - HONEYTOKEN_FRACTION
        fractions = [UNPAIRED_FRACTION, HONEYTOKEN_FRACTION] + [
            paired * _PAIRED_SPLIT[k] for k in _KINDS[2:]
        ]
        bounds = []
        acc = 0.0
        for f in fractions:
            acc += f
            bounds.append(acc)
        draws = g.random(ACCOUNTS)
        codes = [0] * ACCOUNTS
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
        population = {GROUP_OF[kind]: 0 for kind in deployed}
        for kind, n in zip(deployed, counts):
            population[GROUP_OF[kind]] += n
        n_targets = max(1, int(round(ACCOUNTS * COMPROMISED_FRACTION)))
        chosen = set(int(i) for i in g.choice(ACCOUNTS, n_targets, replace=False))
        # Honeytokens are planted *in* the credential dumps attackers buy —
        # being found is their job — so every decoy is in the target set.
        honey_code = _KINDS.index("honey")
        chosen.update(i for i, c in enumerate(codes) if c == honey_code)
        self.targets = [
            _Target(i, self._deployed_kind(_KINDS[codes[i]])) for i in sorted(chosen)
        ]
        self.log.append(
            "run",
            scenario=self.campaign.name,
            seed=self.seed,
            accounts=ACCOUNTS,
            targets=n_targets,
            population={k: int(v) for k, v in sorted(population.items())},
        )

    def _deployed_kind(self, kind: str) -> str:
        if self.campaign.name == "federated" and kind == "soft":
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

    def run(self) -> Report:
        self._schedule_legit()
        self._schedule_attacks()
        self.scheduler.run_until(self.epoch + DURATION_SECONDS + 900)
        return Report(
            self.campaign.name,
            self.seed,
            self.log,
            AVAILABILITY_FLOOR,
            len(self.server.honeytoken_alarms),
            self.stage.snapshot(),
        )

    # -- legitimate traffic ----------------------------------------------------

    def _schedule_legit(self) -> None:
        """Victims log in from home before and during the campaign.

        The warm-up pass teaches the risk engine each victim's known
        origin (so the attacker's address is *novel*, not merely
        watchlisted) and confirms the pairing; the mid-campaign pass
        keeps legitimate traffic interleaved with the attack so failure
        windows and success resets behave as they would in production.
        """
        for t in self.targets:
            if t.kind in ("none", "honey"):
                continue
            r = self.scheduler.rng("legit", t.idx)
            warmup = self.epoch + r.uniform(120.0, 1500.0)
            self.scheduler.schedule_at(warmup, self._legit_login, t)
            if t.kind in ("soft", "hard", "hotp", "static", "federated"):
                mid = self.epoch + r.uniform(1800.0, DURATION_SECONDS)
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
        ok = result.status is ValidateStatus.OK
        if ok and t.kind == "hotp":
            t.hotp_counter += 1
        self.log.append(
            "attempt",
            user=t.user,
            expect=True,
            healthy=True,
            ok=ok,
            silent=not ok and not result.reason,
            latency=0.0,
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
        scenario = self.campaign.name
        if scenario != "mixed":
            return scenario
        if t.kind in ("none", "honey"):
            return "stuffing"
        if t.kind == "sms":
            return r.choice(("stuffing", "phishing", "simswap"))
        return r.choice(("stuffing", "phishing"))

    def _schedule_attacks(self) -> None:
        attack_floor = self.epoch + 1800.0
        attack_ceiling = self.epoch + max(2700.0, DURATION_SECONDS - 1200.0)
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
                "" if decision.allows_entry else "risk_deny",
                flagged=self.stage.flags_for(t.user) > before,
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
                self._record(t, "phished_code", _classify(result))
                return
            consumed = r.random() < VICTIM_CONSUMES
            delay = r.uniform(15.0, 120.0)
            if consumed:
                self.scheduler.schedule(8.0, self._victim_consume_sms, t)
            self.scheduler.schedule(delay, self._relay_sms, t, "phished_code")
            return
        code = self._current_code(t)
        consumed = r.random() < VICTIM_CONSUMES
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
            self._record(t, channel, "no_code")
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
        consumed = r.random() < VICTIM_CONSUMES
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
            self._record(t, "sim_swap", _classify(result))
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
            "" if result.status is ValidateStatus.OK else _classify(result),
            flagged=self.stage.flags_for(t.user) > before_flags,
            alarmed=len(self.server.honeytoken_alarms) > before_alarms,
        )

    def _record(
        self,
        t: _Target,
        channel: str,
        blocked_by: str,
        flagged: bool = False,
        alarmed: bool = False,
    ) -> None:
        """One ``attack`` row; ``blocked_by`` is empty iff the attempt got in."""
        self.log.append(
            "attack",
            user=t.user,
            group=t.group,
            channel=channel,
            ok=not blocked_by,
            blocked_by=blocked_by,
            flagged=flagged,
            alarmed=alarmed,
        )


def _classify(result: ValidateResult) -> str:
    """Which defense layer blocked the attempt."""
    if result.status is ValidateStatus.LOCKED:
        return "lockout"
    reason = result.reason or ""
    if reason.startswith("risk score"):
        return "risk_deny"
    if reason.startswith("risk step-up"):
        return "step_up"
    if "replayed" in reason:
        return "replay"
    if reason.startswith("assertion") or reason.startswith("federation"):
        return "assertion_reject"
    return "otp_reject"
