"""End-to-end wiring of the MFA infrastructure.

``MFACenter`` owns the shared back end — identity/LDAP, the OTP server
with its SMS gateway, and the RADIUS farm — and stamps out per-system
front ends (:class:`HPCSystem`): login nodes running the Figure-1 PAM
stack, a per-system exemption ACL pre-seeded with the internal-traffic
exemption, and live enforcement-mode switching ("any of these modes may be
set during production operation").
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import random_octets
from repro.directory.identity import AccountClass, IdentityBackend, PairingStatus
from repro.ingest import IngestConfig, IngestQueue
from repro.otpserver import OTPServer, SMSGateway, TokenBackend
from repro.otpserver.tokens import HardTokenBatch, random_static_code
from repro.pam.acl import InMemoryExemptionACL
from repro.pam.registry import PAMServiceManager, figure1_config, standard_registry
from repro.policy import PolicyEngine, RiskEngine
from repro.radius.client import RADIUSClient
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from repro.resolvers import (
    AttestationIssuer,
    AttestationVerifier,
    FederatedResolver,
    ResolverConfig,
    build_chain,
)
from repro.ssh.authlog import AuthLog
from repro.ssh.daemon import PAM_SERVICE, SSHDaemon
from repro.telemetry import resolve_registry

DEFAULT_RADIUS_SECRET = b"center-radius-secret"


class HPCSystem:
    """One production system: login nodes + ACL + enforcement mode.

    The system owns **one** :class:`~repro.policy.PolicyEngine` for its
    lifetime (:attr:`policy`: its ACL and ladder over the deployment's
    lockout, clock, telemetry and risk engine) and every login node has
    one libpam (:class:`~repro.pam.registry.PAMServiceManager`) and one
    RADIUS client for *its* lifetime.  What a node enforces is whatever its
    ``sshd`` pam.d text says — a file under ``pam_dir/<system>/`` when the
    center has a directory, the same text held in memory when it has none —
    parsed through :func:`~repro.pam.registry.standard_registry`, so every
    policy-backed module of every stack asks :attr:`policy`, and the
    ``pam_mfa_token.so mode=…`` line is what sets its ladder.
    """

    def __init__(
        self,
        center: "MFACenter",
        name: str,
        ip_prefix: str,
        login_nodes: int = 2,
        mode: str = "full",
        deadline: Optional[str] = None,
    ) -> None:
        self.center = center
        self.name = name
        self.ip_prefix = ip_prefix  # e.g. "10.3.1"
        # "Within each HPC system, an MFA exemption is configured to allow
        # any SSH traffic to move freely from IP addresses that are a part
        # of that particular system."
        self.acl = InMemoryExemptionACL(
            f"+ : ALL : {ip_prefix}.0/24 : ALL\n", clock=center.clock
        )
        # ``lockout`` and ``risk`` are the *deployment's*, shared with the
        # OTP server's pipeline engine: PAM and the back end see one
        # verdict, one flag log, one set of counters per attempt stream.
        self.policy = PolicyEngine(
            exemptions=self.acl,
            lockout=center.otp.policy.lockout,
            clock=center.clock,
            telemetry=center.telemetry,
            risk=center.risk_stage,
        )
        self.authlog = AuthLog(center.clock)
        pam_dir = os.path.join(center.pam_dir, name) if center.pam_dir else None
        self.daemons: List[SSHDaemon] = []
        #: Each login node's RADIUS client, in ``daemons`` order.
        self.radius_clients: List[RADIUSClient] = []
        for i in range(login_nodes):
            client = center.new_radius_client(f"{ip_prefix}.5")
            self.radius_clients.append(client)
            registry = standard_registry(center.identity, self.authlog, self.policy, client)
            daemon = SSHDaemon(
                hostname=f"login{i + 1}.{name}",
                address=f"{ip_prefix}.{10 + i}",
                identity=center.identity,
                pam=PAMServiceManager(pam_dir, registry),
                authlog=self.authlog,
                clock=center.clock,
                banner=f"*** {name}: multi-factor authentication in effect ***",
                telemetry=center.telemetry,
            )
            self.daemons.append(daemon)
        self.set_mode(mode, deadline)

    # -- enforcement mode (the Figure-1 configuration) ---------------------------

    @property
    def mode(self) -> str:
        return self.policy.ladder.configured_mode.value

    @property
    def deadline(self) -> Optional[str]:
        deadline = self.policy.ladder.deadline
        return deadline.isoformat() if deadline else None

    def set_mode(self, mode: str, deadline: Optional[str] = None) -> None:
        """Switch enforcement mode, effective immediately: the Figure-1
        text is pushed to every login node (an actual pam.d file write when
        the center is file-backed) and the ladder follows.  An unknown mode
        raises :class:`ConfigurationError` and changes nothing; without a
        ``deadline`` the previous one is kept."""
        if deadline is None:
            deadline = self.deadline
        text = figure1_config(mode, deadline)
        for daemon in self.daemons:
            daemon.pam.write_config(PAM_SERVICE, text)
        self.policy.set_ladder(mode, deadline)

    # -- exemption policy --------------------------------------------------------

    def add_exemption(
        self, accounts: str = "ALL", origins: str = "ALL", expiry: str = "ALL"
    ) -> None:
        """Append a grant rule (the staff 'temporary variance' operation).
        A malformed field raises :class:`ConfigurationError` and changes
        nothing."""
        self.acl.append(f"+ : {accounts} : {origins} : {expiry}")

    def add_denial(
        self, accounts: str = "ALL", origins: str = "ALL", expiry: str = "ALL"
    ) -> None:
        """Append a denial rule; a malformed field raises as above."""
        self.acl.append(f"- : {accounts} : {origins} : {expiry}")

    def login_node(self, index: int = 0) -> SSHDaemon:
        return self.daemons[index]

    def snapshot(self) -> Dict[str, object]:
        """This system's entry in the ``systems`` status section: its PAM-side
        policy plus, per login node, its sshd's login tallies and its
        client's view of the RADIUS farm."""
        snap = self.policy.snapshot()
        snap["nodes"] = {daemon.hostname: daemon.snapshot() for daemon in self.daemons}
        snap["radius"] = {
            daemon.hostname: client.snapshot()
            for daemon, client in zip(self.daemons, self.radius_clients)
        }
        return snap


class MFACenter:
    """The whole deployment: back end plus any number of HPC systems."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        num_radius_servers: int = 3,
        radius_secret: bytes = DEFAULT_RADIUS_SECRET,
        pam_dir: Optional[str] = None,
        telemetry=None,
        storage=None,
        radius_deadline: Optional[float] = None,
        radius_wait_clock: Optional[Clock] = None,
        ingest=None,
        risk=None,
        resolvers=None,
    ) -> None:
        self.clock = clock or WallClock()
        self.rng = rng or random.Random()
        # One registry for the whole deployment: every layer reports into
        # it, which is what stitches a login's spans into a single trace.
        # Default is the free no-op registry; pass telemetry=True (or a
        # Registry) to turn measurement on.
        self.telemetry = resolve_registry(telemetry, clock=self.clock)
        # Optional pam.d root: systems then read their stacks from real
        # per-service config files with hot reload.
        self.pam_dir = pam_dir
        self.identity = IdentityBackend()
        self.sms_gateway = SMSGateway(self.clock, rng=self.rng, telemetry=self.telemetry)
        # ``storage`` is forwarded verbatim: None for the default in-memory
        # engine, a repro.storage.StorageConfig for a sharded/cached stack
        # (built against this deployment's registry), or a ready engine.
        self.otp = OTPServer(
            clock=self.clock,
            sms_gateway=self.sms_gateway,
            rng=self.rng,
            telemetry=self.telemetry,
            storage=storage,
        )
        # Optional risk-based authentication: ``risk`` is None (off), True
        # (a default engine on the deployment clock), or a ready
        # RiskEngine.  The one engine is wired into the OTP server's
        # policy *and* every system's per-system engine, so the layers
        # share a single risk verdict per attempt stream.
        if risk:
            self.otp.policy.set_risk(risk)
        self.risk_stage: Optional[RiskEngine] = self.otp.policy.risk
        # The one username→uid join: the OTP pipeline's ResolveIdentity
        # stage maps every submitted login name through this chain (realm
        # routing, health-aware failover, TTL caching).  ``resolvers`` only
        # tunes it — a repro.resolvers.ResolverConfig, else the defaults.
        # The federation verifier lets ``pair_federated`` admit partner-site
        # users through the same policy engine.
        self.resolver_chain = build_chain(
            resolvers if isinstance(resolvers, ResolverConfig) else ResolverConfig(),
            self.identity,
            self.clock,
            self.telemetry,
        )
        self.otp.attach_resolvers(self.resolver_chain)
        self.federation_verifier = AttestationVerifier(clock=self.clock)
        self.otp.attach_federation(self.federation_verifier)
        self._federated_resolver = None
        self._federation_issuers: Dict[str, object] = {}
        self.fabric = UDPFabric(rng=self.rng)
        self.radius_secret = radius_secret
        # Every login node's RADIUS client fails over on the constants of
        # ``repro.common.resilience`` (circuit breaker, backoff curve).
        # ``radius_deadline`` bounds the simulated seconds one authenticate
        # may spend (None: unbounded); ``radius_wait_clock`` is the clock
        # RADIUS waits are charged to: pass the deployment's VirtualClock to
        # make retransmit timeouts consume simulated time (the chaos and
        # failover rigs), leave None for free waits.
        self.radius_deadline = radius_deadline
        self.radius_wait_clock = radius_wait_clock
        # RADIUS carries the login name and so does the OTP server's
        # validate: the farm talks to it directly.
        self.radius_backend: TokenBackend = self.otp
        # Optional admission control: ``ingest`` is None (off), True (queue
        # with defaults), or a repro.ingest.IngestConfig.  When enabled the
        # queue is the RADIUS farm's back end, so every validation goes
        # through priority classes, backpressure, and SLA accounting.
        self.ingest_queue = None
        if ingest:
            config = ingest if isinstance(ingest, IngestConfig) else None
            otp = self.otp
            self.ingest_queue = IngestQueue(
                # Late-bound: whatever ``otp.validate`` is at service time
                # (instrumentation hangs proxies on the instance).
                runner=lambda *request: otp.validate(*request),
                config=config,
                clock=self.clock,
                telemetry=self.telemetry,
            )
            self.radius_backend = self.ingest_queue
            self.otp.status_sections["queue"] = self.ingest_queue.snapshot
        self.radius_servers: List[RADIUSServer] = []
        for i in range(num_radius_servers):
            server = RADIUSServer(
                f"10.0.0.{10 + i}:1812",
                self.fabric,
                self.radius_backend,
                name=f"radius{i + 1}",
                telemetry=self.telemetry,
            )
            # Firewall posture: only internal login-node subnets may speak
            # to the RADIUS farm (and only RADIUS speaks to the OTP server).
            server.add_client("10.", radius_secret)
            self.radius_servers.append(server)
        self.systems: Dict[str, HPCSystem] = {}
        # Each system's PAM-side engine (its ladder, its exemption ACL)
        # sits next to the back end's own policy in the operator view.
        self.otp.status_sections["systems"] = lambda: {
            name: system.snapshot() for name, system in self.systems.items()
        }
        self.otp.status_sections["radius"] = lambda: {
            server.name: server.snapshot() for server in self.radius_servers
        }
        self.otp.status_sections["sms"] = self.sms_gateway.snapshot
        self.otp.status_sections["fabric"] = self.fabric.snapshot
        self._storage_systems: List[str] = []
        self._next_system_subnet = 3

    @property
    def policy(self) -> PolicyEngine:
        """The deployment-wide policy engine the OTP pipeline enforces."""
        return self.otp.policy

    # -- topology ----------------------------------------------------------------

    def new_radius_client(self, source_ip: str) -> RADIUSClient:
        return RADIUSClient(
            self.fabric,
            [s.address for s in self.radius_servers],
            self.radius_secret,
            source=source_ip,
            rng=self.rng,
            telemetry=self.telemetry,
            clock=self.clock,
            deadline_budget=self.radius_deadline,
            wait_clock=self.radius_wait_clock,
        )

    def add_system(
        self,
        name: str,
        login_nodes: int = 2,
        mode: str = "full",
        deadline: Optional[str] = None,
    ) -> HPCSystem:
        if name in self.systems:
            raise ValidationError(f"system {name!r} already exists")
        ip_prefix = f"10.{self._next_system_subnet}.1"
        self._next_system_subnet += 1
        system = HPCSystem(self, name, ip_prefix, login_nodes, mode, deadline)
        self.systems[name] = system
        # "Remote storage systems are configured to accept SSH traffic from
        # all HPC systems within the internal network" — a new compute
        # system's subnet is immediately exempted on every storage system.
        for storage_name in self._storage_systems:
            self.systems[storage_name].add_exemption(
                accounts="ALL", origins=f"{ip_prefix}.0/24"
            )
        return system

    def add_storage_system(
        self, name: str, login_nodes: int = 2, mode: str = "full"
    ) -> HPCSystem:
        """A remote storage system (Ranch-style archive): exempts SSH
        traffic from every HPC system's internal subnet, so batch jobs can
        push files "as their jobs run without their presence"."""
        existing_prefixes = [s.ip_prefix for s in self.systems.values()]
        storage = self.add_system(name, login_nodes=login_nodes, mode=mode)
        self._storage_systems.append(name)
        for prefix in existing_prefixes:
            storage.add_exemption(accounts="ALL", origins=f"{prefix}.0/24")
        return storage

    def system(self, name: str) -> HPCSystem:
        system = self.systems.get(name)
        if system is None:
            raise NotFoundError(f"no such system: {name}")
        return system

    # -- enrollment conveniences (the portal wraps these with its stateful UI) ----

    def create_user(
        self,
        username: str,
        email: str = "",
        password: str = "",
        account_class: AccountClass = AccountClass.INDIVIDUAL,
    ):
        account = self.identity.create_account(
            username, email or f"{username}@example.edu", password, account_class
        )
        # A lookup that missed before the account existed must not keep
        # answering "unknown user" for the chain's negative TTL.
        self.resolver_chain.invalidate(username)
        return account

    def pair_soft(self, username: str) -> Tuple[str, bytes]:
        """Direct soft-token pairing (no portal ceremony)."""
        serial, secret = self.otp.enroll_soft(self.identity.get(username).uid)
        self.identity.notify_pairing(username, PairingStatus.SOFT)
        return serial, secret

    def pair_sms(self, username: str, phone: str) -> str:
        serial = self.otp.enroll_sms(self.identity.get(username).uid, phone)
        self.identity.notify_pairing(username, PairingStatus.SMS)
        return serial

    def pair_hard(self, username: str, serial: str) -> str:
        self.otp.assign_hard(self.identity.get(username).uid, serial)
        self.identity.notify_pairing(username, PairingStatus.HARD)
        return serial

    def pair_honeytoken(self, username: str) -> Tuple[str, bytes]:
        """Plant a decoy credential on a trap account.

        The identity side records an ordinary soft pairing: to LDAP — and
        to an attacker who dumps it — the decoy must be indistinguishable
        from a real user.  Only the OTP server knows the token type, and
        it alarms on any use.
        """
        serial, secret = self.otp.enroll_honeytoken(self.identity.get(username).uid)
        self.identity.notify_pairing(username, PairingStatus.SOFT)
        return serial, secret

    def federation_issuer(self, site: str, key: Optional[bytes] = None):
        """The attestation issuer for a partner home site.

        First use mints (or accepts) the site's shared HMAC key and
        registers it with the deployment's verifier; later calls return
        the same issuer.  In production the key exchange happens out of
        band — here the center plays both sides so tests and simulations
        can mint assertions.
        """
        issuer = self._federation_issuers.get(site)
        if issuer is None:
            if key is None:
                key = random_octets(self.rng, 32)
            issuer = AttestationIssuer(site, key, clock=self.clock, rng=self.rng)
            self.federation_verifier.trust(site, key)
            self._federation_issuers[site] = issuer
        return issuer

    def pair_federated(
        self,
        username: str,
        principal: str,
        step_up_code: Optional[str] = None,
        home_site_key: Optional[bytes] = None,
    ):
        """Admit a partner-site user: map ``principal`` (``user@homesite``)
        onto the local ``username`` and enroll a FEDERATED pairing.

        Returns the home site's :class:`AttestationIssuer` so callers can
        mint login assertions.  ``step_up_code`` arms the local second
        factor that risk-driven STEP_UP demands.
        """
        account = self.identity.get(username)
        _, _, site = principal.rpartition("@")
        if not site:
            raise ValidationError(
                f"federated principal needs a home-site realm: {principal!r}"
            )
        self.otp.enroll_federated(account.uid, principal, step_up_code=step_up_code)
        if self._federated_resolver is None:
            self._federated_resolver = FederatedResolver()
        self._federated_resolver.map(principal, account.uid)
        self.resolver_chain.add_route(site, self._federated_resolver)
        self.resolver_chain.invalidate(principal)  # as in create_user
        issuer = self.federation_issuer(site, key=home_site_key)
        self.identity.notify_pairing(username, PairingStatus.FEDERATED)
        return issuer

    def pair_training(self, username: str, code: Optional[str] = None) -> str:
        code = code or random_static_code(self.rng)
        self.otp.enroll_static(self.identity.get(username).uid, code)
        self.identity.notify_pairing(username, PairingStatus.TRAINING)
        return code

    def unpair(self, username: str) -> None:
        self.otp.unpair(self.identity.get(username).uid)
        self.identity.notify_pairing(username, PairingStatus.UNPAIRED)

    def receive_hard_batch(self, size: int) -> HardTokenBatch:
        """Take delivery of a manufacturer batch and load its secrets."""
        batch = HardTokenBatch(size, rng=self.rng)
        self.otp.import_hard_batch(batch)
        return batch

    # -- validate takes the login name; enrolment and /admin/* take the
    #    shared unique uid the token rows are stored under. ---------------------

    def uid_of(self, username: str) -> str:
        return self.identity.get(username).uid

