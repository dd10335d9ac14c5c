"""The login-node SSH daemon model.

Reproduces the authentication choreography of Section 3.4:

1. sshd itself verifies an offered public key against ``authorized_keys``
   and, on success, writes "Accepted publickey ... from IP port N" to the
   secure log — the only trace PAM gets of it.  The connection's PAM
   sessions carry its port, so the line speaks for it alone.
2. The authentication decision is then handed to the PAM stack
   (keyboard-interactive): the node's libpam resolves the ``sshd`` service
   from its pam.d text once per connection — so an edit is live on the very
   next login — and runs the modules that text names.  A service with no
   usable stack (file missing, unparseable or empty) lets nobody in.
3. "If the password entry is incorrect, the PAM stack is restarted and the
   user is prompted once again for a password, up to a maximum of two more
   times before SSH disconnect."
4. Successful entry is logged with the TTY flag the Section 4.1 audit
   script records.

The daemon also accepts multiplexed channels: once a client holds an
authenticated master connection, additional sessions attach without
re-authenticating — the mitigation Section 5 calls "perhaps most popular
of all".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.clock import Clock, WallClock
from repro.common.errors import ConfigurationError, NotFoundError
from repro.common.ids import IdAllocator, random_octets
from repro.pam.conversation import Conversation, ConversationError
from repro.pam.framework import PAMResult, PAMSession, PAMStack
from repro.pam.registry import PAMServiceManager
from repro.ssh.authlog import AuthLog
from repro.ssh.keys import KeyPair
from repro.telemetry import resolve_registry


@dataclass
class SSHResult:
    """Outcome of a connection attempt."""

    success: bool
    username: str
    detail: str = ""
    session_items: Dict[str, object] = field(default_factory=dict)
    connection_id: Optional[str] = None
    password_attempts: int = 0

    def __bool__(self) -> bool:
        return self.success


@dataclass
class _MasterConnection:
    username: str
    source_ip: str
    channels: int = 1


#: The pam.d service name sshd authenticates under.
PAM_SERVICE = "sshd"
#: Stack runs one connection gets before sshd hangs up (MaxAuthTries).
MAX_AUTH_ATTEMPTS = 3


class SSHDaemon:
    """One login node's sshd."""

    def __init__(
        self,
        hostname: str,
        address: str,
        identity,
        pam: PAMServiceManager,
        authlog: Optional[AuthLog] = None,
        clock: Optional[Clock] = None,
        banner: str = "",
        rng: Optional[random.Random] = None,
        telemetry=None,
    ) -> None:
        self.hostname = hostname
        self.address = address
        self.identity = identity
        #: The node's libpam: owns the pam.d text and the stack built from it.
        self.pam = pam
        self.clock = clock or WallClock()
        # Explicit None check: an empty AuthLog is falsy (it has __len__),
        # and a shared-but-empty log must not be replaced.
        self.authlog = authlog if authlog is not None else AuthLog(self.clock)
        self.banner = banner
        self._rng = rng or random.Random()
        self._verifiers: Dict[str, KeyPair] = {}
        self._masters: Dict[str, _MasterConnection] = {}
        self._ids = IdAllocator()
        self.logins_accepted = 0
        self.logins_rejected = 0
        self.telemetry = resolve_registry(telemetry, clock=self.clock)
        self._tracer = self.telemetry.tracer()
        self._m_channels = self.telemetry.counter(
            "ssh_multiplexed_channels_total", "channels attached without re-auth"
        ).labels(host=self.hostname)
        self._m_attempts = self.telemetry.histogram(
            "ssh_password_attempts",
            "PAM stack runs consumed per connection",
            buckets=(1.0, 2.0, 3.0),
        ).labels()

    @property
    def pam_stack(self) -> PAMStack:
        """The live ``sshd`` stack (rebuilt first if its text changed)."""
        return self.pam.stack(PAM_SERVICE)

    # -- key management ---------------------------------------------------------

    def authorize_key(self, username: str, keypair: KeyPair) -> None:
        """Install a public key in the user's ``authorized_keys``.

        The daemon keeps only what it needs to *verify* (see
        :meth:`KeyPair.verify_with_public` for why the KeyPair object is
        retained as the verifier stand-in); the identity backend records
        the fingerprint.
        """
        fingerprint = keypair.fingerprint
        self.identity.add_public_key(username, fingerprint)
        self._verifiers[fingerprint] = keypair

    # -- connection handling ------------------------------------------------------

    def connect(
        self,
        username: str,
        source_ip: str,
        conversation: Conversation,
        key: Optional[KeyPair] = None,
        tty: bool = True,
    ) -> SSHResult:
        """One full SSH authentication: optional public key, then PAM."""
        if not self.telemetry.enabled:
            return self._connect(username, source_ip, conversation, key, tty)
        with self._tracer.span(
            "ssh.connect", host=self.hostname, user=username, source=source_ip
        ) as span:
            result = self._connect(username, source_ip, conversation, key, tty)
            span.attributes["result"] = "accepted" if result.success else "rejected"
            if result.detail:
                span.attributes["detail"] = result.detail
            self._m_attempts.observe(result.password_attempts)
            return result

    def _connect(
        self,
        username: str,
        source_ip: str,
        conversation: Conversation,
        key: Optional[KeyPair],
        tty: bool,
    ) -> SSHResult:
        if self.banner:
            conversation.info(self.banner)

        authlog = self.authlog
        port = authlog.next_port
        authlog.next_port = port + 1
        account_ok = username in self.identity
        if key is not None and account_ok:
            fingerprint = key.fingerprint  # the connect's one SHA-256
            verifier = self._verifiers.get(fingerprint)
            if verifier is not None and self.identity.has_public_key(username, fingerprint):
                challenge = random_octets(self._rng, 32)
                if verifier.verify_with_public(challenge, key.sign(challenge)):
                    authlog.append(
                        "accepted_publickey", username, source_ip, fingerprint, port=port
                    )

        try:
            stack = self.pam.stack(PAM_SERVICE)
        except NotFoundError:
            # No service file is no stack: nobody gets in (see below).
            stack = PAMStack(PAM_SERVICE)
        result = PAMResult.AUTH_ERR
        attempts = 0
        items: Dict[str, object] = {}
        # Unknown accounts burn the full retry budget too (sshd does not
        # reveal which part failed), but can never succeed.
        for attempts in range(1, MAX_AUTH_ATTEMPTS + 1):
            session = PAMSession(
                username=username,
                remote_ip=source_ip,
                service=stack.service,
                conversation=conversation,
                clock=self.clock,
                telemetry=self.telemetry,
                remote_port=port,
            )
            try:
                result = stack.authenticate(session)
            except ConversationError:
                result = PAMResult.ABORT
            except ConfigurationError:
                # A stack with no modules — the service text did not parse,
                # or names none — fails closed; asking again cannot help.
                result = PAMResult.AUTH_ERR
                break
            items = session.items
            if result is PAMResult.SUCCESS or result is PAMResult.ABORT:
                break

        # An unknown account can never enter, whatever the stack said.
        if not account_ok:
            result = PAMResult.AUTH_ERR

        if result is not PAMResult.SUCCESS:
            self.logins_rejected += 1
            authlog.append("auth_failure", username, source_ip, port=port)
            return SSHResult(
                False, username, detail=result._value_, password_attempts=attempts
            )

        connection_id = self._ids.next("conn")
        self._masters[connection_id] = _MasterConnection(username, source_ip)
        authlog.append(
            "session_open",
            username,
            source_ip,
            detail=(
                f"first={items.get('first_factor', 'unknown')} "
                f"mfa={'yes' if 'second_factor' in items else 'no'} "
                f"exempt={'yes' if items.get('mfa_exempt') else 'no'}"
            ),
            tty=tty,
            port=port,
        )
        self.logins_accepted += 1
        return SSHResult(
            True,
            username,
            session_items=items,
            connection_id=connection_id,
            password_attempts=attempts,
        )

    def open_channel(self, connection_id: str) -> bool:
        """Attach a multiplexed channel to an existing master connection —
        no re-authentication, exactly like OpenSSH ControlMaster."""
        master = self._masters.get(connection_id)
        if master is None:
            return False
        master.channels += 1
        if self.telemetry.enabled:
            self._m_channels.inc()
        self.authlog.append(
            "multiplexed_channel",
            master.username,
            master.source_ip,
            detail=f"channels={master.channels}",
            tty=False,
        )
        return True

    def disconnect(self, connection_id: str) -> None:
        self._masters.pop(connection_id, None)

    def open_connections(self) -> List[str]:
        return list(self._masters)

    def snapshot(self) -> Dict[str, int]:
        """This node's entry under ``systems.<name>.nodes`` in the status view."""
        return {
            "logins_accepted": self.logins_accepted,
            "logins_rejected": self.logins_rejected,
            "open_connections": len(self._masters),
        }
