"""Module registry and text-driven PAM service configuration.

Real systems wire PAM from ``/etc/pam.d/<service>`` text; TACC's
enforcement modes were flipped by editing those files: "Any of these modes
may be set during production operation and are in effect as soon as
written to disk" (Section 3.4).  That text is the *only* definition of a
login node's stack here: :func:`figure1_config` writes the Figure-1 lines,
:func:`standard_registry` turns module names into module objects, and
:class:`PAMServiceManager` — one per login node, the node's libpam — owns
the text per service (a file under its pam.d directory, or the same text
held in memory when it has none) and rebuilds a stack the moment the text
changes, so an administrator (or a test) edits the file and the *next*
authentication uses the new policy, with no restart.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError, NotFoundError
from repro.pam.framework import ModuleFactory, PAMResult, PAMSession, PAMStack, parse_pam_config
from repro.policy import EnforcementMode, PolicyEngine


def standard_registry(
    identity, authlog, policy: PolicyEngine, radius
) -> Dict[str, ModuleFactory]:
    """The registry for the paper's stack: the four in-house modules plus
    the stock password module, keyed by their .so names.

    ``policy`` is the one engine every policy-backed module built from
    this registry asks (an :class:`~repro.core.HPCSystem`'s, carrying its
    ACL, lockout, clock and risk engine); ``radius`` is the login node's
    long-lived RADIUS client, so a reload keeps its circuit-breaker state.
    A ``pam_mfa_token.so mode=… deadline=…`` line *sets* the engine's
    ladder: a hand edit and ``HPCSystem.set_mode`` are the same act.
    """
    from repro.pam.modules.exemption import MFAExemptionModule
    from repro.pam.modules.pubkey import PublicKeySuccessModule
    from repro.pam.modules.solaris import SolarisMFAModule
    from repro.pam.modules.token import MFATokenModule
    from repro.pam.modules.unix_password import UnixPasswordModule

    def token_factory(options: Dict[str, str]):
        policy.set_ladder(options.get("mode", "full"), options.get("deadline"))
        return MFATokenModule(
            ldap=identity.ldap,
            radius=radius,
            policy=policy,
            info_url=options.get("url", "https://portal.center.edu/mfa"),
        )

    return {
        "pam_pubkey_success.so": lambda opts: PublicKeySuccessModule(
            authlog, window_seconds=float(opts.get("window", 30.0))
        ),
        "pam_unix.so": lambda opts: UnixPasswordModule(identity),
        "pam_mfa_exemption.so": lambda opts: MFAExemptionModule(policy),
        "pam_mfa_token.so": token_factory,
        "pam_solaris_mfa.so": lambda opts: SolarisMFAModule(authlog, policy),
    }


#: The Figure-1 configuration as it would appear in /etc/pam.d/sshd.
FIGURE1_CONFIG = """\
# MFA stack (Figure 1): pubkey short-circuits the password module;
# an exemption short-circuits the token module; the token module decides.
auth [success=1 default=ignore] pam_pubkey_success.so
auth requisite pam_unix.so
auth sufficient pam_mfa_exemption.so
auth requisite pam_mfa_token.so mode={mode}{deadline_opt}
"""


def figure1_config(mode: str = "full", deadline: Optional[str] = None) -> str:
    """The Figure-1 text for an enforcement mode.  An unknown mode name is
    refused here, before anything is written; text edited by hand instead
    fails closed to ``full`` when the token module parses it."""
    try:
        EnforcementMode(mode)
    except ValueError:
        raise ConfigurationError(f"unknown enforcement mode {mode!r}") from None
    deadline_opt = f" deadline={deadline}" if deadline else ""
    return FIGURE1_CONFIG.format(mode=mode, deadline_opt=deadline_opt)


class PAMServiceManager:
    """pam.d semantics: per-service config text, hot reload, fail closed.

    ``pam_dir`` is the directory holding one file per service; ``None``
    keeps the same text in memory (simulations that stand up thousands of
    login nodes without touching the filesystem).  Text that does not
    parse yields a stack with no modules — every authentication against
    it is a configuration error, which the SSH daemon turns into a denied
    login — and the message stays in :attr:`last_error` until the next
    good write, the exemption ACL's convention.
    """

    def __init__(self, pam_dir: Optional[str], registry: Dict[str, ModuleFactory]) -> None:
        self.pam_dir = pam_dir
        self.registry = registry
        if pam_dir is not None:
            os.makedirs(pam_dir, exist_ok=True)
        self._texts: Dict[str, str] = {}  # the service files of a manager with no directory
        # service -> (the file's mtime when parsed, the stack parsed from it)
        self._loaded: Dict[str, Tuple[Optional[float], PAMStack]] = {}
        self.reload_count = 0
        self.last_error: Optional[str] = None

    def _path(self, service: str) -> str:
        return os.path.join(self.pam_dir, service)

    def write_config(self, service: str, text: str) -> None:
        """The administrator's edit: write the text; takes effect on the
        next :meth:`stack` call."""
        if self.pam_dir is None:
            self._texts[service] = text
            self._loaded.pop(service, None)
            return
        with open(self._path(service), "w", encoding="utf-8") as handle:
            handle.write(text)
        # Force an mtime difference even for sub-resolution writes.
        stat = os.stat(self._path(service))
        os.utime(self._path(service), (stat.st_atime, stat.st_mtime + 1e-3))

    def read_config(self, service: str) -> str:
        try:
            if self.pam_dir is None:
                return self._texts[service]
            with open(self._path(service), "r", encoding="utf-8") as handle:
                return handle.read()
        except (KeyError, FileNotFoundError) as exc:
            raise NotFoundError(f"no PAM config for service {service!r}") from exc

    def stack(self, service: str) -> PAMStack:
        """The current stack for a service, rebuilt if the text changed."""
        mtime = None  # in memory, write_config drops the stale stack itself
        if self.pam_dir is not None:
            try:
                mtime = os.stat(self._path(service)).st_mtime
            except FileNotFoundError as exc:
                raise NotFoundError(f"no PAM config for service {service!r}") from exc
        try:
            loaded_at, stack = self._loaded[service]
        except KeyError:
            stack = None
        if stack is None or loaded_at != mtime:
            try:
                stack = parse_pam_config(service, self.read_config(service), self.registry)
                self.last_error = None
            except ConfigurationError as exc:
                stack = PAMStack(service)
                self.last_error = str(exc)
            self._loaded[service] = (mtime, stack)
            self.reload_count += 1
        return stack

    def authenticate(self, service: str, session: PAMSession) -> PAMResult:
        """One authentication under the service's *current* policy."""
        return self.stack(service).authenticate(session)
