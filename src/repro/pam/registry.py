"""Module registry and file-driven PAM service configuration.

Real systems wire PAM from ``/etc/pam.d/<service>`` text; TACC's
enforcement modes were flipped by editing those files: "Any of these modes
may be set during production operation and are in effect as soon as
written to disk" (Section 3.4).  :class:`PAMServiceManager` reproduces
that operational surface: it owns a pam.d-style file per service, builds
stacks through a module registry, and rebuilds a stack the moment the
file's mtime changes — so an administrator (or a test) edits the file and
the *next* authentication uses the new policy, with no restart.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.common.errors import ConfigurationError, NotFoundError
from repro.pam.framework import ModuleFactory, PAMResult, PAMSession, PAMStack, parse_pam_config
from repro.policy import EnforcementLadder, PolicyEngine


def standard_registry(
    identity,
    authlog,
    acl,
    radius_factory: Callable[[], object],
    policy_factory: Optional[Callable[..., PolicyEngine]] = None,
) -> Dict[str, ModuleFactory]:
    """The registry for the paper's stack: the four in-house modules plus
    the stock password module, keyed by their .so names.

    ``policy_factory(ladder=None)`` builds the engine the two policy-backed
    modules evaluate against — the per-system one from ``HPCSystem``, so
    file-driven stacks share its ACL, lockout, clock and risk engine.  The
    pam.d line's ``mode=``/``deadline=`` stay authoritative for the ladder.
    Without a factory the engine carries just ``acl`` and that ladder.
    """
    from repro.pam.modules.exemption import MFAExemptionModule
    from repro.pam.modules.pubkey import PublicKeySuccessModule
    from repro.pam.modules.solaris import SolarisMFAModule
    from repro.pam.modules.token import MFATokenModule
    from repro.pam.modules.unix_password import UnixPasswordModule

    if policy_factory is None:
        def policy_factory(ladder=None):
            return PolicyEngine(ladder=ladder, exemptions=acl)

    def token_factory(options: Dict[str, str]):
        ladder = EnforcementLadder(options.get("mode", "full"), options.get("deadline"))
        return MFATokenModule(
            ldap=identity.ldap,
            radius=radius_factory(),
            info_url=options.get("url", "https://portal.center.edu/mfa"),
            policy=policy_factory(ladder),
        )

    return {
        "pam_pubkey_success.so": lambda opts: PublicKeySuccessModule(
            authlog, window_seconds=float(opts.get("window", 30.0))
        ),
        "pam_unix.so": lambda opts: UnixPasswordModule(identity),
        "pam_mfa_exemption.so": lambda opts: MFAExemptionModule(policy_factory()),
        "pam_mfa_token.so": token_factory,
        "pam_solaris_mfa.so": lambda opts: SolarisMFAModule(authlog, acl),
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
    deadline_opt = f" deadline={deadline}" if deadline else ""
    return FIGURE1_CONFIG.format(mode=mode, deadline_opt=deadline_opt)


class PAMServiceManager:
    """pam.d directory semantics: per-service config files, hot reload."""

    def __init__(self, pam_dir: str, registry: Dict[str, ModuleFactory]) -> None:
        self.pam_dir = pam_dir
        self.registry = registry
        os.makedirs(pam_dir, exist_ok=True)
        self._stacks: Dict[str, PAMStack] = {}
        self._mtimes: Dict[str, float] = {}
        self.reload_count = 0

    def _path(self, service: str) -> str:
        return os.path.join(self.pam_dir, service)

    def write_config(self, service: str, text: str) -> None:
        """The administrator's edit: write the file; takes effect on the
        next :meth:`stack` call."""
        with open(self._path(service), "w", encoding="utf-8") as handle:
            handle.write(text)
        # Force an mtime difference even for sub-resolution writes.
        stat = os.stat(self._path(service))
        os.utime(self._path(service), (stat.st_atime, stat.st_mtime + 1e-3))

    def read_config(self, service: str) -> str:
        try:
            with open(self._path(service), "r", encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError as exc:
            raise NotFoundError(f"no PAM config for service {service!r}") from exc

    def stack(self, service: str) -> PAMStack:
        """The current stack for a service, rebuilt if the file changed."""
        path = self._path(service)
        try:
            mtime = os.stat(path).st_mtime
        except FileNotFoundError as exc:
            raise NotFoundError(f"no PAM config for service {service!r}") from exc
        if service not in self._stacks or self._mtimes.get(service) != mtime:
            text = self.read_config(service)
            self._stacks[service] = parse_pam_config(service, text, self.registry)
            self._mtimes[service] = mtime
            self.reload_count += 1
        return self._stacks[service]

    def authenticate(self, service: str, session: PAMSession) -> PAMResult:
        """One authentication under the service's *current* policy."""
        return self.stack(service).authenticate(session)

    def set_enforcement_mode(
        self, service: str, mode: str, deadline: Optional[str] = None
    ) -> None:
        """Convenience for the operational act the paper describes: flip
        the token module's mode by rewriting the service file."""
        if mode not in ("off", "paired", "countdown", "full"):
            raise ConfigurationError(f"unknown enforcement mode {mode!r}")
        self.write_config(service, figure1_config(mode, deadline))
