"""The PAM stack engine: Linux-PAM control semantics over module objects.

Supports both the classic keyword controls (``required``, ``requisite``,
``sufficient``, ``optional``) and the bracketed action syntax
(``[success=2 default=ignore]``) that real MFA stacks — including TACC's
OpenMFA configurations — rely on to jump over the password module when the
public-key module reports success.

The engine deliberately mirrors libpam's behaviour:

* ``ok``     — contribute success unless a failure is already recorded;
* ``done``   — return success immediately if nothing has failed yet;
* ``bad``    — record failure, keep executing (so later modules cannot
  tell an attacker which step failed);
* ``die``    — record failure and stop immediately;
* ``ignore`` — the module's result does not participate;
* ``N`` (a positive integer) — like ``ok`` plus jump over the next N
  modules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, Union

from repro.common.clock import Clock, WallClock
from repro.common.errors import ConfigurationError
from repro.pam.conversation import Conversation, ConversationError
from repro.telemetry import NOOP_REGISTRY, LabelChildren


class PAMResult(Enum):
    """Module return codes (the subset the MFA stack exercises)."""

    SUCCESS = "success"
    AUTH_ERR = "auth_err"
    IGNORE = "ignore"
    USER_UNKNOWN = "user_unknown"
    PERM_DENIED = "perm_denied"
    MAXTRIES = "maxtries"
    ABORT = "abort"


@dataclass
class PAMSession:
    """Per-authentication context shared by every module in the stack."""

    username: str
    remote_ip: str
    service: str = "sshd"
    conversation: Optional[Conversation] = None
    clock: Clock = field(default_factory=WallClock)
    items: Dict[str, Any] = field(default_factory=dict)
    # The deployment's telemetry registry; the SSH daemon stamps its own in
    # so the stack and its modules report into the same span tree.  Defaults
    # to the free no-op registry for bare PAMSession construction.
    telemetry: Any = NOOP_REGISTRY
    remote_port: int = 0  # with remote_ip, the connection's name in the secure log
    # The first exemption ask's ``PolicyEngine.screen``, for the modules after
    # it; not an item, since items are what the stack hands back to sshd.
    screen: Optional[tuple] = None


class PAMModule(Protocol):
    """What the stack requires of a module object."""

    name: str

    def authenticate(self, session: PAMSession) -> PAMResult: ...


#: Keyword controls expressed as action tables (libpam's own equivalences).
_KEYWORD_CONTROLS: Dict[str, Dict[str, str]] = {
    "required": {"success": "ok", "ignore": "ignore", "default": "bad"},
    "requisite": {"success": "ok", "ignore": "ignore", "default": "die"},
    "sufficient": {"success": "done", "default": "ignore"},
    "optional": {"success": "ok", "default": "ignore"},
}

_VALID_ACTIONS = {"ok", "done", "bad", "die", "ignore", "reset"}

#: A named action, or the number of modules a jump action skips.
Action = Union[str, int]
#: A jump count: ASCII digits (``"²".isdigit()`` is true, ``int("²")`` raises).
_JUMP = re.compile("[0-9]{1,9}")


def parse_control(text: str) -> Dict[str, Action]:
    """Parse a control field — keyword or ``[code=action ...]`` form.

    Resolved here, once: a jump count is an ``int`` and every
    :class:`PAMResult` code the control does not name gets its default.
    """
    text = text.strip()
    if not text.startswith("["):
        if text not in _KEYWORD_CONTROLS:
            raise ConfigurationError(f"unknown PAM control keyword {text!r}")
        actions: Dict[str, Action] = dict(_KEYWORD_CONTROLS[text])
    elif not text.endswith("]"):
        raise ConfigurationError(f"unterminated control bracket: {text!r}")
    else:
        actions = {}
        for pair in text[1:-1].split():
            code, _, action = pair.partition("=")
            if not action:
                raise ConfigurationError(f"malformed action {pair!r}")
            if action in _VALID_ACTIONS:
                actions[code] = action
            elif _JUMP.fullmatch(action):
                actions[code] = int(action)
            else:
                raise ConfigurationError(f"invalid action {action!r}")
    default = actions.setdefault("default", "bad")
    for result in PAMResult:
        actions.setdefault(result.value, default)
    return actions


@dataclass
class StackEntry:
    """One configured line: control actions + the module + its options."""

    actions: Dict[str, Action]
    module: PAMModule
    options: Dict[str, str] = field(default_factory=dict)


class PAMStack:
    """An ordered module stack for one service."""

    def __init__(self, service: str) -> None:
        self.service = service
        self.entries: List[StackEntry] = []
        # The instruments this stack reports into, resolved on its first
        # traced run against a registry.
        self._bound: Optional[SessionTelemetry] = None

    def append(self, control: str, module: PAMModule, **options: str) -> None:
        self.entries.append(StackEntry(parse_control(control), module, options))

    def authenticate(self, session: PAMSession) -> PAMResult:
        """Run the stack to a final verdict."""
        telemetry = session.telemetry
        if not telemetry.enabled:
            return self._run(session, None)
        bound = self._bound
        if bound is None or bound.registry is not telemetry:
            bound = self._bound = SessionTelemetry(telemetry, _STACK_COUNTERS)
        with bound.tracer.span("pam.stack", service=self.service) as span:
            verdict = self._run(session, bound)
            result = verdict._value_
            span.attributes["result"] = result
            bound.counters["pam_stack_results_total"][self.service, result].inc()
            return verdict

    def _run(self, session: PAMSession, bound: Optional[SessionTelemetry]) -> PAMResult:
        if not self.entries:
            raise ConfigurationError(f"service {self.service!r} has an empty stack")
        recorded_failure: Optional[PAMResult] = None
        recorded_success = False
        skip = 0
        for entry in self.entries:
            if skip > 0:
                skip -= 1
                continue
            if bound is not None:
                # Telemetry on (``bound`` is None when off).  Opened by hand so
                # one call site serves both; pam.stack's close ends a raiser's.
                name = entry.module.name
                module_span = bound.tracer.span("pam." + name)
            try:
                code = entry.module.authenticate(session)
            except ConversationError:
                code = PAMResult.ABORT
            result = code._value_
            if bound is not None:
                module_span.attributes["result"] = result
                module_span.__exit__(None, None, None)
                bound.counters["pam_module_results_total"][name, result].inc()
            action = entry.actions[result]
            if type(action) is int:
                # Jump action: success contribution plus skipping N modules.
                if recorded_failure is None:
                    recorded_success = True
                skip = action
            elif action == "ok":
                if recorded_failure is None:
                    recorded_success = True
            elif action == "done":
                if recorded_failure is None:
                    return PAMResult.SUCCESS
                return recorded_failure
            elif action == "bad" or action == "die":
                if recorded_failure is None:
                    recorded_failure = (
                        code if code is not PAMResult.SUCCESS else PAMResult.AUTH_ERR
                    )
                if action == "die":
                    return recorded_failure
            elif action == "reset":
                recorded_failure = None
                recorded_success = False
        if recorded_failure is not None:
            return recorded_failure
        if recorded_success:
            return PAMResult.SUCCESS
        # Nothing contributed a verdict: fail closed, as libpam does.
        return PAMResult.AUTH_ERR


class SessionTelemetry:
    """A PAM component's instruments in the registry its sessions bring,
    resolved on the component's first traced run against that registry:
    the tracer, and a ``LabelChildren`` map per counter it reports into, by
    counter name — each child bound the first time it fires, PAM's
    services, modules, return codes, modes and pairing types being closed
    sets.  A component keeps one and makes a new one when a session brings
    another registry (``bound.registry is not session.telemetry``)."""

    __slots__ = ("registry", "tracer", "counters")

    def __init__(
        self, registry, counters: Dict[str, Tuple[str, Tuple[str, ...]]]
    ) -> None:
        """``counters``: name → (help line, label names)."""
        self.registry = registry
        self.tracer = registry.tracer()
        self.counters = {
            name: LabelChildren(registry.counter(name, help), labels)
            for name, (help, labels) in counters.items()
        }


#: What a stack reports into: a verdict per service, a return code per module.
_STACK_COUNTERS = {
    "pam_stack_results_total": ("PAM stack verdicts by service", ("service", "result")),
    "pam_module_results_total": ("per-module return codes", ("module", "result")),
}


ModuleFactory = Callable[[Dict[str, str]], PAMModule]


def parse_pam_config(
    service: str,
    text: str,
    registry: Dict[str, ModuleFactory],
) -> PAMStack:
    """Build a stack from pam.d-style configuration text.

    Each non-comment line is ``auth <control> <module> [key=value ...]``;
    the module name is looked up in ``registry`` and instantiated with the
    option dict.  The system administrator edits exactly this text to move
    between enforcement modes — "any of these modes may be set during
    production operation and are in effect as soon as written to disk".
    """
    # Two passes: every line is checked before any module is built, so a
    # text that does not parse builds (and, through a factory, sets) nothing.
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Re-join bracketed controls that contain spaces before splitting.
        if line.split()[1].startswith("[") if len(line.split()) > 1 else False:
            facility, rest = line.split(None, 1)
            close = rest.find("]")
            if close < 0:
                raise ConfigurationError(
                    f"line {lineno}: unterminated bracketed control: {raw!r}"
                )
            control = rest[: close + 1]
            remainder = rest[close + 1 :].split()
        else:
            parts = line.split()
            if len(parts) < 3:
                raise ConfigurationError(f"line {lineno}: too few fields: {raw!r}")
            facility, control = parts[0], parts[1]
            remainder = parts[2:]
        if facility != "auth":
            raise ConfigurationError(
                f"line {lineno}: only the 'auth' facility is modeled, got {facility!r}"
            )
        if not remainder:
            raise ConfigurationError(f"line {lineno}: missing module name")
        module_name = remainder[0]
        options: Dict[str, str] = {}
        for opt in remainder[1:]:
            key, _, value = opt.partition("=")
            options[key] = value
        factory = registry.get(module_name)
        if factory is None:
            raise ConfigurationError(f"line {lineno}: unknown module {module_name!r}")
        lines.append((lineno, parse_control(control), factory, options))
    stack = PAMStack(service)
    for lineno, actions, factory, options in lines:
        try:
            module = factory(options)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad module option: {exc}") from exc
        stack.entries.append(StackEntry(actions, module, options))
    return stack
