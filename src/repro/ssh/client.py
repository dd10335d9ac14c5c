"""The SSH client side: interactive logins, scripted transfers, multiplexing.

Covers the connection styles the paper's users exercised:

* interactive logins with keyboard-interactive prompts (password and/or
  token code) — the clients Section 5 lists (PuTTY, Bitvise, WinSCP,
  FileZilla, Cyberduck) all support exactly this;
* non-interactive scripted sessions (SCP/SFTP/rsync-style), which cannot
  answer a token prompt — the workflows the MFA transition broke;
* SSH multiplexing: one authenticated master, many channels (the most
  popular mitigation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.pam.conversation import Conversation, ConversationError
from repro.ssh.daemon import SSHDaemon, SSHResult
from repro.ssh.keys import KeyPair

Responder = Callable[[], str]


class PromptAnswers(Conversation):
    """A conversation that routes prompts by substring to answers.

    Answers may be static strings or zero-argument callables (e.g. "read
    the current TOTP code off the device").  An unmatched hidden prompt
    aborts the connection — exactly what happens when a scripted SFTP job
    meets an unexpected token prompt.
    """

    def __init__(self, answers: Optional[Dict[str, object]] = None) -> None:
        self._answers = dict(answers or {})
        self.displayed: List[str] = []
        self.prompts_seen: List[str] = []

    def _lookup(self, prompt: str) -> Optional[str]:
        for substring, answer in self._answers.items():
            if substring.lower() in prompt.lower():
                return answer() if callable(answer) else str(answer)
        return None

    def prompt_echo_off(self, prompt: str) -> str:
        self.prompts_seen.append(prompt)
        answer = self._lookup(prompt)
        if answer is None:
            raise ConversationError(f"no answer configured for prompt {prompt!r}")
        return answer

    def prompt_echo_on(self, prompt: str) -> str:
        self.prompts_seen.append(prompt)
        answer = self._lookup(prompt)
        return "" if answer is None else answer  # return-key acknowledgements

    def info(self, message: str) -> None:
        self.displayed.append(message)

    def error(self, message: str) -> None:
        self.displayed.append(message)


@dataclass
class SSHConnection:
    """A live client-side connection handle."""

    daemon: SSHDaemon
    result: SSHResult
    channels: int = 1

    @property
    def connection_id(self) -> str:
        assert self.result.connection_id is not None
        return self.result.connection_id


@dataclass
class SSHClient:
    """A user's SSH client with optional ControlMaster-style multiplexing."""

    source_ip: str
    multiplex: bool = False
    _masters: Dict[Tuple[int, str], SSHConnection] = field(default_factory=dict)

    def connect(
        self,
        daemon: SSHDaemon,
        username: str,
        password: Optional[str] = None,
        key: Optional[KeyPair] = None,
        token: Optional[object] = None,
        tty: bool = True,
        extra_answers: Optional[Dict[str, object]] = None,
    ) -> Tuple[SSHResult, PromptAnswers]:
        """Open a connection, reusing an authenticated master if multiplexing.

        ``token`` is a static code or a callable returning the current code;
        ``None`` means this client cannot answer a token prompt (scripted
        workflows).
        """
        master_key = (id(daemon), username)
        if self.multiplex and master_key in self._masters:
            master = self._masters[master_key]
            if daemon.open_channel(master.connection_id):
                master.channels += 1
                return master.result, PromptAnswers()
            del self._masters[master_key]  # master died; reconnect below

        answers: Dict[str, object] = {}
        if password is not None:
            answers["password"] = password
        if token is not None:
            answers["token code"] = token
        if extra_answers:
            answers.update(extra_answers)
        conversation = PromptAnswers(answers)
        result = daemon.connect(
            username, self.source_ip, conversation, key=key, tty=tty
        )
        if result.success and self.multiplex:
            self._masters[master_key] = SSHConnection(daemon, result)
        return result, conversation

    def run_batch(
        self,
        daemon: SSHDaemon,
        username: str,
        count: int,
        password: Optional[str] = None,
        key: Optional[KeyPair] = None,
        token: Optional[object] = None,
    ) -> int:
        """Fire ``count`` non-interactive operations (data moves, job polls).

        Returns how many succeeded.  With multiplexing on, only the first
        pays the authentication cost.
        """
        ok = 0
        for _ in range(count):
            result, _ = self.connect(
                daemon, username, password=password, key=key, token=token, tty=False
            )
            if result.success:
                ok += 1
        return ok
