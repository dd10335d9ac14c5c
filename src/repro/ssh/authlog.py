"""The secure authentication log (syslog auth facility).

Two of the paper's mechanisms live off this log:

* The ``pam_pubkey_success`` module "searches recent local secure system
  entry logs" to learn whether SSH already verified a public key — "the
  only mechanism known to provide this information" (Section 3.4).
* The Section 4.1 information-gathering campaign aggregated "a log event
  upon successful entry with explicit information pertaining to the user's
  current shell properties and whether a terminal session (TTY) had been
  initiated".

Entries mirror OpenSSH's message shapes ("Accepted publickey for USER from
IP port N ssh2") plus the center's custom entry-audit records.  The port
names the connection, so an acceptance vouches for that connection alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.clock import Clock

#: The events sshd itself writes, by the verb of its line.
_SSHD_VERBS = {
    "accepted_publickey": "Accepted publickey",
    "accepted_password": "Accepted password",
    "failed_password": "Failed password",
}


@dataclass(frozen=True, slots=True)
class AuthLogEntry:
    """One log line, parsed."""

    timestamp: float
    event: str  # "accepted_publickey", "accepted_password", "failed_password", "session_open", ...
    username: str
    remote_ip: str
    detail: str = ""
    tty: bool = False
    port: int = 0  # the client's source port

    def format(self) -> str:
        """The raw syslog-style line."""
        verb = _SSHD_VERBS.get(self.event)
        if verb is not None:
            suffix = f": {self.detail}" if self.event == "accepted_publickey" else ""
            return (
                f"sshd: {verb} for {self.username} from "
                f"{self.remote_ip} port {self.port} ssh2{suffix}"
            )
        tty_flag = "tty=yes" if self.tty else "tty=no"
        return (
            f"entry-audit: user={self.username} ip={self.remote_ip} "
            f"event={self.event} {tty_flag} {self.detail}"
        )


class AuthLog:
    """Append-only per-host log with the time-windowed queries PAM needs."""

    def __init__(self, clock: Clock, max_entries: int = 100_000) -> None:
        self._clock = clock
        self._entries: List[AuthLogEntry] = []
        self._max = max_entries
        #: (username, remote_ip, port) -> when the log last accepted that
        #: connection's public key; holds only what the entries kept still show.
        self._publickey_accepted: Dict[Tuple[str, str, int], float] = {}
        #: The next connection's source port (from Linux's first ephemeral
        #: one), never reused, on any node sharing the log: it counts on
        #: past 65535 rather than wrap.
        self.next_port = 32768

    def __len__(self) -> int:
        return len(self._entries)

    def append(
        self,
        event: str,
        username: str,
        remote_ip: str,
        detail: str = "",
        tty: bool = False,
        port: int = 0,
    ) -> AuthLogEntry:
        entry = AuthLogEntry(
            timestamp=self._clock.now(),
            event=event,
            username=username,
            remote_ip=remote_ip,
            detail=detail,
            tty=tty,
            port=port,
        )
        self._entries.append(entry)
        if event == "accepted_publickey":
            self._publickey_accepted[username, remote_ip, port] = entry.timestamp
        if len(self._entries) > self._max:
            # Rotate like logrotate would: drop the oldest half.
            self._entries = self._entries[self._max // 2 :]
            self._publickey_accepted = {
                (kept.username, kept.remote_ip, kept.port): kept.timestamp
                for kept in self._entries
                if kept.event == "accepted_publickey"
            }
        return entry

    def recent(
        self,
        window_seconds: float,
        event: Optional[str] = None,
        username: Optional[str] = None,
    ) -> List[AuthLogEntry]:
        """Entries within the trailing window, newest last."""
        cutoff = self._clock.now() - window_seconds
        out = []
        for entry in reversed(self._entries):
            if entry.timestamp < cutoff:
                break
            if event is not None and entry.event != event:
                continue
            if username is not None and entry.username != username:
                continue
            out.append(entry)
        out.reverse()
        return out

    def publickey_accepted_recently(
        self, username: str, remote_ip: str, window_seconds: float = 30.0, port: int = 0
    ) -> bool:
        """The exact question ``pam_pubkey_success`` asks: did sshd log an
        accepted public key for this user and connection (origin and port)
        moments ago?  One lookup: the log's clock never runs back, so the
        latest acceptance is the one a scan of the window would find."""
        accepted = self._publickey_accepted.get((username, remote_ip, port))
        return accepted is not None and accepted >= self._clock.now() - window_seconds

    def entries(self) -> List[AuthLogEntry]:
        return list(self._entries)
