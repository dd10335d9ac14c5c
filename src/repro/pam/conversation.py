"""PAM conversation functions.

PAM modules never read the terminal directly; they hand prompts to a
conversation callback supplied by the application (sshd's
keyboard-interactive layer, in our case).  :class:`ScriptedConversation`
is the test/simulation implementation: responses are queued ahead of time
and every message the modules display is recorded, which is how tests
assert on the countdown-mode messaging and the "SMS already sent" replies.
"""

from __future__ import annotations

from typing import List, Optional


class ConversationError(RuntimeError):
    """The application could not service a prompt (user hung up)."""


class Conversation:
    """Interface between PAM modules and the application's user channel."""

    def prompt_echo_off(self, prompt: str) -> str:
        """Ask for hidden input (passwords, token codes)."""
        raise NotImplementedError

    def prompt_echo_on(self, prompt: str) -> str:
        """Ask for visible input (the countdown acknowledgement)."""
        raise NotImplementedError

    def info(self, message: str) -> None:
        """Display an informational message."""
        raise NotImplementedError

    def error(self, message: str) -> None:
        """Display an error message."""
        raise NotImplementedError


class ScriptedConversation(Conversation):
    """Queued responses + recorded transcript, for tests and simulation."""

    def __init__(self, responses: Optional[List[str]] = None) -> None:
        self._responses = list(responses or [])
        self.transcript: List[tuple] = []

    def _next_response(self, prompt: str) -> str:
        if not self._responses:
            raise ConversationError(f"no scripted response for prompt {prompt!r}")
        return self._responses.pop(0)

    def prompt_echo_off(self, prompt: str) -> str:
        response = self._next_response(prompt)
        self.transcript.append(("prompt_echo_off", prompt, response))
        return response

    def prompt_echo_on(self, prompt: str) -> str:
        response = self._next_response(prompt)
        self.transcript.append(("prompt_echo_on", prompt, response))
        return response

    def info(self, message: str) -> None:
        self.transcript.append(("info", message))

    def error(self, message: str) -> None:
        self.transcript.append(("error", message))

    def messages(self) -> List[str]:
        """All displayed info/error text, in order."""
        return [t[1] for t in self.transcript if t[0] in ("info", "error")]

