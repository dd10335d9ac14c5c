"""The stock password module (``pam_unix`` equivalent).

"In the event that authorized public key authentication has not been set up
... an existing PAM module instead ensures that the user enters an
appropriate password as their first factor" (Section 3.4).  One prompt per
stack run; the retry-up-to-three-attempts behaviour lives in sshd, which
restarts the stack on failure.
"""

from __future__ import annotations

from repro.pam.framework import PAMResult, PAMSession


PROMPT = "Password: "


class UnixPasswordModule:
    """Prompts for and verifies the account password."""

    name = "pam_unix"

    def __init__(self, identity) -> None:
        # ``identity`` is any object with check_password(username, password).
        self._identity = identity

    def authenticate(self, session: PAMSession) -> PAMResult:
        if session.conversation is None:
            return PAMResult.AUTH_ERR
        password = session.conversation.prompt_echo_off(PROMPT)
        if self._identity.check_password(session.username, password):
            session.items["first_factor"] = "password"
            return PAMResult.SUCCESS
        return PAMResult.AUTH_ERR
