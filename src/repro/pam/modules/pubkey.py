"""``pam_pubkey_success`` — in-house module #1.

"The first PAM module in the stack ... has been constructed to determine if
a user has utilized public key authentication successfully via SSH as their
first factor ... This module searches recent local secure system entry logs
to determine this information.  Information about the state of public key
authentication is not provided from SSH to PAM.  This module is the only
mechanism known to provide this information" (Section 3.4).

The log line names its connection ("from IP port N"), and so does the
session: an acceptance never vouches for the next connect.  On success the
module stamps ``first_factor=publickey`` into the session so downstream
modules (and audit) know which first factor was used; in the Figure-1
stack it is configured with a jump action so the password module is
skipped.
"""

from __future__ import annotations

from repro.pam.framework import PAMResult, PAMSession

#: How long a connection's pubkey acceptance still counts for its PAM runs.
#: sshd runs PAM within the same handshake, so seconds suffice.
DEFAULT_WINDOW_SECONDS = 30.0


class PublicKeySuccessModule:
    """Checks the secure log for a just-accepted public key.

    ``authlog`` is the node's secure-log reader — anything answering
    ``publickey_accepted_recently(username, remote_ip, window, port)``; sshd's
    ``AuthLog`` in a deployment.  PAM reads the log, it does not import
    the daemon that writes it.
    """

    name = "pam_pubkey_success"

    def __init__(self, authlog, window_seconds: float = DEFAULT_WINDOW_SECONDS) -> None:
        self._authlog = authlog
        self._window = window_seconds

    def authenticate(self, session: PAMSession) -> PAMResult:
        if self._authlog.publickey_accepted_recently(
            session.username, session.remote_ip, self._window, session.remote_port
        ):
            session.items["first_factor"] = "publickey"
            return PAMResult.SUCCESS
        return PAMResult.AUTH_ERR
