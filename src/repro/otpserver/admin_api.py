"""The OTP server's administrative REST interface (Section 3.5).

"The portlet application communicates with the LinOTP back end via an
administrative interface, which is available as a REST interface.  The
portal back end authenticates to the admin API using HTTP Digest
Authentication over a TLS-secured connection."

:class:`AdminAPI` is the server side: a route table over
:class:`~repro.otpserver.server.OTPServer` guarded by
:class:`~repro.crypto.digest_auth.DigestVerifier`.  :class:`AdminAPIClient`
is the portal side: it answers a 401 digest challenge once and signs later
requests under the same nonce, never sending the admin password itself.
The transport is a direct call (our stand-in for HTTPS on a private
network), but request and response shapes are those of a JSON-over-HTTP API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import NotFoundError, ProtocolError, ValidationError
from repro.crypto.digest_auth import DigestClient, DigestCredentials, DigestVerifier
from repro.otpserver.server import OTPServer


@dataclass
class APIResponse:
    """An HTTP-shaped response: status code, JSON-ish body, challenge."""

    status: int
    body: Dict[str, Any] = field(default_factory=dict)
    challenge: Optional[object] = None  # DigestChallenge on 401


Handler = Callable[[Dict[str, Any]], Dict[str, Any]]


class AdminAPI:
    """Server side of the admin REST interface."""

    REALM = "LinOTP admin area"

    def __init__(self, server: OTPServer, rng: Optional[random.Random] = None) -> None:
        self.server = server
        self._verifier = DigestVerifier(self.REALM, rng=rng)
        self._routes: Dict[Tuple[str, str], Handler] = {
            ("POST", "/admin/init"): self._handle_init,
            ("POST", "/admin/remove"): self._handle_remove,
            ("POST", "/admin/resync"): self._handle_resync,
            ("POST", "/admin/reset"): self._handle_reset,
            ("GET", "/admin/show"): self._handle_show,
            ("GET", "/admin/status"): self._handle_status,
            ("POST", "/validate/check"): self._handle_validate,
        }
        self.request_count = 0

    def add_admin(self, username: str, password: str) -> None:
        """Register an API credential (the portal's service account)."""
        self._verifier.add_user(username, password)

    def request(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        credentials: Optional[DigestCredentials] = None,
    ) -> APIResponse:
        """Dispatch one request.  Without valid credentials the response is
        a 401 carrying a fresh digest challenge, like a real HTTP stack."""
        self.request_count += 1
        params = params or {}
        if credentials is None or not self._verifier.verify(credentials, method, path):
            return APIResponse(401, {"error": "unauthorized"}, self._verifier.challenge())
        handler = self._routes.get((method, path))
        if handler is None:
            return APIResponse(404, {"error": f"no route {method} {path}"})
        try:
            body = handler(params)
        except (ValidationError, ProtocolError) as exc:
            return APIResponse(400, {"error": str(exc)})
        except NotFoundError as exc:
            return APIResponse(404, {"error": str(exc)})
        return APIResponse(200, body)

    # -- handlers -------------------------------------------------------------

    def _handle_init(self, params: Dict[str, Any]) -> Dict[str, Any]:
        user = _require(params, "user")
        token_type = _require(params, "type")
        if token_type == "soft":
            serial, secret = self.server.enroll_soft(user)
            return {"serial": serial, "otpkey": secret.hex()}
        if token_type == "sms":
            serial = self.server.enroll_sms(user, _require(params, "phone"))
            return {"serial": serial}
        if token_type == "hard":
            serial = self.server.assign_hard(user, _require(params, "serial"))
            return {"serial": serial}
        if token_type == "static":
            serial = self.server.enroll_static(user, _require(params, "otpkey"))
            return {"serial": serial}
        if token_type == "honey":
            serial, secret = self.server.enroll_honeytoken(user)
            return {"serial": serial, "otpkey": secret.hex()}
        if token_type == "federated":
            serial = self.server.enroll_federated(
                user, _require(params, "principal"),
                step_up_code=params.get("otpkey"),
            )
            return {"serial": serial}
        raise ValidationError(f"unknown token type {token_type!r}")

    def _handle_remove(self, params: Dict[str, Any]) -> Dict[str, Any]:
        removed = self.server.unpair(_require(params, "user"))
        return {"removed": removed}

    def _handle_resync(self, params: Dict[str, Any]) -> Dict[str, Any]:
        ok = self.server.resync(
            _require(params, "user"),
            _require(params, "otp1"),
            _require(params, "otp2"),
        )
        return {"resynced": ok}

    def _handle_reset(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cleared = self.server.clear_failcount(_require(params, "user"))
        return {"cleared": cleared}

    def _handle_show(self, params: Dict[str, Any]) -> Dict[str, Any]:
        user = _require(params, "user")
        tokens = [
            {
                "serial": t.serial,
                "type": t.token_type.value,
                "active": t.active,
                "failcount": t.failcount,
                "confirmed": t.pairing_confirmed,
            }
            for t in self.server.user_tokens(user)
        ]
        return {"tokens": tokens}

    def _handle_status(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The operator view: every wired section (storage, policy, and —
        when the deployment has them — resolvers, queue, systems), or the
        one named by ``section``; 404 for a section that is not wired."""
        section = params.get("section")
        if section is not None and not isinstance(section, str):
            raise ValidationError("parameter 'section' must be a string")
        return self.server.status(section)

    def _handle_validate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        result = self.server.validate(
            _require(params, "user"), params.get("pass")
        )
        return {"status": result.status.value, "message": result.reason}


def _require(params: Dict[str, Any], key: str) -> Any:
    if key not in params or params[key] in (None, ""):
        raise ValidationError(f"missing required parameter {key!r}")
    return params[key]


class AdminAPIClient:
    """Portal side: digest-authenticated calls to the admin API."""

    def __init__(
        self,
        api: AdminAPI,
        username: str,
        password: str,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._api = api
        self._digest = DigestClient(username, password, rng=rng)

    def call(
        self, method: str, path: str, params: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One request signed under the last challenge; a 401 (a first call,
        a forgotten nonce) is answered once and the request retried."""
        creds = self._digest.reuse(method, path)
        response = self._api.request(method, path, params, credentials=creds)
        if response.status == 401:
            creds = self._digest.respond(response.challenge, method, path)
            response = self._api.request(method, path, params, credentials=creds)
            if response.status == 401:
                raise ProtocolError("admin API rejected digest credentials")
        elif creds is None:
            # Server accepted without auth — should not happen; treat as
            # protocol violation rather than silently trusting it.
            raise ProtocolError("admin API accepted an unauthenticated request")
        if response.status != 200:
            raise ValidationError(
                response.body.get("error", f"HTTP {response.status}")
            )
        return response.body
