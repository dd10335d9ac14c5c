"""Cryptographic substrate for the MFA infrastructure.

Implements, from scratch, the primitives the paper's components depend on:

* RFC 4648 base32 (:mod:`repro.crypto.base32`) — the encoding Google
  Authenticator and every OATH tool uses for shared secrets.
* Secret-key generation and sealing (:mod:`repro.crypto.secrets`) — models
  LinOTP's encrypted-at-rest MariaDB secret store.
* RFC 4226 HOTP and RFC 6238 TOTP (:mod:`repro.crypto.hotp`,
  :mod:`repro.crypto.totp`) — the six-digit, 30-second token codes all four
  device types produce, including the ±300 s drift tolerance and the
  resynchronization search LinOTP admins can trigger.
* A prepared-key RFC 2104 HMAC (:mod:`repro.crypto.mac`) — the one batched
  MAC: drift windows, the HOTP look-ahead, resync and the sealer hash a
  key's pad blocks once and MAC many messages in one pass.
* HTTP Digest authentication (:mod:`repro.crypto.digest_auth`) — how the
  portal authenticates to the LinOTP admin REST API.
* HMAC-signed URLs (:mod:`repro.crypto.signing`) — the out-of-band email
  unpairing links.

Only :mod:`hashlib`/:mod:`hmac` from the standard library are used as the
hash core; everything above them is implemented here.
"""

from repro.crypto.base32 import b32decode, b32encode
from repro.crypto.hotp import hotp
from repro.crypto.secrets import SecretSealer, generate_secret
from repro.crypto.totp import TOTPGenerator, TOTPValidator, totp_at

__all__ = [
    "b32encode",
    "b32decode",
    "hotp",
    "totp_at",
    "TOTPGenerator",
    "TOTPValidator",
    "generate_secret",
    "SecretSealer",
]
