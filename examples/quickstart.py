#!/usr/bin/env python3
"""Quickstart: stand up the MFA infrastructure and log a user in.

Builds the whole deployment in-process — identity/LDAP back end, the OTP
server, a RADIUS farm, one HPC system with login nodes running the
Figure-1 PAM stack — then walks one researcher through soft-token pairing
(QR scan included) and an SSH login with password + token code.

Run:  python examples/quickstart.py
"""

import random

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.qr import decode_matrix, encode, build_otpauth_uri, parse_otpauth_uri
from repro.ssh import SSHClient


def main() -> None:
    # A simulated clock keeps the demo deterministic; pass no clock to use
    # wall time.
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(42))
    stampede = center.add_system("stampede", login_nodes=2, mode="full")
    print("deployment: 3 RADIUS servers, system 'stampede' in full mode\n")

    # 1. An account is created (identity DB + LDAP entry, shared uid).
    center.create_user("cproctor", email="cproctor@tacc.utexas.edu",
                       password="correct horse battery staple")
    print("account created:", center.identity.get("cproctor").uid)

    # 2. Soft-token pairing: the portal would render this QR; the phone
    #    app scans it and starts generating codes.
    serial, secret = center.pair_soft("cproctor")
    uri = build_otpauth_uri(secret, issuer="HPC-Center", account="cproctor")
    qr = encode(uri, level="M")
    print(f"paired soft token {serial}; provisioning QR (version {qr.version}):\n")
    print(qr.to_text(dark="##", light="  ", border=1))
    scanned = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
    phone = TOTPGenerator(secret=scanned.secret, clock=clock)
    print(f"\nphone app imported the secret; current code: {phone.current_code()}")

    # 3. SSH login: password first factor, token code second.
    client = SSHClient(source_ip="198.51.100.7")
    result, conversation = client.connect(
        stampede.login_node(),
        "cproctor",
        password="correct horse battery staple",
        token=phone.current_code,
    )
    print("\nSSH login:", "GRANTED" if result.success else "DENIED")
    print("  first factor: ", result.session_items.get("first_factor"))
    print("  second factor:", result.session_items.get("second_factor"))

    # 4. Replay protection: the same code is dead now.
    replay, _ = client.connect(
        stampede.login_node(), "cproctor",
        password="correct horse battery staple",
        token=phone.current_code(),  # the just-consumed code
    )
    print("replaying the same code:", "GRANTED" if replay.success else "DENIED")

    # 5. The audit trail saw everything.
    uid = center.uid_of("cproctor")
    events = center.otp.audit.entries(user_id=uid)
    print(f"\naudit log for {uid}: "
          f"{[(e.action, e.success) for e in events]}")


if __name__ == "__main__":
    main()
