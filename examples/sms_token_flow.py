#!/usr/bin/env python3
"""The SMS token end to end — pairing, login, pricing, and the delayed-SMS
failure mode (Sections 3.3, 3.5, 5).

Walks the full out-of-band path: portal pairing with a confirmation text,
an SSH login where the "null request" triggers Twilio, the "SMS already
sent" guard, per-message billing, and the carrier stall that delivers a
token code after it has expired.

Run:  python examples/sms_token_flow.py
"""

import random

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.otpserver.sms_gateway import CarrierProfile, SMSGateway
from repro.otpserver.server import OTPServer
from repro.portal import UserPortal
from repro.ssh import SSHClient


def main() -> None:
    clock = VirtualClock.at("2016-09-20T10:00:00")
    center = MFACenter(clock=clock, rng=random.Random(3))
    stampede = center.add_system("stampede", mode="full")

    api = AdminAPI(center.otp, rng=random.Random(4))
    api.add_admin("portal-svc", "s3cret")
    portal = UserPortal(
        center.identity,
        AdminAPIClient(api, "portal-svc", "s3cret", rng=random.Random(5)),
        clock=clock,
    )

    # --- pairing through the portal ---------------------------------------
    center.create_user("texter", email="texter@utexas.edu", password="pw")
    session = portal.begin_sms_pairing("texter", "512-555-0142")
    clock.advance(8)  # carrier delivery
    confirmation = center.sms_gateway.latest("5125550142")
    print("pairing SMS received:", confirmation.body)
    code = confirmation.body.split()[-1]
    print("pairing confirmed:", portal.confirm_pairing(session.session_id, code))

    # --- login: the null request triggers the text -------------------------
    def read_sms():
        clock.advance(8)
        return center.sms_gateway.latest("5125550142").body.split()[-1]

    client = SSHClient(source_ip="198.51.100.70")
    result, conversation = client.connect(
        stampede.login_node(), "texter",
        password="pw", extra_answers={"token code": read_sms},
    )
    print("\nSSH login:", "GRANTED" if result.success else "DENIED")
    for message in conversation.displayed:
        print("  server said:", message)

    # --- "SMS already sent" guard ------------------------------------------
    center.otp.validate("texter", None)  # first null request: sends
    second = center.otp.validate("texter", None)  # second: guarded
    print("\nsecond request while a code is active ->", second.reason)

    # --- billing -------------------------------------------------------------
    gateway = center.sms_gateway
    gateway.bill_month()
    print(f"\nTwilio bill: {gateway.messages_sent} messages, "
          f"${gateway.total_cost():.4f} "
          f"(flat $1/month + $0.0075/message)")

    # --- the delayed-SMS failure (Section 5) --------------------------------
    print("\n--- carrier stall reproduction ---")
    stall_clock = VirtualClock.at("2016-09-20T10:00:00")
    stalled_gateway = SMSGateway(
        stall_clock,
        carrier=CarrierProfile(stall_probability=1.0, stall_delay=700.0),
        rng=random.Random(6),
    )
    otp = OTPServer(clock=stall_clock, sms_gateway=stalled_gateway,
                    rng=random.Random(7))
    otp.enroll_sms("unlucky", "5125559999")
    otp.validate("unlucky", None)
    print("code requested; carrier is sitting on the message ...")
    stall_clock.advance(1400)  # code validity is 300 s
    late = stalled_gateway.latest("5125559999")
    print(f"message finally delivered after "
          f"{late.deliver_at - late.sent_at:.0f}s "
          f"(retries: {late.attempts})")
    result = otp.validate("unlucky", late.body.split()[-1])
    print(f"entering the late code -> {result.reason!r}")
    retry = otp.validate("unlucky", None)
    print(f"user requests a fresh code -> {retry.status.value}")


if __name__ == "__main__":
    main()
