#!/usr/bin/env python3
"""The hard-token (Feitian c200) lifecycle (Sections 3.3, 3.5).

Follows a fob from batch manufacture through the web store, international
shipping, serial-number pairing, daily logins, clock drift and admin
resync, to the support-ticket retirement path — plus a training-account
static-code session, the fourth (non-public) token type.

Run:  python examples/hard_token_lifecycle.py
"""

import random

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import AccountClass
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.portal import HardTokenStore, UserPortal
from repro.ssh import SSHClient


def main() -> None:
    clock = VirtualClock.at("2016-08-01T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(9))
    stampede = center.add_system("stampede", mode="full")
    api = AdminAPI(center.otp, rng=random.Random(10))
    api.add_admin("portal-svc", "s3cret")
    portal = UserPortal(
        center.identity,
        AdminAPIClient(api, "portal-svc", "s3cret", rng=random.Random(11)),
        clock=clock,
    )

    # --- batch purchase: pre-programmed secrets arrive with the fobs -------
    batch = center.receive_hard_batch(50)
    print(f"batch of {len(batch)} {batch.vendor} {batch.model} fobs imported; "
          f"purchase cost ${batch.purchase_cost():,.2f}")
    print(f"inventory now holds {len(center.otp.hard_inventory_serials())} "
          f"unassigned serials")

    # --- the web store: $25, shipped to Switzerland -------------------------
    store = HardTokenStore(batch, clock)
    center.create_user("cernuser", email="cernuser@cern.ch", password="pw")
    order = store.order("cernuser", "Switzerland")
    print(f"\norder {order.order_id}: serial {order.serial} -> {order.country}, "
          f"${order.fee_charged:.2f} charged")
    print("delivered yet?", store.delivered_serial("cernuser") is not None)
    clock.advance(10 * 86400)
    serial = store.delivered_serial("cernuser")
    print(f"...10 days later: fob {serial} delivered")

    # --- pairing by the serial on the back of the fob -----------------------
    session = portal.begin_hard_pairing("cernuser", serial)
    fob = TOTPGenerator(secret=batch.secret_for(serial), clock=clock)
    print("pairing confirmed with the fob's current code:",
          portal.confirm_pairing(session.session_id, fob.current_code()))

    # --- daily logins ---------------------------------------------------------
    client = SSHClient(source_ip="192.0.2.33")
    clock.advance(31)
    result, _ = client.connect(stampede.login_node(), "cernuser",
                               password="pw", token=fob.current_code)
    print("SSH login with the fob:", "GRANTED" if result.success else "DENIED")

    # --- a year of clock drift, fixed by admin resync ------------------------
    fob.skew = 1500  # 25 minutes fast: outside the 300 s tolerance
    clock.advance(31)
    result, _ = client.connect(stampede.login_node(), "cernuser",
                               password="pw", token=fob.current_code)
    print(f"\nfob drifted {fob.skew:.0f}s:",
          "GRANTED" if result.success else "DENIED")
    uid = center.uid_of("cernuser")
    resynced = center.otp.resync(
        uid, fob.current_code(), fob.code_at(clock.now() + 30)
    )
    print("admin resync from two consecutive codes:", resynced)
    clock.advance(60)
    result, _ = client.connect(stampede.login_node(), "cernuser",
                               password="pw", token=fob.current_code)
    print("login after resync:", "GRANTED" if result.success else "DENIED")

    # --- retirement: hard tokens are disabled via support ticket -------------
    ticket = portal.open_hard_unpair_ticket("cernuser", "leaving the project")
    portal.staff_resolve_hard_unpair(ticket.ticket_id)
    print(f"\nticket {ticket.ticket_id} resolved: {ticket.resolution}")

    # --- the fourth token type: training accounts ----------------------------
    print("\n--- training workshop ---")
    center.create_user("train01", password="workshop",
                       account_class=AccountClass.TRAINING)
    code = center.pair_training("train01")
    print(f"staff assigned static code {code} to train01 for today's session")
    attendee = SSHClient(source_ip="198.51.100.201")
    result, _ = attendee.connect(stampede.login_node(), "train01",
                                 password="workshop", token=code)
    print("attendee login:", "GRANTED" if result.success else "DENIED")
    new_code = center.pair_training("train01")  # rotated after the session
    print(f"session over; code regenerated ({code} -> {new_code})")
    clock.advance(31)
    result, _ = attendee.connect(stampede.login_node(), "train01",
                                 password="workshop", token=code)
    print("yesterday's code today:", "GRANTED" if result.success else "DENIED")


if __name__ == "__main__":
    main()
