#!/usr/bin/env python3
"""Gateway and community accounts: automated workflows under MFA.

Section 2's challenge: science gateways and community accounts "negotiate
in an automated fashion on behalf of these users" and must keep running
when MFA becomes mandatory.  This example shows the paper's answer — the
exemption ACL — plus the mitigations interactive power-users adopted
(SSH multiplexing, moving cron onto login nodes), and what happens to an
unprepared scripted workflow.

Run:  python examples/gateway_workflows.py
"""

import random

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import AccountClass
from repro.ssh import KeyPair, SSHClient


def main() -> None:
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(7))
    stampede = center.add_system("stampede", mode="full")
    node = stampede.login_node()

    # --- A science gateway: public key + a scoped, permanent exemption ----
    center.create_user("sciencegw", account_class=AccountClass.GATEWAY)
    gateway_key = KeyPair.generate(comment="gateway service key",
                                   rng=random.Random(1))
    node.authorize_key("sciencegw", gateway_key)
    stampede.add_exemption(accounts="sciencegw", origins="203.0.113.0/24")
    print("exemption ACL now:")
    for rule in stampede.acl.rules():
        sign = "+" if rule.grant else "-"
        accounts = ",".join(rule.accounts) or "ALL"
        origins = ",".join(o.raw for o in rule.origins)
        expiry = rule.expiry.date().isoformat() if rule.expiry else "ALL"
        print(f"  {sign} : {accounts} : {origins} : {expiry}")

    gateway = SSHClient(source_ip="203.0.113.50")
    ok = gateway.run_batch(node, "sciencegw", 50, key=gateway_key)
    print(f"\ngateway ran {ok}/50 automated jobs — no MFA prompt, no password")

    rogue = SSHClient(source_ip="8.8.8.8")  # outside the exempted subnet
    result, _ = rogue.connect(node, "sciencegw", key=gateway_key)
    print(f"same key from outside the exempted range: "
          f"{'GRANTED' if result.success else 'DENIED'}")

    # --- An unprepared scripted workflow breaks at the deadline -----------
    center.create_user("datamover", password="pw")
    center.pair_soft("datamover")
    cron = SSHClient(source_ip="198.51.100.99")
    ok = cron.run_batch(node, "datamover", 10, password="pw")  # no token!
    print(f"\nscripted sftp loop without a token source: {ok}/10 succeeded")

    # --- Mitigation 1: SSH multiplexing ------------------------------------
    center.create_user("poweruser", password="pw")
    _, secret = center.pair_soft("poweruser")
    device = TOTPGenerator(secret=secret, clock=clock)
    mux = SSHClient(source_ip="198.51.100.100", multiplex=True)
    result, _ = mux.connect(node, "poweruser", password="pw",
                            token=device.current_code)
    ok = mux.run_batch(node, "poweruser", 50)
    print(f"\nmultiplexing: 1 MFA authentication, then {ok}/50 channels reused "
          f"({len(node.authlog.recent(3600, event='multiplexed_channel'))} "
          f"channel events logged)")

    # --- Mitigation 2: temporary variance while a group migrates ----------
    center.create_user("legacylab", password="pw")
    stampede.add_exemption(accounts="legacylab", origins="ALL",
                           expiry="2016-10-20")
    legacy = SSHClient(source_ip="198.51.100.101")
    result, _ = legacy.connect(node, "legacylab", password="pw")
    print(f"\ntemporary variance until 2016-10-20: "
          f"{'GRANTED' if result.success else 'DENIED'} today")
    clock.advance(30 * 86400)
    result, _ = legacy.connect(node, "legacylab", password="pw", token="000000")
    print(f"after the variance lapses: "
          f"{'GRANTED' if result.success else 'DENIED'} (no staff action needed)")

    # --- Internal traffic flows freely -------------------------------------
    internal = SSHClient(source_ip=f"{stampede.ip_prefix}.200")
    result, _ = internal.connect(node, "poweruser", password="pw")
    print(f"\ncompute-node -> login-node hop (internal subnet): "
          f"{'GRANTED' if result.success else 'DENIED'}, "
          f"exempt={result.session_items.get('mfa_exempt', False)}")


if __name__ == "__main__":
    main()
