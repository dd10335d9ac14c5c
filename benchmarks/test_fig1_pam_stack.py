"""FIG1 — Figure 1: the PAM authentication stack decision tree.

Reproduces the figure by exhaustively walking every path through a real
Figure-1 stack (public key? -> password? -> exemption? -> token?) and
printing the verdict table, then benchmarks the latency of the complete
stack on the hot paths.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ssh import KeyPair, SSHClient

CASES = [
    # (pubkey, password_ok, exempt, paired+code_ok, expected_success)
    ("pubkey", None, True, None, True),     # gateway fast path
    ("pubkey", None, False, True, True),    # key + token
    ("pubkey", None, False, False, False),  # key + bad token
    (None, True, True, None, True),         # password + exemption
    (None, True, False, True, True),        # password + token
    (None, True, False, False, False),      # password + bad token
    (None, False, None, None, False),       # bad password: never reaches MFA
]


@pytest.fixture(scope="module")
def world():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1))
    system = center.add_system("stampede", mode="full")
    users = {}
    for i, (pubkey, pw_ok, exempt, token_ok, _) in enumerate(CASES):
        name = f"case{i}"
        center.create_user(name, password="pw")
        key = None
        if pubkey:
            key = KeyPair.generate(rng=random.Random(100 + i))
            for node in system.daemons:
                node.authorize_key(name, key)
        if exempt:
            system.add_exemption(accounts=name, origins="ALL")
        device = None
        if token_ok is not None:
            _, secret = center.pair_soft(name)
            device = TOTPGenerator(secret=secret, clock=clock)
        users[name] = (key, device)

    class World:
        pass

    w = World()
    w.clock, w.center, w.system, w.users = clock, center, system, users
    return w


def run_case(world, index):
    pubkey, pw_ok, exempt, token_ok, expected = CASES[index]
    name = f"case{index}"
    key, device = world.users[name]
    world.clock.advance(31)
    client = SSHClient("198.51.100.50")
    token = None
    if token_ok is True:
        token = device.current_code
    elif token_ok is False:
        token = "000000"
    password = "pw" if pw_ok or pw_ok is None else "wrong"
    result, _ = client.connect(
        world.system.login_node(), name,
        password=password if pubkey is None else None,
        key=key, token=token,
    )
    return result.success, expected


class TestFigure1Paths:
    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_path_verdict(self, world, index):
        got, expected = run_case(world, index)
        assert got == expected, CASES[index]

    def test_print_decision_table(self, world):
        print("\n=== Figure 1: PAM stack decision tree (path -> verdict) ===")
        header = f"{'pubkey':>8} {'password':>9} {'exempt':>7} {'token':>6} {'entry':>7}"
        print("   ", header)

        def fmt(v):
            return "-" if v is None else ("yes" if v else "no")

        for i, (pubkey, pw, exempt, token, expected) in enumerate(CASES):
            got, _ = run_case(world, i)
            print(
                f"    {fmt(pubkey is not None):>8} {fmt(pw):>9} "
                f"{fmt(exempt):>7} {fmt(token):>6} "
                f"{'GRANTED' if got else 'DENIED':>7}"
            )
            assert got == expected


class TestFigure1Latency:
    def test_bench_full_stack_token_path(self, benchmark, world):
        """Latency of the complete password+token stack run."""
        def login():
            return run_case(world, 4)

        success, _ = benchmark(login)
        assert success

    def test_bench_exemption_fast_path(self, benchmark, world):
        """The gateway fast path (pubkey + exemption, no RADIUS hop)."""
        def login():
            return run_case(world, 0)

        success, _ = benchmark(login)
        assert success
