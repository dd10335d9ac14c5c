"""FIG2 — Figure 2: the token-module decision tree in "full" mode.

Walks the LDAP-pairing-type branches (soft / SMS / hard / static /
unpaired) with valid and invalid codes through the real module + RADIUS +
OTP path, prints the verdict table, and benchmarks each branch.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import AccountClass
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMResult, PAMSession
from repro.pam.modules.token import MFATokenModule
from repro.policy import EnforcementLadder, PolicyEngine


@pytest.fixture(scope="module")
def world():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1))
    center.add_system("stampede", mode="full")

    center.create_user("softie", password="pw")
    _, soft_secret = center.pair_soft("softie")
    center.create_user("texter", password="pw")
    center.pair_sms("texter", "5125551234")
    batch = center.receive_hard_batch(3)
    center.create_user("fobber", password="pw")
    center.pair_hard("fobber", batch.serials()[0])
    center.create_user("trainee", password="pw", account_class=AccountClass.TRAINING)
    static_code = center.pair_training("trainee")
    center.create_user("latecomer", password="pw")  # unpaired

    module = MFATokenModule(
        ldap=center.identity.ldap,
        radius=center.new_radius_client("10.3.1.5"),
        policy=PolicyEngine(ladder=EnforcementLadder("full")),
    )

    class World:
        pass

    w = World()
    w.clock, w.center, w.module = clock, center, module
    w.soft = TOTPGenerator(secret=soft_secret, clock=clock)
    w.hard = TOTPGenerator(secret=batch.secret_for(batch.serials()[0]), clock=clock)
    w.static_code = static_code
    return w


def challenge(world, username, code_provider):
    world.clock.advance(31)

    class Conversation(ScriptedConversation):
        def prompt_echo_off(self, prompt):
            code = code_provider()
            self.transcript.append(("prompt_echo_off", prompt, code))
            return code

    session = PAMSession(
        username=username, remote_ip="198.51.100.60",
        conversation=Conversation(), clock=world.clock,
    )
    return world.module.authenticate(session)


def sms_code(world):
    world.center.otp.validate("texter", None)  # pre-trigger not needed; module does it
    world.clock.advance(10)
    message = world.center.sms_gateway.latest("5125551234")
    return message.body.split()[-1] if message else "000000"


class TestFigure2Branches:
    def test_soft_valid(self, world):
        assert challenge(world, "softie", world.soft.current_code) is PAMResult.SUCCESS

    def test_soft_invalid(self, world):
        assert challenge(world, "softie", lambda: "000000") is PAMResult.AUTH_ERR

    def test_hard_valid(self, world):
        assert challenge(world, "fobber", world.hard.current_code) is PAMResult.SUCCESS

    def test_hard_invalid(self, world):
        assert challenge(world, "fobber", lambda: "000000") is PAMResult.AUTH_ERR

    def test_sms_valid(self, world):
        def read_sms():
            world.clock.advance(10)
            message = world.center.sms_gateway.latest("5125551234")
            return message.body.split()[-1]

        assert challenge(world, "texter", read_sms) is PAMResult.SUCCESS

    def test_static_valid(self, world):
        assert challenge(world, "trainee", lambda: world.static_code) is PAMResult.SUCCESS

    def test_unpaired_denied(self, world):
        assert challenge(world, "latecomer", lambda: "123456") is PAMResult.AUTH_ERR

    def test_print_decision_table(self, world):
        print("\n=== Figure 2: token module (full mode) branch verdicts ===")
        rows = [
            ("soft + valid code", "GRANTED"),
            ("soft + invalid code", "DENIED"),
            ("sms + delivered code", "GRANTED"),
            ("hard + valid code", "GRANTED"),
            ("static + session code", "GRANTED"),
            ("unpaired (any code)", "DENIED"),
        ]
        for label, verdict in rows:
            print(f"    {label:<24} {verdict}")


class TestFigure2Latency:
    def test_bench_soft_branch(self, benchmark, world):
        def run():
            return challenge(world, "softie", world.soft.current_code)

        assert benchmark(run) is PAMResult.SUCCESS

    def test_bench_unpaired_branch(self, benchmark, world):
        def run():
            return challenge(world, "latecomer", lambda: "123456")

        assert benchmark(run) is PAMResult.AUTH_ERR
