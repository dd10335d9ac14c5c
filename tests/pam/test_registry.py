"""Text-driven PAM service management: registry, hot reload, mode flips."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, NotFoundError
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.pam.acl import InMemoryExemptionACL
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMResult, PAMSession
from repro.pam.registry import PAMServiceManager, figure1_config, standard_registry
from repro.policy import PolicyEngine
from repro.ssh.authlog import AuthLog


@pytest.fixture
def clock():
    return VirtualClock.at("2016-09-15T12:00:00")


@pytest.fixture
def pam_dir(tmp_path):
    return str(tmp_path / "pam.d")


@pytest.fixture
def rig(clock, pam_dir):
    center = MFACenter(clock=clock, rng=random.Random(1))
    center.add_system("stampede")  # provides the RADIUS farm wiring
    center.create_user("alice", password="pw")
    authlog = AuthLog(clock)
    acl = InMemoryExemptionACL("", clock=clock)
    policy = PolicyEngine(exemptions=acl, clock=clock)
    registry = standard_registry(
        center.identity, authlog, policy, center.new_radius_client("10.3.1.5")
    )
    manager = PAMServiceManager(pam_dir, registry)

    class Rig:
        pass

    r = Rig()
    r.center, r.manager, r.authlog, r.acl, r.clock = center, manager, authlog, acl, clock
    r.policy = policy  # the one engine every module built by the registry asks
    return r


def session(clock, responses, username="alice"):
    return PAMSession(
        username=username, remote_ip="198.51.100.7",
        conversation=ScriptedConversation(responses), clock=clock,
    )


class TestServiceFiles:
    def test_missing_service_raises(self, rig):
        with pytest.raises(NotFoundError):
            rig.manager.stack("sshd")

    def test_write_and_parse(self, rig):
        rig.manager.write_config("sshd", figure1_config("paired"))
        stack = rig.manager.stack("sshd")
        assert len(stack.entries) == 4

    def test_read_back(self, rig):
        text = figure1_config("countdown", "2016-10-04")
        rig.manager.write_config("sshd", text)
        assert rig.manager.read_config("sshd") == text
        assert "deadline=2016-10-04" in text

    def test_stack_cached_until_file_changes(self, rig):
        rig.manager.write_config("sshd", figure1_config("paired"))
        first = rig.manager.stack("sshd")
        assert rig.manager.stack("sshd") is first
        assert rig.manager.reload_count == 1

    def test_edit_triggers_rebuild(self, rig):
        rig.manager.write_config("sshd", figure1_config("paired"))
        first = rig.manager.stack("sshd")
        rig.manager.write_config("sshd", figure1_config("full"))
        second = rig.manager.stack("sshd")
        assert second is not first
        assert rig.manager.reload_count == 2

    def test_invalid_mode_rejected(self, rig):
        with pytest.raises(ConfigurationError):
            rig.manager.write_config("sshd", figure1_config("ludicrous"))


class TestLivePolicyFlip:
    """"in effect as soon as written to disk" — the whole point."""

    def test_paired_to_full_flip(self, rig):
        rig.manager.write_config("sshd", figure1_config("paired"))
        # Unpaired alice passes under `paired` mode...
        result = rig.manager.authenticate("sshd", session(rig.clock, ["pw"]))
        assert result is PAMResult.SUCCESS
        # ...the admin edits the file...
        rig.manager.write_config("sshd", figure1_config("full"))
        # ...and the very next authentication enforces it.
        result = rig.manager.authenticate("sshd", session(rig.clock, ["pw", "123456"]))
        assert result is PAMResult.AUTH_ERR

    def test_full_mode_with_real_token(self, rig):
        rig.manager.write_config("sshd", figure1_config("full"))
        _, secret = rig.center.pair_soft("alice")
        device = TOTPGenerator(secret=secret, clock=rig.clock)
        result = rig.manager.authenticate(
            "sshd", session(rig.clock, ["pw", device.current_code()])
        )
        assert result is PAMResult.SUCCESS

    def test_countdown_mode_via_file(self, rig):
        rig.manager.write_config(
            "sshd", figure1_config("countdown", deadline="2016-10-04")
        )
        s = session(rig.clock, ["pw", ""])
        assert rig.manager.authenticate("sshd", s) is PAMResult.SUCCESS
        assert s.items["mfa_countdown_days"] == 19

    def test_off_mode_via_file(self, rig):
        rig.manager.write_config("sshd", figure1_config("off"))
        result = rig.manager.authenticate("sshd", session(rig.clock, ["pw"]))
        assert result is PAMResult.SUCCESS

    def test_pubkey_jump_wired_from_file(self, rig):
        rig.manager.write_config("sshd", figure1_config("off"))
        rig.authlog.append("accepted_publickey", "alice", "198.51.100.7")
        s = session(rig.clock, [])  # no password available!
        assert rig.manager.authenticate("sshd", s) is PAMResult.SUCCESS
        assert s.items["first_factor"] == "publickey"

    def test_exemption_wired_from_file(self, rig):
        rig.manager.write_config("sshd", figure1_config("full"))
        rig.acl.set_text("+ : alice : ALL : ALL\n")
        s = session(rig.clock, ["pw"])
        assert rig.manager.authenticate("sshd", s) is PAMResult.SUCCESS
        assert s.items["mfa_exempt"] is True

    def test_per_service_isolation(self, rig):
        rig.manager.write_config("sshd", figure1_config("full"))
        rig.manager.write_config("login", figure1_config("off"))
        assert (
            rig.manager.authenticate("login", session(rig.clock, ["pw"]))
            is PAMResult.SUCCESS
        )
        assert (
            rig.manager.authenticate("sshd", session(rig.clock, ["pw", "000000"]))
            is PAMResult.AUTH_ERR
        )


class InMemory:
    """Mixin: the same semantics when the manager holds the text itself."""

    @pytest.fixture
    def pam_dir(self):
        return None


class TestServiceTextInMemory(InMemory, TestServiceFiles):
    pass


class TestLivePolicyFlipInMemory(InMemory, TestLivePolicyFlip):
    pass


BROKEN_CONFIGS = {
    "typo'd module": figure1_config("off").replace("pam_mfa_token", "pam_mfa_tokn"),
    "bad control": figure1_config("off").replace("requisite", "requisit"),
    "bad option": figure1_config("off").replace(
        "pam_pubkey_success.so", "pam_pubkey_success.so window=soon"
    ),
    "too few fields": "auth requisite\n",
    "no modules": "# everything commented out\n",
}


class TestBrokenEdit:
    """A text that does not parse fails closed and says why."""

    @pytest.mark.parametrize("text", BROKEN_CONFIGS.values(), ids=BROKEN_CONFIGS)
    def test_nothing_authenticates_and_nothing_is_set(self, rig, text):
        rig.manager.write_config("sshd", figure1_config("full"))
        rig.manager.stack("sshd")
        rig.manager.write_config("sshd", text)
        with pytest.raises(ConfigurationError):
            rig.manager.authenticate("sshd", session(rig.clock, ["pw"]))
        assert rig.manager.stack("sshd").entries == []
        # The broken text's mode=off line never reached the ladder.
        assert rig.policy.ladder.configured_mode.value == "full"

    def test_last_error_names_the_line_until_the_next_good_write(self, rig):
        rig.manager.write_config("sshd", BROKEN_CONFIGS["typo'd module"])
        rig.manager.stack("sshd")
        assert "line 6" in rig.manager.last_error
        assert "pam_mfa_tokn.so" in rig.manager.last_error
        assert rig.manager.stack("sshd").entries == []  # cached, not re-parsed
        assert rig.manager.reload_count == 1
        rig.manager.write_config("sshd", figure1_config("off"))
        assert rig.manager.authenticate("sshd", session(rig.clock, ["pw"])) is (
            PAMResult.SUCCESS
        )
        assert rig.manager.last_error is None


class TestOneEngine:
    """Every policy-backed module of every reload asks the registry's
    engine, and the token line is what sets its ladder."""

    def test_token_line_sets_the_ladder(self, rig):
        rig.manager.write_config(
            "sshd", figure1_config("countdown", deadline="2016-10-04")
        )
        stack = rig.manager.stack("sshd")
        assert rig.policy.snapshot()["ladder"]["configured_mode"] == "countdown"
        assert all(
            entry.module.policy is rig.policy
            for entry in stack.entries
            if hasattr(entry.module, "policy")
        )

    def test_hand_edited_unknown_mode_fails_closed_to_full(self, rig):
        rig.manager.write_config("sshd", figure1_config("off"))
        rig.manager.stack("sshd")
        rig.manager.write_config(
            "sshd", figure1_config("off").replace("mode=off", "mode=ludicrous")
        )
        result = rig.manager.authenticate("sshd", session(rig.clock, ["pw", "000000"]))
        assert result is PAMResult.AUTH_ERR
        assert rig.policy.ladder.config_error
        assert rig.policy.ladder.configured_mode.value == "full"

    def test_reload_keeps_the_radius_client(self, rig):
        rig.manager.write_config("sshd", figure1_config("paired"))
        before = rig.manager.stack("sshd").entries[-1].module
        rig.manager.write_config("sshd", figure1_config("full"))
        after = rig.manager.stack("sshd").entries[-1].module
        assert after is not before
        assert after._radius is before._radius
