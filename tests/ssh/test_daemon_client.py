"""SSH daemon + client: first factor, retries, banners, multiplexing."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.crypto.totp import TOTPGenerator
from repro.core import MFACenter
from repro.ssh.client import PromptAnswers, SSHClient
from repro.ssh.keys import KeyPair


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def rig(clock):
    center = MFACenter(clock=clock, rng=random.Random(1))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    serial, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)

    class Rig:
        pass

    r = Rig()
    r.center, r.system, r.device = center, system, device
    r.node = system.login_node()
    return r


class TestFirstFactor:
    def test_password_login(self, rig):
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            rig.node, "alice", password="pw", token=rig.device.current_code
        )
        assert result.success
        assert result.session_items["first_factor"] == "password"

    def test_password_retry_budget(self, rig, clock):
        """Three password attempts, as sshd restarts the PAM stack."""
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            rig.node, "alice", password="wrong", token=rig.device.current_code
        )
        assert not result.success
        assert result.password_attempts == 3

    def test_second_attempt_can_succeed(self, rig, clock):
        answers = iter(["wrong", "pw"])
        conversation_answers = {"password": lambda: next(answers),
                                "token code": rig.device.current_code}
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            rig.node, "alice", extra_answers=conversation_answers
        )
        assert result.success
        assert result.password_attempts == 2

    def test_pubkey_skips_password(self, rig, clock):
        key = KeyPair.generate(rng=random.Random(2))
        rig.node.authorize_key("alice", key)
        client = SSHClient("198.51.100.7")
        result, conversation = client.connect(
            rig.node, "alice", key=key, token=rig.device.current_code
        )
        assert result.success
        assert result.session_items["first_factor"] == "publickey"
        assert not any("assword" in p for p in conversation.prompts_seen)

    def test_unauthorized_key_falls_back_to_password(self, rig):
        key = KeyPair.generate(rng=random.Random(3))  # never authorized
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            rig.node, "alice", key=key, password="pw", token=rig.device.current_code
        )
        assert result.success
        assert result.session_items["first_factor"] == "password"

    def test_unknown_account_rejected(self, rig):
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(rig.node, "ghost", password="pw", token="123456")
        assert not result.success

    def test_banner_displayed(self, rig):
        client = SSHClient("198.51.100.7")
        _, conversation = client.connect(
            rig.node, "alice", password="pw", token=rig.device.current_code
        )
        assert any("multi-factor" in m for m in conversation.displayed)


class TestLoggingAndCounters:
    def test_session_open_logged_with_tty(self, rig):
        client = SSHClient("198.51.100.7")
        client.connect(rig.node, "alice", password="pw",
                       token=rig.device.current_code, tty=True)
        entries = rig.node.authlog.recent(60, event="session_open")
        assert entries and entries[-1].tty

    def test_failure_logged(self, rig):
        client = SSHClient("198.51.100.7")
        client.connect(rig.node, "alice", password="nope", token="000000")
        assert rig.node.authlog.recent(60, event="auth_failure")

    def test_counters(self, rig, clock):
        client = SSHClient("198.51.100.7")
        client.connect(rig.node, "alice", password="pw", token=rig.device.current_code)
        clock.advance(31)
        client.connect(rig.node, "alice", password="bad", token="000000")
        assert rig.node.logins_accepted == 1
        assert rig.node.logins_rejected == 1


class TestMultiplexing:
    def test_channels_reuse_master(self, rig):
        client = SSHClient("198.51.100.7", multiplex=True)
        result, _ = client.connect(
            rig.node, "alice", password="pw", token=rig.device.current_code
        )
        assert result.success
        accepted_before = rig.node.logins_accepted
        assert client.run_batch(rig.node, "alice", 20) == 20
        # No new authentications happened.
        assert rig.node.logins_accepted == accepted_before
        channels = rig.node.authlog.recent(60, event="multiplexed_channel")
        assert len(channels) == 20

    def test_non_multiplexed_batch_fails_without_token(self, rig):
        """The scripted-workflow breakage: no token provider, no entry."""
        client = SSHClient("198.51.100.7", multiplex=False)
        assert client.run_batch(rig.node, "alice", 5, password="pw") == 0

    def test_master_reconnects_after_daemon_drop(self, rig, clock):
        client = SSHClient("198.51.100.7", multiplex=True)
        result, _ = client.connect(
            rig.node, "alice", password="pw", token=rig.device.current_code
        )
        rig.node.disconnect(result.connection_id)
        clock.advance(31)
        result2, _ = client.connect(
            rig.node, "alice", password="pw", token=rig.device.current_code
        )
        assert result2.success
        assert result2.connection_id != result.connection_id

    def test_disconnect_all(self, rig):
        client = SSHClient("198.51.100.7", multiplex=True)
        client.connect(rig.node, "alice", password="pw", token=rig.device.current_code)
        assert rig.node.open_connections()
        client.disconnect_all()
        assert not rig.node.open_connections()


class TestPromptAnswers:
    def test_substring_routing(self):
        conversation = PromptAnswers({"password": "pw", "token": "123456"})
        assert conversation.prompt_echo_off("Password: ") == "pw"
        assert conversation.prompt_echo_off("TACC Token Code: ") == "123456"

    def test_callable_answers(self):
        calls = []
        conversation = PromptAnswers({"token": lambda: calls.append(1) or "999999"})
        assert conversation.prompt_echo_off("Token Code: ") == "999999"
        assert calls == [1]

    def test_unmatched_hidden_prompt_aborts(self):
        from repro.pam.conversation import ConversationError

        conversation = PromptAnswers({})
        with pytest.raises(ConversationError):
            conversation.prompt_echo_off("Token Code: ")

    def test_unmatched_visible_prompt_returns_empty(self):
        conversation = PromptAnswers({})
        assert conversation.prompt_echo_on("Press return: ") == ""
