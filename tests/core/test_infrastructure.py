"""MFACenter facade: topology, pairing conveniences, mode switching."""

import os
import random

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, NotFoundError, ValidationError
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import AccountClass
from repro.pam.registry import FIGURE1_CONFIG, figure1_config
from repro.policy import AuthRequest, RiskAction, RiskEngine
from repro.common.resilience import CircuitState
from repro.ssh import KeyPair, SSHClient
from repro.storage import StorageConfig


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def pam_dir():
    """No pam.d directory: login nodes hold their service text in memory.
    The ``...OnFiles`` classes override this with a real directory."""
    return None


@pytest.fixture
def center(clock, pam_dir):
    return MFACenter(clock=clock, rng=random.Random(1), pam_dir=pam_dir)


def policy_modules(daemon):
    """The modules of a node's live stack that evaluate policy."""
    return [e.module for e in daemon.pam_stack.entries if hasattr(e.module, "policy")]


def radius_client(daemon):
    return daemon.pam_stack.entries[-1].module._radius


class TestTopology:
    def test_radius_farm_size(self, clock):
        center = MFACenter(clock=clock, num_radius_servers=5, rng=random.Random(2))
        assert len(center.radius_servers) == 5

    def test_systems_get_distinct_subnets(self, center):
        a = center.add_system("stampede")
        b = center.add_system("wrangler")
        assert a.ip_prefix != b.ip_prefix

    def test_duplicate_system_rejected(self, center):
        center.add_system("stampede")
        with pytest.raises(ValidationError):
            center.add_system("stampede")

    def test_system_lookup(self, center):
        system = center.add_system("stampede")
        assert center.system("stampede") is system
        with pytest.raises(NotFoundError):
            center.system("frontera")

    def test_login_node_count(self, center):
        system = center.add_system("stampede", login_nodes=4)
        assert len(system.daemons) == 4

    def test_nodes_share_system_authlog(self, center):
        system = center.add_system("stampede", login_nodes=2)
        assert system.daemons[0].authlog is system.daemons[1].authlog


class TestPairingConveniences:
    def test_pair_soft_updates_both_databases(self, center):
        center.create_user("alice")
        serial, secret = center.pair_soft("alice")
        assert center.otp.has_pairing(center.uid_of("alice"))
        assert center.identity.get("alice").pairing_status.value == "soft"
        assert center.identity.pairing_type("alice").value == "soft"

    def test_pair_sms(self, center):
        center.create_user("bob")
        center.pair_sms("bob", "5125551234")
        assert center.identity.get("bob").pairing_status.value == "sms"

    def test_pair_hard_from_batch(self, center):
        center.create_user("carol")
        batch = center.receive_hard_batch(3)
        center.pair_hard("carol", batch.serials()[0])
        assert center.identity.get("carol").pairing_status.value == "hard"

    def test_pair_training_returns_code(self, center):
        center.create_user("train01", account_class=AccountClass.TRAINING)
        code = center.pair_training("train01")
        assert len(code) == 6 and code.isdigit()
        assert center.otp.validate("train01", code).ok

    def test_unpair(self, center):
        center.create_user("alice")
        center.pair_soft("alice")
        center.unpair("alice")
        assert not center.otp.has_pairing(center.uid_of("alice"))
        assert center.identity.get("alice").pairing_status.value == "unpaired"


class TestModeSwitch:
    def test_live_mode_switch(self, center, clock):
        system = center.add_system("stampede", mode="paired")
        center.create_user("alice", password="pw")
        client = SSHClient("198.51.100.7")
        node = system.login_node()
        # Unpaired user sails through in paired mode...
        result, _ = client.connect(node, "alice", password="pw")
        assert result.success
        # ...until the admin flips to full.
        system.set_mode("full")
        clock.advance(1)
        result, _ = client.connect(node, "alice", password="pw", token="123456")
        assert not result.success

    def test_mode_switch_back_to_off(self, center, clock):
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(system.login_node(), "alice", password="pw",
                                   token="123456")
        assert not result.success
        system.set_mode("off")
        result, _ = client.connect(system.login_node(), "alice", password="pw")
        assert result.success

    def test_unknown_mode_is_refused_and_changes_nothing(self, center):
        system = center.add_system("stampede", mode="paired")
        text = system.login_node().pam.read_config("sshd")
        ladder = system.policy.ladder
        with pytest.raises(ConfigurationError):
            system.set_mode("ludicrous")
        assert system.mode == "paired"
        assert not system.policy.ladder.config_error
        assert system.policy.ladder is ladder
        assert [d.pam.read_config("sshd") for d in system.daemons] == [text, text]
        with pytest.raises(ConfigurationError):
            center.add_system("lonestar", mode="ludicrous")

    def test_countdown_without_a_deadline_keeps_the_previous_one(self, center):
        system = center.add_system("stampede", mode="countdown", deadline="2016-11-01")
        system.set_mode("full")
        assert system.mode == "full"
        system.set_mode("countdown")
        assert system.mode == "countdown" and not system.policy.ladder.config_error
        assert system.policy.snapshot()["ladder"]["deadline"].startswith("2016-11-01")
        assert "deadline=2016-11-01" in system.login_node().pam.read_config("sshd")

    def test_one_engine_and_one_radius_client_per_node_for_life(self, center):
        """Whatever rewrites the text — ``set_mode`` or a hand edit — the
        next stack is built over the same engine and the same client."""
        system = center.add_system("stampede", mode="paired")
        center.create_user("alice", password="pw")
        engine = system.policy
        clients = [radius_client(d) for d in system.daemons]
        assert len(set(map(id, clients))) == len(system.daemons)

        def check(ladder_mode):
            assert system.policy is engine
            assert system.policy.snapshot()["ladder"]["configured_mode"] == ladder_mode
            for daemon, client in zip(system.daemons, clients):
                modules = policy_modules(daemon)
                assert [m.name for m in modules] == ["pam_mfa_exemption", "pam_mfa_token"]
                assert all(m.policy is engine for m in modules)
                assert radius_client(daemon) is client

        check("paired")
        system.set_mode("off")
        check("off")
        for daemon in system.daemons:  # the hand edit, pushed to every node
            daemon.pam.write_config("sshd", figure1_config("full"))
        result, _ = SSHClient("198.51.100.7").connect(
            system.login_node(), "alice", password="pw", token="000000"
        )
        assert not result.success
        check("full")

    def test_circuit_state_survives_a_mode_switch(self, center):
        """A phase switch must not forget which RADIUS servers are dark."""
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        dark = center.radius_servers[0].address
        center.fabric.unregister(dark)
        node = system.login_node()
        for _ in range(6):
            SSHClient("198.51.100.7").connect(node, "alice", password="pw", token="000000")
        assert radius_client(node).health.state(dark) is CircuitState.OPEN
        system.set_mode("paired")
        system.set_mode("full")
        assert radius_client(node).health.state(dark) is CircuitState.OPEN


class OnFiles:
    """Mixin: the same tests when the text lives in ``pam_dir/<system>/sshd``."""

    @pytest.fixture
    def pam_dir(self, tmp_path):
        return str(tmp_path / "pam.d")


class TestModeSwitchOnFiles(OnFiles, TestModeSwitch):
    pass


class TestExemptionManagement:
    def test_add_exemption_live(self, center):
        system = center.add_system("stampede", mode="full")
        center.create_user("gw", password="pw", account_class=AccountClass.GATEWAY)
        client = SSHClient("203.0.113.5")
        result, _ = client.connect(system.login_node(), "gw", password="pw",
                                   token="000000")
        assert not result.success
        system.add_exemption(accounts="gw", origins="ALL")
        result, _ = client.connect(system.login_node(), "gw", password="pw")
        assert result.success

    def test_internal_traffic_exempt_by_default(self, center):
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        internal = SSHClient(f"{system.ip_prefix}.42")
        result, _ = internal.connect(system.login_node(), "alice", password="pw")
        assert result.success
        assert result.session_items.get("mfa_exempt")

    def test_denial_overrides_grant(self, center):
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        system.add_denial(accounts="alice", origins="ALL")
        system.add_exemption(accounts="ALL", origins="ALL")
        client = SSHClient("198.51.100.9")
        result, _ = client.connect(system.login_node(), "alice", password="pw",
                                   token="000000")
        assert not result.success

    def test_expiring_variance(self, center, clock):
        """The staff 'temporary variance' workflow from Section 4.2."""
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        system.add_exemption(accounts="alice", origins="ALL", expiry="2016-10-20")
        client = SSHClient("198.51.100.9")
        result, _ = client.connect(system.login_node(), "alice", password="pw")
        assert result.success
        clock.advance(30 * 86400)  # the variance lapses
        result, _ = client.connect(system.login_node(), "alice", password="pw",
                                   token="000000")
        assert not result.success

    @pytest.mark.parametrize(
        "add, fields",
        [
            ("add_exemption", {"origins": "10.0.0.0/40"}),
            ("add_exemption", {"accounts": "gw", "expiry": "someday"}),
            ("add_denial", {"accounts": " , "}),
            ("add_exemption", {"accounts": "gw : ALL : ALL\n+ : ALL"}),
        ],
    )
    def test_a_malformed_variance_raises_and_changes_nothing(
        self, center, add, fields
    ):
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        system.add_exemption(accounts="alice", origins="198.51.100.0/24")
        before = system.acl.rules()
        with pytest.raises(ConfigurationError):
            getattr(system, add)(**fields)
        assert system.acl.rules() == before
        internal = SSHClient(f"{system.ip_prefix}.42")
        assert internal.connect(system.login_node(), "alice", password="pw")[0].success
        client = SSHClient("198.51.100.9")
        assert client.connect(system.login_node(), "alice", password="pw")[0].success


class TestExemptionManagementOnFiles(OnFiles, TestExemptionManagement):
    pass


class TestEndToEndAuth:
    def test_radius_username_uid_translation(self, center, clock):
        """RADIUS carries usernames; tokens live under uids — the pipeline's
        ResolveIdentity stage joins them (Section 3.1's shared unique ID)."""
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        _, secret = center.pair_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success

    def test_account_named_with_a_paren_logs_in(self, center, clock):
        """``(uid=al)ice)`` used to be handed to the filter parser raw: the
        ValueError went straight through ``connect``."""
        system = center.add_system("stampede", mode="full")
        center.create_user("al)ice", password="pw")
        _, secret = center.pair_soft("al)ice")
        device = TOTPGenerator(secret=secret, clock=clock)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "al)ice", password="pw", token=device.current_code
        )
        assert result.success
        result, _ = client.connect(
            system.login_node(), "al)ice", password="pw", token="000000"
        )
        assert not result.success

    def test_account_named_star_gets_its_own_pairing_type(self, center):
        """``(uid=*)`` is a presence filter: the unpaired ``*`` account was
        answered with the first directory entry's pairing and challenged."""
        system = center.add_system("stampede", mode="paired")
        center.create_user("alice", password="pw")
        center.pair_soft("alice")
        center.create_user("*", password="pw")
        client = SSHClient("198.51.100.7")
        result, conversation = client.connect(system.login_node(), "*", password="pw")
        assert result.success  # unpaired in `paired` mode: no token asked
        assert not any("Token" in prompt for prompt in conversation.prompts_seen)
        assert not client.connect(system.login_node(), "alice", password="pw")[0].success

    def test_connect_never_raises_whatever_the_login_name(self, center):
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        center.pair_soft("alice")
        node = system.login_node()
        client = SSHClient("198.51.100.7")

        @settings(max_examples=100, deadline=None)
        @given(name=st.text())
        @example(name="*")
        @example(name="al)ice")
        @example(name="a)(uid=alice")
        @example(name="alice\\")
        @example(name="\x00")
        def check(name):
            counted = node.logins_accepted + node.logins_rejected
            result, _ = client.connect(node, name, password="pw", token="000000")
            assert not result.success
            assert node.logins_accepted + node.logins_rejected == counted + 1

        check()

    def test_unknown_user_gets_no_token_path(self, center):
        response = center.radius_backend.validate("ghost", "123456")
        assert response.status.value == "no_token"

    def test_re_paired_sms_user_gets_a_fresh_challenge(self, clock):
        """The pipeline sees the login *name*, yet challenge rows must be
        keyed like the admin operations that clear them (by uid): an
        unpair takes the old pairing's outstanding challenge with it, or
        the new pairing's first null request answers "already sent" and
        texts nobody."""
        center = MFACenter(clock=clock, rng=random.Random(1))
        center.create_user("alice", password="pw")
        center.pair_sms("alice", "5125550001")
        first = center.radius_backend.validate("alice", None)
        assert first.status.value == "challenge_sent"
        center.unpair("alice")
        center.pair_sms("alice", "5125550002")
        second = center.radius_backend.validate("alice", None)
        assert second.status.value == "challenge_sent"
        assert center.sms_gateway.messages_sent == 2


PRODUCTION_STACK = dict(storage=StorageConfig(shards=4), ingest=True)


class TestIdentityKeySpaces:
    """One join, one rule: storage keys on the uid, policy on the login name."""

    def test_every_center_resolves_through_the_chain(self, center):
        assert center.resolver_chain is not None
        assert center.otp.resolvers is center.resolver_chain
        assert center.federation_verifier is not None
        assert center.radius_backend is center.otp

    def test_name_looked_up_before_its_account_exists(self, clock):
        """A miss is negative-cached for ``NEGATIVE_TTL``; creating the
        account must drop that entry (the clock never moves here)."""
        center = MFACenter(clock=clock, rng=random.Random(1))
        early = center.radius_backend.validate("alice", "000000")
        assert (early.status.value, early.reason) == ("no_token", "unknown user")
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        assert center.radius_backend.validate("alice", code).ok

    @pytest.mark.parametrize(
        "stack",
        [{}, PRODUCTION_STACK, {"pam_dir": "pam.d"}],
        ids=["default", "production", "pam_dir"],
    )
    def test_wrong_codes_over_ssh_feed_pam_verdict_and_uid_audit(
        self, clock, stack, tmp_path
    ):
        """Risk history is written by the back end and read by PAM under
        the same key (the login name); validate's audit rows land next to
        the admin rows (under the uid)."""
        if "pam_dir" in stack:
            stack = {"pam_dir": str(tmp_path / stack["pam_dir"])}
        center = MFACenter(clock=clock, rng=random.Random(1), risk=True, **stack)
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        _, secret = center.pair_soft("alice")
        client = SSHClient("198.51.100.7")
        for _ in range(3):  # policy.risk.FAILURE_BURST_SIZE
            result, _ = client.connect(
                system.login_node(), "alice", password="pw", token="000000"
            )
            assert not result.success
        verdict = system.policy.evaluate(
            AuthRequest("alice", "198.51.100.7", pairing="soft")
        )
        assert "failure_burst" in verdict.risk_signals
        # ... and the PAM token module itself read that history.
        result, _ = client.connect(
            system.login_node(),
            "alice",
            password="pw",
            token=TOTPGenerator(secret=secret, clock=clock).current_code,
        )
        assert result.success
        assert "failure_burst" in result.session_items["risk_signals"]
        actions = [
            entry.action
            for entry in center.otp.audit.entries(user_id=center.uid_of("alice"))
        ]
        assert actions[0] == "enroll"
        assert actions.count("validate") >= 3
        assert not center.otp.audit.entries(user_id="alice")


#: ``pam_solaris_mfa`` ahead of the Figure-1 lines: the Solaris waiver
#: (public key + exemption) skips the rest, anything else falls through.
SOLARIS_LINE = "auth sufficient pam_solaris_mfa.so\n"


@pytest.fixture(params=["in-memory", "pam_dir", "solaris"])
def stack_kind(request):
    return request.param


@pytest.fixture
def risk_center(stack_kind, clock, tmp_path):
    """A deployment whose risk engine watchlists 203.0.113.0/24 (a step-up
    on its own, a deny on top of a failure burst from a novel origin), on
    every kind of PAM stack."""
    engine = RiskEngine(clock=clock)
    engine.add_watchlist("203.0.113.0/24")
    center = MFACenter(
        clock=clock,
        rng=random.Random(7),
        risk=engine,
        pam_dir=None if stack_kind == "in-memory" else str(tmp_path / "pam.d"),
    )
    center.create_user("alice", password="pw")
    return center


class TestPamSideRisk:
    """The PAM modules evaluate against the system's rules and the
    deployment's risk engine, whatever text the stack was built from."""

    def add_system(self, center, stack_kind, mode):
        system = center.add_system("stampede", mode=mode)
        if stack_kind == "solaris":
            system.login_node().pam.write_config(
                "sshd", SOLARIS_LINE + figure1_config(mode)
            )
        return system

    def test_modules_share_the_system_rules(self, risk_center, stack_kind):
        system = self.add_system(risk_center, stack_kind, "paired")
        modules = policy_modules(system.login_node())
        assert [m.name for m in modules] == (
            ["pam_solaris_mfa"] if stack_kind == "solaris" else []
        ) + ["pam_mfa_exemption", "pam_mfa_token"]
        for module in modules:
            assert module.policy is system.policy
        policy = system.policy
        assert policy.risk is risk_center.risk_stage
        assert policy.exemptions is system.acl
        assert policy.lockout is risk_center.otp.policy.lockout
        assert policy.clock is risk_center.clock
        assert policy.ladder.configured_mode.value == "paired"

    def test_step_up_withholds_the_exemption_waiver(self, risk_center, stack_kind, clock):
        system = self.add_system(risk_center, stack_kind, "full")
        system.add_exemption(accounts="alice")
        _, secret = risk_center.pair_soft("alice")
        node = system.login_node()
        waived, _ = SSHClient("198.51.100.7").connect(node, "alice", password="pw")
        assert waived.success and waived.session_items["mfa_exempt"] is True
        risky = SSHClient("203.0.113.9")
        refused, _ = risky.connect(node, "alice", password="pw")
        assert not refused.success
        code = TOTPGenerator(secret=secret, clock=clock).current_code
        stepped_up, _ = risky.connect(node, "alice", password="pw", token=code)
        assert stepped_up.success
        assert stepped_up.session_items["risk_step_up"] is True
        assert "mfa_exempt" not in stepped_up.session_items

    def test_step_up_withholds_the_waiver_from_a_public_key_login(
        self, risk_center, stack_kind, clock
    ):
        """The Solaris module fuses public key + exemption into one
        ``sufficient`` answer; risk must bind there as it does on Linux."""
        system = self.add_system(risk_center, stack_kind, "full")
        system.add_exemption(accounts="alice")
        _, secret = risk_center.pair_soft("alice")
        node = system.login_node()
        key = KeyPair.generate(rng=random.Random(3))
        node.authorize_key("alice", key)
        source = "203.0.113.9"  # watchlisted
        assert risk_center.risk_stage.assess("alice", source).action is RiskAction.STEP_UP
        refused, _ = SSHClient(source).connect(node, "alice", key=key)
        assert not refused.success
        code = TOTPGenerator(secret=secret, clock=clock).current_code
        stepped_up, _ = SSHClient(source).connect(node, "alice", key=key, token=code)
        assert stepped_up.success
        assert stepped_up.session_items["first_factor"] == "publickey"
        assert "mfa_exempt" not in stepped_up.session_items

    def test_deny_is_refused_before_the_token_prompt(self, risk_center, stack_kind, clock):
        system = self.add_system(risk_center, stack_kind, "full")
        _, secret = risk_center.pair_soft("alice")
        risk_center.risk_stage.record_success("alice", "198.51.100.7")
        for _ in range(3):
            risk_center.risk_stage.record_failure("alice")
        code = TOTPGenerator(secret=secret, clock=clock).current_code
        result, conversation = SSHClient("203.0.113.9").connect(
            system.login_node(), "alice", password="pw", token=code
        )
        assert not result.success
        assert "access denied by policy" in conversation.displayed
        assert not any("token" in p.lower() for p in conversation.prompts_seen)
        assert risk_center.otp.validate_requests == 0


#: Figure 1's ``pam_mfa_exemption`` line: a stack without it is waived, or
#: stepped up, by the token module alone.
EXEMPTION_LINE = "auth sufficient pam_mfa_exemption.so\n"
#: The system's own /24 (ACL-exempt), watchlisted by the tests below.
OWN_ORIGIN = "10.3.1.20"


class TestOneScreenPerSession:
    """A PAM session scores risk and walks the exemption ACL once, however
    many modules ask: one attempt, one flag in the risk engine's log."""

    @pytest.fixture
    def night(self):
        return VirtualClock.at("2016-10-05T03:00:00")  # UTC: an unusual hour

    def watchlisted(self, night, text=None):
        """A risk-on center whose system's own /24 is watchlisted, and its
        paired user's code reader."""
        center = MFACenter(clock=night, rng=random.Random(20160810), risk=True)
        system = center.add_system("stampede", mode="full")
        if text is not None:
            system.login_node().pam.write_config("sshd", text)
        center.create_user("alice", password="hunter2")
        _, secret = center.pair_soft("alice")
        center.risk_stage.add_watchlist("10.3.1.0/24")
        return center, system, TOTPGenerator(secret=secret, clock=night).current_code

    def test_a_stepped_up_mfa_login_is_flagged_once(self, night):
        center, system, code = self.watchlisted(night)
        result, conversation = SSHClient(OWN_ORIGIN).connect(
            system.login_node(), "alice", password="hunter2", token=code
        )
        assert result.success
        assert conversation.prompts_seen == ["Password: ", "Token Code: "]
        assert result.session_items == {
            "first_factor": "password",
            "risk_step_up": True,
            "risk_score": pytest.approx(0.45),
            "risk_signals": ["unusual_hour", "watchlisted_network"],
            "mfa_pairing": "soft",
            "second_factor": "soft",
        }
        stage = center.risk_stage
        # PAM's one screen, then the back end's own verdict on the validate.
        assert (stage.flags_for("alice"), stage.assessed, stage.step_ups) == (1, 2, 1)

    def test_the_solaris_stack_screens_once_too(self, night):
        center, system, code = self.watchlisted(
            night, SOLARIS_LINE + figure1_config("full")
        )
        result, _ = SSHClient(OWN_ORIGIN).connect(
            system.login_node(), "alice", password="hunter2", token=code
        )
        assert result.success and result.session_items["risk_step_up"] is True
        assert "mfa_exempt" not in result.session_items
        assert center.risk_stage.flags_for("alice") == 1

    @pytest.mark.parametrize("stack", ["no exemption line", "solaris"])
    def test_an_exempt_origin_is_still_waived(self, clock, stack):
        center = MFACenter(clock=clock, rng=random.Random(20160810), risk=True)
        system = center.add_system("stampede", mode="full")
        text = figure1_config("full")
        if stack == "solaris":
            text = SOLARIS_LINE + text
        else:
            text = text.replace(EXEMPTION_LINE, "")
        system.login_node().pam.write_config("sshd", text)
        center.create_user("alice", password="hunter2")
        center.pair_soft("alice")
        result, conversation = SSHClient(OWN_ORIGIN).connect(
            system.login_node(), "alice", password="hunter2"
        )
        assert result.success and result.session_items["mfa_exempt"] is True
        assert conversation.prompts_seen == ["Password: "]
        assert center.risk_stage.assessed == 1

    def test_an_exempt_origin_is_stepped_up_without_the_exemption_line(self, night):
        center, system, code = self.watchlisted(
            night, figure1_config("full").replace(EXEMPTION_LINE, "")
        )
        node = system.login_node()
        refused, _ = SSHClient(OWN_ORIGIN).connect(node, "alice", password="hunter2")
        assert not refused.success
        result, conversation = SSHClient(OWN_ORIGIN).connect(
            node, "alice", password="hunter2", token=code
        )
        assert result.success and result.session_items["second_factor"] == "soft"
        assert "mfa_exempt" not in result.session_items
        assert conversation.prompts_seen == ["Password: ", "Token Code: "]


class TestFileBackedPAM:
    """MFACenter(pam_dir=...) drives login-node stacks from pam.d files."""

    def make(self, clock, tmp_path):
        center = MFACenter(
            clock=clock, rng=random.Random(5), pam_dir=str(tmp_path / "pam.d")
        )
        system = center.add_system("stampede", mode="paired")
        center.create_user("alice", password="pw")
        return center, system

    def hand_edit(self, tmp_path, text):
        """What the administrator does: overwrite the file, nothing else."""
        path = tmp_path / "pam.d" / "stampede" / "sshd"
        before = path.stat().st_mtime
        path.write_text(text, encoding="utf-8")
        os.utime(path, (before + 1, before + 1))

    def test_config_file_exists(self, clock, tmp_path):
        _, system = self.make(clock, tmp_path)
        text = (tmp_path / "pam.d" / "stampede" / "sshd").read_text()
        assert "pam_mfa_token.so mode=paired" in text
        assert system.login_node().pam.read_config("sshd") == text

    def test_login_through_file_backed_stack(self, clock, tmp_path):
        center, system = self.make(clock, tmp_path)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(system.login_node(), "alice", password="pw")
        assert result.success  # unpaired + paired mode

    def test_file_edit_takes_effect_next_login(self, clock, tmp_path):
        """The operational act itself: an admin edits the file directly —
        and the system's one engine is what the edit reconfigures."""
        center, system = self.make(clock, tmp_path)
        engine = system.policy
        client = SSHClient("198.51.100.7")
        assert client.connect(system.login_node(), "alice", password="pw")[0].success
        self.hand_edit(tmp_path, figure1_config("full"))
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token="000000"
        )
        assert not result.success
        assert system.policy is engine
        assert system.policy.snapshot()["ladder"]["configured_mode"] == "full"
        assert system.mode == "full"
        for daemon in system.daemons:
            modules = policy_modules(daemon)
            assert len(modules) == 2
            assert all(module.policy is system.policy for module in modules)

    def test_hand_edited_unknown_mode_fails_closed_to_full(self, clock, tmp_path):
        """"If any configuration errors occur, the token module defaults
        to the fourth enforcement mode" — for text ``set_mode`` would have
        refused to write."""
        center, system = self.make(clock, tmp_path)
        self.hand_edit(tmp_path, FIGURE1_CONFIG.format(mode="ludicrous", deadline_opt=""))
        result, _ = SSHClient("198.51.100.7").connect(
            system.login_node(), "alice", password="pw", token="000000"
        )
        assert not result.success
        assert system.mode == "full" and system.policy.ladder.config_error

    def test_broken_edit_denies_logins_until_the_next_good_write(self, clock, tmp_path):
        center, system = self.make(clock, tmp_path)
        node = system.login_node()
        client = SSHClient("198.51.100.7")
        self.hand_edit(
            tmp_path, figure1_config("off").replace("pam_mfa_token", "pam_mfa_tokn")
        )
        result, _ = client.connect(node, "alice", password="pw")
        assert not result.success and result.detail == "auth_err"
        assert node.logins_rejected == 1
        assert system.authlog.entries()[-1].event == "auth_failure"
        assert "unknown module 'pam_mfa_tokn.so'" in node.pam.last_error
        assert system.mode == "paired"  # the broken text set nothing
        self.hand_edit(tmp_path, figure1_config("off"))
        assert client.connect(node, "alice", password="pw")[0].success
        assert node.pam.last_error is None

    def test_deleted_service_file_denies_logins(self, clock, tmp_path):
        center, system = self.make(clock, tmp_path)
        (tmp_path / "pam.d" / "stampede" / "sshd").unlink()
        result, _ = SSHClient("198.51.100.7").connect(
            system.login_node(), "alice", password="pw"
        )
        assert not result.success
        system.set_mode("paired")
        assert SSHClient("198.51.100.7").connect(
            system.login_node(), "alice", password="pw"
        )[0].success

    def test_connect_never_raises_whatever_the_file_says(self, clock, tmp_path):
        center, system = self.make(clock, tmp_path)
        node = system.login_node()
        client = SSHClient("198.51.100.7")

        @settings(max_examples=60, deadline=None)
        @given(body=st.text())
        @example(body="auth requisite pam_mfa_token.so mode=off\nauth required pam_nope.so")
        @example(body="auth [success=1 pam_unix.so")
        @example(body="auth required pam_pubkey_success.so window=soon")
        @example(body="session required pam_unix.so")
        @example(body="\x00\x0c# \u2028auth")
        def check(body):
            counted = node.logins_accepted + node.logins_rejected
            self.hand_edit(tmp_path, body)
            result, _ = client.connect(node, "alice", password="pw", token="000000")
            assert node.logins_accepted + node.logins_rejected == counted + 1
            if node.pam.last_error or not node.pam_stack.entries:
                assert not result.success
                assert system.mode == "paired"

        check()
        self.hand_edit(tmp_path, figure1_config("paired"))
        assert client.connect(node, "alice", password="pw")[0].success

    def test_set_mode_writes_the_file(self, clock, tmp_path):
        center, system = self.make(clock, tmp_path)
        system.set_mode("full")
        assert "mode=full" in system.login_node().pam.read_config("sshd")
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token="000000"
        )
        assert not result.success

    def test_full_mode_with_token_through_files(self, clock, tmp_path):
        center, system = self.make(clock, tmp_path)
        system.set_mode("full")
        _, secret = center.pair_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success
