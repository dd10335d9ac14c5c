"""PAM stack engine: control-flag semantics, jumps, config parsing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.pam.framework import (
    PAMResult,
    PAMSession,
    PAMStack,
    parse_control,
    parse_pam_config,
)


class FixedModule:
    """A module that always returns a fixed result."""

    def __init__(self, result, name="fixed"):
        self.result = result
        self.name = name
        self.calls = 0

    def authenticate(self, session):
        self.calls += 1
        return self.result


def session():
    return PAMSession(username="alice", remote_ip="1.2.3.4")


class TestParseControl:
    def test_keywords(self):
        assert parse_control("required")["success"] == "ok"
        assert parse_control("requisite")["default"] == "die"
        assert parse_control("sufficient")["success"] == "done"
        assert parse_control("optional")["default"] == "ignore"

    def test_bracket_form(self):
        actions = parse_control("[success=2 default=ignore]")
        assert actions["success"] == 2
        assert actions["default"] == "ignore"

    def test_bracket_default_bad(self):
        assert parse_control("[success=ok]")["default"] == "bad"

    def test_unknown_keyword(self):
        with pytest.raises(ConfigurationError):
            parse_control("mandatory")

    def test_malformed_bracket(self):
        with pytest.raises(ConfigurationError):
            parse_control("[success=ok")
        with pytest.raises(ConfigurationError):
            parse_control("[success]")
        with pytest.raises(ConfigurationError):
            parse_control("[success=frobnicate]")

    @pytest.mark.parametrize(
        "count",
        ["²", "１", "٣", "1²", "9" * 5000],
        ids=["superscript", "full-width", "arabic-indic", "mixed", "5000-digits"],
    )
    def test_jump_count_is_ascii_digits(self, count):
        """``"²".isdigit()`` is true and ``int("²")`` raises: accepted at
        parse time, it crashed every login that reached the jump."""
        with pytest.raises(ConfigurationError):
            parse_control(f"[success={count} default=bad]")
        with pytest.raises(ConfigurationError):
            parse_pam_config(
                "sshd", f"auth [success={count} default=bad] pam_a.so", {"pam_a.so": None}
            )

    def test_default_is_filled_in_for_every_return_code(self):
        actions = parse_control("[success=1 default=ignore]")
        assert actions["success"] == 1
        assert {actions[result.value] for result in PAMResult} == {1, "ignore"}
        assert parse_control("requisite")["auth_err"] == "die"


class TestStackSemantics:
    def test_empty_stack_is_config_error(self):
        with pytest.raises(ConfigurationError):
            PAMStack("sshd").authenticate(session())

    def test_single_required_success(self):
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS

    def test_single_required_failure(self):
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.AUTH_ERR))
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR

    def test_required_failure_continues_execution(self):
        """required failures keep running later modules (timing-oracle
        hardening) but the final verdict is failure."""
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.AUTH_ERR))
        later = FixedModule(PAMResult.SUCCESS)
        stack.append("required", later)
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR
        assert later.calls == 1

    def test_requisite_failure_stops_immediately(self):
        stack = PAMStack("sshd")
        stack.append("requisite", FixedModule(PAMResult.AUTH_ERR))
        later = FixedModule(PAMResult.SUCCESS)
        stack.append("required", later)
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR
        assert later.calls == 0

    def test_sufficient_success_short_circuits(self):
        stack = PAMStack("sshd")
        stack.append("sufficient", FixedModule(PAMResult.SUCCESS))
        later = FixedModule(PAMResult.AUTH_ERR)
        stack.append("required", later)
        assert stack.authenticate(session()) is PAMResult.SUCCESS
        assert later.calls == 0

    def test_sufficient_failure_ignored(self):
        stack = PAMStack("sshd")
        stack.append("sufficient", FixedModule(PAMResult.AUTH_ERR))
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS

    def test_sufficient_after_required_failure_does_not_rescue(self):
        """libpam: 'done' only returns success if nothing failed before."""
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.AUTH_ERR))
        stack.append("sufficient", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR

    def test_optional_alone_does_not_grant(self):
        stack = PAMStack("sshd")
        stack.append("optional", FixedModule(PAMResult.AUTH_ERR))
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR

    def test_optional_success_contributes(self):
        stack = PAMStack("sshd")
        stack.append("optional", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS

    def test_jump_skips_modules(self):
        stack = PAMStack("sshd")
        stack.append("[success=1 default=ignore]", FixedModule(PAMResult.SUCCESS))
        skipped = FixedModule(PAMResult.AUTH_ERR, name="skipped")
        stack.append("requisite", skipped)
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS
        assert skipped.calls == 0

    def test_jump_not_taken_on_failure(self):
        stack = PAMStack("sshd")
        stack.append("[success=1 default=ignore]", FixedModule(PAMResult.AUTH_ERR))
        not_skipped = FixedModule(PAMResult.SUCCESS, name="pw")
        stack.append("requisite", not_skipped)
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS
        assert not_skipped.calls == 1

    def test_jump_two(self):
        stack = PAMStack("sshd")
        stack.append("[success=2 default=ignore]", FixedModule(PAMResult.SUCCESS))
        a = FixedModule(PAMResult.AUTH_ERR)
        b = FixedModule(PAMResult.AUTH_ERR)
        stack.append("requisite", a)
        stack.append("requisite", b)
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS
        assert a.calls == 0 and b.calls == 0

    def test_no_verdict_fails_closed(self):
        stack = PAMStack("sshd")
        stack.append("[default=ignore success=ignore]", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR

    def test_session_log_records_modules(self):
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.SUCCESS, name="mod_a"))
        s = session()
        stack.authenticate(s)
        assert s.log == ["mod_a: success"]


class TestConfigParsing:
    REGISTRY = {
        "pam_pass.so": lambda opts: FixedModule(PAMResult.SUCCESS, "pam_pass.so"),
        "pam_fail.so": lambda opts: FixedModule(PAMResult.AUTH_ERR, "pam_fail.so"),
    }

    def test_basic_config(self):
        stack = parse_pam_config(
            "sshd",
            """
            # comment line
            auth required pam_pass.so
            auth sufficient pam_pass.so
            """,
            self.REGISTRY,
        )
        assert len(stack.entries) == 2
        assert stack.authenticate(session()) is PAMResult.SUCCESS

    def test_bracket_control_with_spaces(self):
        stack = parse_pam_config(
            "sshd",
            "auth [success=1 default=ignore] pam_pass.so\n"
            "auth requisite pam_fail.so\n"
            "auth required pam_pass.so\n",
            self.REGISTRY,
        )
        assert stack.authenticate(session()) is PAMResult.SUCCESS

    def test_options_parsed(self):
        captured = {}

        def factory(opts):
            captured.update(opts)
            return FixedModule(PAMResult.SUCCESS, "m")

        parse_pam_config(
            "sshd", "auth required m mode=countdown deadline=2016-10-04", {"m": factory}
        )
        assert captured == {"mode": "countdown", "deadline": "2016-10-04"}

    def test_unknown_module(self):
        with pytest.raises(ConfigurationError, match="unknown module"):
            parse_pam_config("sshd", "auth required pam_mystery.so", self.REGISTRY)

    def test_wrong_facility(self):
        with pytest.raises(ConfigurationError, match="facility"):
            parse_pam_config("sshd", "session required pam_pass.so", self.REGISTRY)

    def test_too_few_fields(self):
        with pytest.raises(ConfigurationError):
            parse_pam_config("sshd", "auth required", self.REGISTRY)


class TestResetAction:
    def test_reset_clears_recorded_failure(self):
        """The [default=reset] action wipes prior verdicts (libpam uses it
        for retry-style stacks)."""
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.AUTH_ERR))
        stack.append("[success=reset default=reset]", FixedModule(PAMResult.SUCCESS))
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.SUCCESS

    def test_reset_then_no_verdict_fails_closed(self):
        stack = PAMStack("sshd")
        stack.append("required", FixedModule(PAMResult.SUCCESS))
        stack.append("[success=reset default=reset]", FixedModule(PAMResult.SUCCESS))
        assert stack.authenticate(session()) is PAMResult.AUTH_ERR
