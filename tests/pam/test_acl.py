"""Exemption ACL: syntax, matching, expiry, ALL wildcards, hot reload."""

import cProfile
import os
import sys
import threading
import time

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.pam.acl import (
    ExemptionACL,
    InMemoryExemptionACL,
    OriginMatcher,
    parse_rules,
)


@pytest.fixture
def clock():
    return VirtualClock.at("2016-09-15T12:00:00")


def acl(text, clock):
    return InMemoryExemptionACL(text, clock=clock)


class TestOriginMatcher:
    def test_single_ip(self):
        m = OriginMatcher.parse("129.114.0.5")
        assert m.matches("129.114.0.5")
        assert not m.matches("129.114.0.6")

    def test_cidr_16(self):
        m = OriginMatcher.parse("129.114.0.0/16")
        assert m.matches("129.114.200.7")
        assert not m.matches("129.115.0.1")

    def test_cidr_24(self):
        m = OriginMatcher.parse("10.3.1.0/24")
        assert m.matches("10.3.1.254")
        assert not m.matches("10.3.2.1")

    def test_cidr_zero_matches_everything(self):
        m = OriginMatcher.parse("0.0.0.0/0")
        assert m.matches("8.8.8.8")

    def test_all_keyword(self):
        assert OriginMatcher.parse("ALL").matches("anything")
        assert OriginMatcher.parse("all").match_all

    def test_invalid_ip(self):
        with pytest.raises(ConfigurationError):
            OriginMatcher.parse("299.1.1.1")
        with pytest.raises(ConfigurationError):
            OriginMatcher.parse("1.2.3")

    def test_invalid_prefix(self):
        with pytest.raises(ConfigurationError):
            OriginMatcher.parse("10.0.0.0/33")

    def test_garbage_candidate_never_matches(self):
        assert not OriginMatcher.parse("10.0.0.0/8").matches("not-an-ip")


class TestDigitsAreAsciiDigits:
    """``str.isdigit()`` says yes to ``²`` (which ``int()`` refuses) and to a
    full-width ``１`` (which ``int()`` reads as 1): neither is an octet, a
    CIDR prefix or — tests/pam/test_framework.py — a PAM jump count."""

    RULE = "+ : alice : 10.0.0.0/8 : ALL"

    def test_superscript_octet_is_no_address_and_raises_nothing(self, clock):
        assert acl(self.RULE, clock).check("alice", "10.1.2.²") is False
        assert not OriginMatcher.parse("10.0.0.0/8").matches("10.1.2.²")

    def test_full_width_spelling_of_a_waived_address_gets_no_waiver(self, clock):
        a = acl(self.RULE, clock)
        assert a.check("alice", "10.1.2.3")
        assert a.check("alice", "１0.1.2.3") is False
        assert a.check("alice", "10.1.2.٣") is False  # Arabic-Indic three

    def test_bad_prefix_in_a_file_fails_closed_with_last_error(self, clock, tmp_path):
        text = "+ : alice : ALL : ALL\n+ : bob : 10.0.0.0/² : ALL\n"
        with pytest.raises(ConfigurationError):
            parse_rules(text)
        in_memory = acl(text, clock)
        assert in_memory.last_error and not in_memory.check("alice", "10.1.2.3")
        path = tmp_path / "mfa_exempt.conf"
        path.write_text(text, encoding="utf-8")
        on_disk = ExemptionACL(str(path), clock=clock)
        assert on_disk.last_error and not on_disk.check("alice", "10.1.2.3")

    @pytest.mark.parametrize(
        "origin",
        ["１0.0.0.0/8", "10.0.0.0/１6", "10.0.0.²", "10.0.0.0/" + "0" * 5000],
        ids=["full-width-octet", "full-width-prefix", "superscript-octet", "5000-digit-prefix"],
    )
    def test_unicode_digits_in_an_origin_are_a_configuration_error(self, origin):
        with pytest.raises(ConfigurationError):
            OriginMatcher.parse(origin)

    def test_an_absurdly_long_octet_is_no_address_either(self, clock):
        # int() refuses more than 4300 digits with a ValueError of its own.
        assert acl(self.RULE, clock).check("alice", "10.1.2." + "9" * 5000) is False


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        rules = parse_rules("# header\n\n+ : alice : ALL : ALL  # trailing\n")
        assert len(rules) == 1

    def test_field_count_enforced(self):
        with pytest.raises(ConfigurationError, match="4"):
            parse_rules("+ : alice : ALL")

    def test_permission_validated(self):
        with pytest.raises(ConfigurationError, match="permission"):
            parse_rules("* : alice : ALL : ALL")

    def test_account_list(self):
        rules = parse_rules("+ : alice,bob , carol : ALL : ALL")
        assert rules[0].accounts == ("alice", "bob", "carol")

    def test_bad_date(self):
        with pytest.raises(ConfigurationError, match="expiry"):
            parse_rules("+ : alice : ALL : someday")

    def test_empty_accounts_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_rules("+ :  : ALL : ALL")


class TestMatching:
    def test_default_deny(self, clock):
        assert not acl("", clock).check("alice", "1.2.3.4")

    def test_account_grant(self, clock):
        a = acl("+ : gateway01 : ALL : ALL", clock)
        assert a.check("gateway01", "8.8.8.8")
        assert not a.check("alice", "8.8.8.8")

    def test_ip_grant(self, clock):
        a = acl("+ : ALL : 129.114.0.0/16 : ALL", clock)
        assert a.check("anyone", "129.114.3.4")
        assert not a.check("anyone", "9.9.9.9")

    def test_combined_account_and_ip(self, clock):
        a = acl("+ : alice : 203.0.113.7 : ALL", clock)
        assert a.check("alice", "203.0.113.7")
        assert not a.check("alice", "203.0.113.8")
        assert not a.check("bob", "203.0.113.7")

    def test_first_match_wins_denial(self, clock):
        """A '-' entry earlier in the file overrides later grants."""
        a = acl(
            "- : mallory : ALL : ALL\n+ : ALL : ALL : ALL\n",
            clock,
        )
        assert not a.check("mallory", "1.2.3.4")
        assert a.check("alice", "1.2.3.4")

    def test_blanket_all_all_all(self, clock):
        a = acl("+ : ALL : ALL : ALL", clock)
        assert a.check("anyone", "anywhere")

    def test_multiple_origins(self, clock):
        a = acl("+ : ALL : 10.3.1.0/24,10.4.1.0/24 : ALL", clock)
        assert a.check("x", "10.3.1.9")
        assert a.check("x", "10.4.1.9")
        assert not a.check("x", "10.5.1.9")


class TestExpiry:
    def test_unexpired_variance(self, clock):
        a = acl("+ : alice : ALL : 2016-10-15", clock)
        assert a.check("alice", "1.2.3.4")

    def test_expired_variance(self, clock):
        a = acl("+ : alice : ALL : 2016-09-01", clock)
        assert not a.check("alice", "1.2.3.4")

    def test_expires_at_end_of_day(self):
        clock = VirtualClock.at("2016-10-15T20:00:00")
        a = acl("+ : alice : ALL : 2016-10-15", clock)
        assert a.check("alice", "1.2.3.4")  # still the named day
        clock.advance(5 * 3600)  # past midnight
        assert not a.check("alice", "1.2.3.4")

    def test_covers_the_last_second_of_the_named_day(self):
        clock = VirtualClock.at("2016-12-31T23:59:59.5")
        a = acl("+ : jdoe : 203.0.113.7 : 2016-12-31", clock)
        assert a.check("jdoe", "203.0.113.7")
        clock.advance(0.5)  # 00:00 UTC of the next day
        assert not a.check("jdoe", "203.0.113.7")

    def test_temporary_variance_expires_in_place(self, clock):
        """The paper's temporary variances expire without a config change."""
        a = acl("+ : alice : ALL : 2016-09-20", clock)
        assert a.check("alice", "1.2.3.4")
        clock.advance(10 * 86400)
        assert not a.check("alice", "1.2.3.4")


class TestHotReload:
    def test_file_acl_reloads_on_change(self, tmp_path, clock):
        path = tmp_path / "mfa_exempt.conf"
        path.write_text("+ : alice : ALL : ALL\n")
        a = ExemptionACL(str(path), clock=clock)
        assert a.check("alice", "1.2.3.4")
        assert not a.check("bob", "1.2.3.4")
        # "Changes take effect immediately upon write to disk."
        path.write_text("+ : bob : ALL : ALL\n")
        os.utime(path, (time.time() + 5, time.time() + 5))  # force mtime change
        assert a.check("bob", "1.2.3.4")
        assert not a.check("alice", "1.2.3.4")

    def test_missing_file_means_no_exemptions(self, tmp_path, clock):
        a = ExemptionACL(str(tmp_path / "nope.conf"), clock=clock)
        assert not a.check("alice", "1.2.3.4")

    def test_parse_error_fails_closed(self, tmp_path, clock):
        path = tmp_path / "mfa_exempt.conf"
        path.write_text("+ : alice : ALL : ALL\n")
        a = ExemptionACL(str(path), clock=clock)
        assert a.check("alice", "1.2.3.4")
        path.write_text("this is : not valid\n")
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert not a.check("alice", "1.2.3.4")  # no exemptions at all
        assert a.last_error is not None

    def test_file_deletion_drops_rules(self, tmp_path, clock):
        path = tmp_path / "mfa_exempt.conf"
        path.write_text("+ : alice : ALL : ALL\n")
        a = ExemptionACL(str(path), clock=clock)
        assert a.check("alice", "1.2.3.4")
        path.unlink()
        assert not a.check("alice", "1.2.3.4")

    def test_in_memory_set_text(self, clock):
        a = InMemoryExemptionACL("", clock=clock)
        assert not a.check("alice", "1.2.3.4")
        a.set_text("+ : alice : ALL : ALL\n")
        assert a.check("alice", "1.2.3.4")

    def test_in_memory_parse_error_fails_closed(self, clock):
        a = InMemoryExemptionACL("+ : alice : ALL : ALL\n", clock=clock)
        a.set_text("garbage")
        assert not a.check("alice", "1.2.3.4")
        assert a.last_error


class TestAppend:
    def test_append_adds_a_rule_after_the_others(self, clock):
        a = acl("- : mallory : ALL : ALL\n", clock)
        a.append("+ : ALL : 10.0.0.0/8 : ALL")
        a.append("+ : mallory,bob : 8.8.8.8 : 2016-09-15")
        assert a.check("alice", "10.1.2.3")
        assert not a.check("mallory", "10.1.2.3")  # the earlier denial wins
        assert a.check("bob", "8.8.8.8")
        assert [r.lineno for r in a.rules()] == [1, 2, 3]

    @pytest.mark.parametrize(
        "line",
        [
            "+ : alice : ALL",
            "* : alice : ALL : ALL",
            "+ : alice : 10.0.0.0/33 : ALL",
            "+ : alice : ALL : someday",
            "+ : alice : ALL : ALL\n+ : ALL : ALL : ALL",
        ],
    )
    def test_a_malformed_line_raises_and_changes_nothing(self, clock, line):
        a = acl("+ : alice : 10.0.0.0/8 : ALL\n", clock)
        before = a.rules()
        with pytest.raises(ConfigurationError):
            a.append(line)
        assert a.rules() == before
        assert a.last_error is None
        assert a.check("alice", "10.1.2.3")
        assert not a.check("bob", "10.1.2.3")
        a.append("+ : bob : ALL : ALL")
        assert a.check("bob", "10.1.2.3")
        assert a.rules()[-1].lineno == 2


    def test_concurrent_appends_lose_no_rule(self, clock):
        """Four writers append while two readers check: every rule lands at
        its own position and grants its account."""
        a = acl("- : mallory : ALL : ALL\n", clock)
        writers, per_writer = 4, 150
        stop = threading.Event()
        granted_mallory = []

        def write(w):
            for i in range(per_writer):
                a.append(f"+ : u{w}x{i} : ALL : ALL")

        def read():
            while not stop.is_set():
                if a.check("mallory", "10.1.2.3"):
                    granted_mallory.append(True)
                a.check("u0x0", "10.1.2.3")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            readers = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads + readers:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + readers)
        assert not granted_mallory
        rules = a.rules()
        assert len(rules) == 1 + writers * per_writer
        assert sorted(r.lineno for r in rules) == list(range(1, len(rules) + 1))
        for w in range(writers):
            for i in range(per_writer):
                assert a.check(f"u{w}x{i}", "10.1.2.3")


def _calls(acl_, username, ip):
    """``acl_.check(username, ip)`` and the interpreter calls it made."""
    profiler = cProfile.Profile()
    granted = profiler.runcall(acl_.check, username, ip)
    return granted, sum(entry.callcount for entry in profiler.getstats())


class TestCheckCost:
    @pytest.mark.parametrize(
        "username, ip, granted",
        [("alice", "198.51.100.7", True), ("alice", "8.8.8.8", False)],
    )
    def test_a_check_costs_the_same_at_2000_rules_as_at_one(
        self, clock, username, ip, granted
    ):
        """The only match is the last rule: a walk tries every rule first."""
        shapes = [
            "+ : user{i} : 129.114.{a}.0/24 : ALL",
            "+ : ALL : 203.0.{a}.{b} : 2016-01-31",
            "- : user{i} : ALL : ALL",
            "+ : user{i},other : 10.{a}.0.0/16,192.0.2.{a} : ALL",
        ]
        lines = [shapes[i % 4].format(i=i, a=i % 250, b=i // 250) for i in range(1999)]
        last = "+ : alice : 198.51.100.0/24 : ALL"
        large = acl("\n".join(lines + [last]), clock)
        assert len(large.rules()) == 2000
        assert _calls(large, username, ip) == _calls(acl(last, clock), username, ip)
        assert large.check(username, ip) is granted


class TestConversationBase:
    def test_base_class_is_abstract(self):
        from repro.pam.conversation import Conversation

        base = Conversation()
        for method, args in (
            ("prompt_echo_off", ("p",)),
            ("prompt_echo_on", ("p",)),
            ("info", ("m",)),
            ("error", ("m",)),
        ):
            with pytest.raises(NotImplementedError):
                getattr(base, method)(*args)
