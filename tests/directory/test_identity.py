"""Identity backend: accounts, shared uid, passwords, pairing notifications."""

import cProfile
import tracemalloc
from dataclasses import fields

import pytest

import repro.directory.identity as identity_module
import repro.directory.ldap as ldap_module
from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError, ValidationError
from repro.directory.identity import (
    Account,
    AccountClass,
    IdentityBackend,
    PairingStatus,
)
from repro.otpserver.audit import AuditLog
from repro.ssh.authlog import AuthLog


@pytest.fixture
def identity():
    backend = IdentityBackend()
    backend.create_account("alice", "alice@utexas.edu", password="hunter2")
    return backend


class TestAccounts:
    def test_create_generates_ldap_entry(self, identity):
        account = identity.get("alice")
        entry = identity.ldap.get(account.dn)
        assert entry.first("uid") == "alice"

    def test_shared_unique_id(self, identity):
        """Section 3.1: the unique user ID is common to both databases."""
        account = identity.get("alice")
        entry = identity.ldap.get(account.dn)
        assert entry.first("uidNumber") == account.uid

    def test_uids_unique(self, identity):
        identity.create_account("bob", "b@x.edu")
        assert identity.get("alice").uid != identity.get("bob").uid

    def test_duplicate_username_rejected(self, identity):
        with pytest.raises(ValidationError):
            identity.create_account("alice", "other@x.edu")

    @pytest.mark.parametrize("name", ["ALICE", "Alice", "aLiCe"])
    def test_a_case_variant_is_refused_before_either_store_is_written(
        self, identity, name
    ):
        # The LDAP DN compares case-blind: the variant's entry would be alice's.
        with pytest.raises(ValidationError, match="already exists"):
            identity.create_account(name, "other@x.edu", password="pw2")
        assert identity.usernames() == ["alice"]
        assert not identity.check_password(name, "pw2")
        assert len(identity.ldap) == 1
        # ... and no uid was spent on it.
        assert identity.create_account("bob", "b@x.edu").uid == "uid-000002"

    def test_get_missing_raises(self, identity):
        with pytest.raises(NotFoundError):
            identity.get("ghost")

    def test_contains(self, identity):
        assert "alice" in identity
        assert "ghost" not in identity

    def test_account_classes(self, identity):
        identity.create_account("gw", "g@x.edu", account_class=AccountClass.GATEWAY)
        assert identity.get("gw").account_class is AccountClass.GATEWAY


class TestPasswords:
    def test_correct_password(self, identity):
        assert identity.check_password("alice", "hunter2")

    def test_wrong_password(self, identity):
        assert not identity.check_password("alice", "wrong")

    def test_unknown_user(self, identity):
        assert not identity.check_password("ghost", "x")

    def test_no_password_set(self, identity):
        identity.create_account("nopw", "n@x.edu")
        assert not identity.check_password("nopw", "")

    def test_inactive_account_rejected(self, identity):
        identity.get("alice").active = False
        assert not identity.check_password("alice", "hunter2")

    def test_hash_not_plaintext(self, identity):
        assert "hunter2" not in identity.get("alice").password_hash

    def test_same_password_different_users_different_hash(self, identity):
        identity.create_account("bob", "b@x.edu", password="hunter2")
        assert identity.get("alice").password_hash != identity.get("bob").password_hash

    def test_hash_input_is_not_ambiguous(self, identity):
        # Password and salt are separate KDF arguments, not one joined string:
        # nothing forbids ":" in a login name.
        identity.create_account("a", "a@x.edu", password="b:c")
        identity.create_account("a:b", "ab@x.edu", password="c")
        assert identity.get("a").password_hash != identity.get("a:b").password_hash

    @pytest.mark.parametrize(
        "username, password, verdict",
        [
            ("alice", "hunter2", True),
            ("alice", "wrong", False),
            ("ghost", "hunter2", False),
            ("retired", "hunter2", False),
            ("nopw", "", False),
            ("", "", False),  # the very input the stand-in hash was made from
        ],
    )
    def test_one_kdf_call_whatever_the_account_state(
        self, identity, username, password, verdict
    ):
        """No account enumeration by timing: counted by the profiler, not
        the clock — the KDF is the ~300 µs, everything else is ~1 µs."""
        identity.create_account("retired", "r@x.edu", password="hunter2")
        identity.get("retired").active = False
        identity.create_account("nopw", "n@x.edu")
        profiler = cProfile.Profile()
        answer = profiler.runcall(identity.check_password, username, password)
        assert answer is verdict
        for builtin in ("pbkdf2_hmac", "compare_digest"):
            calls = [e.callcount for e in profiler.getstats() if builtin in str(e.code)]
            assert calls == [1], builtin


class TestPublicKeys:
    def test_add_and_check(self, identity):
        identity.add_public_key("alice", "SHA256:abc")
        assert identity.has_public_key("alice", "SHA256:abc")

    def test_missing_key(self, identity):
        assert not identity.has_public_key("alice", "SHA256:nope")

    def test_idempotent_add(self, identity):
        identity.add_public_key("alice", "SHA256:abc")
        identity.add_public_key("alice", "SHA256:abc")
        assert identity.get("alice").public_keys == ("SHA256:abc",)


class TestPairingNotifications:
    def test_notify_updates_account_and_ldap(self, identity):
        identity.notify_pairing("alice", PairingStatus.SOFT)
        assert identity.get("alice").pairing_status is PairingStatus.SOFT
        assert identity.pairing_type("alice") is PairingStatus.SOFT

    def test_ldap_attribute_updated(self, identity):
        identity.notify_pairing("alice", PairingStatus.SMS)
        entry = identity.ldap.get(identity.get("alice").dn)
        assert entry.first("mfaPairingType") == "sms"

    def test_unpair_notification(self, identity):
        identity.notify_pairing("alice", PairingStatus.SOFT)
        identity.notify_pairing("alice", PairingStatus.UNPAIRED)
        assert identity.pairing_type("alice") is PairingStatus.UNPAIRED


class TestFootprint:
    ACCOUNTS = 5_000

    @pytest.fixture(scope="class")
    def held(self):
        """Bytes per account that each directory module still holds after
        ``ACCOUNTS`` accounts are created and paired."""
        tracemalloc.start()
        try:
            backend = IdentityBackend()
            for n in range(self.ACCOUNTS):
                backend.create_account(f"user{n:05d}", f"user{n:05d}@center.edu")
                backend.notify_pairing(f"user{n:05d}", PairingStatus.SOFT)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert len(backend.ldap) == self.ACCOUNTS
        per_account = {}
        for module in (ldap_module, identity_module):
            traces = snapshot.filter_traces([tracemalloc.Filter(True, module.__file__)])
            total = sum(stat.size for stat in traces.statistics("filename"))
            per_account[module] = total / self.ACCOUNTS
        return per_account

    def test_directory_bytes_per_account(self, held):
        """An account's LDAP entry holds its data, not one attribute-name
        string per entry, a value list per attribute, its own copy of the
        values every account repeats or a second copy of its lower-case
        name in the ``uid`` index."""
        assert held[ldap_module] <= 650

    def test_account_record_bytes_per_account(self, held):
        """An account record is its fields: no instance dict, and no list
        for the keys a keyless account does not have."""
        assert held[identity_module] <= 130

    def test_entries_share_the_values_every_account_repeats(self):
        backend = IdentityBackend()
        for name in ("alice", "bob"):
            backend.create_account(name, f"{name}@center.edu")
            backend.notify_pairing(name, PairingStatus.SOFT)
        alice, bob = (
            backend.ldap.get(backend.get(name).dn) for name in ("alice", "bob")
        )
        for attr in ("objectclass", "accountclass", "mfapairingtype"):
            assert alice.get(attr) is bob.get(attr), attr

    def test_records_carry_no_instance_dict(self):
        clock = VirtualClock.at("2016-08-10T12:00:00")
        account = IdentityBackend().create_account("alice", "alice@center.edu")
        rows = [
            account,
            AuditLog(clock).record("validate", "u1"),
            AuthLog(clock).append("session_open", "alice", "10.0.0.1"),
        ]
        for row in rows:
            assert not hasattr(row, "__dict__"), type(row).__name__

    def test_a_keyless_account_holds_no_list(self):
        account = IdentityBackend().create_account("alice", "alice@center.edu")
        held = [getattr(account, f.name) for f in fields(Account)]
        assert not any(isinstance(value, list) for value in held)
        assert account.public_keys == ()
