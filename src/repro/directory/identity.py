"""The center's identity-management back end.

Holds the authoritative account records (the database "reserved for LDAP
queries" that LinOTP extends), creates the LDAP entry — with the shared
unique user id — whenever an account is created, and records the MFA
pairing-status notifications the portal sends after successful pairing
("the portal notifies the identity management back end that the user has
configured multi-factor authentication and which method", Section 3.5).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import IdAllocator
from repro.directory.ldap import LDAPDirectory


class AccountClass(str, Enum):
    """The account populations the paper distinguishes."""

    INDIVIDUAL = "individual"  # regular researchers entering via SSH
    STAFF = "staff"  # center staff (the activity-threshold reference group)
    GATEWAY = "gateway"  # science gateways acting for satellite users
    COMMUNITY = "community"  # shared community accounts
    TRAINING = "training"  # workshop/tutorial accounts with static tokens


class PairingStatus(str, Enum):
    """What the identity DB knows about a user's MFA state."""

    UNPAIRED = "unpaired"
    SOFT = "soft"
    SMS = "sms"
    HARD = "hard"
    TRAINING = "training"
    FEDERATED = "federated"


def _hash_password(username: str, password: str) -> str:
    # Salted, iterated digest; models /etc/shadow without external deps.  The
    # rounds loop inside the one call, as crypt(3)'s do, and password and salt
    # are separate arguments: ("a", "b:c") and ("a:b", "c") hash differently.
    salt = username.encode()
    return hashlib.pbkdf2_hmac("sha256", password.encode(), salt, 1000).hex()


#: What a candidate is compared with when the account has no hash to offer
#: (unknown, inactive, password-less): the work is the same, the verdict False.
_NO_SUCH_HASH = _hash_password("", "")


@dataclass
class Account:
    """One user account shared by the portal, LDAP, PAM and LinOTP."""

    username: str
    uid: str
    account_class: AccountClass
    email: str
    password_hash: str = ""
    public_keys: List[str] = field(default_factory=list)
    pairing_status: PairingStatus = PairingStatus.UNPAIRED
    active: bool = True

    @property
    def dn(self) -> str:
        return f"uid={self.username},ou=people,dc=center,dc=edu"


class IdentityBackend:
    """Account database + LDAP projection.

    Creating an account writes both stores atomically and stamps the same
    unique user id into each, as Section 3.1 describes.
    """

    def __init__(self, ldap: Optional[LDAPDirectory] = None) -> None:
        self.ldap = ldap or LDAPDirectory()
        self._accounts: Dict[str, Account] = {}
        self._ids = IdAllocator()

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, username: str) -> bool:
        return username in self._accounts

    def usernames(self) -> List[str]:
        return list(self._accounts)

    def create_account(
        self,
        username: str,
        email: str,
        password: str = "",
        account_class: AccountClass = AccountClass.INDIVIDUAL,
    ) -> Account:
        """Register an account and generate its LDAP entry."""
        if username in self._accounts:
            raise ValidationError(f"account {username!r} already exists")
        uid = self._ids.next("uid")
        account = Account(
            username=username,
            uid=uid,
            account_class=account_class,
            email=email,
            password_hash=_hash_password(username, password) if password else "",
        )
        self._accounts[username] = account
        self.ldap.add(
            account.dn,
            {
                "objectClass": ["posixAccount", "inetOrgPerson"],
                "uid": [username],
                "uidNumber": [uid],
                "mail": [email],
                "accountClass": [account_class.value],
                "mfaPairingType": [PairingStatus.UNPAIRED.value],
            },
        )
        return account

    def get(self, username: str) -> Account:
        account = self._accounts.get(username)
        if account is None:
            raise NotFoundError(f"no such account: {username}")
        return account

    def check_password(self, username: str, password: str) -> bool:
        """First-factor password verification (constant-time compare).

        The KDF runs once whatever the account's state: sshd does not reveal
        which part failed, and a verdict 300× sooner for an unknown name would.
        """
        account = self._accounts.get(username)
        if account is not None and account.active and account.password_hash:
            stored, usable = account.password_hash, True
        else:
            stored, usable = _NO_SUCH_HASH, False
        candidate = _hash_password(username, password)
        return hmac.compare_digest(candidate, stored) and usable

    def set_password(self, username: str, password: str) -> None:
        account = self.get(username)
        account.password_hash = _hash_password(username, password)

    def add_public_key(self, username: str, key_fingerprint: str) -> None:
        """Register an authorized public key (its fingerprint)."""
        account = self.get(username)
        if key_fingerprint not in account.public_keys:
            account.public_keys.append(key_fingerprint)

    def has_public_key(self, username: str, key_fingerprint: str) -> bool:
        account = self._accounts.get(username)
        return bool(account) and key_fingerprint in account.public_keys

    def notify_pairing(self, username: str, status: PairingStatus) -> None:
        """The portal's post-pairing notification: update the account record
        and the LDAP ``mfaPairingType`` attribute the PAM token module reads."""
        account = self.get(username)
        account.pairing_status = status
        self.ldap.modify(account.dn, {"mfaPairingType": [status.value]})

    def pairing_type(self, username: str) -> PairingStatus:
        """The LDAP-sourced pairing type (what PAM queries, Figure 2)."""
        account = self.get(username)
        entry = self.ldap.get(account.dn)
        return PairingStatus(entry.first("mfaPairingType", "unpaired"))

    def accounts_by_class(self, account_class: AccountClass) -> List[Account]:
        return [a for a in self._accounts.values() if a.account_class == account_class]

    def paired_fraction(self) -> float:
        """Share of accounts with any MFA pairing — the adoption metric."""
        if not self._accounts:
            return 0.0
        paired = sum(
            1
            for a in self._accounts.values()
            if a.pairing_status != PairingStatus.UNPAIRED
        )
        return paired / len(self._accounts)
