"""Identity substrate: the LDAP directory and the account-management database.

Section 3.1: "The LinOTP user repository ... extends an existing identity
management database reserved for LDAP queries.  When a user account is
created, an LDAP entry is generated including a unique user ID that becomes
common to both databases."  This package provides both halves:

* :mod:`repro.directory.ldap` — a DN-tree directory answering subtree
  searches for a conjunction of literal ``(attr, value)`` equalities.
  The PAM token module queries it by ``uid`` to distinguish soft/SMS/hard
  pairings (Figure 2), and the back end's LDAP resolver maps a login name
  to its unique user id through it.
* :mod:`repro.directory.identity` — the account-management back end: user
  records, account classes (individual, staff, gateway, community,
  training), and the MFA pairing-status notifications the portal sends.
"""

from repro.directory.identity import Account, AccountClass, IdentityBackend
from repro.directory.ldap import LDAPDirectory, LDAPEntry

__all__ = [
    "LDAPDirectory",
    "LDAPEntry",
    "IdentityBackend",
    "Account",
    "AccountClass",
]
