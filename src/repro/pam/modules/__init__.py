"""The PAM modules of the MFA infrastructure.

Four in-house modules (Section 3.4) plus the stock password module:

* :class:`~repro.pam.modules.pubkey.PublicKeySuccessModule`
* :class:`~repro.pam.modules.exemption.MFAExemptionModule`
* :class:`~repro.pam.modules.token.MFATokenModule`
* :class:`~repro.pam.modules.solaris.SolarisMFAModule`
* :class:`~repro.pam.modules.unix_password.UnixPasswordModule`

The conclusion's "geolocation services" reach PAM through the policy
engine: impossible travel is a :class:`~repro.policy.RiskEngine` signal
that ``pam_mfa_exemption`` and ``pam_mfa_token`` both act on.
"""

from repro.pam.modules.exemption import MFAExemptionModule
from repro.pam.modules.pubkey import PublicKeySuccessModule
from repro.pam.modules.solaris import SolarisMFAModule
from repro.pam.modules.token import MFATokenModule
from repro.pam.modules.unix_password import UnixPasswordModule

__all__ = [
    "PublicKeySuccessModule",
    "MFAExemptionModule",
    "MFATokenModule",
    "SolarisMFAModule",
    "UnixPasswordModule",
]
