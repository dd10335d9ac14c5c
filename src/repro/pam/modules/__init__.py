"""The PAM modules of the MFA infrastructure.

Four in-house modules (Section 3.4) plus the stock password module:

* :class:`~repro.pam.modules.pubkey.PublicKeySuccessModule`
* :class:`~repro.pam.modules.exemption.MFAExemptionModule`
* :class:`~repro.pam.modules.token.MFATokenModule`
* :class:`~repro.pam.modules.solaris.SolarisMFAModule`
* :class:`~repro.pam.modules.unix_password.UnixPasswordModule`

and one grown from the paper's conclusion ("geolocation services"):

* :class:`~repro.pam.modules.geo.PamGeoCheckModule`
"""

from repro.pam.modules.exemption import MFAExemptionModule
from repro.pam.modules.geo import PamGeoCheckModule
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
    "PamGeoCheckModule",
]
