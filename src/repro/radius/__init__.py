"""RADIUS middleware (Section 3.2).

"A handful of servers were set up to accept and proxy requests between
authentication agents, i.e. login nodes, and the LinOTP server ... using
challenge-response functionality of the RADIUS protocol", with clients
calling "in a round-robin fashion to provide load balancing and resiliency".

* :mod:`repro.radius.packet` — the RFC 2865 wire format: header,
  authenticators, attribute TLVs, User-Password hiding.
* :mod:`repro.radius.dictionary` — attribute/code registries.
* :mod:`repro.radius.transport` — an in-process lossy datagram fabric that
  stands in for UDP.
* :mod:`repro.radius.server` — validates requests against a back end
  (the OTP server) and answers Accept / Reject / Challenge.
* :mod:`repro.radius.client` — the PAM-side client: round-robin across
  servers, retries, failover (:mod:`repro.common.resilience`), challenge
  state handling.
"""

from repro.radius.client import RADIUSClient
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import RADIUSPacket, decode_packet, encode_packet
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric

__all__ = [
    "RADIUSPacket",
    "encode_packet",
    "decode_packet",
    "Attr",
    "PacketCode",
    "UDPFabric",
    "RADIUSServer",
    "RADIUSClient",
]
