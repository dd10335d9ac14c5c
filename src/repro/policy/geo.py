"""Geolocation services (conclusion future-work item #1).

* :class:`GeoDatabase` — a CIDR-prefix → location registry standing in
  for a MaxMind-style GeoIP database.  Lookups use longest-prefix match.
* :class:`GeoVelocityMonitor` — the "impossible travel" detector: it
  remembers each user's last login location/time and computes the great-
  circle speed a new login would imply.  The risk engine
  (:mod:`repro.policy.risk`) scores its verdict as one more signal, so the
  OTP pipeline and both policy-backed PAM modules act on it alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.clock import Clock
from repro.common.origin import OriginIndex, OriginMatcher

EARTH_RADIUS_KM = 6371.0
#: Airliner cruise: travel between two logins faster than this is fake.
MAX_SPEED_KMH = 950.0


@dataclass(frozen=True)
class GeoPoint:
    """A resolved location."""

    latitude: float
    longitude: float
    country: str
    city: str = ""

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance (haversine)."""
        lat1, lon1 = math.radians(self.latitude), math.radians(self.longitude)
        lat2, lon2 = math.radians(other.latitude), math.radians(other.longitude)
        dlat, dlon = lat2 - lat1, lon2 - lon1
        a = (
            math.sin(dlat / 2) ** 2
            + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
        )
        return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


class GeoDatabase(OriginIndex):
    """Longest-prefix IP → :class:`GeoPoint` table; equal ranges: first wins."""

    def add_range(self, cidr: str, point: GeoPoint) -> None:
        self.add(OriginMatcher.parse(cidr), point)

    lookup = OriginIndex.longest

    @classmethod
    def with_sample_data(cls) -> "GeoDatabase":
        """A small world map adequate for tests and examples."""
        db = cls()
        db.add_range("129.114.0.0/16", GeoPoint(30.39, -97.73, "US", "Austin"))
        db.add_range("198.51.100.0/24", GeoPoint(30.27, -97.74, "US", "Austin"))
        db.add_range("192.0.2.0/24", GeoPoint(46.23, 6.05, "CH", "Geneva"))
        db.add_range("203.0.113.0/24", GeoPoint(39.90, 116.41, "CN", "Beijing"))
        db.add_range("100.64.0.0/10", GeoPoint(52.52, 13.40, "DE", "Berlin"))
        db.add_range("10.0.0.0/8", GeoPoint(30.39, -97.73, "US", "Austin"))
        return db


@dataclass
class TravelVerdict:
    """Outcome of a geo-velocity check."""

    plausible: bool
    speed_kmh: float = 0.0
    from_city: str = ""
    to_city: str = ""


class GeoVelocityMonitor:
    """Impossible-travel detection across consecutive logins."""

    def __init__(self, geo: GeoDatabase, clock: Clock) -> None:
        self._geo = geo
        self._clock = clock
        self._last_seen: Dict[str, Tuple[float, GeoPoint]] = {}

    def observe(self, username: str, ip: str) -> TravelVerdict:
        """Record a login and judge the travel it implies."""
        now = self._clock.now()
        point = self._geo.lookup(ip)
        if point is None:
            return TravelVerdict(True)  # unmapped space: nothing to judge
        previous = self._last_seen.get(username)
        self._last_seen[username] = (now, point)
        if previous is None:
            return TravelVerdict(True, to_city=point.city)
        then, there = previous
        elapsed_h = max((now - then) / 3600.0, 1e-9)
        distance = there.distance_km(point)
        if distance < 50.0:
            return TravelVerdict(True, 0.0, there.city, point.city)
        speed = distance / elapsed_h
        return TravelVerdict(speed <= MAX_SPEED_KMH, speed, there.city, point.city)

    def forget(self, username: str) -> None:
        self._last_seen.pop(username, None)
