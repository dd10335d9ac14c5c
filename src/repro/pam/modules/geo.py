"""``pam_geo_check`` — grown from the conclusion's "geolocation services"."""

from __future__ import annotations

from typing import List, Optional

from repro.pam.framework import PAMResult, PAMSession
from repro.policy.geo import GeoDatabase, GeoVelocityMonitor


class PamGeoCheckModule:
    """``pam_geo_check`` — country policy + impossible-travel enforcement.

    Verdicts: SUCCESS when the origin is acceptable, AUTH_ERR when the
    country is denied or the implied travel speed is impossible, IGNORE
    for unmapped origins (policy decision: fail open on coverage gaps,
    closed on positive signals — flip ``unmapped_is_error`` to harden).
    Sits between the first factor and the token module; to make
    suspicious geography *require* the second factor rather than deny,
    give the monitor to the risk engine, on the clock both share
    (``RiskEngine(clock, geo_monitor=GeoVelocityMonitor(geo, clock))``).
    """

    name = "pam_geo_check"

    def __init__(
        self,
        geo: GeoDatabase,
        monitor: Optional[GeoVelocityMonitor] = None,
        allowed_countries: Optional[List[str]] = None,
        denied_countries: Optional[List[str]] = None,
        unmapped_is_error: bool = False,
    ) -> None:
        self._geo = geo
        self._monitor = monitor
        self._allowed = set(allowed_countries or [])
        self._denied = set(denied_countries or [])
        self._unmapped_is_error = unmapped_is_error

    def authenticate(self, session: PAMSession) -> PAMResult:
        point = self._geo.lookup(session.remote_ip)
        if point is None:
            return PAMResult.AUTH_ERR if self._unmapped_is_error else PAMResult.IGNORE
        session.items["geo_country"] = point.country
        session.items["geo_city"] = point.city
        if point.country in self._denied:
            return PAMResult.AUTH_ERR
        if self._allowed and point.country not in self._allowed:
            return PAMResult.AUTH_ERR
        if self._monitor is not None:
            verdict = self._monitor.observe(session.username, session.remote_ip)
            session.items["geo_speed_kmh"] = verdict.speed_kmh
            if not verdict.plausible:
                if session.conversation is not None:
                    session.conversation.error(
                        f"login from {verdict.to_city} would require travel at "
                        f"{verdict.speed_kmh:.0f} km/h from {verdict.from_city}"
                    )
                return PAMResult.AUTH_ERR
        return PAMResult.SUCCESS
