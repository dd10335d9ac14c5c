"""Rollout and traffic simulation — the evaluation substrate (S12).

TACC's evaluation figures are daily telemetry from >10,000 production
accounts.  We cannot replay their logs, so this package implements the
generative processes the paper describes — opt-in adoption around
announcements and phase changes, automated vs interactive SSH traffic,
internal exemptions, workflow adaptation, support-ticket load — on top of
the *real* infrastructure (accounts, pairings, ACLs and enforcement-mode
switches all execute against the live :class:`~repro.core.MFACenter`; a
sampled fraction of logins runs the full SSH→PAM→RADIUS→OTP path as a
consistency check).

Modules:

* :mod:`repro.sim.population` — the synthetic user population with the
  account classes, activity skew and device preferences of Section 2/3.3.
* :mod:`repro.sim.behavior` — per-user daily behaviour: login propensity,
  automation volume, adoption triggers, workflow adaptation.
* :mod:`repro.sim.rollout` — the phased-transition scenario of Section 5.
* :mod:`repro.sim.tickets` — the support-ticket load model (Figure 5).
* :mod:`repro.sim.metrics` — per-day aggregation and the figure-shaped
  series/rankings the benchmarks print.
* :mod:`repro.sim.sweep` — the one reduction of a run to its figure-level
  statistics, and its mean/min/max across seeds.
"""

from repro.sim.metrics import DailyMetrics
from repro.sim.population import Population, UserProfile
from repro.sim.rollout import RolloutConfig, RolloutSimulation

__all__ = [
    "Population",
    "UserProfile",
    "RolloutConfig",
    "RolloutSimulation",
    "DailyMetrics",
]
