"""Shared fixtures for the test suite.

Every fixture is deterministic: clocks are simulated and RNGs are seeded,
so the whole suite replays identically.
"""

from __future__ import annotations

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter


@pytest.fixture
def clock() -> VirtualClock:
    """A clock parked mid-rollout (phase 3, MFA mandatory)."""
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def center(clock, rng) -> MFACenter:
    """A wired MFACenter with one full-enforcement system."""
    center = MFACenter(clock=clock, rng=rng)
    center.add_system("stampede", mode="full")
    return center
