"""Shared fixtures for the benchmark harness.

The rollout simulation (Figures 3-6, Table 1) is expensive relative to the
other benches, so it runs once per session at the paper's population
(10,000 accounts) and is shared by every figure bench.
"""

from __future__ import annotations

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.sim import RolloutConfig, RolloutSimulation


@pytest.fixture(scope="session")
def rollout():
    """The full rollout scenario (seeded; identical on every run)."""
    simulation = RolloutSimulation(
        RolloutConfig(population_size=10_000, seed=20160810, real_login_fraction=0.002)
    )
    simulation.run()
    return simulation


@pytest.fixture(scope="session")
def metrics(rollout):
    return rollout.metrics


@pytest.fixture
def auth_rig():
    """A small wired deployment for authentication-path benches."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)

    class Rig:
        pass

    rig = Rig()
    rig.clock, rig.center, rig.system, rig.device = clock, center, system, device
    rig.node = system.login_node()
    return rig


def print_series(title: str, rows) -> None:
    """Emit a figure's series the way the paper's plots tabulate it."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("   ", *row)
