"""Shared fixtures for the adversarial scenario suite.

``CHAOS_SEEDS`` (comma-separated integers, default ``101``) selects which
seeds the whole-workload invariant tests run under; CI's scenario-smoke job
sets two.  Reports are cached per ``(scenario, seed)`` because one run
drives 120 full-stack logins (or a whole campaign) and several tests
interrogate the same run.
"""

import os
from functools import lru_cache

import pytest

from repro.chaos import run


def chaos_seeds():
    raw = os.environ.get("CHAOS_SEEDS", "101")
    return [int(part) for part in raw.split(",") if part.strip()]


@lru_cache(maxsize=None)
def report_for(name: str, seed: int):
    return run(name, seed)


@pytest.fixture(params=chaos_seeds(), ids=lambda s: f"seed{s}")
def seed(request):
    return request.param
