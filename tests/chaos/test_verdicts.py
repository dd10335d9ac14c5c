"""The verdicts of all 17 scenarios, pinned.

``verdicts.json`` was minted before the fault-plan and campaign harnesses
shared a row shape and a judge: fault plans with their attacker on,
campaigns at 10,000 accounts, seeds 101 and 202.  Per run it holds the
honest attempts and successes, the attack attempts and successes per token
group, what blocked the rest, and the honeytoken uses and alarms (for a
fault plan, ``blocked_by`` is read off what the attacker's SSH client was
shown).  The unified harness must reproduce every row, judge every run
clean, and replay every scenario to an equal summary.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import run, scenarios

from .conftest import report_for

TABLE = json.loads((Path(__file__).parent / "verdicts.json").read_text())


def verdict(summary: dict) -> dict:
    attack = summary["attack"]
    return {
        "honest": [summary["honest"]["attempts"], summary["honest"]["succeeded"]],
        "attack": {
            group: [row["attempts"], row["succeeded"]]
            for group, row in attack["by_group"].items()
        },
        "blocked_by": attack["blocked_by"],
        "honeytoken": [attack["honeytoken"]["uses"], attack["honeytoken"]["alarms"]],
    }


def test_the_table_covers_the_catalogue():
    assert len(scenarios()) == 17
    assert sorted(TABLE) == sorted(f"{name}/{seed}" for name in scenarios() for seed in (101, 202))


@pytest.mark.parametrize("key", sorted(TABLE))
def test_verdicts_match_the_table(key):
    name, seed = key.rsplit("/", 1)
    summary = report_for(name, int(seed)).summary()
    assert summary["violations"] == []
    assert verdict(summary) == TABLE[key]


@pytest.mark.parametrize("name", list(scenarios()))
def test_two_runs_give_equal_summaries(name):
    assert run(name, 101).summary() == report_for(name, 101).summary()
