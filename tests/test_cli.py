"""``python -m repro``: one argument parser, one answer to a bad command line.

A misspelt flag used to be ignored by every command (``chaos --plann
resolver-outage`` ran ``kitchen-sink`` and a CI gate passed vacuously) and a
malformed value died with a traceback; now every command prints its usage
on stderr and exits 2 before doing any work — an unknown scenario name too.
"""

import pytest

from repro.__main__ import main

#: command -> (arguments it cannot run without, one of its integer flags).
#: ``demo`` takes no flags: its entry is the retired ``--shards``, which is a
#: usage error with or without a value.
COMMANDS = {
    "report": ((), "--seeds"),
    "demo": ((), "--shards"),
    "telemetry": ((), "--shards"),
    "qr": ((), None),
    "scenario": ((), "--seed"),
    "status": ((), "--replicas"),
    "storage": (("--demo", "never-created"), "--shards"),
}

def _cases():
    for command, (required, flag) in COMMANDS.items():
        yield command, "unknown-flag", [*required, "--no-such-flag"]
        if flag is not None:
            yield command, "non-integer", [*required, flag, "abc"]
            yield command, "missing-value", [*required, flag]
    yield "qr", "missing-value", []
    yield "scenario", "unknown-name", ["nope"]


CASES = list(_cases())


@pytest.mark.parametrize(
    ("command", "argv"),
    [(command, argv) for command, _, argv in CASES],
    ids=[f"{command}-{kind}" for command, kind, _ in CASES],
)
def test_bad_command_line_is_a_usage_error(capsys, tmp_path, monkeypatch, command, argv):
    monkeypatch.chdir(tmp_path)
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage: python -m repro {command}" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []  # ``storage --demo`` made no directory


#: A value of the right type that no run can use: a count out of range, a
#: file that cannot be read.  Each used to end in a traceback after the
#: center was built (``ValueError`` from the storage config, exit 1), or in
#: a ``FileNotFoundError`` from the WAL reader.
BAD_VALUES = {
    "demo-no-shards": ["demo", "--shards", "0"],
    "status-no-shards": ["status", "--shards", "0"],
    "status-negative-replicas": ["status", "--replicas", "-1"],
    "telemetry-negative-shards": ["telemetry", "--shards", "-2"],
    "storage-no-shards": ["storage", "--demo", "never-created", "--shards", "0"],
    "storage-negative-replicas": ["storage", "--demo", "never-created", "--replicas", "-1"],
    "storage-replay-missing-file": ["storage", "--replay", "no-such.wal"],
    "storage-replay-directory": ["storage", "--replay", "."],
    "storage-demo-under-a-file": ["storage", "--demo", "/dev/null/wals"],
    "report-no-seeds": ["report", "300", "--seeds", "0"],
}


@pytest.mark.parametrize("argv", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_a_bad_value_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage: python -m repro {argv[0]}" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_a_misspelt_flag_does_not_run_the_default(capsys):
    assert main(["scenario", "resolver-outage", "--sed", "202"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--sed" in captured.err
    # A prefix is a misspelling too (``--seed`` must never mean ``--seeds``).
    assert main(["report", "300", "--seed", "3"]) == 2


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"\n    {command}" in out for command in COMMANDS)
    assert main(["scenario", "--help"]) == 0
    assert "--seed N" in capsys.readouterr().out


def test_storage_demo_refuses_a_used_directory(capsys, tmp_path):
    """A second ``storage --demo`` on one directory used to append a second
    history, LSNs from 1 again, and the next replay dropped all of it."""
    wals = str(tmp_path / "wals")
    assert main(["storage", "--demo", wals]) == 0
    with open(f"{wals}/shard0.wal", "rb") as handle:
        written = handle.read()
    capsys.readouterr()
    assert main(["storage", "--demo", wals]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "already holds a WAL" in captured.err and "--replay" in captured.err
    with open(f"{wals}/shard0.wal", "rb") as handle:
        assert handle.read() == written
    assert main(["storage", "--replay", f"{wals}/shard0.wal"]) == 0
    assert '"dropped": 0' in capsys.readouterr().out


@pytest.mark.parametrize(
    "stack", [[], ["--replicas", "1"], ["--shards", "1"]], ids=["2-shards", "replicas", "1-shard"]
)
def test_storage_demo_digests_every_shard_wal(capsys, tmp_path, stack):
    """``storage --demo`` prints one live digest per shard WAL, and each is
    what ``storage --replay`` of that file recovers."""
    import json

    wals = tmp_path / "wals"
    assert main(["storage", "--demo", str(wals), *stack]) == 0
    demo = json.loads(capsys.readouterr().out)
    shards = 1 if stack == ["--shards", "1"] else 2
    assert sorted(demo["digests"]) == [str(wals / f"shard{i}.wal") for i in range(shards)]
    assert [entry["wal"]["path"] for entry in demo["stats"]["shards"]] == list(demo["digests"])
    assert len(set(demo["digests"].values())) == shards  # each shard holds rows of its own
    for path, live in demo["digests"].items():
        assert main(["storage", "--replay", path]) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == live, path
