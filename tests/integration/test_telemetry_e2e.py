"""End-to-end telemetry: one real SSH login, one queryable span tree.

The acceptance scenario for the observability layer — a full SSHClient
login through an instrumented MFACenter must leave behind (a) a single
trace whose spans cover every layer of the auth path and (b) counters for
the PAM module results, RADIUS retries/failovers and OTP validate
statuses.  Also covers the CLI dump path and the no-op default, and pins
one soft-token and one SMS login's span tree and series to golden values.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ssh import SSHClient
from repro.telemetry import NOOP_REGISTRY, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every auth-path layer that must appear as a span in a soft-token login.
EXPECTED_LAYERS = [
    "ssh.connect",
    "pam.stack",
    "pam.pam_mfa_token",
    "radius.client.authenticate",
    "radius.server.handle",
    "otp.validate",
]


@pytest.fixture
def tcenter(clock, rng):
    """An instrumented deployment (the conftest `center` stays no-op)."""
    center = MFACenter(clock=clock, rng=rng, telemetry=True)
    center.add_system("stampede", mode="full")
    return center


@pytest.fixture
def paired(tcenter, clock):
    tcenter.create_user("alice", password="pw")
    _, secret = tcenter.pair_soft("alice")
    return TOTPGenerator(secret=secret, clock=clock)


def login(center, device, token=None, user="alice", password="pw"):
    system = center.systems["stampede"]
    client = SSHClient(source_ip="198.51.100.7")
    code = device.current_code if token is None else token
    result, _ = client.connect(
        system.login_node(), user, password=password, token=code
    )
    return result


class TestSpanTree:
    def test_successful_login_trace_covers_every_layer(self, tcenter, paired):
        assert login(tcenter, paired).success
        trace = tcenter.telemetry.tracer().last_trace()
        assert trace is not None and trace.name == "ssh.connect"
        for layer in EXPECTED_LAYERS:
            assert trace.find(layer) is not None, f"missing span: {layer}"
        assert trace.span_count() >= 5

    def test_spans_nest_along_the_call_chain(self, tcenter, paired):
        login(tcenter, paired)
        trace = tcenter.telemetry.tracer().last_trace()
        # Each layer's span must contain the next layer's as a descendant.
        chain = ["pam.stack", "pam.pam_mfa_token", "radius.client.authenticate",
                 "radius.server.handle", "otp.validate"]
        node = trace
        for name in chain:
            node = node.find(name)
            assert node is not None, f"chain broken at {name}"

    def test_span_attributes(self, tcenter, paired):
        login(tcenter, paired)
        trace = tcenter.telemetry.tracer().last_trace()
        assert trace.attributes["user"] == "alice"
        assert trace.attributes["result"] == "accepted"
        assert trace.find("otp.validate").attributes["status"] == "ok"
        assert trace.find("radius.client.authenticate").attributes["status"] == "accept"

    def test_failed_login_trace(self, tcenter, paired):
        assert not login(tcenter, paired, token="000000").success
        trace = tcenter.telemetry.tracer().last_trace()
        assert trace.attributes["result"] == "rejected"
        statuses = {s.attributes.get("status") for s in trace.find_all("otp.validate")}
        assert "ok" not in statuses


class TestCounters:
    def test_pam_module_results(self, tcenter, paired):
        login(tcenter, paired)
        modules = tcenter.telemetry.counter("pam_module_results_total")
        assert modules.value(module="pam_unix", result="success") == 1
        assert modules.value(module="pam_mfa_token", result="success") == 1
        stack = tcenter.telemetry.counter("pam_stack_results_total")
        assert stack.value(service="sshd", result="success") == 1

    def test_otp_validate_statuses(self, tcenter, paired, clock):
        login(tcenter, paired)
        clock.advance(31)
        login(tcenter, paired, token="999999")
        validates = tcenter.telemetry.counter("otp_validate_total")
        assert validates.value(status="ok") == 1
        assert validates.value(status="reject") >= 1

    def test_ssh_login_counters(self, tcenter, paired, clock):
        login(tcenter, paired)
        clock.advance(31)
        login(tcenter, paired, password="wrong")
        # The tallies are sshd's own, read through status(); the registry
        # keeps the distribution no attribute holds.
        node = tcenter.otp.status("systems")["stampede"]["nodes"]["login1.stampede"]
        assert (node["logins_accepted"], node["logins_rejected"]) == (1, 1)
        assert "ssh_logins_total" not in tcenter.telemetry.instruments()
        attempts = tcenter.telemetry.histogram("ssh_password_attempts")
        assert attempts.snapshot()["series"][0]["count"] == 2

    def test_radius_retries_and_failover(self, tcenter, paired):
        # The fresh client round-robins from index 0: downing the first
        # server forces retransmits there, then a failover to the second.
        down = tcenter.radius_servers[0]
        tcenter.fabric.set_down(down.address)
        assert login(tcenter, paired).success
        retransmits = tcenter.telemetry.counter("radius_client_retransmits_total")
        failovers = tcenter.telemetry.counter("radius_client_failovers_total")
        assert retransmits.value(server=down.address) >= 1
        assert failovers.value(to_server=tcenter.radius_servers[1].address) == 1
        responses = tcenter.telemetry.counter("radius_client_responses_total")
        assert responses.value(status="accept") == 1

    def test_snapshot_renders_the_login(self, tcenter, paired):
        login(tcenter, paired)
        text = render_text(tcenter.telemetry.snapshot())
        assert 'otp_validate_total{status="ok"} 1' in text
        assert 'radius_client_responses_total{status="accept"} 1' in text


def span_shape(span):
    """A span tree without its timings: name, status, attributes, children."""
    return [
        span.name,
        span.status,
        dict(span.attributes),
        [span_shape(child) for child in span.children],
    ]


def series_counts(registry):
    """Every series of the snapshot: a counter's value, a histogram's count."""
    snap = registry.snapshot(include_traces=False)
    counts = {}
    for kind, field in (("counters", "value"), ("histograms", "count")):
        for instrument in snap[kind]:
            for series in instrument["series"]:
                labels = sorted(series["labels"].items())
                labels = ",".join(f"{k}={v}" for k, v in labels)
                counts[f"{instrument['name']}{{{labels}}}"] = series[field]
    return counts


SMS_PHONE = "5125550000"


def build_golden(profile):
    """``(center, login)``: an instrumented deployment with one paired user,
    and the call that logs that user in from outside with the right code."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(20160810), telemetry=True)
    node = center.add_system("stampede", mode="full").login_node()
    center.create_user("alice", password="pw")
    if profile == "soft":
        _, secret = center.pair_soft("alice")
        token = TOTPGenerator(secret=secret, clock=clock).current_code
    else:
        center.pair_sms("alice", SMS_PHONE)

        def token():
            clock.advance(20)
            return center.sms_gateway.latest(SMS_PHONE).body.split()[-1]

    def login():
        result, _ = SSHClient("198.51.100.7").connect(
            node, "alice", password="pw", token=token
        )
        assert result.success

    return center, login


def _front(token_module):
    """The span tree down to the token module, which ``token_module`` fills."""
    return [
        "ssh.connect",
        "ok",
        {
            "host": "login1.stampede",
            "result": "accepted",
            "source": "198.51.100.7",
            "user": "alice",
        },
        [
            [
                "pam.stack",
                "ok",
                {"result": "success", "service": "sshd"},
                [
                    ["pam.pam_pubkey_success", "ok", {"result": "auth_err"}, []],
                    ["pam.pam_unix", "ok", {"result": "success"}, []],
                    ["pam.pam_mfa_exemption", "ok", {"result": "auth_err"}, []],
                    ["pam.pam_mfa_token", "ok", {"result": "success"}, token_module],
                ],
            ]
        ],
    ]


def _round_trip(server, status, validate_attributes, validate_children=()):
    return [
        "radius.client.authenticate",
        "ok",
        {"server": f"10.0.0.{9 + server}:1812", "status": status, "user": "alice"},
        [
            [
                "radius.server.handle",
                "ok",
                {"server": f"radius{server}"},
                [
                    [
                        "otp.validate",
                        "ok",
                        {"user": "alice", **validate_attributes},
                        list(validate_children),
                    ]
                ],
            ]
        ],
    ]


#: One soft-token login's span tree, timings aside.
SOFT_SHAPE = _front([_round_trip(1, "accept", {"status": "ok"})])

#: One SMS login's span tree: the null request, then the code.
SMS_SHAPE = _front(
    [
        _round_trip(
            1,
            "challenge",
            {"reason": "SMS token code sent", "status": "challenge_sent"},
            [["sms.send", "ok", {"delay": 4.759, "destination": "us"}, []]],
        ),
        _round_trip(2, "accept", {"status": "ok"}),
    ]
)

_FRONT_SERIES = {
    "pam_module_results_total{module=pam_mfa_exemption,result=auth_err}": 1.0,
    "pam_module_results_total{module=pam_mfa_token,result=success}": 1.0,
    "pam_module_results_total{module=pam_pubkey_success,result=auth_err}": 1.0,
    "pam_module_results_total{module=pam_unix,result=success}": 1.0,
    "pam_stack_results_total{result=success,service=sshd}": 1.0,
    "resolver_lookup_seconds{resolver=directory}": 1,
    "ssh_password_attempts{}": 1,
}

#: The series one soft-token login leaves: counter values, histogram counts.
SOFT_SERIES = {
    **_FRONT_SERIES,
    **{
        f"authflow_stage_seconds{{stage={stage}}}": 1
        for stage in (
            "resolve_identity",
            "evaluate_policy",
            "replay_guard",
            "dispatch",
            "apply_outcome",
            "audit",
        )
    },
    "otp_validate_total{status=ok}": 1.0,
    "pam_token_enforcement_total{mode=full,pairing=soft}": 1.0,
    "policy_decisions_total{action=challenge}": 2.0,
    "radius_client_responses_total{status=accept}": 1.0,
    "storage_op_seconds{op=select,table=tokens}": 1,
    "storage_op_seconds{op=update,table=tokens}": 1,
}

#: The series one SMS login leaves: the challenge validate skips dispatch.
SMS_SERIES = {
    **_FRONT_SERIES,
    **{
        f"authflow_stage_seconds{{stage={stage}}}": 2
        for stage in (
            "resolve_identity",
            "evaluate_policy",
            "replay_guard",
            "apply_outcome",
            "audit",
        )
    },
    "authflow_stage_seconds{stage=dispatch}": 1,
    "otp_sms_challenges_total{result=sent}": 1.0,
    "otp_validate_total{status=challenge_sent}": 1.0,
    "otp_validate_total{status=ok}": 1.0,
    "pam_token_enforcement_total{mode=full,pairing=sms}": 1.0,
    "policy_decisions_total{action=challenge}": 3.0,
    "radius_client_responses_total{status=accept}": 1.0,
    "radius_client_responses_total{status=challenge}": 1.0,
    "sms_delivery_delay_seconds{}": 1,
    "storage_op_seconds{op=delete,table=challenges}": 1,
    "storage_op_seconds{op=exists,table=challenges}": 2,
    "storage_op_seconds{op=get,table=challenges}": 1,
    "storage_op_seconds{op=insert,table=challenges}": 1,
    "storage_op_seconds{op=select,table=tokens}": 2,
    "storage_op_seconds{op=update,table=tokens}": 1,
}


class TestGoldenLogin:
    """With telemetry on, a login records exactly what it always has."""

    GOLDEN = {"soft": (SOFT_SHAPE, SOFT_SERIES), "sms": (SMS_SHAPE, SMS_SERIES)}

    @pytest.mark.parametrize("profile", sorted(GOLDEN))
    def test_span_tree_and_series_are_pinned(self, profile):
        shape, series = self.GOLDEN[profile]
        center, login = build_golden(profile)
        center.telemetry.reset()
        login()
        assert span_shape(center.telemetry.tracer().last_trace()) == shape
        assert series_counts(center.telemetry) == series


class TestNoopDefault:
    def test_center_defaults_to_noop(self, center):
        assert center.telemetry is NOOP_REGISTRY
        assert center.telemetry.enabled is False

    def test_noop_login_leaves_no_residue(self, center, clock):
        center.create_user("bob", password="pw")
        _, secret = center.pair_soft("bob")
        device = TOTPGenerator(secret=secret, clock=clock)
        result = login(center, device, user="bob")
        assert result.success
        assert center.telemetry.tracer().last_trace() is None
        assert center.telemetry.snapshot()["counters"] == []


class TestCLISmoke:
    def test_demo_telemetry_dump(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "demo", "--telemetry-dump"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "demo login: GRANTED" in proc.stdout
        assert (
            'repro_status{path="systems.stampede.nodes.login1.stampede.logins_accepted"} 1'
            in proc.stdout
        )
        assert "ssh.connect" in proc.stdout  # the rendered span tree
