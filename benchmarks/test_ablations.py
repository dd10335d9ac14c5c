"""ABLATIONS — the design choices DESIGN.md calls out, measured.

Each test flips one design decision and quantifies the consequence:

* lockout threshold 20 vs 3 (false-lockout rate for fat-fingered users),
* TOTP drift window ±300 s vs ±30 s (drifted-device login failures),
* round-robin RADIUS failover vs a single server (availability under
  outage),
* first-factor gating (how much hostile traffic never reaches the OTP
  back end),
* phased opt-in rollout vs a flag-day cutover (support-ticket shape).
"""

import random
from datetime import date

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.server import OTPServer, OTPServerConfig
from repro.sim import RolloutConfig, RolloutSimulation
from repro.ssh import SSHClient


class TestLockoutThreshold:
    def fat_finger_rate(self, threshold, trials=300):
        """Users mistype ~15% of codes; how many honest users get locked
        out during a burst of 8 login attempts?"""
        clock = VirtualClock.at("2016-10-05T09:00:00")
        rng = random.Random(threshold)
        server = OTPServer(
            clock=clock,
            config=OTPServerConfig(lockout_threshold=threshold),
            rng=random.Random(1),
        )
        locked = 0
        for i in range(trials):
            user = f"user{i}"
            _, secret = server.enroll_soft(user)
            device = TOTPGenerator(secret=secret, clock=clock)
            for _ in range(8):
                clock.advance(31)
                code = device.current_code() if rng.random() > 0.15 else "000000"
                server.validate(user, code)
            locked += server.is_locked(user)
        return locked / trials

    def test_threshold_20_vs_3(self):
        strict = self.fat_finger_rate(3)
        paper = self.fat_finger_rate(20)
        print(f"\n    false-lockout rate: threshold=3 -> {strict:.1%}, "
              f"threshold=20 -> {paper:.1%}")
        # The paper's threshold of 20 all but eliminates honest lockouts
        # because a success resets the counter; 3 locks out real users.
        assert paper < 0.01
        assert strict > 10 * max(paper, 0.001)

    def test_bench_lockout_simulation(self, benchmark):
        rate = benchmark.pedantic(
            lambda: self.fat_finger_rate(20, trials=50), rounds=3, iterations=1
        )
        assert rate < 0.05


class TestDriftWindow:
    def drifted_login_success(self, drift, skews):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        server = OTPServer(
            clock=clock,
            config=OTPServerConfig(drift_seconds=drift),
            rng=random.Random(2),
        )
        ok = 0
        for i, skew in enumerate(skews):
            user = f"user{i}"
            _, secret = server.enroll_soft(user)
            device = TOTPGenerator(secret=secret, clock=clock, skew=skew)
            clock.advance(31)
            ok += server.validate(user, device.current_code()).ok
        return ok / len(skews)

    def test_300s_vs_30s_window(self):
        """Phone clocks drift; the paper tolerates 300 s for a reason."""
        rng = random.Random(3)
        skews = [rng.gauss(0, 120) for _ in range(200)]  # realistic drift
        tight = self.drifted_login_success(30, skews)
        paper = self.drifted_login_success(300, skews)
        print(f"\n    drifted-device success: ±30s -> {tight:.0%}, ±300s -> {paper:.0%}")
        assert paper > 0.95
        assert tight < paper

    def test_wide_window_still_blocks_stale_codes(self):
        """The security cost of ±300 s is bounded: codes older than the
        window are dead, and used codes die immediately."""
        clock = VirtualClock.at("2016-10-05T09:00:00")
        server = OTPServer(clock=clock, rng=random.Random(4))
        _, secret = server.enroll_soft("alice")
        stale = TOTPGenerator(secret=secret, clock=clock).current_code()
        clock.advance(400)
        assert not server.validate("alice", stale).ok


class TestRADIUSRedundancy:
    def availability(self, num_servers, outage_fraction, trials=120):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(
            clock=clock, rng=random.Random(5), num_radius_servers=num_servers
        )
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        _, secret = center.pair_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock)
        client = SSHClient("198.51.100.7")
        rng = random.Random(6)
        ok = 0
        for _ in range(trials):
            clock.advance(31)
            for server in center.radius_servers:
                center.fabric.set_down(server.address, rng.random() < outage_fraction)
            result, _ = client.connect(
                system.login_node(), "alice", password="pw",
                token=device.current_code,
            )
            ok += bool(result.success)
        return ok / trials

    def test_farm_vs_single_server(self):
        """Each server is independently down 30% of the time."""
        single = self.availability(1, 0.30)
        farm = self.availability(3, 0.30)
        print(f"\n    login availability at 30% per-server outage: "
              f"1 server -> {single:.0%}, 3 servers -> {farm:.0%}")
        assert farm > single
        assert farm > 0.95


class TestFirstFactorGating:
    def test_gating_filters_hostile_traffic(self):
        """"This effectively filters most illegitimate SSH traffic before
        the second factor is ever reached" (Section 3.1)."""
        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(clock=clock, rng=random.Random(7))
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        center.pair_soft("alice")
        attacker = SSHClient("203.0.113.66")
        before = center.otp.validate_requests
        attempts = 200
        for _ in range(attempts):
            attacker.connect(system.login_node(), "alice",
                             password="guess", token="000000")
        reached = center.otp.validate_requests - before
        print(f"\n    hostile attempts: {attempts}; reached the OTP back end: {reached}")
        assert reached == 0

    def test_bench_hostile_attempt_cost(self, benchmark):
        """How cheap is rejecting a password-guessing bot?"""
        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(clock=clock, rng=random.Random(8))
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        attacker = SSHClient("203.0.113.66")

        def attempt():
            result, _ = attacker.connect(
                system.login_node(), "alice", password="guess", token="000000"
            )
            return result

        assert not benchmark(attempt).success


class TestPollingVsMailMitigation:
    def test_scheduler_mail_eliminates_ssh_polling(self):
        """Section 5's cheapest mitigation: --mail-type=END instead of a
        remote cron polling job state over SSH every five minutes."""
        from repro.workload.scheduler import BatchScheduler, MailEvent

        clock = VirtualClock.at("2016-10-05T09:00:00")
        scheduler = BatchScheduler(clock=clock, nodes=4, rng=random.Random(1))
        # Five 8-hour jobs with mail; a poller would check each every 5 min.
        for i in range(5):
            scheduler.submit(
                "alice", f"sim{i}", wall_seconds=8 * 3600,
                mail_events={MailEvent.END}, mail_to="alice@utexas.edu",
            )
        polls = 0
        while scheduler.squeue("alice"):
            scheduler.tick()
            polls += 1
            clock.advance(300)
        print(f"\n    polling would have cost {polls} SSH logins; "
              f"mail cost {scheduler.mails_sent} emails")
        assert polls > 90
        assert scheduler.mails_sent == 5

    def test_bench_scheduler_throughput(self, benchmark):
        from repro.workload.scheduler import BatchScheduler

        def run_batch():
            clock = VirtualClock.at("2016-10-05T09:00:00")
            scheduler = BatchScheduler(clock=clock, nodes=16, rng=random.Random(2))
            previous = None
            for i in range(40):
                job = scheduler.submit(
                    "alice", f"j{i}", 600,
                    depends_on=[previous.job_id] if previous and i % 4 == 0 else None,
                )
                previous = job
            scheduler.run_until_idle(step=120)
            return scheduler.states()

        states = benchmark(run_batch)
        assert states.get("completed") == 40


class TestPhasedVsFlagDay:
    @pytest.mark.slow
    def test_optin_flattens_ticket_load(self):
        """The tiered opt-in was 'designed to help alleviate the number of
        user support tickets open at any given time'.  A flag-day cutover
        (mandatory from day one of the announcement) concentrates the
        lockout/pairing burst into one spike."""
        phased = RolloutSimulation(
            RolloutConfig(population_size=600, seed=11, real_login_fraction=0.0)
        ).run()
        flag_day = RolloutSimulation(
            RolloutConfig(
                population_size=600, seed=11, real_login_fraction=0.0,
                announcement=date(2016, 8, 10),
                phase2=date(2016, 8, 10),
                phase3=date(2016, 8, 11),
            )
        ).run()
        window = slice(
            phased.day_of(date(2016, 8, 8)), phased.day_of(date(2016, 10, 20))
        )
        phased_peak = int(phased.mfa_tickets[window].max())
        flag_peak = int(flag_day.mfa_tickets[window].max())
        print(f"\n    peak MFA tickets/day: phased={phased_peak}, flag-day={flag_peak}")
        assert flag_peak > phased_peak
