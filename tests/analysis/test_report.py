"""The evaluation report generator and the CLI entry point."""

import pytest

from repro.analysis.report import PAPER, evaluation_report
from repro.sim import RolloutConfig, RolloutSimulation
from repro.sim.sweep import summarize


@pytest.fixture(scope="module")
def simulation():
    return RolloutSimulation(
        RolloutConfig(population_size=400, seed=20160810, real_login_fraction=0.0)
    )


@pytest.fixture(scope="module")
def report_text(simulation):
    return evaluation_report(simulation=simulation)


@pytest.fixture(scope="module")
def summary(simulation):
    return summarize(simulation.run(), 20160810, 400)


class TestEvaluationReport:
    def test_covers_every_artifact(self, report_text):
        for artifact in ("Figure 3", "Figure 4", "Figure 5", "Figure 6",
                         "Table 1", "Cost model"):
            assert artifact in report_text

    def test_reports_consistency_check(self, report_text):
        assert "mismatches" in report_text

    def test_shapes_all_ok(self, report_text):
        assert "MISMATCH" not in report_text
        assert report_text.count("OK") >= 5

    def test_paper_reference_numbers_shown(self, report_text):
        assert "paper 6.7%" in report_text
        assert "55.38" in report_text

    def test_crossover_reported(self, report_text):
        assert "crossover" in report_text

    def test_assurance_profile_reported(self, report_text):
        assert "Level of Assurance" in report_text
        assert "LoA 3+" in report_text


class TestOneReducer:
    """The report prints ``summarize``'s fields; it has no windows of its own."""

    def test_printed_statistics_are_the_summary_s(self, summary, report_text):
        rows = {
            line.split("  ")[1].strip(): line.split()
            for line in report_text.splitlines()
            if line.startswith("  ") and "shape (" not in line
        }
        assert rows["Sep 7 rank"][3] == str(summary.sep7_rank)
        assert rows["Oct 4 rank"][3] == str(summary.oct4_rank)
        assert rows["MFA share Aug-Dec"][3] == f"{summary.ticket_share_2016:.1%}"
        assert rows["MFA share Jan-Mar"][3] == f"{summary.ticket_share_2017:.1%}"
        for kind in ("soft", "sms", "training", "hard"):
            measured, _, paper = rows[kind][1:4]
            assert measured == f"{getattr(summary, kind + '_percent'):.2f}"
            assert paper == f"{PAPER[kind + '_percent']:.2f})"

    def test_every_summary_statistic_is_printed(self, summary, report_text):
        printed = sum(
            line.startswith("  ") and "shape (" not in line
            for line in report_text.split("Level of Assurance")[0].splitlines()
        )
        assert printed == len(vars(summary)) - 2  # all but seed and population


class TestCLI:
    def test_unknown_command_usage(self, capsys):
        from repro.__main__ import main

        assert main(["frobnicate"]) == 2
        assert "report" in capsys.readouterr().err

    def test_qr_command(self, capsys):
        from repro.__main__ import main

        assert main(["qr", "hello world"]) == 0
        out = capsys.readouterr().out
        assert "##" in out

    def test_qr_requires_text(self, capsys):
        from repro.__main__ import main

        assert main(["qr"]) == 2

    def test_demo_command(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        assert "GRANTED" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["abc"], ["0"], ["300", "7", "9"], ["--seeds"]])
    def test_report_bad_arguments_print_usage(self, capsys, args):
        from repro.__main__ import main

        assert main(["report", *args]) == 2
        captured = capsys.readouterr()
        assert "usage: python -m repro report" in captured.err
        assert captured.out == ""

    def test_report_seeds_prints_the_range(self, capsys):
        from repro.__main__ import main

        # Two seeds: the second runs inline (``run_sweep`` with one job).
        assert main(["report", "300", "7", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "population=" in out and "seeds 7..8" in out
        sep7 = next(line for line in out.splitlines() if "Sep 7 rank" in line)
        assert "mean" in sep7 and "range" in sep7

    def test_simulate_is_not_a_command(self, capsys):
        from repro.__main__ import main

        assert main(["simulate"]) == 2
        assert "report" in capsys.readouterr().err
