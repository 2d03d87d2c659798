"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "optmin"
        assert args.scenario == "random"
        assert args.n == 7 and args.t == 4 and args.k == 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "nope"])


class TestRunCommand:
    def test_random_run_passes_spec(self, capsys):
        assert main(["run", "--protocol", "optmin", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "specification check: OK" in out
        assert "decide(" in out

    def test_figure_scenarios(self, capsys):
        for scenario in ("fig1", "fig2", "fig4"):
            assert main(["run", "--protocol", "upmin", "--scenario", scenario, "-k", "3"]) == 0
        assert "run of" in capsys.readouterr().out

    def test_uniform_protocol_on_random(self, capsys):
        assert main(["run", "--protocol", "upmin", "--seed", "1", "--failures", "2"]) == 0
        assert "specification check: OK" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_prints_statistics_and_domination(self, capsys):
        code = main(
            ["compare", "-n", "6", "-t", "3", "-k", "2", "--samples", "30",
             "--protocols", "optmin", "early", "floodmin"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decision-time statistics" in out
        assert "dominates" in out


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.protocol == "optmin"
        assert "engine" not in vars(args)
        assert args.processes is None

    def test_batch_sweep_passes(self, capsys):
        code = main(
            ["sweep", "-n", "4", "-t", "2", "-k", "2",
             "--max-crash-round", "2", "--limit", "1500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK over 1500 runs" in out
        assert "symmetry=none" in out
        assert "engine" not in out

    @pytest.mark.parametrize("command", ["compare", "sweep", "figure4", "surgery", "census"])
    def test_engine_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--engine", "reference"])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["census", "-n", "3", "-t", "1", "-k", "1", "--backend", "packed"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_nonpositive_worker_counts_rejected(self):
        for bad in ("0", "-8"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--processes", bad])

    def test_empty_space_is_not_vacuously_ok(self, capsys):
        # A negative --max-failures empties the adversary space; an
        # exhaustive-verification command must not report success for it.
        code = main(["sweep", "-n", "3", "-t", "1", "-k", "1", "--max-failures", "-1"])
        assert code == 2
        assert "nothing was verified" in capsys.readouterr().out

    def test_unbounded_sweep_of_huge_space_refused(self, capsys):
        # The default n=7, t=4 context enumerates an astronomically large
        # space; without --limit the command must refuse instead of hanging.
        assert main(["sweep"]) == 2
        out = capsys.readouterr().out
        assert "refusing to enumerate" in out
        assert "--limit" in out

    def test_quotient_sweep_reports_full_space(self, capsys):
        # --symmetry quotient verifies one representative per renaming orbit
        # but the report must still account for every enumerated adversary.
        code = main(
            ["sweep", "-n", "4", "-t", "2", "-k", "2",
             "--max-crash-round", "2", "--limit", "1500", "--symmetry", "quotient"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK over 1500 runs" in out
        assert "symmetry=quotient" in out

    def test_unknown_symmetry_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--symmetry", "orbit"])

    def test_constructive_sweep_reports_full_space(self, capsys):
        # --symmetry constructive generates one representative per orbit
        # straight from the space description; the report still accounts for
        # every member of the space.
        code = main(
            ["sweep", "-n", "4", "-t", "2", "-k", "2",
             "--max-crash-round", "2", "--symmetry", "constructive"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK over 51921 runs" in out
        assert "symmetry=constructive" in out

    def test_constructive_sweep_opens_refused_spaces(self, capsys):
        # n=5, t=2, mcr=2 has 364,743 members (> the unbounded threshold, so
        # the exhaustive guard refuses) but only 4,926 orbits — constructive
        # sweeps it without --limit.
        args = ["sweep", "-n", "5", "-t", "2", "-k", "2", "--max-crash-round", "2"]
        assert main(args) == 2
        assert "refusing to enumerate" in capsys.readouterr().out
        assert main(args + ["--symmetry", "constructive"]) == 0
        assert "OK over 364743 runs" in capsys.readouterr().out

    def test_constructive_refusal_counts_orbits(self, capsys):
        # The default n=7, t=4 space has astronomically many orbits too; the
        # constructive guard must refuse on the orbit count without hanging.
        assert main(["sweep", "--symmetry", "constructive"]) == 2
        out = capsys.readouterr().out
        assert "orbit representatives" in out
        assert "count" in out

    def test_constructive_empty_space_is_not_vacuously_ok(self, capsys):
        code = main(
            ["sweep", "-n", "3", "-t", "1", "-k", "1",
             "--max-failures", "-1", "--symmetry", "constructive"]
        )
        assert code == 2
        assert "nothing was verified" in capsys.readouterr().out

    def test_sweep_matches_reference_oracle(self, capsys):
        """The CLI's report line is the per-adversary ``Run`` oracle's."""
        from repro import oracles
        from repro.adversaries import RestrictedSpace
        from repro.core import UPMin
        from repro.model import Context

        code = main(
            ["sweep", "-n", "3", "-t", "1", "-k", "1", "--protocol", "upmin",
             "--receiver-policy", "none", "--limit", "200"]
        )
        assert code == 0
        space = RestrictedSpace(Context(n=3, t=1, k=1), receiver_policy="none", limit=200)
        reference = oracles.check_protocol(UPMin(1), space, 1)
        assert reference.runs_checked == 80
        assert reference.summary() in capsys.readouterr().out.splitlines()


class TestCountCommand:
    def test_count_reports_members_and_orbits(self, capsys):
        assert main(["count", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "2"]) == 0
        out = capsys.readouterr().out
        assert "members (closed form)   : 51,921" in out
        assert "adversary orbits        : 2,601" in out
        assert "tractable" in out

    def test_count_flags_intractable_exhaustive_sweep(self, capsys):
        # 364,743 members > the unbounded-sweep threshold, 4,926 orbits below
        # it: the verdicts must disagree, pointing at --symmetry constructive.
        assert main(["count", "-n", "5", "-t", "2", "-k", "2", "--max-crash-round", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep (exhaustive)      : needs --limit" in out
        assert "sweep --symmetry constructive: tractable" in out

    def test_count_accepts_restriction_flags(self, capsys):
        assert main(
            ["count", "-n", "4", "-t", "3", "-k", "2", "--max-failures", "1",
             "--receiver-policy", "none", "--max-crash-round", "1"]
        ) == 0
        assert "orbit reduction factor" in capsys.readouterr().out


class TestFigure4Command:
    def test_figure4_reports_gap(self, capsys):
        assert main(["figure4", "-k", "3", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "u-Pmin[k]" in out
        assert "time 2" in out
        assert "time 5" in out

    def test_figure4_quotient_reproduces_times(self, capsys):
        assert main(["figure4", "-k", "3", "--rounds", "4"]) == 0
        exhaustive = capsys.readouterr().out
        assert main(["figure4", "-k", "3", "--rounds", "4", "--symmetry", "quotient"]) == 0
        quotient = capsys.readouterr().out
        assert "canonical representative" in quotient
        # Decision times are constant on renaming orbits: every protocol's
        # reported last-decision time must match the exhaustive run.
        for line in exhaustive.splitlines():
            if "last correct decision" in line:
                assert line in quotient


class TestSurgeryCommand:
    def test_surgery_reports_guarantees(self, capsys):
        assert main(["surgery", "-k", "3", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "observer view preserved : True" in out
        assert "violation" in out
