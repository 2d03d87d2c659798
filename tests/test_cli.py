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
        assert "processes" not in vars(args)

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

    @pytest.mark.parametrize("flag", ["--processes", "--max-retries"])
    @pytest.mark.parametrize(
        "command",
        [["compare"], ["sweep"], ["census"], ["serve", "--queue", "q", "--workdir", "w"]],
        ids=["compare", "sweep", "census", "serve"],
    )
    def test_parallel_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + [flag, "2"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

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


#: The spaces of the CLI/admission agreement test: the default n=7 t=4
#: context, and n=5 t=2 mcr=2 (364,743 members, 4,926 orbits), each with the
#: symmetries whose verdicts differ there.
ADMISSION_CASES = [
    ({"n": 7, "t": 4, "k": 2, "max_crash_round": None}, "none"),
    ({"n": 7, "t": 4, "k": 2, "max_crash_round": None}, "constructive"),
    ({"n": 5, "t": 2, "k": 2, "max_crash_round": 2}, "none"),
    ({"n": 5, "t": 2, "k": 2, "max_crash_round": 2}, "quotient"),
    ({"n": 5, "t": 2, "k": 2, "max_crash_round": 2}, "constructive"),
]


class TestSweepAdmission:
    @pytest.mark.parametrize("limit", [None, 10])
    @pytest.mark.parametrize(
        "space, symmetry",
        ADMISSION_CASES,
        ids=[f"n{space['n']}t{space['t']}-{symmetry}" for space, symmetry in ADMISSION_CASES],
    )
    def test_refuses_exactly_when_admission_rejects(self, space, symmetry, limit, capsys):
        from repro.service import admission

        verdict = admission(
            {
                "kind": "sweep", **space, "protocol": "optmin", "symmetry": symmetry,
                "receiver_policy": "canonical", "max_failures": None, "limit": limit,
            }
        )
        argv = ["sweep", "-n", str(space["n"]), "-t", str(space["t"]), "-k", str(space["k"])]
        argv += ["--symmetry", symmetry]
        if space["max_crash_round"] is not None:
            argv += ["--max-crash-round", str(space["max_crash_round"])]
        if limit is not None:
            argv += ["--limit", str(limit)]
        code = main(argv)
        out = capsys.readouterr().out
        if verdict["admit"]:
            assert code == 0 and "refusing" not in out
        else:
            assert code == 2 and "refusing" in out


#: Out-of-range parameters, and the constraint each must name.
USAGE_ERRORS = [
    (["sweep", "-n", "3", "-t", "5"], "0 <= t <= n-1"),
    (["sweep", "-n", "3", "-t", "1", "-k", "0"], "k must be >= 1"),
    (["census", "-n", "3", "-t", "3"], "0 <= t <= n-1"),
    (["census", "-n", "3", "-t", "1", "-m", "-1"], "'time' must be an integer >= 1"),
    (["census", "-n", "3", "-t", "1", "-m", "0"], "'time' must be an integer >= 1"),
    (["count", "-n", "3", "-t", "3"], "0 <= t <= n-1"),
    (["run", "-n", "3", "-t", "3"], "0 <= t <= n-1"),
    (["compare", "-n", "3", "-t", "3", "--samples", "2"], "0 <= t <= n-1"),
    (["figure4", "-k", "0"], "k >= 2"),
    (["surgery", "-k", "0"], "k and depth must be >= 1"),
]


@pytest.mark.parametrize(
    "argv, constraint", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
)
def test_out_of_range_parameters_are_usage_errors(argv, constraint, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert constraint in line


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
