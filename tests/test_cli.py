"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import UPMin


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
        # --limit caps orbits: the first 1,500 orbits hold 31,329 members.
        code = main(
            ["sweep", "-n", "4", "-t", "2", "-k", "2",
             "--max-crash-round", "2", "--limit", "1500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK over 31329 runs" in out
        assert "symmetry" not in out
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

    @pytest.mark.parametrize(
        "command",
        [["compare"], ["sweep"], ["figure4"], ["census"], ["jobs", "submit", "--queue", "q"]],
        ids=["compare", "sweep", "figure4", "census", "jobs-submit"],
    )
    @pytest.mark.parametrize("value", ["none", "quotient", "constructive"])
    def test_symmetry_flag_is_gone(self, command, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--symmetry", value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --symmetry" in capsys.readouterr().err

    def test_sweep_reports_full_space(self, capsys):
        # One generated representative per orbit, straight from the space
        # description; the report still accounts for every member.
        code = main(["sweep", "-n", "4", "-t", "2", "-k", "2", "--max-crash-round", "2"])
        assert code == 0
        assert "OK over 51921 runs" in capsys.readouterr().out

    def test_sweep_opens_spaces_past_the_member_ceiling(self, capsys):
        # n=5, t=2, mcr=2 has 364,743 members (past the 200,000 ceiling) but
        # only 4,926 orbits, so it is swept without --limit.
        args = ["sweep", "-n", "5", "-t", "2", "-k", "2", "--max-crash-round", "2"]
        assert main(args) == 0
        assert "OK over 364743 runs" in capsys.readouterr().out

    def test_refusal_counts_orbits(self, capsys):
        # The default n=7, t=4 space has astronomically many orbits; the
        # guard must refuse on the orbit count without hanging.
        assert main(["sweep"]) == 2
        out = capsys.readouterr().out
        assert "refusing to sweep" in out
        assert "orbit representatives" in out
        assert "count" in out
        assert "--limit" in out

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
#: context (refused), and n=5 t=2 mcr=2 (364,743 members, 4,926 orbits,
#: admitted).
ADMISSION_CASES = [
    {"n": 7, "t": 4, "k": 2, "max_crash_round": None},
    {"n": 5, "t": 2, "k": 2, "max_crash_round": 2},
]


class TestSweepAdmission:
    @pytest.mark.parametrize("limit", [None, 10])
    @pytest.mark.parametrize(
        "space", ADMISSION_CASES, ids=[f"n{space['n']}t{space['t']}" for space in ADMISSION_CASES]
    )
    def test_refuses_exactly_when_admission_rejects(self, space, limit, capsys):
        from repro.service import admission, normalize_spec

        verdict = admission(
            normalize_spec({"kind": "sweep", **space, "protocol": "optmin", "limit": limit})
        )
        argv = ["sweep", "-n", str(space["n"]), "-t", str(space["t"]), "-k", str(space["k"])]
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

    def test_count_prints_one_tractability_line(self, capsys):
        # A sweep folds orbits, so the verdict counts orbits: 364,743 members
        # but 4,926 orbits is tractable; 643,776 orbits needs --limit.
        assert main(["count", "-n", "5", "-t", "2", "-k", "2", "--max-crash-round", "2"]) == 0
        out = capsys.readouterr().out
        assert "  sweep                   : tractable (threshold 200,000 orbits)" in out
        assert "exhaustive" not in out and "symmetry" not in out
        assert main(["count", "-n", "5", "-t", "3", "-k", "2"]) == 0
        assert "  sweep                   : needs --limit" in capsys.readouterr().out

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

    def test_figure4_prints_the_given_adversary(self, capsys):
        from repro.adversaries import figure4_scenario
        from repro.engine import sweep

        assert main(["figure4", "-k", "3", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "canonical representative" not in out
        scenario = figure4_scenario(k=3, rounds=4)
        (run,) = sweep(UPMin(3), [scenario.adversary], scenario.context.t)
        assert f"last correct decision at time {run.last_decision_time()}" in out


class TestSurgeryCommand:
    def test_surgery_reports_guarantees(self, capsys):
        assert main(["surgery", "-k", "3", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "observer view preserved : True" in out
        assert "violation" in out
