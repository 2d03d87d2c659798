"""Unit tests for the paper's figure scenarios (Figs. 1, 2 and 4)."""

import pytest

from repro import EarlyDecidingKSet, FloodMin, OptMin, UPMin, UniformEarlyDecidingKSet
from repro.adversaries import figure1_scenario, figure2_scenario, figure4_scenario
from repro.model import Run
from repro.verification import check_run_for_protocol


class TestFigure1:
    def test_context_admits_adversary(self):
        scenario = figure1_scenario(chain_length=3)
        scenario.context.validate(scenario.adversary)

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_hidden_path_survives_for_chain_length_rounds(self, length):
        scenario = figure1_scenario(chain_length=length)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=length + 1)
        observer = scenario.observer
        for time in range(length + 1):
            assert run.view(observer, time).hidden_capacity() >= 1
        assert run.view(observer, length + 1).hidden_capacity() == 0

    def test_chain_value_reaches_only_chain_members(self):
        scenario = figure1_scenario(chain_length=2, chain_value=0)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=2)
        chain = scenario.roles["chain"]
        assert run.view(chain[-1], 2).knows_value(0)
        assert not run.view(scenario.observer, 2).knows_value(0)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            figure1_scenario(chain_length=0)


class TestFigure2:
    @pytest.mark.parametrize("k,depth", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_observer_hidden_capacity_is_k(self, k, depth):
        scenario = figure2_scenario(k=k, depth=depth)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=depth)
        assert run.view(scenario.observer, depth).hidden_capacity() >= k

    def test_chains_are_disjoint(self):
        scenario = figure2_scenario(k=3, depth=2)
        members = scenario.roles["chains_flat"]
        assert len(members) == len(set(members)) == 9

    def test_failure_count_is_k_times_depth(self):
        scenario = figure2_scenario(k=3, depth=2)
        assert scenario.adversary.num_failures == 6

    def test_optmin_cannot_decide_before_depth_plus_one(self):
        scenario = figure2_scenario(k=2, depth=3)
        run = Run(OptMin(2), scenario.adversary, scenario.context.t)
        assert run.decision_time(scenario.observer) == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            figure2_scenario(k=0, depth=2)
        with pytest.raises(ValueError):
            figure2_scenario(k=2, depth=0)


class TestFigure4:
    @pytest.mark.parametrize("k,rounds", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 3)])
    def test_upmin_decides_at_time_two(self, k, rounds):
        scenario = figure4_scenario(k=k, rounds=rounds)
        run = Run(UPMin(k), scenario.adversary, scenario.context.t)
        for p in scenario.roles["correct"]:
            assert run.decision_time(p) == 2

    @pytest.mark.parametrize("k,rounds", [(2, 3), (3, 4)])
    def test_all_failure_counting_baselines_decide_at_deadline(self, k, rounds):
        scenario = figure4_scenario(k=k, rounds=rounds)
        deadline = scenario.expectations["deadline"]
        for protocol in (FloodMin(k), EarlyDecidingKSet(k), UniformEarlyDecidingKSet(k)):
            run = Run(protocol, scenario.adversary, scenario.context.t)
            assert run.last_decision_time() == deadline == rounds + 1

    def test_correct_processes_perceive_k_new_failures_each_round(self):
        scenario = figure4_scenario(k=3, rounds=4)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=5)
        for p in scenario.roles["correct"]:
            for time in range(1, 5):
                perceived = (
                    run.view(p, time).known_failure_count()
                    - run.view(p, time - 1).known_failure_count()
                )
                assert perceived >= 3

    def test_hidden_capacity_drops_below_k_exactly_at_time_two(self):
        scenario = figure4_scenario(k=3, rounds=4)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=3)
        observer = scenario.observer
        assert run.view(observer, 1).hidden_capacity() >= 3
        assert run.view(observer, 2).hidden_capacity() < 3

    def test_every_protocol_remains_correct_on_the_scenario(self):
        scenario = figure4_scenario(k=3, rounds=4)
        for protocol in (UPMin(3), OptMin(3), FloodMin(3), EarlyDecidingKSet(3), UniformEarlyDecidingKSet(3)):
            run = Run(protocol, scenario.adversary, scenario.context.t)
            assert not check_run_for_protocol(run)

    def test_uniform_decisions_are_only_the_high_value(self):
        scenario = figure4_scenario(k=3, rounds=4)
        run = Run(UPMin(3), scenario.adversary, scenario.context.t)
        assert run.decided_values(correct_only=False) == frozenset({3})

    def test_speedup_grows_with_t(self):
        small = figure4_scenario(k=3, rounds=2)
        large = figure4_scenario(k=3, rounds=8)
        assert large.expectations["deadline"] - large.expectations["upmin_decision_time"] > (
            small.expectations["deadline"] - small.expectations["upmin_decision_time"]
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            figure4_scenario(k=1, rounds=3)
        with pytest.raises(ValueError):
            figure4_scenario(k=3, rounds=1)
