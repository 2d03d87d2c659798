"""Unit tests for the hidden-node / hidden-path / hidden-capacity layer."""

import pytest

from repro.adversaries import figure1_scenario, figure2_scenario
from repro.knowledge import (
    classify_layer,
    disjoint_hidden_chains,
    hidden_capacity,
    witness_matrix,
)
from repro.model import Adversary, FailurePattern, Run


def chain_run():
    """The Fig. 1 shape: a single hidden chain of length 2 w.r.t. observer 0."""
    scenario = figure1_scenario(chain_length=2)
    return Run(None, scenario.adversary, scenario.context.t, horizon=3), scenario


def capacity_run(k=3, depth=2):
    scenario = figure2_scenario(k=k, depth=depth)
    return Run(None, scenario.adversary, scenario.context.t, horizon=depth + 1), scenario


class TestHiddenNodes:
    def test_classify_layer_is_a_partition(self):
        run, scenario = chain_run()
        view = run.view(scenario.observer, 2)
        for layer in range(3):
            groups = classify_layer(view, layer)
            all_processes = set(groups["seen"]) | set(groups["crashed"]) | set(groups["hidden"])
            assert all_processes == set(range(view.n))
            assert not set(groups["seen"]) & set(groups["hidden"])
            assert not set(groups["crashed"]) & set(groups["hidden"])


class TestHiddenPath:
    def test_hidden_path_exists_along_the_chain(self):
        run, scenario = chain_run()
        view = run.view(scenario.observer, 2)
        assert view.hidden_capacity() >= 1
        (path,) = disjoint_hidden_chains(view, 1)
        assert len(path) == 3
        for layer, process in enumerate(path):
            assert process in view.hidden_processes_at(layer)

    def test_no_hidden_path_in_failure_free_run(self):
        run = Run(None, Adversary([0, 1, 1], FailurePattern.failure_free(3)), t=1, horizon=1)
        view = run.view(0, 1)
        assert view.hidden_capacity() == 0
        with pytest.raises(ValueError):
            disjoint_hidden_chains(view, 1)


class TestWitnessesAndChains:
    def test_witness_matrix_default_capacity(self):
        run, scenario = capacity_run()
        view = run.view(scenario.observer, 2)
        rows = witness_matrix(view)
        assert len(rows) == 3
        assert all(len(row) == view.hidden_capacity() for row in rows)

    def test_witness_matrix_rejects_excess_capacity(self):
        run, scenario = capacity_run()
        view = run.view(scenario.observer, 2)
        with pytest.raises(ValueError):
            witness_matrix(view, view.hidden_capacity() + 1)

    def test_disjoint_hidden_chains_are_layer_disjoint_and_hidden(self):
        run, scenario = capacity_run(k=3, depth=2)
        view = run.view(scenario.observer, 2)
        chains = disjoint_hidden_chains(view)
        assert len(chains) == 3
        for layer in range(3):
            members = [chain[layer] for chain in chains]
            assert len(set(members)) == 3
            for member in members:
                assert member in view.hidden_processes_at(layer)

    def test_chains_follow_scenario_chains_where_possible(self):
        run, scenario = capacity_run(k=2, depth=2)
        view = run.view(scenario.observer, 2)
        chains = disjoint_hidden_chains(view)
        flattened = {p for chain in chains for p in chain}
        scenario_members = set(scenario.roles["chains_flat"])
        # All chain witnesses must come from the scenario's hidden chains
        # (plus possibly extra hidden processes at the last layer).
        assert flattened & scenario_members

    def test_hidden_capacity_reexport(self):
        run, scenario = capacity_run()
        view = run.view(scenario.observer, 2)
        assert hidden_capacity(view) == view.hidden_capacity() == 3


class TestCapacityProfiles:
    def test_capacity_profile_is_weakly_decreasing(self):
        run, scenario = capacity_run(k=3, depth=2)
        profile = [
            run.view(scenario.observer, time).hidden_capacity()
            for time in range(run.horizon + 1)
            if run.has_view(scenario.observer, time)
        ]
        assert len(profile) >= 3
        assert all(profile[i] >= profile[i + 1] for i in range(len(profile) - 1))

