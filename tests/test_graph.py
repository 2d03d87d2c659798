"""The run engine's views against graph reachability over ``<i, m>`` nodes.

:func:`repro.oracles.seen_nodes` computes ``Gα(i, m)`` from first principles
(a backwards search over delivered messages and self edges); the engine's
incremental ``latest_seen`` summaries, and the seen / guaranteed-crashed /
hidden classification built on them, must agree with it.
"""

import pytest

from repro import oracles
from repro.adversaries import (
    AdversaryGenerator,
    figure1_scenario,
    figure2_scenario,
    figure4_scenario,
)
from repro.model import Adversary, Context, CrashEvent, FailurePattern, ProcessTimeNode, Run


def chain_adversary():
    # p1 crashes in round 1 delivering only to p2; p2 crashes in round 2
    # delivering only to p3 (the Fig. 1 shape on 5 processes).
    events = [CrashEvent(1, 1, frozenset({2})), CrashEvent(2, 2, frozenset({3}))]
    return Adversary([1, 0, 1, 1, 1], FailurePattern(5, events))


def message_chain_exists(adversary, source, target):
    """Whether a Lamport message chain leads from ``source`` to ``target``."""
    return source in oracles.seen_nodes(adversary, target)


def is_node(adversary, node):
    """Whether ``node`` is a node of the layered communication graph."""
    try:
        oracles.seen_nodes(adversary, node)
    except KeyError:
        return False
    return True


def classify_from_reachability(adversary, observer):
    """Per layer, the processes seen / guaranteed crashed / hidden from ``observer``.

    Built from the reachable set alone: ``<j, l>`` is guaranteed crashed
    once some seen node ``<h, c>`` with ``c <= l`` and ``h != j`` missed
    ``j``'s round-``c`` message; hidden means neither seen nor crashed.
    """
    seen = oracles.seen_nodes(adversary, observer)
    pattern = adversary.pattern
    evidence = {}
    for node in seen:
        if node.time == 0:
            continue
        for j in range(adversary.n):
            if j != node.process and j not in pattern.senders_to(node.process, node.time):
                evidence[j] = min(evidence.get(j, node.time), node.time)
    layers = []
    for layer in range(observer.time + 1):
        seen_here = {j for j in range(adversary.n) if ProcessTimeNode(j, layer) in seen}
        crashed = {j for j in range(adversary.n) if evidence.get(j, layer + 1) <= layer}
        hidden = set(range(adversary.n)) - seen_here - crashed
        layers.append((seen_here, crashed, hidden))
    return layers


class TestGraphConstruction:
    def test_nodes_exclude_crashed_layers(self):
        adversary = chain_adversary()
        assert is_node(adversary, ProcessTimeNode(1, 0))
        assert not is_node(adversary, ProcessTimeNode(1, 1))
        assert is_node(adversary, ProcessTimeNode(2, 1))
        assert not is_node(adversary, ProcessTimeNode(2, 2))
        assert is_node(adversary, ProcessTimeNode(0, 2))

    def test_edges_follow_failure_pattern(self):
        adversary = chain_adversary()
        # The crashing delivery, withheld from the observer.
        assert message_chain_exists(adversary, ProcessTimeNode(1, 0), ProcessTimeNode(2, 1))
        assert not message_chain_exists(adversary, ProcessTimeNode(1, 0), ProcessTimeNode(0, 1))
        # Correct senders reach everyone; the self edge.
        assert message_chain_exists(adversary, ProcessTimeNode(0, 0), ProcessTimeNode(4, 1))
        assert message_chain_exists(adversary, ProcessTimeNode(0, 0), ProcessTimeNode(0, 1))

    def test_layer_counts(self):
        adversary = chain_adversary()
        counts = [
            sum(is_node(adversary, ProcessTimeNode(j, layer)) for j in range(5))
            for layer in range(3)
        ]
        assert counts == [5, 4, 3]
        assert counts == [len(adversary.pattern.active_processes(layer)) for layer in range(3)]

    def test_initial_values_attached(self):
        adversary = chain_adversary()
        run = Run(None, adversary, t=2, horizon=2)
        for process, view in run.views_at(2).items():
            seen = oracles.seen_nodes(adversary, ProcessTimeNode(process, 2))
            for j in range(5):
                expected = adversary.values[j] if ProcessTimeNode(j, 0) in seen else None
                assert view.value_of(j) == expected


CLASSIFICATION_CONTEXTS = [
    pytest.param(Context(n=4, t=2, k=1), 3, id="n4-t2"),
    pytest.param(Context(n=5, t=3, k=2), 3, id="n5-t3"),
    pytest.param(Context(n=6, t=4, k=2), 4, id="n6-t4"),
]


class TestClassificationFromReachability:
    """``View``'s seen / crashed / hidden split equals the reachability definition."""

    @staticmethod
    def pairs(context, horizon, seed=7, count=15):
        for adversary in AdversaryGenerator(context, seed=seed).sample(count):
            run = Run(None, adversary, context.t, horizon=horizon)
            for time in range(horizon + 1):
                for process, view in run.views_at(time).items():
                    expected = classify_from_reachability(
                        adversary, ProcessTimeNode(process, time)
                    )
                    yield view, expected

    @pytest.mark.parametrize("context, horizon", CLASSIFICATION_CONTEXTS)
    def test_seen_nodes_match(self, context, horizon):
        for view, expected in self.pairs(context, horizon):
            for layer, (seen, _crashed, _hidden) in enumerate(expected):
                for j in range(context.n):
                    assert view.is_seen(ProcessTimeNode(j, layer)) == (j in seen)

    @pytest.mark.parametrize("context, horizon", CLASSIFICATION_CONTEXTS)
    def test_guaranteed_crashed_nodes_match(self, context, horizon):
        for view, expected in self.pairs(context, horizon):
            for layer, (_seen, crashed, _hidden) in enumerate(expected):
                for j in range(context.n):
                    node = ProcessTimeNode(j, layer)
                    assert view.is_guaranteed_crashed(node) == (j in crashed)

    @pytest.mark.parametrize("context, horizon", CLASSIFICATION_CONTEXTS)
    def test_hidden_nodes_match(self, context, horizon):
        for view, expected in self.pairs(context, horizon):
            profile = []
            for layer, (_seen, _crashed, hidden) in enumerate(expected):
                assert view.hidden_processes_at(layer) == frozenset(hidden)
                profile.append(len(hidden))
            assert view.hidden_profile() == tuple(profile)
            assert view.hidden_capacity() == min(profile)

    @pytest.mark.parametrize("context, horizon", CLASSIFICATION_CONTEXTS)
    def test_known_failures_match(self, context, horizon):
        for view, expected in self.pairs(context, horizon):
            crashed = set().union(*(layer[1] for layer in expected))
            assert view.known_crashed_processes() == frozenset(crashed)
            assert view.known_failure_count() == len(crashed)


class TestViewSubgraph:
    def test_view_subgraph_matches_seen_nodes(self):
        adversary = chain_adversary()
        run = Run(None, adversary, t=2, horizon=2)
        observer = ProcessTimeNode(0, 2)
        explicit = oracles.seen_nodes(adversary, observer)
        view = run.view(0, 2)
        for j in range(5):
            for layer in range(3):
                node = ProcessTimeNode(j, layer)
                assert (node in explicit) == view.is_seen(node)

    def test_latest_seen_matches_run_engine(self):
        adversary = chain_adversary()
        run = Run(None, adversary, t=2, horizon=2)
        explicit = oracles.latest_seen_per_process(adversary, ProcessTimeNode(0, 2))
        assert explicit == run.view(0, 2).latest_seen

    def test_latest_seen_matches_on_random_adversaries(self):
        context = Context(n=6, t=4, k=2)
        generator = AdversaryGenerator(context, seed=5)
        for adversary in generator.sample(25):
            run = Run(None, adversary, context.t, horizon=2)
            for process, view in run.views_at(2).items():
                explicit = oracles.latest_seen_per_process(adversary, ProcessTimeNode(process, 2))
                assert explicit == view.latest_seen

    def test_view_subgraph_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            oracles.seen_nodes(chain_adversary(), ProcessTimeNode(1, 1))


PAPER_SCENARIOS = [
    pytest.param(lambda: figure1_scenario(chain_length=2), id="figure1"),
    pytest.param(lambda: figure1_scenario(chain_length=3, extra_processes=2), id="figure1-long"),
    pytest.param(lambda: figure2_scenario(k=3, depth=2), id="figure2"),
    pytest.param(lambda: figure4_scenario(k=2, rounds=3), id="figure4"),
]


@pytest.mark.parametrize("build", PAPER_SCENARIOS)
def test_paper_scenarios_classify_like_reachability(build):
    """Every view of the paper's figure runs splits layers as reachability does."""
    scenario = build()
    adversary = scenario.adversary
    horizon = adversary.pattern.max_crash_round() + 1
    run = Run(None, adversary, scenario.context.t, horizon=horizon)
    for time in range(horizon + 1):
        for process, view in run.views_at(time).items():
            expected = classify_from_reachability(adversary, ProcessTimeNode(process, time))
            for layer, (seen, crashed, hidden) in enumerate(expected):
                assert view.hidden_processes_at(layer) == frozenset(hidden)
                for j in range(adversary.n):
                    node = ProcessTimeNode(j, layer)
                    assert view.is_seen(node) == (j in seen)
                    assert view.is_guaranteed_crashed(node) == (j in crashed)


class TestMessageChains:
    def test_chain_exists_along_the_hidden_chain(self):
        scenario = figure1_scenario(chain_length=2)
        chain = scenario.roles["chain"]
        assert message_chain_exists(
            scenario.adversary, ProcessTimeNode(chain[0], 0), ProcessTimeNode(chain[-1], 2)
        )

    def test_no_chain_to_the_observer_while_hidden(self):
        scenario = figure1_scenario(chain_length=2)
        chain = scenario.roles["chain"]
        assert not message_chain_exists(
            scenario.adversary, ProcessTimeNode(chain[0], 0), ProcessTimeNode(scenario.observer, 2)
        )
        # One round later the tail relays and the chain reaches the observer.
        assert message_chain_exists(
            scenario.adversary, ProcessTimeNode(chain[0], 0), ProcessTimeNode(scenario.observer, 3)
        )

    def test_reflexive_chain(self):
        node = ProcessTimeNode(0, 1)
        assert message_chain_exists(chain_adversary(), node, node)

    def test_missing_nodes_mean_no_chain(self):
        assert not message_chain_exists(
            chain_adversary(), ProcessTimeNode(1, 1), ProcessTimeNode(0, 1)
        )
