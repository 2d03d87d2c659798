"""Unit tests for the Lemma 2 run surgery."""

import pytest

from repro import OptMin
from repro.adversaries import AdversaryGenerator, figure2_scenario, lemma2_surgery, verify_surgery
from repro.model import Context, Run


def fig2_base(k=3, depth=2):
    scenario = figure2_scenario(k=k, depth=depth)
    run = Run(None, scenario.adversary, scenario.context.t, horizon=depth)
    return scenario, run


class TestSurgeryConstruction:
    def test_chains_have_one_member_per_layer(self):
        scenario, run = fig2_base()
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])
        assert len(result.chains) == 3
        for chain in result.chains:
            assert len(chain) == 3

    def test_values_assigned_to_chain_heads(self):
        scenario, run = fig2_base()
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])
        for b, chain in enumerate(result.chains):
            assert result.adversary.initial_value(chain[0]) == b

    def test_chain_members_crash_one_per_round(self):
        scenario, run = fig2_base()
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])
        pattern = result.adversary.pattern
        for chain in result.chains:
            for layer in range(2):
                assert pattern.crash_round(chain[layer]) == layer + 1
                (event,) = [e for e in pattern.crashes if e.process == chain[layer]]
                assert event.receivers == frozenset({chain[layer + 1]})

    def test_requesting_more_chains_than_capacity_rejected(self):
        scenario, run = fig2_base(k=2, depth=2)
        with pytest.raises(ValueError):
            lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])

    def test_empty_value_list_rejected(self):
        scenario, run = fig2_base()
        with pytest.raises(ValueError):
            lemma2_surgery(run, scenario.observer, 2, [])

    def test_explicit_chains_are_validated(self):
        scenario, run = fig2_base()
        bad_chain = [[scenario.observer] * 3]
        with pytest.raises(ValueError):
            lemma2_surgery(run, scenario.observer, 2, [0], chains=bad_chain)


class TestLemma2Guarantees:
    @pytest.mark.parametrize("k,depth", [(2, 1), (2, 2), (3, 2), (4, 2)])
    def test_guarantees_on_figure2(self, k, depth):
        scenario = figure2_scenario(k=k, depth=depth)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=depth)
        values = list(range(k))
        result = lemma2_surgery(run, scenario.observer, depth, values)
        check = verify_surgery(run, result)
        assert check.observer_view_preserved
        assert check.values_delivered
        assert check.no_foreign_values
        assert check.residual_capacity
        assert check.ok

    def test_guarantees_on_random_high_capacity_nodes(self):
        """Apply the surgery wherever a random run exhibits enough hidden capacity."""
        context = Context(n=7, t=5, k=2)
        # Concentrate crashes in the first two rounds: that is where hidden
        # capacity >= 2 actually arises.
        generator = AdversaryGenerator(context, seed=17, max_crash_round=2)
        applied = 0
        for adversary in generator.sample(150, num_failures=context.t):
            run = Run(None, adversary, context.t, horizon=3)
            for time in (1, 2):
                view = run.view(0, time) if run.has_view(0, time) else None
                if view is None or view.hidden_capacity() < 2:
                    continue
                result = lemma2_surgery(run, 0, time, [0, 1])
                check = verify_surgery(run, result)
                assert check.observer_view_preserved
                assert check.values_delivered
                assert check.no_foreign_values
                applied += 1
        assert applied >= 10, "the random family should contain usable high-capacity nodes"

    def test_surgered_adversary_keeps_failure_bound(self):
        scenario, run = fig2_base()
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])
        result.adversary.pattern.check_crash_bound(scenario.context.t)


class TestSurgeryDrivesDecisions:
    def test_chain_tails_decide_their_values_under_optmin(self):
        """The heart of Lemma 1's induction: each surviving carrier decides its own value."""
        scenario, run = fig2_base(k=3, depth=2)
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])
        surgered = Run(OptMin(3), result.adversary, scenario.context.t)
        decided = {
            surgered.decision_value(chain[-1]) for chain in result.chains
        }
        assert decided == {0, 1, 2}

    def test_observer_decides_low_after_surgery(self):
        """With all low values in play, the observer cannot output the high value."""
        scenario, run = fig2_base(k=3, depth=2)
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1, 2])
        surgered = Run(OptMin(3), result.adversary, scenario.context.t)
        assert surgered.decision_value(scenario.observer) in {0, 1, 2}
        assert len(surgered.decided_values(correct_only=True)) <= 3
