"""Unit tests for the unbeatability-mechanism (Lemma 3) demonstration."""

import pytest

from repro import OptMin
from repro.model import Run
from repro.verification import (
    EagerOptMin,
    beating_attempt_witness,
    check_agreement,
    demonstrate_unbeatability_mechanism,
    find_agreement_violation,
)


class TestEagerOptMin:
    def test_eager_time_validation(self):
        with pytest.raises(ValueError):
            EagerOptMin(2, eager_time=-1)

    def test_eager_variant_decides_no_later_than_optmin(self):
        """Eager beats (or ties) Optmin pointwise — that is exactly why it must be unsafe."""
        witness = beating_attempt_witness(k=2, depth=2)
        optmin = Run(OptMin(2), witness.adversary, witness.context.t)
        eager = Run(EagerOptMin(2, witness.eager_time), witness.adversary, witness.context.t)
        for p in range(witness.adversary.n):
            ot, et = optmin.decision_time(p), eager.decision_time(p)
            if ot is not None:
                assert et is not None and et <= ot

    def test_eager_variant_beats_optmin_at_the_observer(self):
        witness = beating_attempt_witness(k=3, depth=2)
        optmin = Run(OptMin(3), witness.adversary, witness.context.t)
        eager = Run(EagerOptMin(3, witness.eager_time), witness.adversary, witness.context.t)
        assert eager.decision_time(witness.observer) < optmin.decision_time(witness.observer)


class TestWitnessAdversary:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_optmin_is_correct_on_witness(self, k):
        witness = beating_attempt_witness(k=k, depth=2)
        run = Run(OptMin(k), witness.adversary, witness.context.t)
        assert not check_agreement(run, k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_eager_variant_violates_agreement_on_witness(self, k):
        witness = beating_attempt_witness(k=k, depth=2)
        run = Run(EagerOptMin(k, witness.eager_time), witness.adversary, witness.context.t)
        assert check_agreement(run, k)

    def test_witness_chains_carry_all_low_values(self):
        witness = beating_attempt_witness(k=3, depth=2)
        assert {0, 1, 2} <= set(witness.adversary.values)

    def test_observer_is_high_with_full_capacity(self):
        witness = beating_attempt_witness(k=3, depth=2)
        run = Run(None, witness.adversary, witness.context.t, horizon=2)
        view = run.view(witness.observer, 2)
        assert not view.is_low(3)
        assert view.hidden_capacity() >= 3


class TestMechanismSummary:
    def test_summary_fields(self):
        result = demonstrate_unbeatability_mechanism(k=3, depth=2)
        assert result["optmin_decided_values"] == [0, 1, 2]
        assert sorted(result["eager_decided_values"]) == [0, 1, 2, 3]
        assert result["optmin_violations"] == []
        assert result["eager_violations"]
        assert result["eager_observer_time"] < result["optmin_observer_time"]


class TestViolationSearch:
    def test_find_agreement_violation_locates_witness(self):
        witness = beating_attempt_witness(k=2, depth=2)
        found = find_agreement_violation(
            EagerOptMin(2, witness.eager_time), [witness.adversary], witness.context.t
        )
        assert found is not None
        assert found[0] == 0

    def test_find_agreement_violation_returns_none_for_optmin(self, small_context, random_adversaries):
        assert (
            find_agreement_violation(OptMin(2), random_adversaries[:40], small_context.t) is None
        )
