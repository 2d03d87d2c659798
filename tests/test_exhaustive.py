"""Exhaustive model checking of the paper's headline claims on small contexts.

Promised by the :mod:`repro.adversaries.enumeration` docstring: for contexts
small enough to enumerate, the universally quantified theorems are discharged
by brute force over the whole (restricted) adversary space —

* **Proposition 1** — Optmin[k] solves nonuniform k-set consensus (validity,
  decision, k-agreement) with every process deciding by ``⌊f/k⌋ + 1``;
* **Theorem 3** — u-Pmin[k] solves uniform k-set consensus with every process
  deciding by ``min(⌊t/k⌋ + 1, ⌊f/k⌋ + 2)``;
* the ``k = 1`` anchors Opt0 / u-Opt0 satisfy the same specifications for
  binary consensus.

Every space is checked through **both** engines: the reference per-adversary
``Run`` (the oracle) and the batch sweep engine, which additionally must
produce decision-for-decision identical outcomes — including the full
exhaustive n=4, t=2 space, the engine's acceptance configuration.

``receiver_policy="all"`` makes the small spaces genuinely exhaustive; the
n=4 space uses the canonical delivery subsets (empty / singleton / full),
which preserve the hidden-path structure the protocols are sensitive to.
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.adversaries.enumeration import enumerate_adversaries
from repro.oracles import count_adversaries
from repro.baselines import EarlyDecidingKSet, UniformEarlyDecidingKSet
from repro.core import Opt0, OptMin, UOpt0, UPMin
from repro.engine import SweepRunner
from repro.model import Context, Run
from repro.verification import check_protocol


#: Binary-consensus context, fully exhaustive (all delivery subsets).
CONSENSUS = Context(n=3, t=2, k=1, max_value=1)
#: The engine acceptance configuration: n=4, t=2 set consensus.
SET_CONSENSUS = Context(n=4, t=2, k=2)


def consensus_space():
    return list(enumerate_adversaries(CONSENSUS, receiver_policy="all"))


def set_consensus_space():
    return list(
        enumerate_adversaries(SET_CONSENSUS, max_crash_round=2, receiver_policy="canonical")
    )


@pytest.fixture(scope="module")
def consensus_adversaries():
    return consensus_space()


@pytest.fixture(scope="module")
def set_consensus_adversaries():
    return set_consensus_space()


class TestExhaustiveSpecifications:
    """Agreement + validity + decision + paper decision-time bounds, by brute force."""

    @pytest.mark.parametrize("engine", ["batch", "reference"])
    @pytest.mark.parametrize(
        "protocol", [Opt0(), UOpt0(), OptMin(1), UPMin(1)], ids=lambda p: p.name
    )
    def test_consensus_protocols_over_full_space(self, consensus_adversaries, protocol, engine):
        check = check_protocol if engine == "batch" else oracles.check_protocol
        report = check(protocol, consensus_adversaries, CONSENSUS.t, enforce_paper_bound=True)
        assert report.ok, report.summary()
        assert report.runs_checked == len(consensus_adversaries)

    @pytest.mark.parametrize(
        "protocol",
        [OptMin(2), UPMin(2), EarlyDecidingKSet(2), UniformEarlyDecidingKSet(2)],
        ids=lambda p: p.name,
    )
    def test_set_consensus_protocols_over_n4_space(self, set_consensus_adversaries, protocol):
        report = check_protocol(
            protocol, set_consensus_adversaries, SET_CONSENSUS.t, enforce_paper_bound=True
        )
        assert report.ok, report.summary()
        assert report.runs_checked == len(set_consensus_adversaries)

    def test_worst_observed_decision_times(self, set_consensus_adversaries):
        """Pin the worst case realised inside the enumerated n=4 space.

        Optmin[k] never needs its ⌊t/k⌋+1 deadline here: the Fig. 2 hidden
        chain that makes the bound tight needs layers wider than n=4 affords,
        so every process decides by time 1.  u-Pmin[k]'s deadline clause does
        fire (worst time 2 = ⌊t/k⌋+1), exactly Theorem 3's bound.
        """
        optmin_worst = max(
            run.last_decision_time()
            for run in SweepRunner(OptMin(2), SET_CONSENSUS.t).sweep(set_consensus_adversaries)
        )
        assert optmin_worst == 1
        upmin_worst = max(
            run.last_decision_time()
            for run in SweepRunner(UPMin(2), SET_CONSENSUS.t).sweep(set_consensus_adversaries)
        )
        assert upmin_worst == SET_CONSENSUS.t // SET_CONSENSUS.k + 1 == 2

    def test_space_sizes(self, consensus_adversaries, set_consensus_adversaries):
        """Pin the enumerated space sizes so restrictions cannot silently shrink."""
        assert len(consensus_adversaries) == count_adversaries(
            CONSENSUS, receiver_policy="all"
        )
        assert len(consensus_adversaries) == 6536
        assert len(set_consensus_adversaries) == 51921


class TestEnginesAgreeExhaustively:
    """Acceptance: identical decisions/decision-times on the exhaustive n=4,t=2 sweep."""

    @pytest.mark.parametrize("protocol", [OptMin(2), UPMin(2)], ids=lambda p: p.name)
    def test_batch_equals_reference_on_n4_t2(self, set_consensus_adversaries, protocol):
        batch = SweepRunner(protocol, SET_CONSENSUS.t).sweep(set_consensus_adversaries)
        assert len(batch) == len(set_consensus_adversaries)
        for adversary, batch_run in zip(set_consensus_adversaries, batch):
            reference = Run(protocol, adversary, SET_CONSENSUS.t)
            assert batch_run.decisions() == reference.decisions(), (
                f"engines disagree on {adversary!r}"
            )

    def test_batch_equals_reference_on_consensus_space(self, consensus_adversaries):
        protocol = UOpt0()
        batch = SweepRunner(protocol, CONSENSUS.t).sweep(consensus_adversaries)
        for adversary, batch_run in zip(consensus_adversaries, batch):
            assert batch_run.decisions() == Run(protocol, adversary, CONSENSUS.t).decisions()
