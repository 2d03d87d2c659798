"""Differential harness pinning the hash-dedup quotient to the exhaustive surveys.

The quotient layer's contract is *identity*, not approximation: a quotient
sweep must reproduce the exhaustive verdicts and censuses byte for byte
(with orbit weights standing in for repeated members).  The hash-dedup
quotient of an arbitrary family (:func:`repro.oracles.quotient_family`) has
no production path; this suite pins its oracle folds against production's
member-by-member folds of the same family, and the production class census
against the per-vertex census oracle.  It pins

* checker reports (violation existence, orbit-weighted histograms, counts)
  for correct and violating protocols, on both engines;
* the beatability violation scan's found/not-found verdict and the validity
  of the returned witness;
* domination verdicts and the orbit-weighted aggregate counters;
* the decision-time statistics of :func:`repro.analysis.collect`;
* the signature-keyed homology cache against the retained dense oracle on
  the exhaustive n=4, t=2 star family (both signature flavours), and the
  quotient Proposition 2 census against the exhaustive census;
* quotient-system knowledge (the hash-dedup ``oracles.system_from_family``)
  against full-system knowledge for renaming-invariant facts;
* certificate lifting: decision times transport along the canonical
  permutation.
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.oracles import canonical_adversary
from repro.adversaries import enumerate_adversaries
from repro.analysis import ProtocolStatistics, collect
from repro.engine import SweepRunner
from repro.core import Opt0, OptMin, UPMin
from repro.baselines import FloodMin
from repro.knowledge import System
from repro.knowledge.operators import at_most_low_values_decided, exists_value
from repro.model import Context, Run
from repro.topology import (
    ConnectivityCache,
    build_restricted_complex,
    capacity_connectivity_census,
)
from repro.symmetry import renaming_star_signature
from repro.verification import (
    CheckReport,
    EagerOptMin,
    check_protocol,
    compare_protocols,
    find_agreement_violation,
    last_decider_compare,
)
from repro.verification.beatability import beating_attempt_witness
from repro.verification.checker import fold_checks

CONTEXT = Context(n=4, t=2, k=2)


def quotient_items(family):
    return list(oracles.symmetry_stream(family, "quotient"))


def quotient_check(protocol, family, t, enforce_paper_bound=True):
    """The batch checker folding the hash-dedup stream of ``family``."""
    report = CheckReport(protocol=protocol.name)
    fold_checks(report, quotient_items(family), SweepRunner(protocol, t), enforce_paper_bound)
    return report


def quotient_scan(protocol, family, t):
    """``find_agreement_violation`` over one first-seen member per orbit."""
    pairs = list(oracles.iter_orbit_representatives(family))
    found = find_agreement_violation(protocol, [adversary for _index, adversary in pairs], t)
    return None if found is None else (pairs[found[0]][0], found[1])


def quotient_collect(protocols, family, t):
    """``collect``'s statistics folded over the hash-dedup stream of ``family``."""
    items = quotient_items(family)
    stats = {}
    for protocol in protocols:
        entry = ProtocolStatistics(protocol=protocol.name)
        times = SweepRunner(protocol, t).decision_times([a for _i, a, _w in items])
        for (_index, _adversary, weight), last in zip(items, times):
            entry.record(last, None, weight=weight)
        stats[protocol.name] = entry
    return stats


def quotient_system(protocol, family, t):
    """The fused batch system over the hash-dedup representatives, class-indexed."""
    items = quotient_items(family)
    system = System.from_family(protocol, [a for _i, a, _w in items], t)
    system._quotient_index(tuple(w for _i, _a, w in items))
    return system


@pytest.fixture(scope="module")
def family():
    return list(
        enumerate_adversaries(CONTEXT, max_crash_round=2, receiver_policy="canonical", limit=6000)
    )


class TestCheckerQuotient:
    @pytest.mark.parametrize("protocol_factory", [lambda: OptMin(2), lambda: UPMin(2), Opt0])
    def test_reports_identical(self, family, protocol_factory):
        exhaustive = check_protocol(protocol_factory(), family, CONTEXT.t)
        quotient = quotient_check(protocol_factory(), family, CONTEXT.t)
        assert quotient.ok == exhaustive.ok
        assert quotient.runs_checked == exhaustive.runs_checked == len(family)
        assert quotient.decision_time_histogram == exhaustive.decision_time_histogram
        assert quotient.max_decision_time == exhaustive.max_decision_time

    def test_reference_engine_quotient(self, family):
        small = family[:400]
        exhaustive = oracles.check_protocol(OptMin(2), small, CONTEXT.t)
        quotient = oracles.check_protocol(OptMin(2), small, CONTEXT.t, symmetry="quotient")
        assert quotient.decision_time_histogram == exhaustive.decision_time_histogram
        assert quotient.runs_checked == exhaustive.runs_checked

    def test_violating_protocol_agrees(self):
        witness = beating_attempt_witness(2, depth=2)
        family = list(
            enumerate_adversaries(
                witness.context, max_crash_round=2, receiver_policy="canonical", limit=1500
            )
        ) + [witness.adversary]
        eager = EagerOptMin(2, witness.eager_time)
        exhaustive = check_protocol(eager, family, witness.context.t, enforce_paper_bound=False)
        quotient = quotient_check(eager, family, witness.context.t, enforce_paper_bound=False)
        assert not exhaustive.ok
        assert quotient.ok == exhaustive.ok

    def test_unknown_symmetry_rejected(self, family):
        with pytest.raises(ValueError, match="symmetry"):
            check_protocol(OptMin(2), family[:5], CONTEXT.t, symmetry="orbit")
        with pytest.raises(ValueError, match="symmetry"):
            oracles.check_protocol(OptMin(2), family[:5], CONTEXT.t, symmetry="orbit")


class TestBeatabilityQuotient:
    def test_no_violation_on_correct_protocol(self, family):
        assert find_agreement_violation(OptMin(2), family, CONTEXT.t) is None
        assert quotient_scan(OptMin(2), family, CONTEXT.t) is None

    def test_violation_found_and_witness_valid(self):
        witness = beating_attempt_witness(2, depth=2)
        family = list(
            enumerate_adversaries(
                witness.context, max_crash_round=2, receiver_policy="canonical", limit=1500
            )
        ) + [witness.adversary]
        eager = EagerOptMin(2, witness.eager_time)
        exhaustive = find_agreement_violation(eager, family, witness.context.t)
        quotient = quotient_scan(eager, family, witness.context.t)
        assert exhaustive is not None and quotient is not None
        index, adversary = quotient
        # The returned witness is a true family member at the returned index
        # and genuinely violates k-agreement.
        assert family[index] == adversary
        run = Run(eager, adversary, witness.context.t)
        assert len(run.decided_values(correct_only=True)) > 2


class TestDominationQuotient:
    def test_verdicts_and_aggregates(self, family):
        exhaustive = compare_protocols(OptMin(2), FloodMin(2), family, CONTEXT.t)
        quotient = oracles.compare_protocols(
            OptMin(2), FloodMin(2), family, CONTEXT.t, symmetry="quotient"
        )
        assert quotient.dominates == exhaustive.dominates
        assert quotient.strictly_dominates == exhaustive.strictly_dominates
        assert quotient.adversaries_checked == exhaustive.adversaries_checked
        assert quotient.rounds_saved == exhaustive.rounds_saved

    def test_last_decider(self, family):
        exhaustive = last_decider_compare(OptMin(2), FloodMin(2), family, CONTEXT.t)
        quotient = oracles.last_decider_compare(
            OptMin(2), FloodMin(2), family, CONTEXT.t, symmetry="quotient"
        )
        assert quotient.dominates == exhaustive.dominates
        assert quotient.strictly_dominates == exhaustive.strictly_dominates
        assert quotient.rounds_saved == exhaustive.rounds_saved
        assert quotient.adversaries_checked == exhaustive.adversaries_checked


class TestCollectQuotient:
    def test_statistics_identical(self, family):
        protocols = [OptMin(2), FloodMin(2)]
        exhaustive = collect(protocols, family, CONTEXT.t)
        quotient = quotient_collect(protocols, family, CONTEXT.t)
        for name in exhaustive:
            assert quotient[name].histogram == exhaustive[name].histogram
            assert quotient[name].runs == exhaustive[name].runs
            assert quotient[name].mean_time == exhaustive[name].mean_time
            assert quotient[name].worst_time == exhaustive[name].worst_time


class TestHomologyCacheDifferential:
    """The acceptance differential: cached profiles == dense oracle, n=4, t=2."""

    @pytest.fixture(scope="class")
    def complex_(self):
        return build_restricted_complex(CONTEXT, time=2, max_crashes_per_round=2)

    @pytest.mark.parametrize(
        "signature", [None, renaming_star_signature], ids=["isomorphism", "renaming"]
    )
    def test_cached_equals_dense_oracle_on_every_star(self, complex_, signature):
        cache = ConnectivityCache(signature=signature)
        for vertex in complex_.vertex_views:
            star = complex_.complex.star(vertex)
            expected = oracles.dense_connectivity_profile(star, max_q=CONTEXT.k - 1)
            assert cache.profile(star, max_q=CONTEXT.k - 1) == expected
        # The cache must actually collapse the family, not degenerate to a
        # per-star recomputation.
        assert cache.hits > 0
        assert cache.misses < len(complex_.vertex_views)

    def test_census_quotient_equals_exhaustive(self, complex_):
        exhaustive = oracles.capacity_connectivity_census(complex_, CONTEXT.k, symmetry="none")
        quotient = capacity_connectivity_census(complex_, CONTEXT.k)
        assert quotient.row == exhaustive.row
        assert quotient.classes < exhaustive.vertices
        assert quotient.homology_runs <= quotient.classes

    def test_census_quotient_rejects_non_closed_family(self):
        from repro.model import Adversary
        from repro.topology import build_protocol_complex
        from repro.topology.protocol_complex import per_round_crash_patterns

        # Dropping every pattern that crashes process 0 breaks closure under
        # renaming: classes mix vertices whose stars lost different facets.
        broken = [
            Adversary([CONTEXT.k] * CONTEXT.n, pattern)
            for pattern in per_round_crash_patterns(CONTEXT.n, 2, CONTEXT.k)
            if pattern.num_failures <= CONTEXT.t and 0 not in pattern.faulty
        ]
        pc = build_protocol_complex(broken, time=2, t=CONTEXT.t)
        with pytest.raises(ValueError, match="closed under process renaming"):
            capacity_connectivity_census(pc, CONTEXT.k)


class TestSystemQuotient:
    @pytest.fixture(scope="class")
    def small_family(self):
        return list(
            enumerate_adversaries(
                CONTEXT, max_crash_round=2, receiver_policy="canonical", limit=500
            )
        )

    @pytest.mark.parametrize("fact_factory", [lambda: exists_value(0), lambda: at_most_low_values_decided(2)])
    def test_quotient_knowledge_matches_full(self, small_family, fact_factory):
        fact = fact_factory()
        full = System.from_family(OptMin(2), small_family, CONTEXT.t)
        quotient = quotient_system(OptMin(2), small_family, CONTEXT.t)
        assert sum(quotient.orbit_weights) == len(small_family)
        by_adversary = {run.adversary: run for run in full.runs}
        checked = 0
        for quotient_run in quotient.runs:
            full_run = by_adversary[quotient_run.adversary]
            for time in range(0, 3):
                for process in range(CONTEXT.n):
                    if not full_run.has_view(process, time):
                        continue
                    assert quotient.knows(fact, quotient_run, process, time) == full.knows(
                        fact, full_run, process, time
                    )
                    checked += 1
        assert checked > 100

    def test_quotient_system_reference_engine(self, small_family):
        batch = quotient_system(OptMin(2), small_family, CONTEXT.t)
        reference = oracles.system_from_family(
            OptMin(2), small_family, CONTEXT.t, symmetry="quotient"
        )
        assert batch._index == reference._index
        assert batch.orbit_weights == reference.orbit_weights


class TestCertificateLifting:
    def test_decision_times_transport_along_certificate(self, family):
        protocol = OptMin(2)
        for adversary in family[100:140]:
            canonical = canonical_adversary(adversary)
            original = Run(protocol, adversary, CONTEXT.t)
            representative = Run(protocol, canonical.representative, CONTEXT.t)
            pi = canonical.permutation
            for process in range(CONTEXT.n):
                assert original.decision_time(process) == representative.decision_time(
                    pi[process]
                )
                assert original.decision_value(process) == representative.decision_value(
                    pi[process]
                )

    def test_views_transport_along_certificate(self, family):
        from repro.model.view import view_key
        from repro.symmetry import apply_to_view_key

        for adversary in family[200:215]:
            canonical = canonical_adversary(adversary)
            original = Run(None, adversary, CONTEXT.t, horizon=2)
            representative = Run(None, canonical.representative, CONTEXT.t, horizon=2)
            pi = canonical.permutation
            for time in range(0, 3):
                for process, view in original.views_at(time).items():
                    lifted = apply_to_view_key(view_key(view), pi)
                    assert lifted == view_key(representative.view(pi[process], time))
