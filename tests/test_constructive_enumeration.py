"""Differential harness pinning constructive orbit generation to the oracles.

The constructive enumerator's contract is *identity with the hash-dedup
oracle*: canonical augmentation over failure patterns plus stabiliser-aware
vector enumeration must emit exactly the representatives and orbit sizes the
retained ``symmetry="dedup"`` path finds by streaming the whole space — on
every tractable restriction combination.  This suite pins

* the orbit streams themselves: representative sets, per-orbit sizes, the
  partition invariant ``sum(sizes) == count_adversaries(...)``, canonicity
  of every representative, and the certificate contract;
* the ``limit`` and argument-validation behaviour of
  :func:`repro.adversaries.enumerate_orbits` / ``count_orbits``;
* :class:`repro.adversaries.RestrictedSpace` as a space description (its
  iterator vs the enumerator, its counts vs the closed forms);
* every ``symmetry="constructive"`` consumer against its exhaustive and
  quotient verdicts: checker reports, the beatability scan, domination,
  decision-time statistics, knowledge systems, and the census alias;
* the plain-family rejection (constructive generation needs a space
  description; deduplicating an arbitrary family is the quotient's job).
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.adversaries import (
    RestrictedSpace,
    count_adversaries,
    count_orbits,
    enumerate_adversaries,
    enumerate_orbits,
)
from repro.analysis import collect
from repro.baselines import FloodMin
from repro.core import OptMin, UPMin
from repro.knowledge import System
from repro.model import Context
from repro.symmetry import adversary_orbit_size, apply_to_adversary, canonical_adversary
from repro.verification import check_protocol, compare_protocols, find_agreement_violation

CONTEXT = Context(n=4, t=2, k=2)

#: Restriction grids kept tractable for the dedup oracle (full enumeration).
COMBOS = [
    dict(max_crash_round=1, receiver_policy="none", max_failures=None),
    dict(max_crash_round=2, receiver_policy="none", max_failures=1),
    dict(max_crash_round=1, receiver_policy="canonical", max_failures=None),
    dict(max_crash_round=2, receiver_policy="canonical", max_failures=None),
    dict(max_crash_round=2, receiver_policy="canonical", max_failures=0),
    dict(max_crash_round=1, receiver_policy="all", max_failures=None),
    dict(max_crash_round=2, receiver_policy="all", max_failures=1),
]

SPACE = RestrictedSpace(CONTEXT, max_crash_round=2, receiver_policy="canonical")


def orbit_map(context, symmetry, **restrictions):
    mapping = {}
    for orbit in enumerate_orbits(context, symmetry=symmetry, **restrictions):
        assert orbit.representative not in mapping, "orbit emitted twice"
        mapping[orbit.representative] = orbit
    return mapping


class TestStreamIdentity:
    @pytest.mark.parametrize("combo", COMBOS, ids=[str(c) for c in COMBOS])
    def test_constructive_equals_dedup(self, combo):
        constructive = orbit_map(CONTEXT, "constructive", **combo)
        dedup = orbit_map(CONTEXT, "dedup", **combo)
        assert constructive.keys() == dedup.keys()
        for representative, orbit in constructive.items():
            assert orbit.size == dedup[representative].size

    @pytest.mark.parametrize("combo", COMBOS[:4], ids=[str(c) for c in COMBOS[:4]])
    def test_orbit_sizes_partition_the_space(self, combo):
        total = sum(
            orbit.size for orbit in enumerate_orbits(CONTEXT, **combo)
        )
        assert total == count_adversaries(CONTEXT, **combo)

    def test_partition_holds_where_the_oracle_is_out_of_reach(self):
        # n=6 with 2.2M members: the dedup oracle takes ~40s here, the
        # constructive stream milliseconds — the closed-form member count is
        # the only oracle that scales with it.
        context = Context(n=6, t=2, k=2)
        total = sum(
            orbit.size for orbit in enumerate_orbits(context, max_crash_round=2)
        )
        assert total == count_adversaries(context, max_crash_round=2)

    def test_representatives_are_canonical(self):
        for orbit in enumerate_orbits(CONTEXT, max_crash_round=2, limit=300):
            canonical = canonical_adversary(orbit.representative)
            assert canonical.representative == orbit.representative

    def test_sizes_match_orbit_stabiliser_theorem(self):
        for orbit in enumerate_orbits(CONTEXT, max_crash_round=2, limit=300):
            assert orbit.size == adversary_orbit_size(orbit.representative)

    def test_certificate_contract(self):
        # The certificate maps the orbit's first-emitted member onto the
        # representative; constructively the representative IS that member,
        # so the certificate is the identity — but the contract is checked
        # through the group action, not by assuming identity.
        for orbit in enumerate_orbits(CONTEXT, max_crash_round=2, limit=300):
            assert (
                apply_to_adversary(orbit.representative, orbit.certificate)
                == orbit.representative
            )
            assert tuple(orbit.certificate) == tuple(range(CONTEXT.n))


class TestCountsAndLimits:
    @pytest.mark.parametrize("combo", COMBOS, ids=[str(c) for c in COMBOS])
    def test_count_orbits_modes_agree(self, combo):
        constructive = count_orbits(CONTEXT, symmetry="constructive", **combo)
        assert constructive == count_orbits(CONTEXT, symmetry="dedup", **combo)
        assert constructive == len(orbit_map(CONTEXT, "constructive", **combo))

    def test_limit_caps_orbits(self):
        assert len(list(enumerate_orbits(CONTEXT, max_crash_round=2, limit=7))) == 7
        assert list(enumerate_orbits(CONTEXT, max_crash_round=2, limit=0)) == []
        assert list(enumerate_orbits(CONTEXT, max_crash_round=2, limit=-3)) == []

    def test_negative_max_failures_empties_the_stream(self):
        assert list(enumerate_orbits(CONTEXT, max_failures=-1)) == []
        assert count_orbits(CONTEXT, max_failures=-1) == 0

    def test_max_crash_round_below_one_is_failure_free_only(self):
        orbits = list(enumerate_orbits(CONTEXT, max_crash_round=0))
        assert orbits and all(
            orbit.representative.num_failures == 0 for orbit in orbits
        )
        assert len(orbits) == count_orbits(CONTEXT, max_crash_round=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="orbit-enumeration mode"):
            list(enumerate_orbits(CONTEXT, symmetry="orbit"))
        with pytest.raises(ValueError, match="orbit-enumeration mode"):
            count_orbits(CONTEXT, symmetry="quotient")


class TestRestrictedSpace:
    def test_iteration_matches_enumerator(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=1, receiver_policy="none")
        assert list(space) == list(
            enumerate_adversaries(CONTEXT, max_crash_round=1, receiver_policy="none")
        )

    def test_counts_match_closed_forms(self):
        assert SPACE.estimated_size() == count_adversaries(
            CONTEXT, max_crash_round=2, receiver_policy="canonical"
        )
        assert SPACE.orbit_count() == count_orbits(
            CONTEXT, max_crash_round=2, receiver_policy="canonical"
        )
        assert SPACE.orbit_count() == SPACE.orbit_count(symmetry="dedup")

    def test_limit_truncates_members_and_orbits(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=2, limit=11)
        assert len(list(space)) == 11
        assert len(list(space.orbits())) == 11

    def test_plain_family_rejected(self):
        family = list(SPACE)[:20]
        with pytest.raises(ValueError, match="RestrictedSpace"):
            check_protocol(OptMin(2), family, CONTEXT.t, symmetry="constructive")

    def test_empty_stream_is_accepted(self):
        report = check_protocol(
            OptMin(2),
            RestrictedSpace(CONTEXT, max_failures=-1),
            CONTEXT.t,
            symmetry="constructive",
        )
        assert report.runs_checked == 0


class TestConsumerDifferentials:
    """Every ``symmetry="constructive"`` consumer vs exhaustive/quotient."""

    @pytest.fixture(scope="class")
    def family(self):
        return list(SPACE)

    @pytest.mark.parametrize("protocol_factory", [lambda: OptMin(2), lambda: UPMin(2)])
    def test_checker_reports_identical(self, family, protocol_factory):
        exhaustive = check_protocol(protocol_factory(), family, CONTEXT.t)
        constructive = check_protocol(
            protocol_factory(), SPACE, CONTEXT.t, symmetry="constructive"
        )
        assert constructive.ok == exhaustive.ok
        assert constructive.runs_checked == exhaustive.runs_checked == len(family)
        assert (
            constructive.decision_time_histogram == exhaustive.decision_time_histogram
        )
        assert constructive.max_decision_time == exhaustive.max_decision_time

    def test_checker_reference_engine(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=1, receiver_policy="none")
        exhaustive = oracles.check_protocol(OptMin(2), list(space), CONTEXT.t)
        constructive = oracles.check_protocol(OptMin(2), space, CONTEXT.t, symmetry="constructive")
        assert constructive.decision_time_histogram == exhaustive.decision_time_histogram
        assert constructive.runs_checked == exhaustive.runs_checked

    def test_beatability_scan_verdict(self, family):
        assert find_agreement_violation(OptMin(2), family, CONTEXT.t) is None
        assert (
            find_agreement_violation(OptMin(2), SPACE, CONTEXT.t, symmetry="constructive")
            is None
        )

    def test_beatability_violation_found(self):
        import itertools

        from repro.adversaries import AdversaryOrbit
        from repro.model import Run
        from repro.verification import EagerOptMin
        from repro.verification.beatability import beating_attempt_witness

        # The witness lives in an n=8 space far beyond full enumeration, so
        # this exercises the scan's other constructive entry point: a
        # pre-built AdversaryOrbit stream (clean orbits first, the witness's
        # canonical orbit appended).  The violation is constant on orbits —
        # scanning the canonical representative must still find it.
        witness = beating_attempt_witness(2, depth=2)
        canonical = canonical_adversary(witness.adversary)
        witness_orbit = AdversaryOrbit(
            canonical.representative,
            adversary_orbit_size(canonical.representative),
            canonical.permutation,
        )
        space = RestrictedSpace(
            witness.context, max_crash_round=1, max_failures=1, limit=50
        )
        stream = itertools.chain(space.orbits(), [witness_orbit])
        eager = EagerOptMin(2, witness.eager_time)
        constructive = find_agreement_violation(
            eager, stream, witness.context.t, symmetry="constructive"
        )
        assert constructive is not None
        index, adversary = constructive
        assert 0 <= index <= 50  # generation order; 50 = the appended orbit
        run = Run(eager, adversary, witness.context.t)
        assert len(run.decided_values(correct_only=True)) > 2

    def test_domination_verdicts_and_aggregates(self, family):
        exhaustive = compare_protocols(OptMin(2), FloodMin(2), family, CONTEXT.t)
        constructive = compare_protocols(
            OptMin(2), FloodMin(2), SPACE, CONTEXT.t, symmetry="constructive"
        )
        assert constructive.dominates == exhaustive.dominates
        assert constructive.strictly_dominates == exhaustive.strictly_dominates
        assert constructive.adversaries_checked == exhaustive.adversaries_checked
        assert constructive.rounds_saved == exhaustive.rounds_saved

    def test_collect_statistics_identical(self, family):
        protocols = [OptMin(2), FloodMin(2)]
        exhaustive = collect(protocols, family, CONTEXT.t)
        constructive = collect(protocols, SPACE, CONTEXT.t, symmetry="constructive")
        for name in exhaustive:
            assert constructive[name].histogram == exhaustive[name].histogram
            assert constructive[name].runs == exhaustive[name].runs
            assert constructive[name].mean_time == exhaustive[name].mean_time
            assert constructive[name].worst_time == exhaustive[name].worst_time

    def test_system_matches_quotient_system(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=1, receiver_policy="canonical")
        quotient = System.from_family(
            OptMin(2), list(space), CONTEXT.t, symmetry="quotient"
        )
        constructive = System.from_family(
            OptMin(2), space, CONTEXT.t, symmetry="constructive"
        )
        assert constructive.symmetry == "constructive"
        assert sum(constructive.orbit_weights) == sum(quotient.orbit_weights)
        assert sum(constructive.orbit_weights) == space.estimated_size()
        # Same orbits with the same weights: the quotient keeps the
        # first-seen member per orbit while the constructive path emits the
        # canonical representative, so compare under the canonical key.
        assert dict(
            zip(
                (
                    canonical_adversary(run.adversary).key
                    for run in constructive.runs
                ),
                constructive.orbit_weights,
            )
        ) == dict(
            zip(
                (canonical_adversary(run.adversary).key for run in quotient.runs),
                quotient.orbit_weights,
            )
        )

    def test_census_constructive_equals_exhaustive(self):
        from repro.topology import build_restricted_complex, capacity_connectivity_census

        pc = build_restricted_complex(CONTEXT, time=2, max_crashes_per_round=2)
        exhaustive = capacity_connectivity_census(pc, CONTEXT.k, symmetry="none")
        constructive = capacity_connectivity_census(
            pc, CONTEXT.k, symmetry="constructive"
        )
        assert constructive.row == exhaustive.row
        assert constructive.classes < exhaustive.vertices
