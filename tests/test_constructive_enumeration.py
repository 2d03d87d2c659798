"""Differential harness pinning constructive orbit generation to the oracles.

The constructive enumerator's contract is *identity with the hash-dedup
oracle*: canonical augmentation over failure patterns plus stabiliser-aware
vector enumeration must emit exactly the representatives and orbit sizes
:func:`repro.oracles.dedup_orbits` finds by streaming the whole space — on
every tractable restriction combination.  This suite pins

* the orbit streams themselves: representative sets, per-orbit sizes, the
  partition invariant ``sum(sizes) == count_adversaries(...)`` and
  canonicity of every representative;
* the ``limit`` behaviour of
  :func:`repro.adversaries.enumerate_orbits` / ``count_orbits``;
* :class:`repro.adversaries.RestrictedSpace` as a space description (its
  iterator vs the enumerator, its counts vs the closed forms);
* every consumer of a space's orbits against its exhaustive and
  quotient verdicts: checker reports, the beatability scan, domination,
  decision-time statistics, knowledge systems, and the census alias;
* the plain-family rejection (constructive generation needs a space
  description; deduplicating an arbitrary family is the quotient's job).
"""

from __future__ import annotations

import itertools
import math

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
from repro.model import Adversary, Context
from repro.oracles import adversary_orbit_size
from repro.symmetry import (
    canonical_adversary,
    iter_canonical_patterns,
    iter_canonical_vectors,
    vector_orbit_size,
)
from repro.symmetry.canonical import identity_permutation
from repro.symmetry.constructive import _assembly, _is_kernel_minimal, _multiset_fixings
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


def orbit_map(orbits):
    mapping = {}
    for orbit in orbits:
        assert orbit.representative not in mapping, "orbit emitted twice"
        mapping[orbit.representative] = orbit
    return mapping


class TestStreamIdentity:
    @pytest.mark.parametrize("combo", COMBOS, ids=[str(c) for c in COMBOS])
    def test_constructive_equals_dedup(self, combo):
        constructive = orbit_map(enumerate_orbits(CONTEXT, **combo))
        dedup = orbit_map(oracles.dedup_orbits(CONTEXT, **combo))
        assert constructive.keys() == dedup.keys()
        for representative, orbit in constructive.items():
            assert orbit.size == dedup[representative].size

    @pytest.mark.parametrize("combo", COMBOS, ids=[str(c) for c in COMBOS])
    def test_trusted_representatives_equal_checked_ones(self, combo):
        for orbit in enumerate_orbits(CONTEXT, **combo):
            adversary = orbit.representative
            checked = Adversary(adversary.values, adversary.pattern)
            assert type(adversary) is Adversary
            assert adversary == checked and hash(adversary) == hash(checked)

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


#: (n, t, k) of the certification grid: every n <= 5, each at a crash bound
#: whose whole space a direct count still reaches.
CERTIFIED_CONTEXTS = [(2, 1, 2), (3, 2, 2), (4, 2, 2), (5, 2, 1)]


def certify_orbit_sizes(n, t, k, receiver_policy, max_crash_round):
    """Check every generated size against both oracles and the partition
    invariant; return how many nodes had a non-trivial kernel."""
    context = Context(n=n, t=t, k=k)
    total = kernel_nodes = 0
    for node in iter_canonical_patterns(n, max_crash_round, receiver_policy, t):
        pattern = node.pattern()
        kernel_nodes += len(node.kernel) > 1
        for vector, size in iter_canonical_vectors(node, context.values_domain):
            assert size == vector_orbit_size(node, vector)
            assert size == adversary_orbit_size(Adversary(vector, pattern))
            total += size
    assert total == count_adversaries(context, max_crash_round, receiver_policy)
    return kernel_nodes


class TestOrbitSizeCertification:
    """The generated orbit sizes (``n! / ∏ multiplicity!`` on a trivial
    kernel) against both orbit-stabiliser oracles, vector by vector."""

    @pytest.mark.parametrize("max_crash_round", [1, 2])
    @pytest.mark.parametrize("receiver_policy", ["none", "canonical", "all"])
    @pytest.mark.parametrize("n, t, k", CERTIFIED_CONTEXTS)
    def test_sizes_match_both_oracles(self, n, t, k, receiver_policy, max_crash_round):
        certify_orbit_sizes(n, t, k, receiver_policy, max_crash_round)

    def test_a_non_trivial_kernel_is_certified(self):
        assert certify_orbit_sizes(4, 2, 2, "canonical", 1) > 0


def reference_canonical_vectors(node, domain):
    """The ``(vector, size)`` stream with each candidate gathered slot by slot.

    The list-comprehension form :func:`iter_canonical_vectors` used before
    it permuted candidates with one ``itemgetter``, kept here verbatim
    apart from the hoisted per-cell factors.
    """
    domain = tuple(domain)
    twin_classes, active = _assembly(node)
    identity = identity_permutation(node.n)
    kernel = [k for k in node.kernel if k != identity]
    order = [position for cell in twin_classes for position in cell] + active
    slot_of = [0] * node.n
    for slot, position in enumerate(order):
        slot_of[position] = slot
    cell_choices = [
        list(itertools.combinations_with_replacement(domain, len(cell))) for cell in twin_classes
    ]
    for cells in itertools.product(*cell_choices):
        prefix = tuple(value for values in cells for value in values)
        fixings = math.prod(_multiset_fixings(values) for values in cells)
        size = math.factorial(node.n) // fixings
        for tail in itertools.product(domain, repeat=len(active)):
            flat = prefix + tail
            candidate = tuple([flat[slot] for slot in slot_of])
            if not kernel:
                yield candidate, size
            elif _is_kernel_minimal(candidate, node, kernel):
                yield candidate, vector_orbit_size(node, candidate)


def slot_order_is_identity(node):
    twin_classes, active = _assembly(node)
    return [position for cell in twin_classes for position in cell] + active == list(
        range(node.n)
    )


#: Every canonical pattern of these grids, n <= 5, over a three-value
#: domain (two values at n=5, whose domain-3 streams are ~1M vectors).  The
#: n=5 two-round "all"-receivers grid is left out: its 49,415 patterns take
#: ~20 s to enumerate.  Non-identity slot orders first occur at n=5.
VECTOR_GRIDS = [
    (n, receiver_policy, max_round)
    for n in (2, 3, 4, 5)
    for receiver_policy in ("none", "canonical", "all")
    for max_round in (1, 2)
    if (n, receiver_policy, max_round) != (5, "all", 2)
]


class TestVectorStreamPin:
    """:func:`iter_canonical_vectors` emits the reference stream, in order."""

    @pytest.mark.parametrize(
        "n, receiver_policy, max_round", VECTOR_GRIDS, ids=[str(g) for g in VECTOR_GRIDS]
    )
    def test_stream_is_the_reference_stream(self, n, receiver_policy, max_round):
        domain = range(3 if n < 5 else 2)
        for node in iter_canonical_patterns(n, max_round, receiver_policy, n - 1):
            assert list(iter_canonical_vectors(node, domain)) == list(
                reference_canonical_vectors(node, domain)
            ), node.events

    @pytest.fixture(scope="class")
    def permuted(self):
        """The n=5 patterns whose slots are not in process order."""
        return [
            node
            for node in iter_canonical_patterns(5, 1, "all", 4)
            if not slot_order_is_identity(node)
        ]

    @pytest.mark.parametrize("domain_size", [3, 4])
    def test_permuted_slot_orders(self, permuted, domain_size):
        assert len(permuted) == 26
        assert any(len(node.kernel) > 1 for node in permuted)
        for node in permuted:
            stream = list(iter_canonical_vectors(node, range(domain_size)))
            assert stream == list(reference_canonical_vectors(node, range(domain_size)))
            assert all(type(vector) is tuple and len(vector) == 5 for vector, _size in stream)


class TestCountsAndLimits:
    @pytest.mark.parametrize("combo", COMBOS, ids=[str(c) for c in COMBOS])
    def test_count_orbits_modes_agree(self, combo):
        constructive = count_orbits(CONTEXT, **combo)
        assert constructive == oracles.dedup_pattern_and_orbit_counts(CONTEXT, **combo)[1]
        assert constructive == len(orbit_map(enumerate_orbits(CONTEXT, **combo)))

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
        assert SPACE.orbit_count() == oracles.dedup_pattern_and_orbit_counts(
            CONTEXT, max_crash_round=2, receiver_policy="canonical"
        )[1]

    def test_limit_truncates_members_and_orbits(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=2, limit=11)
        assert len(list(space)) == 11
        assert len(list(space.orbits())) == 11

    def test_plain_family_rejected(self):
        """Orbits need a space description; a plain family is checked member by member."""
        family = list(SPACE)[:20]
        with pytest.raises(ValueError, match="RestrictedSpace"):
            oracles.check_protocol(OptMin(2), family, CONTEXT.t, symmetry="constructive")
        assert check_protocol(OptMin(2), family, CONTEXT.t).runs_checked == 20

    def test_empty_stream_is_accepted(self):
        report = check_protocol(OptMin(2), RestrictedSpace(CONTEXT, max_failures=-1), CONTEXT.t)
        assert report.runs_checked == 0
        assert check_protocol(OptMin(2), [], CONTEXT.t).runs_checked == 0


class TestConsumerDifferentials:
    """Every consumer of a space's orbits vs exhaustive/quotient."""

    @pytest.fixture(scope="class")
    def family(self):
        return list(SPACE)

    @pytest.mark.parametrize("protocol_factory", [lambda: OptMin(2), lambda: UPMin(2)])
    def test_checker_reports_identical(self, family, protocol_factory):
        exhaustive = check_protocol(protocol_factory(), family, CONTEXT.t)
        constructive = check_protocol(protocol_factory(), SPACE, CONTEXT.t)
        assert constructive.ok == exhaustive.ok
        assert constructive.runs_checked == exhaustive.runs_checked == len(family)
        assert (
            constructive.decision_time_histogram == exhaustive.decision_time_histogram
        )
        assert constructive.max_decision_time == exhaustive.max_decision_time

    def test_checker_reference_engine(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=1, receiver_policy="none")
        exhaustive = oracles.check_protocol(OptMin(2), list(space), CONTEXT.t)
        constructive = oracles.check_protocol(OptMin(2), space, CONTEXT.t)
        assert constructive.decision_time_histogram == exhaustive.decision_time_histogram
        assert constructive.runs_checked == exhaustive.runs_checked

    def test_beatability_scan_verdict(self, family):
        assert find_agreement_violation(OptMin(2), family, CONTEXT.t) is None
        assert find_agreement_violation(OptMin(2), SPACE, CONTEXT.t) is None

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
        )
        space = RestrictedSpace(
            witness.context, max_crash_round=1, max_failures=1, limit=50
        )
        stream = itertools.chain(space.orbits(), [witness_orbit])
        eager = EagerOptMin(2, witness.eager_time)
        constructive = find_agreement_violation(eager, stream, witness.context.t)
        assert constructive is not None
        index, adversary = constructive
        assert 0 <= index <= 50  # generation order; 50 = the appended orbit
        run = Run(eager, adversary, witness.context.t)
        assert len(run.decided_values(correct_only=True)) > 2

    def test_domination_verdicts_and_aggregates(self, family):
        exhaustive = compare_protocols(OptMin(2), FloodMin(2), family, CONTEXT.t)
        constructive = compare_protocols(OptMin(2), FloodMin(2), SPACE, CONTEXT.t)
        assert constructive.dominates == exhaustive.dominates
        assert constructive.strictly_dominates == exhaustive.strictly_dominates
        assert constructive.adversaries_checked == exhaustive.adversaries_checked
        assert constructive.rounds_saved == exhaustive.rounds_saved

    def test_collect_statistics_identical(self, family):
        protocols = [OptMin(2), FloodMin(2)]
        exhaustive = collect(protocols, family, CONTEXT.t)
        constructive = collect(protocols, SPACE, CONTEXT.t)
        for name in exhaustive:
            assert constructive[name].histogram == exhaustive[name].histogram
            assert constructive[name].runs == exhaustive[name].runs
            assert constructive[name].mean_time == exhaustive[name].mean_time
            assert constructive[name].worst_time == exhaustive[name].worst_time

    def test_system_matches_quotient_system(self):
        space = RestrictedSpace(CONTEXT, max_crash_round=1, receiver_policy="canonical")
        quotient = oracles.system_from_family(
            OptMin(2), list(space), CONTEXT.t, symmetry="quotient"
        )
        constructive = System.from_family(OptMin(2), space, CONTEXT.t)
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
        exhaustive = oracles.capacity_connectivity_census(pc, CONTEXT.k, symmetry="none")
        constructive = capacity_connectivity_census(pc, CONTEXT.k)
        assert constructive.row == exhaustive.row
        assert constructive.classes < exhaustive.vertices
