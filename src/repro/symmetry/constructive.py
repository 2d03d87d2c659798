"""Constructive orbit enumeration: one object generated per renaming orbit.

The hash-dedup quotient (:func:`repro.symmetry.iter_orbit_representatives`)
canonicalises every member of an enumerated space and keeps the first of each
canonical key, so its cost is proportional to the *space*, not to the set of
orbits — at n=6 with two crash rounds that is a ~150x overhead, and the
unbounded ``seen`` set grows with the orbit count.  This module generates the
canonical representatives *directly* (classic orderly generation / canonical
augmentation in the style of McKay), so the work is proportional to the
number of orbits and the memory to the recursion depth:

1. **Patterns by canonical augmentation.**  Canonical failure patterns are
   grown one crash event at a time.  From a canonical pattern ``P`` the
   candidate events (round ``1..max_round``, a currently-correct crasher, a
   policy-shaped receiver set) are reduced to one representative per
   ``Aut(P)``-orbit — ``Aut(P)`` is available in factored form from
   :class:`repro.symmetry.canonical.PatternCanon` (``∏ Sym(twin class) ·
   kernel``), so orbits are a union–find closure over its generators, never a
   factorial sweep.  A child ``Q = P + e`` is kept iff the added crasher's
   canonical image lies in the same ``Aut``-orbit as the *canonical deletion*
   (the crasher of the largest canonical event) — the McKay acceptance test.
   Each isomorphism class of patterns then appears exactly once in the tree,
   and rejected children prune their whole subtree.

2. **Vectors up to the pattern stabiliser.**  For each canonical pattern the
   input vectors are enumerated directly in canonical form: per twin class a
   weakly-increasing assignment (the fixed points of the within-twin-class
   sort), free assignments on the entangled cells, and — only when the
   kernel is non-trivial — a minimality test over the kernel.  This yields
   exactly the canonical vector of each ``(pattern, vector)`` orbit, the
   same representative :func:`repro.symmetry.canonical_adversary` computes,
   with the orbit size in closed form from the factored stabiliser.

Why each crash event is identified with its crasher: a process crashes at
most once, so events of a pattern are in bijection with the faulty set, and
an automorphism maps the event crashing ``p`` to the event crashing its
image — ``Aut``-orbits of events *are* ``Aut``-orbits of crashers.

Soundness leans on the same closure fact as the rest of the symmetry layer:
every enumeration restriction (crash-round cap, receiver policy, failure
cap) is renaming-invariant, so deleting the canonically-chosen event of a
canonical member of the restricted space lands back inside the space and the
augmentation tree reaches every class.  The hash-dedup orbit stream is
retained as the oracle (:func:`repro.oracles.dedup_orbits`);
``tests/test_constructive_enumeration.py`` pins the two streams to identical
key sets, representatives and sizes on every restriction combo.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

from ..model.failure_pattern import CrashEvent, FailurePattern
from .canonical import (
    NormalEvent,
    Permutation,
    _twin_sorted,
    apply_to_values,
    canonical_pattern,
    identity_permutation,
)


@dataclass(frozen=True)
class CanonicalPatternNode:
    """A canonical failure-pattern representative plus its stabiliser structure.

    ``events`` is the canonical event tuple (the pattern *is* the canonical
    form of its class) and ``twin_classes`` / ``kernel`` factor its
    automorphism group exactly as :class:`repro.symmetry.canonical.PatternCanon`
    does: ``Aut = ∏ Sym(twin class) · kernel`` with unique factorisation.
    """

    n: int
    events: Tuple[NormalEvent, ...]
    twin_classes: Tuple[Tuple[int, ...], ...]
    kernel: Tuple[Permutation, ...]

    def pattern(self) -> FailurePattern:
        """The canonical pattern as a model object."""
        return FailurePattern(
            self.n,
            [
                CrashEvent(process, round_, frozenset(receivers))
                for round_, process, receivers in self.events
            ],
        )

    def faulty(self) -> frozenset:
        """The crashers of the canonical pattern."""
        return frozenset(process for _round, process, _receivers in self.events)

    def automorphism_order(self) -> int:
        """``|Aut(pattern)| = ∏ |twin cell|! · |kernel|`` (unique factorisation)."""
        order = len(self.kernel)
        for cell in self.twin_classes:
            order *= math.factorial(len(cell))
        return order


def root_pattern_node(n: int) -> CanonicalPatternNode:
    """The failure-free root of the augmentation tree (its own canonical form)."""
    return CanonicalPatternNode(
        n, (), (tuple(range(n)),), (identity_permutation(n),)
    )


def stabiliser_generators(node: CanonicalPatternNode) -> List[Permutation]:
    """A generating set of ``Aut(pattern)`` in factored form.

    Adjacent transpositions within each twin class generate ``∏ Sym(twin
    class)``; together with the (few) non-identity kernel elements they
    generate the whole automorphism group — enough for the union–find orbit
    computations below, without ever enumerating the factorial group.
    """
    generators: List[Permutation] = []
    for cell in node.twin_classes:
        for u, w in zip(cell, cell[1:]):
            swap = list(range(node.n))
            swap[u], swap[w] = w, u
            generators.append(tuple(swap))
    identity = identity_permutation(node.n)
    for automorphism in node.kernel:
        if automorphism != identity:
            generators.append(automorphism)
    return generators


def _process_orbit_roots(n: int, generators: Sequence[Permutation]) -> List[int]:
    """Union–find roots of the process orbits under the generated group."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for generator in generators:
        for process in range(n):
            a, b = find(process), find(generator[process])
            if a != b:
                parent[b] = a
    return [find(process) for process in range(n)]


def _candidate_events(
    node: CanonicalPatternNode, max_round: int, receiver_policy: str
) -> List[NormalEvent]:
    """Every legal single-event extension of the canonical pattern."""
    from ..adversaries.enumeration import _receiver_subsets

    faulty = node.faulty()
    candidates: List[NormalEvent] = []
    for crasher in range(node.n):
        if crasher in faulty:
            continue
        for round_ in range(1, max_round + 1):
            for receivers in _receiver_subsets(node.n, crasher, receiver_policy):
                candidates.append((round_, crasher, tuple(sorted(receivers))))
    return candidates


def _candidate_orbit_representatives(
    candidates: Sequence[NormalEvent], generators: Sequence[Permutation]
) -> List[NormalEvent]:
    """One representative per ``Aut(P)``-orbit of candidate events.

    BFS closure under the generator action ``g·(r, p, R) = (r, g[p], g[R])``
    — the candidate set is closed under ``Aut(P)`` because the faulty set and
    every receiver-policy shape are preserved by automorphisms.  The visited
    set here is bounded by the per-node candidate count (``O(n · rounds ·
    subsets)``), not by the orbit count of the space — it is the only set
    the constructive path keeps, and it dies with the node.
    """
    visited = set()
    representatives: List[NormalEvent] = []
    for candidate in candidates:
        if candidate in visited:
            continue
        representatives.append(candidate)
        visited.add(candidate)
        frontier = [candidate]
        while frontier:
            round_, process, receivers = frontier.pop()
            for generator in generators:
                image = (
                    round_,
                    generator[process],
                    tuple(sorted(generator[r] for r in receivers)),
                )
                if image not in visited:
                    visited.add(image)
                    frontier.append(image)
    return representatives


def _augmentations(
    node: CanonicalPatternNode, max_round: int, receiver_policy: str
) -> Iterator[CanonicalPatternNode]:
    """The accepted one-event extensions of a canonical pattern.

    For each ``Aut(P)``-orbit representative ``e``, the child ``Q = P + e``
    is canonicalised and kept iff the image of ``e``'s crasher lies in the
    same ``Aut(canonical Q)``-orbit as the canonical deletion — the crasher
    of the largest canonical event, an isomorphism-invariant choice.  The
    McKay argument makes this exactly-once: augmentations of ``P`` that land
    in the deletion orbit of a class form a single ``Aut(P)``-orbit, and
    only the class of ``Q`` minus its deletion orbit (i.e. ``P``'s class
    itself) can generate ``Q``'s class.
    """
    generators = stabiliser_generators(node)
    for event in _candidate_orbit_representatives(
        _candidate_events(node, max_round, receiver_policy), generators
    ):
        round_, crasher, receivers = event
        child = FailurePattern(
            node.n,
            [
                CrashEvent(process, r, frozenset(recv))
                for r, process, recv in node.events
            ]
            + [CrashEvent(crasher, round_, frozenset(receivers))],
        )
        canon = canonical_pattern(child)
        deleted_crasher = max(canon.events)[1]
        added_crasher = canon.permutation[crasher]
        child_node = CanonicalPatternNode(
            node.n, canon.events, canon.twin_classes, canon.kernel
        )
        roots = _process_orbit_roots(node.n, stabiliser_generators(child_node))
        if roots[added_crasher] == roots[deleted_crasher]:
            yield child_node


def iter_canonical_patterns(
    n: int, max_round: int, receiver_policy: str, max_failures: int
) -> Iterator[CanonicalPatternNode]:
    """DFS over the canonical augmentation tree: one node per pattern orbit.

    Mirrors :func:`repro.adversaries.enumeration.enumerate_failure_patterns`'s
    restriction semantics exactly: a negative ``max_failures`` admits nothing
    (not even the failure-free pattern) and a non-positive ``max_round``
    admits no crash events.  Memory is ``O(max_failures)`` stack frames — no
    global seen set.
    """
    if max_failures < 0:
        return
    max_failures = min(max_failures, n - 1)
    yield from _walk(root_pattern_node(n), max_failures, max_round, receiver_policy)


def _walk(
    node: CanonicalPatternNode, remaining: int, max_round: int, receiver_policy: str
) -> Iterator[CanonicalPatternNode]:
    """``node``, then the subtrees of its accepted augmentations, depth first."""
    yield node
    if remaining <= 0 or max_round < 1:
        return
    for child in _augmentations(node, max_round, receiver_policy):
        yield from _walk(child, remaining - 1, max_round, receiver_policy)


# ------------------------------------------------------- vectors per pattern
def _assembly(node: CanonicalPatternNode) -> Tuple[Tuple[Tuple[int, ...], ...], List[int]]:
    """Twin cells plus the entangled ("active") positions not covered by them."""
    in_twin = {position for cell in node.twin_classes for position in cell}
    active = [position for position in range(node.n) if position not in in_twin]
    return node.twin_classes, active


def iter_canonical_vectors(
    node: CanonicalPatternNode, domain: Sequence[int]
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """``(vector, orbit size)`` per ``Aut(pattern)``-orbit of input vectors.

    Candidates are the fixed points of the within-twin-class sort (weakly
    increasing per twin cell, free on the entangled positions); a candidate
    is the orbit's canonical vector iff no kernel element twin-sorts below it
    — the exact minimisation :func:`repro.symmetry.canonical_adversary`
    performs, restricted to the candidates that can win it.  With a trivial
    kernel (the common case) every candidate is emitted with no test at all,
    and its adversary orbit has ``n! / ∏ multiplicity!`` members (the
    stabiliser is the product over twin cells of the permutations among
    equal values); each cell's factor is computed once per multiset, not once
    per vector.  A non-trivial kernel takes :func:`vector_orbit_size`.
    """
    domain = tuple(domain)
    twin_classes, active = _assembly(node)
    identity = identity_permutation(node.n)
    kernel = [k for k in node.kernel if k != identity]
    # Candidate parts are concatenated cell by cell, then the entangled
    # positions; process ``p`` reads its value from slot ``slot_of[p]``.
    order = [position for cell in twin_classes for position in cell] + active
    slot_of = [0] * node.n
    for slot, position in enumerate(order):
        slot_of[position] = slot
    cell_choices = [
        [
            (values, _multiset_fixings(values))
            for values in itertools.combinations_with_replacement(domain, len(cell))
        ]
        for cell in twin_classes
    ]
    tails = list(itertools.product(domain, repeat=len(active)))
    members = math.factorial(node.n)
    # One C-level gather per candidate; none when the slots are in process
    # order.  A non-identity order has n >= 2 slots, so ``itemgetter``
    # returns a tuple.
    permute = None if slot_of == list(range(node.n)) else itemgetter(*slot_of)
    for cells in itertools.product(*cell_choices):
        fixings = 1
        prefix: Tuple[int, ...] = ()
        for values, factor in cells:
            prefix += values
            fixings *= factor
        size = members // fixings
        for tail in tails:
            candidate = prefix + tail
            if permute is not None:
                candidate = permute(candidate)
            if not kernel:
                yield candidate, size
            elif _is_kernel_minimal(candidate, node, kernel):
                yield candidate, vector_orbit_size(node, candidate)


def _multiset_fixings(values: Sequence[int]) -> int:
    """``∏ multiplicity!`` of a sorted value multiset: the renamings fixing it."""
    fixings = 1
    for _value, run in itertools.groupby(values):
        fixings *= math.factorial(sum(1 for _ in run))
    return fixings


def _is_kernel_minimal(
    vector: Tuple[int, ...],
    node: CanonicalPatternNode,
    kernel: Sequence[Permutation],
) -> bool:
    """Whether ``vector`` is the minimum of its ``Aut``-orbit.

    ``min over Aut·v = min over kernel of twin_sorted(k·v)`` by the unique
    ``τ·k`` factorisation; the identity contributes ``twin_sorted(v) = v``
    itself (candidates are twin-sorted by construction), so only non-identity
    kernel elements can beat it.
    """
    for automorphism in kernel:
        image, _perm = _twin_sorted(
            apply_to_values(vector, automorphism), node.twin_classes
        )
        if image < vector:
            return False
    return True


def vector_orbit_size(node: CanonicalPatternNode, vector: Tuple[int, ...]) -> int:
    """``|S_n · (pattern, vector)| = n! / |Aut(pattern, vector)|`` in closed form.

    The adversary stabiliser is counted through the factored pattern group:
    an automorphism ``τ·k`` fixes the vector iff ``twin_sorted(k·v) == v``
    (the twin part must undo ``k``'s damage cell by cell, possible iff the
    per-cell multisets — and the entangled positions pointwise — survive
    ``k``), and each qualifying ``k`` admits ``∏ multiplicity!`` twin parts.
    Matches :func:`repro.oracles.adversary_orbit_size` without re-running
    the refinement or the kernel backtrack.
    """
    fixing_kernel = 0
    for automorphism in node.kernel:
        image, _perm = _twin_sorted(
            apply_to_values(vector, automorphism), node.twin_classes
        )
        if image == vector:
            fixing_kernel += 1
    twin_fixings = 1
    for cell in node.twin_classes:
        for multiplicity in Counter(vector[position] for position in cell).values():
            twin_fixings *= math.factorial(multiplicity)
    return math.factorial(node.n) // (fixing_kernel * twin_fixings)


def count_canonical_vectors(node: CanonicalPatternNode, domain_size: int) -> int:
    """The number of vector orbits over a pattern, in closed form when possible.

    A trivial kernel means the candidates *are* the canonical vectors:
    ``∏ C(|cell| + d - 1, |cell|)`` multisets per twin cell times free
    entangled positions.  A non-trivial kernel (rare, and only on patterns
    with entangled receivers) falls back to draining the generator.
    """
    twin_classes, active = _assembly(node)
    if len(node.kernel) == 1:
        count = domain_size ** len(active)
        for cell in twin_classes:
            count *= math.comb(domain_size + len(cell) - 1, len(cell))
        return count
    return sum(1 for _ in iter_canonical_vectors(node, range(domain_size)))
