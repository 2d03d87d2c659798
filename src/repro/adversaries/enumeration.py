"""Exhaustive adversary enumeration for small systems.

Unbeatability and agreement are universally quantified statements over all
adversaries of a context; for small contexts the quantifier can be discharged
by brute force.  This module enumerates adversaries — input vectors crossed
with failure patterns — under configurable restrictions that keep the space
tractable while preserving the interesting structure:

* ``max_crash_round`` bounds how late crashes may happen (crashes later than
  the decision horizon cannot influence decisions);
* ``receiver_policy`` controls which crashing-round delivery subsets are
  enumerated: ``"all"`` (every subset — exponential), ``"canonical"`` (the
  empty set, the full set, and every singleton — the subsets that matter for
  hidden-path/hidden-capacity structure), or ``"none"`` (silent crashes only);
* ``max_failures`` optionally lowers the number of crashes below ``t``.

Every restriction is renaming-invariant, so each space is a union of
process-renaming orbits.  :func:`enumerate_orbits` and the counts generate
those orbits constructively (one canonical representative each, sized in
closed form); that is the only production orbit front.  The hash-dedup
front it is pinned to streams the whole space and lives in
:mod:`repro.oracles` (``dedup_orbits``, ``dedup_pattern_and_orbit_counts``).

The exhaustive model-checking tests (``tests/test_exhaustive.py``) and the
verification helpers in :mod:`repro.verification.checker` are the primary
consumers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..model.adversary import Adversary, Context
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.types import ProcessId, Value


def enumerate_input_vectors(context: Context) -> Iterator[Tuple[Value, ...]]:
    """All input vectors of the context (``(d+1)^n`` of them)."""
    domain = list(context.values_domain)
    yield from itertools.product(domain, repeat=context.n)


def _receiver_subsets(
    n: int, crasher: ProcessId, policy: str
) -> Iterator[frozenset]:
    others = [q for q in range(n) if q != crasher]
    if policy == "none":
        yield frozenset()
    elif policy == "canonical":
        yield frozenset()
        for q in others:
            yield frozenset({q})
        if len(others) > 1:
            # With one other process the full set IS the singleton already
            # yielded; emitting it again used to duplicate every n=2
            # crashing adversary (breaking "exhaustive" counts and the
            # orbit partition sum(sizes) == count).
            yield frozenset(others)
    elif policy == "all":
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                yield frozenset(subset)
    else:
        raise ValueError(f"unknown receiver policy {policy!r}")


def enumerate_failure_patterns(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
) -> Iterator[FailurePattern]:
    """All failure patterns of the context under the given restrictions."""
    n = context.n
    max_failures = context.t if max_failures is None else min(max_failures, context.t)
    max_round = context.horizon() if max_crash_round is None else max_crash_round
    for count in range(max_failures + 1):
        for faulty in itertools.combinations(range(n), count):
            per_process_options: List[List[CrashEvent]] = []
            for p in faulty:
                options = [
                    CrashEvent(p, round_, receivers)
                    for round_ in range(1, max_round + 1)
                    for receivers in _receiver_subsets(n, p, receiver_policy)
                ]
                per_process_options.append(options)
            for combo in itertools.product(*per_process_options):
                yield FailurePattern(n, combo)


def enumerate_adversaries(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[Adversary]:
    """All adversaries of the context under the given restrictions.

    Patterns are enumerated in the outer loop and input vectors in the inner
    loop.  ``limit`` truncates the stream to exactly that many adversaries
    (``<= 0`` yields nothing); when it is ``None`` the stream is exhaustive
    for the restricted space.
    """
    if limit is not None and limit <= 0:
        return
    produced = 0
    for pattern in enumerate_failure_patterns(
        context, max_crash_round, receiver_policy, max_failures
    ):
        for values in enumerate_input_vectors(context):
            yield Adversary(values, pattern)
            produced += 1
            if limit is not None and produced >= limit:
                return


def estimate_adversary_count(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
) -> int:
    """The size of the restricted adversary space, in closed form.

    Exact (it mirrors the enumeration structure: independent per-crasher
    options crossed over faulty sets, times the input-vector count) but
    O(t) to evaluate — use it to decide whether a space is tractable
    *before* enumerating it.
    """
    n = context.n
    max_failures = context.t if max_failures is None else min(max_failures, context.t)
    max_round = context.horizon() if max_crash_round is None else max_crash_round
    if receiver_policy == "none":
        subsets = 1
    elif receiver_policy == "canonical":
        # ∅, the n-1 singletons, and the full set — which collapses onto the
        # lone singleton when n = 2 (mirroring _receiver_subsets' dedup).
        subsets = n + 1 if n > 2 else n
    elif receiver_policy == "all":
        subsets = 2 ** (n - 1)
    else:
        raise ValueError(f"unknown receiver policy {receiver_policy!r}")
    # Non-positive max_round admits no crashing rounds (enumeration's
    # range(1, max_round + 1) is empty), so only the failure-free pattern
    # survives — mirror that instead of summing sign-garbled powers.
    options = max(max_round, 0) * subsets
    patterns = sum(math.comb(n, count) * options**count for count in range(max_failures + 1))
    return patterns * len(context.values_domain) ** n


def count_adversaries(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
) -> int:
    """The size of the restricted adversary space (by direct counting)."""
    return sum(
        1
        for _ in enumerate_adversaries(
            context, max_crash_round, receiver_policy, max_failures
        )
    )


# ------------------------------------------------------------ orbit streams
class AdversaryOrbit(NamedTuple):
    """One process-renaming orbit of a restricted adversary space.

    A named tuple: sweeps build one per orbit, and it is immutable without
    a frozen dataclass's ``object.__setattr__`` per field.

    Attributes
    ----------
    representative:
        The canonical orbit representative (itself a member of the space —
        every enumeration restriction is renaming-invariant, so the spaces
        are closed under the group action).
    size:
        The number of distinct adversaries in the orbit, which is exactly the
        number of space members the representative stands for.
    """

    representative: Adversary
    size: int


def _resolve_restrictions(
    context: Context, max_crash_round: Optional[int], max_failures: Optional[int]
) -> Tuple[int, int]:
    """The (max round, max failures) pair the enumerators actually use."""
    resolved_failures = (
        context.t if max_failures is None else min(max_failures, context.t)
    )
    resolved_round = context.horizon() if max_crash_round is None else max_crash_round
    return resolved_round, resolved_failures


def enumerate_orbits(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[AdversaryOrbit]:
    """One :class:`AdversaryOrbit` per process-renaming orbit of the space.

    The canonical representatives are *generated* directly: canonical
    failure patterns by canonical augmentation and, per pattern, input
    vectors up to the pattern stabiliser (:mod:`repro.symmetry.constructive`).
    The work is proportional to the number of orbits — no member of the
    space outside the representatives is ever built, no canonical-key
    ``seen`` set is kept (memory is the augmentation depth) — and orbit
    sizes come in closed form from the factored stabiliser.  The hash-dedup
    stream this is pinned to is :func:`repro.oracles.dedup_orbits`.

    A pattern's vector orbits depend only on its stabiliser shape
    (``twin_classes``, ``kernel``), so each shape's ``(vector, size)`` list
    is generated and checked (:meth:`Adversary.checked_values`) once per
    stream, and every representative is built with
    :meth:`Adversary.trusted`; the cache dies with the stream (sweep-n6's
    276 patterns have 25 shapes).

    The orbits partition the space: ``sum(orbit.size) ==
    count_adversaries(...)`` under the same restrictions.  ``limit`` caps the
    number of *orbits* yielded (a smoke-run device, like the adversary-level
    ``limit``).
    """
    if limit is not None and limit <= 0:
        return
    from ..symmetry import iter_canonical_patterns

    max_round, failures = _resolve_restrictions(context, max_crash_round, max_failures)
    domain = tuple(context.values_domain)
    vectors_by_shape: Dict[Tuple, List[Tuple[Tuple[Value, ...], int]]] = {}
    produced = 0
    for node in iter_canonical_patterns(context.n, max_round, receiver_policy, failures):
        pattern = node.pattern()
        shape = (node.twin_classes, node.kernel)
        vectors = vectors_by_shape.get(shape)
        if vectors is None:
            vectors = vectors_by_shape[shape] = checked_shape_vectors(node, domain)
        for values, size in vectors:
            yield AdversaryOrbit(Adversary.trusted(values, pattern), size)
            produced += 1
            if limit is not None and produced >= limit:
                return


def checked_shape_vectors(node, domain) -> List[Tuple[Tuple[Value, ...], int]]:
    """The ``(vector, orbit size)`` list of a pattern node's stabiliser shape.

    :func:`repro.symmetry.iter_canonical_vectors` drained, each vector put
    through :meth:`Adversary.checked_values` (so a bad vector raises the
    constructor's ``ValueError``) and ready for :meth:`Adversary.trusted`.
    """
    from ..symmetry import iter_canonical_vectors

    return [
        (Adversary.checked_values(values, node.n), size)
        for values, size in iter_canonical_vectors(node, domain)
    ]


def count_orbits(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
) -> int:
    """The number of process-renaming orbits of the restricted space.

    Walks only the canonical-pattern augmentation tree and counts each
    pattern's vector orbits in closed form (binomial multiset counts per
    twin cell) — cost proportional to the number of *pattern* orbits,
    usable as a pre-flight tractability guard even on spaces whose full
    enumeration is out of reach.
    """
    return pattern_and_orbit_counts(
        context, max_crash_round, receiver_policy, max_failures
    )[1]


def pattern_and_orbit_counts(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    ceiling: Optional[int] = None,
) -> Tuple[int, int]:
    """``(pattern orbit count, adversary orbit count)`` in one pass.

    Visits each canonical pattern once and sums its closed-form vector-orbit
    count.  ``ceiling`` turns the count into a bounded tractability probe:
    counting stops as soon as the orbit total exceeds it (the returned total
    is then a lower bound ``> ceiling``, which is all a guard needs).
    """
    from ..symmetry import count_canonical_vectors, iter_canonical_patterns

    max_round, failures = _resolve_restrictions(context, max_crash_round, max_failures)
    domain_size = len(context.values_domain)
    patterns = orbits = 0
    for node in iter_canonical_patterns(context.n, max_round, receiver_policy, failures):
        patterns += 1
        orbits += count_canonical_vectors(node, domain_size)
        if ceiling is not None and orbits > ceiling:
            break
    return patterns, orbits


# ------------------------------------------------------- space descriptions
@dataclass(frozen=True)
class RestrictedSpace:
    """A restricted adversary space as a first-class, lazily-enumerable value.

    Bundles a context with the restriction flags of
    :func:`enumerate_adversaries` so consumers can receive the *description*
    of a space instead of a materialised family.  Iterating yields the
    space's adversaries (streaming; ``limit`` truncates exactly like the
    enumerator's); :meth:`orbits` yields one :class:`AdversaryOrbit` per
    renaming orbit, generated constructively — which is what every survey
    of a space folds (:func:`repro.pipeline.family_stream`), so spaces
    whose full enumeration is intractable stay sweepable (``limit`` then
    caps *orbits*, mirroring :func:`enumerate_orbits`).  Pass
    ``iter(space)`` to survey the members instead.
    """

    context: Context
    max_crash_round: Optional[int] = None
    receiver_policy: str = "canonical"
    max_failures: Optional[int] = None
    limit: Optional[int] = None

    def __iter__(self) -> Iterator[Adversary]:
        return enumerate_adversaries(
            self.context,
            max_crash_round=self.max_crash_round,
            receiver_policy=self.receiver_policy,
            max_failures=self.max_failures,
            limit=self.limit,
        )

    def orbits(self) -> Iterator[AdversaryOrbit]:
        """One orbit per renaming class of the space (``limit`` caps orbits)."""
        return enumerate_orbits(
            self.context,
            max_crash_round=self.max_crash_round,
            receiver_policy=self.receiver_policy,
            max_failures=self.max_failures,
            limit=self.limit,
        )

    def estimated_size(self) -> int:
        """Closed-form member count of the (un-truncated) space."""
        return estimate_adversary_count(
            self.context,
            max_crash_round=self.max_crash_round,
            receiver_policy=self.receiver_policy,
            max_failures=self.max_failures,
        )

    def orbit_count(self) -> int:
        """Orbit count of the (un-truncated) space."""
        return count_orbits(
            self.context,
            max_crash_round=self.max_crash_round,
            receiver_policy=self.receiver_policy,
            max_failures=self.max_failures,
        )


def constructive_orbit_stream(adversaries) -> Iterator[AdversaryOrbit]:
    """Resolve an orbit family to its orbit stream.

    Accepts a :class:`RestrictedSpace` (the orbits are generated from the
    space description) or an iterable that already yields
    :class:`AdversaryOrbit` values (e.g. a pre-built
    :func:`enumerate_orbits` stream).  A plain adversary family is rejected:
    constructive enumeration needs the space's *description* to generate
    representatives.
    """
    if isinstance(adversaries, RestrictedSpace):
        return adversaries.orbits()
    iterator = iter(adversaries)
    first = next(iterator, None)
    if first is None:
        return iter(())
    if isinstance(first, AdversaryOrbit):
        return itertools.chain([first], iterator)
    raise ValueError(
        "constructive orbits are generated from a space description: pass a "
        "RestrictedSpace (or a stream of AdversaryOrbit from enumerate_orbits) "
        "instead of a plain adversary family"
    )


def constructive_quotient(adversaries) -> Tuple[List[Adversary], List[int], range]:
    """``(representatives, weights, indices)`` off the constructive stream.

    The same shape as the :func:`repro.oracles.quotient_family` fixture;
    ``indices`` number the given orbits from 0 (there is no underlying
    enumeration to index into), as a ``range`` that holds no int per orbit.
    The surveys call it once per chunk of at most
    :data:`repro.pipeline.DEFAULT_BATCH_SIZE` orbits and offset the indices
    (:func:`repro.pipeline.family_stream`); on a whole space it holds the
    whole orbit front.
    """
    representatives: List[Adversary] = []
    weights: List[int] = []
    for orbit in constructive_orbit_stream(adversaries):
        representatives.append(orbit.representative)
        weights.append(orbit.size)
    return representatives, weights, range(len(weights))
