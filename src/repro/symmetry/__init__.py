"""Symmetry quotients of the adversary space and the protocol complex.

The synchronous crash model is fully symmetric under *process renaming*: a
permutation ``σ`` of the process ids maps an adversary ``α = (v⃗, F)`` to
``σ·α`` (values carried along, crash events relabelled), and the run of any
symmetric protocol on ``σ·α`` is the ``σ``-relabelling of its run on ``α`` —
decision **times** transport along ``σ`` and decision **values** are
untouched.  Every verdict this library computes over a family (specification
violations, decision-time histograms, domination comparisons, star
connectivity) is therefore constant on renaming orbits, and the
universally-quantified sweeps only ever need one representative per orbit.

A second symmetry — *value permutation* — relabels the initial values
themselves.  It is a symmetry of the *structural* artefacts (failure
patterns, views-as-graphs, protocol complexes) but **not** of the min-based
decision rules, whose behaviour depends on the order of values and on the
low/high threshold ``k``; the verification quotients therefore use the
process-renaming group only, while the canonical forms optionally quotient
by values for structural census consumers (``group="full"``).

This package provides:

* the group action (:func:`apply_to_adversary`, :func:`apply_to_pattern`,
  :func:`apply_to_view_key`) and certificate permutations;
* :func:`canonical_adversary` — canonical orbit representative plus the
  certificate ``π`` with ``rep = π·α``;
* :func:`quotient_family` — streaming canonical-form grouping of an
  arbitrary adversary family (first-seen representatives + member counts);
* :mod:`repro.symmetry.constructive` — canonical augmentation: generate one
  canonical pattern per orbit directly (no dedup set) and enumerate input
  vectors up to the pattern stabiliser, sized in closed form — the one
  production orbit front, behind :func:`repro.adversaries.enumerate_orbits`
  and ``symmetry="constructive"``;
* :func:`canonical_view_key` — the induced action on canonical view keys
  (protocol-complex vertices);
* :func:`star_signature` — an exact canonical form of a simplicial
  complex's facet structure under vertex relabelling, the cache key of
  :class:`repro.topology.connectivity.ConnectivityCache`.

The orbit–stabiliser size functions (``adversary_orbit_size``,
``automorphism_count``, ``view_key_orbit_size``) and the hash-dedup orbit
stream are test fixtures in :mod:`repro.oracles`.

See ``docs/symmetry.md`` for the architecture notes and the soundness
argument per consumer.
"""

from .canonical import (
    GROUPS,
    SYMMETRIES,
    CanonicalAdversary,
    PatternCanon,
    apply_to_adversary,
    apply_to_pattern,
    apply_to_values,
    apply_to_view_key,
    canonical_adversary,
    canonical_pattern,
    canonical_view_key,
    identity_permutation,
    invert_permutation,
    iter_orbit_representatives,
    quotient_family,
    validate_symmetry_choice,
)
from .constructive import (
    CanonicalPatternNode,
    count_canonical_vectors,
    iter_canonical_patterns,
    iter_canonical_vectors,
    root_pattern_node,
    stabiliser_generators,
    vector_orbit_size,
)
from .signature import renaming_star_signature, star_signature

__all__ = [
    "GROUPS",
    "SYMMETRIES",
    "CanonicalAdversary",
    "CanonicalPatternNode",
    "PatternCanon",
    "apply_to_adversary",
    "apply_to_pattern",
    "apply_to_values",
    "apply_to_view_key",
    "canonical_adversary",
    "canonical_pattern",
    "canonical_view_key",
    "count_canonical_vectors",
    "identity_permutation",
    "invert_permutation",
    "iter_canonical_patterns",
    "iter_canonical_vectors",
    "iter_orbit_representatives",
    "quotient_family",
    "renaming_star_signature",
    "root_pattern_node",
    "stabiliser_generators",
    "star_signature",
    "validate_symmetry_choice",
    "vector_orbit_size",
]
