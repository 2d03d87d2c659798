"""Canonical forms and orbit accounting for the process-renaming symmetry.

An adversary is a *vertex-coloured digraph*: processes are the vertices, the
colour of a process is its (initial value, crash round) pair, and a crash
event contributes one edge from the crasher to each receiver of its
crashing-round message.  Process renaming is exactly graph isomorphism of
these structures, so canonical forms are computed with the standard
individualisation–refinement recipe, specialised to the tiny instances of
this library (``n <= 8``, a handful of crash events):

1. *Refinement* — colours are sharpened by the multiset of neighbour colours
   (and, under the full group, by the colours of same-value processes) until
   the partition stabilises.  Refined colours are isomorphism-invariant, so
   corresponding cells of two isomorphic adversaries always align.
2. *Twin pruning* — a cell whose members are pairwise interchangeable (every
   transposition is an automorphism) contributes the same encoding under any
   internal ordering, so it is never branched on.  This is what keeps the
   search linear on the bulk of the space, where most processes are
   correct, identically-valued and unreferenced by any crash event.
3. *Individualisation* — a non-twin cell is split by giving each member in
   turn a private colour and recursing; the minimal leaf encoding is the
   canonical form and the permutation reaching it is the certificate.

The automorphism group of a canonical pattern factors as ``∏ Sym(twin
cell)`` times a backtracked kernel over the (few) structurally-entangled
processes; :mod:`repro.symmetry.constructive` sizes its generated orbits
from that factorisation.  The orbit–stabiliser size functions it is pinned
to (``adversary_orbit_size``, ``automorphism_count``, ``view_key_orbit_size``)
are test fixtures in :mod:`repro.oracles`, built on the private helpers here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..model.adversary import Adversary
from ..model.failure_pattern import CrashEvent, FailurePattern

#: A process permutation ``σ`` as a tuple: ``σ[i]`` is the new id of ``i``.
Permutation = Tuple[int, ...]

#: A normalised crash event: ``(round, process, sorted receivers)``.
NormalEvent = Tuple[int, int, Tuple[int, ...]]

#: The symmetry modes every quotient-capable entry point accepts.
SYMMETRIES = ("none", "quotient", "constructive")

#: The symmetry groups canonical forms can be computed under.
GROUPS = ("process", "full")


def validate_symmetry_choice(symmetry: str) -> None:
    """Validate a ``symmetry=`` selection (single owner of the dispatch rule)."""
    if symmetry not in SYMMETRIES:
        raise ValueError(
            f"unknown symmetry {symmetry!r}; choose 'none' (exhaustive), "
            f"'quotient' (hash-dedup orbit representatives) or 'constructive' "
            f"(orbit representatives generated directly from a space description)"
        )


def _validate_group(group: str) -> None:
    if group not in GROUPS:
        raise ValueError(f"unknown symmetry group {group!r}; choose 'process' or 'full'")


# ------------------------------------------------------------------ the action
def identity_permutation(n: int) -> Permutation:
    """The identity renaming on ``n`` processes."""
    return tuple(range(n))


def invert_permutation(perm: Permutation) -> Permutation:
    """The inverse renaming ``σ⁻¹``."""
    out = [0] * len(perm)
    for source, target in enumerate(perm):
        out[target] = source
    return tuple(out)


def apply_to_values(values: Sequence[int], perm: Permutation) -> Tuple[int, ...]:
    """``σ`` applied to an input vector: process ``i``'s value travels to ``σ(i)``."""
    out = [0] * len(values)
    for process, value in enumerate(values):
        out[perm[process]] = value
    return tuple(out)


def apply_to_pattern(pattern: FailurePattern, perm: Permutation) -> FailurePattern:
    """``σ`` applied to a failure pattern (crashers and receivers relabelled)."""
    return FailurePattern(
        pattern.n,
        [
            CrashEvent(
                perm[event.process],
                event.round,
                frozenset(perm[receiver] for receiver in event.receivers),
            )
            for event in pattern.crashes
        ],
    )


def apply_to_adversary(adversary: Adversary, perm: Permutation) -> Adversary:
    """``σ·α``: the renamed adversary (the group action on the sweep space)."""
    if len(perm) != adversary.n:
        raise ValueError(
            f"permutation over {len(perm)} processes applied to an n={adversary.n} adversary"
        )
    return Adversary(
        apply_to_values(adversary.values, perm),
        apply_to_pattern(adversary.pattern, perm),
    )


def apply_to_view_key(key: Tuple, perm: Permutation) -> Tuple:
    """``σ`` applied to a canonical :func:`repro.model.view.view_key` tuple.

    The induced action on protocol-complex vertices: the observer is renamed
    and every per-process row is reindexed, which is exactly the key of the
    view the renamed process holds in the renamed run.
    """
    process, time, latest_seen, evidence, values, round_senders = key
    inverse = invert_permutation(perm)
    return (
        perm[process],
        time,
        tuple(latest_seen[inverse[q]] for q in range(len(latest_seen))),
        tuple(evidence[inverse[q]] for q in range(len(evidence))),
        tuple(values[inverse[q]] for q in range(len(values))),
        tuple(frozenset(perm[s] for s in senders) for senders in round_senders),
    )


# ------------------------------------------------------------ structure tables
def _structure(adversary: Adversary):
    """Per-process attribute and adjacency tables of the coloured digraph."""
    n = adversary.n
    rounds = [0] * n
    receivers: List[Optional[FrozenSet[int]]] = [None] * n
    in_from: List[List[int]] = [[] for _ in range(n)]
    for event in adversary.pattern.crashes:
        rounds[event.process] = event.round
        receivers[event.process] = event.receivers
        for receiver in event.receivers:
            in_from[receiver].append(event.process)
    return rounds, receivers, in_from


def _normal_events(adversary: Adversary) -> FrozenSet[NormalEvent]:
    """The crash events as a comparison-friendly frozenset."""
    return frozenset(
        (event.round, event.process, tuple(sorted(event.receivers)))
        for event in adversary.pattern.crashes
    )


def _map_events(events: FrozenSet[NormalEvent], perm: Permutation) -> FrozenSet[NormalEvent]:
    return frozenset(
        (round_, perm[process], tuple(sorted(perm[r] for r in receivers)))
        for round_, process, receivers in events
    )


def _refine(
    n: int,
    colors: List[int],
    in_from: Sequence[Sequence[int]],
    out_to: Sequence[Optional[FrozenSet[int]]],
    value_classes: Optional[Sequence[Sequence[int]]],
) -> List[int]:
    """Stable colour refinement (1-WL on the coloured digraph).

    Colours are renumbered to dense ints by sorted signature after every
    round; refinement never merges cells, so an unchanged distinct-colour
    count means the partition is stable.
    """
    while True:
        signatures = []
        for p in range(n):
            signatures.append(
                (
                    colors[p],
                    tuple(sorted(colors[q] for q in in_from[p])),
                    None if out_to[p] is None else tuple(sorted(colors[q] for q in out_to[p])),
                    ()
                    if value_classes is None
                    else tuple(sorted(colors[q] for q in value_classes[p])),
                )
            )
        palette = {signature: rank for rank, signature in enumerate(sorted(set(signatures)))}
        refined = [palette[signature] for signature in signatures]
        if len(palette) == len(set(colors)):
            return refined
        colors = refined


def _initial_colors(adversary: Adversary, group: str):
    """Initial colours plus the refinement tables for the chosen group."""
    n = adversary.n
    values = adversary.values
    rounds, receivers, in_from = _structure(adversary)
    if group == "process":
        colors = [
            (values[p], rounds[p], -1 if receivers[p] is None else len(receivers[p]))
            for p in range(n)
        ]
        value_classes = None
    else:
        # Values are permutable colours: only the *partition* they induce is
        # invariant, so the initial colour carries the class size and the
        # class structure enters through refinement.
        class_of: Dict[int, List[int]] = {}
        for p, value in enumerate(values):
            class_of.setdefault(value, []).append(p)
        colors = [
            (
                len(class_of[values[p]]),
                rounds[p],
                -1 if receivers[p] is None else len(receivers[p]),
            )
            for p in range(n)
        ]
        value_classes = [
            [q for q in class_of[values[p]] if q != p] for p in range(n)
        ]
    palette = {color: rank for rank, color in enumerate(sorted(set(colors)))}
    return [palette[color] for color in colors], in_from, receivers, value_classes


def _cells(colors: Sequence[int]) -> List[List[int]]:
    """The colour classes, ordered by colour (isomorphism-invariant order)."""
    grouped: Dict[int, List[int]] = {}
    for p, color in enumerate(colors):
        grouped.setdefault(color, []).append(p)
    return [grouped[color] for color in sorted(grouped)]


def _is_twin_cell(
    cell: Sequence[int], values: Tuple[int, ...], events: FrozenSet[NormalEvent], n: int
) -> bool:
    """Whether every transposition within the cell is an automorphism."""
    for u, w in itertools.combinations(cell, 2):
        if values[u] != values[w]:
            return False
        swap = list(range(n))
        swap[u], swap[w] = w, u
        if _map_events(events, tuple(swap)) != events:
            return False
    return True


def _perm_from_cells(cells: Sequence[Sequence[int]]) -> Permutation:
    """The renaming assigning consecutive ids cell block by cell block."""
    perm = [0] * sum(len(cell) for cell in cells)
    next_id = 0
    for cell in cells:
        for p in sorted(cell):
            perm[p] = next_id
            next_id += 1
    return tuple(perm)


def _encode(
    values: Tuple[int, ...],
    events: FrozenSet[NormalEvent],
    perm: Permutation,
    group: str,
) -> Tuple:
    """The orderable encoding of ``σ·α`` the canonical search minimises."""
    out_values = apply_to_values(values, perm)
    if group == "full":
        # Quotient by value permutations: renumber by first occurrence, which
        # is the canonical orbit representative of the value relabelling.
        palette: Dict[int, int] = {}
        out_values = tuple(palette.setdefault(v, len(palette)) for v in out_values)
    out_events = tuple(sorted(_map_events(events, perm)))
    return (out_values, out_events)


@dataclass(frozen=True)
class CanonicalAdversary:
    """The canonical form of an adversary orbit.

    Attributes
    ----------
    representative:
        The canonical orbit representative ``rep = π·α`` (an adversary of the
        same context; the enumerated spaces are closed under renaming).
    permutation:
        The certificate ``π`` with ``rep = π·α``: process ``i`` of the input
        adversary plays the role of process ``π[i]`` in the representative,
        so decision times and views lift back through ``π``.
    key:
        The hashable canonical encoding — equal for two adversaries iff they
        lie in the same orbit of the chosen group.
    """

    representative: Adversary
    permutation: Permutation
    key: Tuple


def _compose(outer: Permutation, inner: Permutation) -> Permutation:
    """``outer ∘ inner``: apply ``inner`` first."""
    return tuple(outer[target] for target in inner)


@dataclass(frozen=True)
class PatternCanon:
    """The canonical form of a failure pattern plus its automorphism structure.

    ``Aut`` of the canonical pattern factors as ``∏ Sym(twin class) · kernel``
    (see :func:`_automorphism_structure`), which is everything needed to reduce a
    value vector over the pattern's orbit in ``O(|kernel| · n log n)`` — the
    per-member cost of a quotient sweep, amortising the search below over all
    input vectors sharing the pattern.
    """

    permutation: Permutation
    events: Tuple[NormalEvent, ...]
    twin_classes: Tuple[Tuple[int, ...], ...]
    kernel: Tuple[Permutation, ...]


def _search_canonical(
    n: int,
    values: Tuple[int, ...],
    events: FrozenSet[NormalEvent],
    colors: List[int],
    in_from,
    receivers,
    value_classes,
    group: str,
    best: Optional[Tuple[Tuple, Permutation]] = None,
) -> Tuple[Tuple, Permutation]:
    """Individualisation–refinement search for the minimal encoding.

    Depth-first over the branch cell's choices; ``best`` is the smallest
    ``(encoding, permutation)`` found so far, and the first leaf reaching
    the minimum keeps it.
    """
    cells = _cells(colors)
    branch_cell = None
    for cell in cells:
        if len(cell) > 1 and not _is_twin_cell(cell, values, events, n):
            branch_cell = cell
            break
    if branch_cell is None:
        perm = _perm_from_cells(cells)
        encoding = _encode(values, events, perm, group)
        if best is None or encoding < best[0]:
            return encoding, perm
        return best
    for chosen in branch_cell:
        individualised = list(colors)
        individualised[chosen] = n + colors[chosen]
        refined = _refine(n, individualised, in_from, receivers, value_classes)
        best = _search_canonical(
            n, values, events, refined, in_from, receivers, value_classes, group, best
        )
    return best


def _pattern_tables(n: int, events: Iterable[NormalEvent]):
    """Colour and adjacency tables of a pattern-only (value-free) structure."""
    rounds = [0] * n
    receivers: List[Optional[FrozenSet[int]]] = [None] * n
    in_from: List[List[int]] = [[] for _ in range(n)]
    for round_, process, receivers_ in events:
        rounds[process] = round_
        receivers[process] = frozenset(receivers_)
        for receiver in receivers_:
            in_from[receiver].append(process)
    colors = [
        (rounds[p], -1 if receivers[p] is None else len(receivers[p])) for p in range(n)
    ]
    palette = {color: rank for rank, color in enumerate(sorted(set(colors)))}
    return [palette[color] for color in colors], in_from, receivers


def _twin_fixing_automorphisms(
    n: int, events: FrozenSet[NormalEvent], active_cells: Sequence[Sequence[int]]
) -> Iterator[Permutation]:
    """The kernel: automorphisms permuting only within the active cells.

    Backtracks over cell-constrained images of the active processes and
    yields every permutation (identity outside the cells) that preserves the
    event set — the single owner of the kernel enumeration, shared by
    :func:`_automorphism_structure` and the orbit-size oracle
    :func:`repro.oracles.automorphism_count`.
    """
    if not active_cells:
        yield identity_permutation(n)
        return
    active = [p for cell in active_cells for p in cell]
    images = [cell for cell in active_cells for _ in cell]
    yield from _extend_kernel(events, active, images, list(range(n)), 0)


def _extend_kernel(
    events: FrozenSet[NormalEvent],
    active: List[int],
    images: List[Sequence[int]],
    perm: List[int],
    position: int,
) -> Iterator[Permutation]:
    """Backtrack ``perm`` (in place) over images of ``active[position:]``.

    ``images[i]`` is the cell ``active[i]`` may map into.
    """
    if position == len(active):
        candidate = tuple(perm)
        if _map_events(events, candidate) == events:
            yield candidate
        return
    p = active[position]
    used = {perm[active[i]] for i in range(position)}
    for q in images[position]:
        if q in used:
            continue
        perm[p] = q
        yield from _extend_kernel(events, active, images, perm, position + 1)
    perm[p] = p


def _twin_partition(
    n: int, events: FrozenSet[NormalEvent], colors: List[int]
) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    """Split the stable cells into twin classes and active (entangled) cells."""
    no_values = (0,) * n
    twin_classes: List[Tuple[int, ...]] = []
    active_cells: List[List[int]] = []
    for cell in _cells(colors):
        if len(cell) > 1 and not _is_twin_cell(cell, no_values, events, n):
            active_cells.append(cell)
        else:
            twin_classes.append(tuple(sorted(cell)))
    return twin_classes, active_cells


def _automorphism_structure(
    n: int, events: FrozenSet[NormalEvent], colors: List[int]
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Permutation, ...]]:
    """Twin classes and the twin-fixing kernel of a (canonical) structure.

    ``Aut = ∏ Sym(twin class) · kernel`` with every product element unique,
    so minimising a value vector over ``Aut`` is: for each kernel element,
    sort the vector within each twin class and keep the smallest result.
    """
    twin_classes, active_cells = _twin_partition(n, events, colors)
    return tuple(twin_classes), tuple(_twin_fixing_automorphisms(n, events, active_cells))


def canonical_pattern(pattern: FailurePattern) -> PatternCanon:
    """Canonical form + automorphism structure of a failure pattern's orbit."""
    n = pattern.n
    events = frozenset(
        (event.round, event.process, tuple(sorted(event.receivers)))
        for event in pattern.crashes
    )
    colors, in_from, receivers = _pattern_tables(n, events)
    colors = _refine(n, colors, in_from, receivers, None)
    encoding, perm = _search_canonical(
        n, (0,) * n, events, colors, in_from, receivers, None, "pattern"
    )
    canonical_events = encoding[1]
    c_colors, c_in_from, c_receivers = _pattern_tables(n, canonical_events)
    c_colors = _refine(n, c_colors, c_in_from, c_receivers, None)
    twin_classes, kernel = _automorphism_structure(n, frozenset(canonical_events), c_colors)
    return PatternCanon(perm, canonical_events, twin_classes, kernel)


def _twin_sorted(
    values: Tuple[int, ...], twin_classes: Tuple[Tuple[int, ...], ...]
) -> Tuple[Tuple[int, ...], Permutation]:
    """The minimal within-twin-class rearrangement of a value vector.

    Returns the rearranged vector and the twin permutation realising it
    (ascending values into ascending positions per class — the lexicographic
    minimum over ``∏ Sym(twin class)``).
    """
    out = list(values)
    perm = list(range(len(values)))
    for positions in twin_classes:
        if len(positions) == 1:
            continue
        by_value = sorted(positions, key=lambda p: (values[p], p))
        for target, source in zip(positions, by_value):
            out[target] = values[source]
            perm[source] = target
    return tuple(out), tuple(perm)


def canonical_adversary(
    adversary: Adversary,
    group: str = "process",
    pattern_cache: Optional[Dict[FailurePattern, PatternCanon]] = None,
) -> CanonicalAdversary:
    """Canonical representative + certificate of ``adversary``'s renaming orbit.

    ``group="process"`` (default) quotients by process renaming only — the
    symmetry every verdict of the verification layer is constant under.  Its
    canonical form factors through the failure pattern: the pattern is
    canonicalised once (searched over the coloured digraph) and the value
    vector is then minimised over the pattern's automorphism group in
    near-linear time — so sweeps that enumerate many input vectors per
    pattern pay the search once per pattern, not once per adversary
    (``pattern_cache`` holds the per-pattern results across calls;
    :func:`quotient_family` supplies one automatically).

    ``group="full"`` additionally quotients by value permutations (sound for
    structural consumers only; see the module docstring).
    """
    _validate_group(group)
    n = adversary.n
    values = adversary.values
    if group == "full":
        events = _normal_events(adversary)
        colors, in_from, receivers, value_classes = _initial_colors(adversary, group)
        colors = _refine(n, colors, in_from, receivers, value_classes)
        encoding, perm = _search_canonical(
            n, values, events, colors, in_from, receivers, value_classes, group
        )
        out_values, out_events = encoding
        representative = Adversary(
            out_values,
            FailurePattern(
                n,
                [
                    CrashEvent(process, round_, frozenset(receivers_))
                    for round_, process, receivers_ in out_events
                ],
            ),
        )
        return CanonicalAdversary(representative, perm, encoding)

    pattern = adversary.pattern
    canon = pattern_cache.get(pattern) if pattern_cache is not None else None
    if canon is None:
        canon = canonical_pattern(pattern)
        if pattern_cache is not None:
            pattern_cache[pattern] = canon
    relabelled = apply_to_values(values, canon.permutation)
    best_values: Optional[Tuple[int, ...]] = None
    best_perm: Optional[Permutation] = None
    for automorphism in canon.kernel:
        candidate, twin_perm = _twin_sorted(
            apply_to_values(relabelled, automorphism), canon.twin_classes
        )
        if best_values is None or candidate < best_values:
            best_values = candidate
            best_perm = _compose(twin_perm, automorphism)
    certificate = _compose(best_perm, canon.permutation)
    representative = Adversary(
        best_values,
        FailurePattern(
            n,
            [
                CrashEvent(process, round_, frozenset(receivers_))
                for round_, process, receivers_ in canon.events
            ],
        ),
    )
    return CanonicalAdversary(representative, certificate, (canon.events, best_values))


# ---------------------------------------------------------- family quotients
def iter_orbit_representatives(
    adversaries: Iterable[Adversary], group: str = "process"
) -> Iterator[Tuple[int, Adversary]]:
    """Lazily deduplicate a family to one first-seen member per orbit.

    Yields ``(original index, adversary)`` pairs in input order, keeping the
    first member of each canonical class and dropping the rest — the
    streaming front of every ``symmetry="quotient"`` scan that wants an early
    exit (the beatability violation search).  Nothing beyond the canonical
    keys is materialised.
    """
    _validate_group(group)
    seen = set()
    pattern_cache: Dict[FailurePattern, PatternCanon] = {}
    for index, adversary in enumerate(adversaries):
        key = canonical_adversary(adversary, group, pattern_cache=pattern_cache).key
        if key in seen:
            continue
        seen.add(key)
        yield index, adversary


def quotient_family(
    adversaries: Iterable[Adversary], group: str = "process"
) -> Tuple[List[Adversary], List[int], List[int]]:
    """Group a family by canonical form: representatives, weights, indices.

    Returns ``(representatives, weights, first_indices)`` where
    ``representatives[c]`` is the first-seen member of class ``c``,
    ``weights[c]`` counts the family members in the class and
    ``first_indices[c]`` is the representative's position in the input.

    Weights are exact for **any** family — they count members rather than
    applying the orbit–stabiliser formula — so quotient verdicts weighted by
    them reproduce the exhaustive censuses byte for byte even on families
    that are not closed under the group.
    """
    _validate_group(group)
    slots: Dict[Tuple, int] = {}
    representatives: List[Adversary] = []
    weights: List[int] = []
    first_indices: List[int] = []
    pattern_cache: Dict[FailurePattern, PatternCanon] = {}
    for index, adversary in enumerate(adversaries):
        key = canonical_adversary(adversary, group, pattern_cache=pattern_cache).key
        slot = slots.get(key)
        if slot is None:
            slots[key] = len(representatives)
            representatives.append(adversary)
            weights.append(1)
            first_indices.append(index)
        else:
            weights[slot] += 1
    return representatives, weights, first_indices


# ------------------------------------------------------------------ view keys
def view_key_attribute_rows(key: Tuple) -> List[Tuple]:
    """The per-process attribute rows of a view key — its full renaming content.

    A view key has no binary structure over processes: every component
    (``latest_seen``, ``earliest_evidence``, seen value, per-round sender
    membership) is a unary attribute, captured here as one orderable row per
    process.  This is the single owner of the row encoding — the canonical
    view-key class, the vertex-orbit sizes and the renaming star signature
    all key off these rows, and they must keep agreeing row for row.
    """
    _process, _time, latest_seen, evidence, values, round_senders = key
    return [
        (
            latest_seen[j],
            evidence[j],
            -1 if values[j] is None else values[j],
            tuple(1 if j in senders else 0 for senders in round_senders),
        )
        for j in range(len(latest_seen))
    ]


def _view_key_rows(key: Tuple):
    """The observer row and sorted non-observer rows of a view key.

    The renaming orbit of a view key is fully described by the observer's
    row plus the *multiset* of the other rows (see
    :func:`view_key_attribute_rows`).
    """
    process, time, _latest_seen, _evidence, _values, _round_senders = key
    rows = view_key_attribute_rows(key)
    return time, rows[process], sorted(rows[j] for j in range(len(rows)) if j != process)


def canonical_view_key(key: Tuple) -> Tuple:
    """The canonical class id of a view key's process-renaming orbit.

    Two view keys get equal ids iff some renaming maps one to the other —
    exactly (not merely hash-invariantly): the attributes are unary, so
    matching the observer rows and the sorted non-observer rows *is* the
    renaming.  Vertices of a renaming-closed protocol complex with equal ids
    therefore have isomorphic star complexes, which is what the quotient
    Proposition 2 survey groups by.
    """
    time, observer_row, other_rows = _view_key_rows(key)
    return (time, observer_row, tuple(other_rows))
