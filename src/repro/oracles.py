"""Differential oracles: the per-adversary paths production is pinned to.

Production runs one engine, the prefix-sharing batch engine of
:mod:`repro.engine`.  This module keeps the direct paths that engine is
differentially tested against: one :class:`repro.model.run.Run` per
adversary for checks, domination, decision times, protocol complexes,
Definition 4 systems and Lemma 2 surgery, plus the two-pass system
construction the fused pass replaced (with its :class:`ViewSource` /
:class:`GroupViews` trie views).  The "at most ``k`` crashes per round"
family is enumerated here by plain recursion into a list
(:func:`restricted_adversaries`), against the option tree of
:class:`repro.adversaries.PerRoundCrashFamily`.  Homology has one production kernel
(:mod:`repro.topology.connectivity`); its oracles here are the
shortcut-free big-int Betti stream and the seed's dense face-lattice
algorithm, plus a census that runs on either.  Orbits have one production
front, the constructive stream of :func:`repro.adversaries.enumerate_orbits`;
its hash-dedup twin (:func:`dedup_orbits`,
:func:`dedup_pattern_and_orbit_counts`) and the orbit–stabiliser sizes
(:func:`adversary_orbit_size`, :func:`automorphism_count`,
:func:`view_key_orbit_size`) live here.  Only ``tests/`` and
``benchmarks/`` import this module — ``tests/test_oracle_boundary.py``
enforces that, and that no public callable of the production packages has
an ``engine`` or ``backend`` parameter, nor one of :mod:`repro.adversaries`
a ``symmetry`` parameter.  docs/engine.md
("Oracles") maps each entry to the production path it pins and the battery
that runs it.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .adversaries.enumeration import AdversaryOrbit, _receiver_subsets, enumerate_adversaries
from .adversaries.surgery import SurgeryCheck, SurgeryResult, check_surgery
from .engine.arrays import ArrayView, StructLayer
from .engine.sweep import SweepRunner
from .engine.trie import PrefixScheduler, prepare_adversaries
from .engine.views import RunCache
from .knowledge.operators import FamilyRun, System
from .model.adversary import Adversary, Context
from .model.failure_pattern import CrashEvent, FailurePattern
from .model.run import Run
from .model.types import ProcessId, Time, Value
from .model.view import view_key
from .pipeline import family_stream
from .symmetry import canonical_adversary, iter_orbit_representatives, renaming_star_signature
from .symmetry.canonical import (
    _initial_colors,
    _normal_events,
    _refine,
    _twin_fixing_automorphisms,
    _twin_partition,
    _view_key_rows,
)
from .topology.complexes import Simplex, SimplicialComplex, VertexPool
from .topology.connectivity import (
    _local_facets,
    _masks_at_dimension,
    boundary_rank,
    rank_of_int_rows,
)
from .topology.protocol_complex import (
    CapacityCensus,
    ComplexVertex,
    ProtocolComplex,
    census_classes,
    fold_census,
)
from .verification.checker import CheckReport, fold_checks
from .verification.domination import (
    DominationReport,
    compare_last_decisions,
    compare_on_adversary,
)

#: A canonical view key as produced by :func:`repro.model.view.view_key`.
ViewKey = Tuple


def _name(protocol, default: str) -> str:
    return getattr(protocol, "name", default)


# ------------------------------------------------------- runs and decisions
class ReferenceRunner:
    """The :class:`repro.engine.SweepRunner` ``sweep`` surface, one ``Run`` each.

    ``sweep`` yields lazily, so a fold keeps one oracle run alive at a time.
    """

    def __init__(self, protocol, t: int) -> None:
        self.protocol = protocol
        self.t = t

    def sweep(self, adversaries: Iterable[Adversary]):
        return (Run(self.protocol, adversary, self.t) for adversary in adversaries)


def check_protocol(
    protocol,
    adversaries,
    t: int,
    enforce_paper_bound: bool = True,
    symmetry: str = "none",
) -> CheckReport:
    """:func:`repro.verification.check_protocol` with one ``Run`` per stream item."""
    report = CheckReport(protocol=_name(protocol, "protocol"))
    stream = family_stream(adversaries, symmetry)
    fold_checks(report, stream, ReferenceRunner(protocol, t), enforce_paper_bound)
    return report


def _compare(candidate, reference, adversaries, t, symmetry, compare, suffix=""):
    report = DominationReport(
        candidate=_name(candidate, "candidate") + suffix,
        reference=_name(reference, "reference") + suffix,
    )
    for index, adversary, weight in family_stream(adversaries, symmetry):
        candidate_run = Run(candidate, adversary, t)
        reference_run = Run(reference, adversary, t)
        compare(candidate_run, reference_run, index, report, weight)
    return report


def compare_protocols(candidate, reference, adversaries, t: int, symmetry: str = "none"):
    """:func:`repro.verification.compare_protocols` with one ``Run`` pair per item."""
    return _compare(candidate, reference, adversaries, t, symmetry, compare_on_adversary)


def last_decider_compare(candidate, reference, adversaries, t: int, symmetry: str = "none"):
    """:func:`repro.verification.last_decider_compare` with one ``Run`` pair per item."""
    return _compare(
        candidate, reference, adversaries, t, symmetry, compare_last_decisions, " [last-decider]"
    )


def decision_time_table(
    protocols: Sequence, adversaries: Sequence[Adversary], t: int
) -> Dict[str, List[Optional[Time]]]:
    """:func:`repro.verification.decision_time_table` with one ``Run`` per adversary."""
    return {
        _name(protocol, repr(protocol)): [
            Run(protocol, adversary, t).last_decision_time(correct_only=True)
            for adversary in adversaries
        ]
        for protocol in protocols
    }


# ---------------------------------------------------------------- complexes
def build_protocol_complex(
    adversaries: Iterable[Adversary], time: Time, t: int
) -> ProtocolComplex:
    """:func:`repro.topology.build_protocol_complex` with one bare ``Run`` per adversary."""
    pool = VertexPool()
    masks: List[int] = []
    vertex_views: Dict[ComplexVertex, Tuple[Adversary, ProcessId]] = {}
    for adversary in adversaries:
        run = Run(None, adversary, t, horizon=time)
        mask = 0
        for process, view in run.views_at(time).items():
            vertex = (process, view_key(view))
            vertex_views.setdefault(vertex, (adversary, process))
            mask |= 1 << pool.intern(vertex)
        if mask:
            masks.append(mask)
    return ProtocolComplex(SimplicialComplex.from_masks(pool, masks), time, vertex_views)


def per_round_crash_patterns(
    n: int,
    rounds: int,
    max_crashes_per_round: int,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
) -> Iterator[FailurePattern]:
    """:func:`repro.topology.per_round_crash_patterns` by plain recursion.

    Every round's options are rebuilt at every node and patterns past
    ``max_failures`` (default ``n - 1``) crashes are pruned one option at a
    time; no option table, no subtree sizes, no window.
    """
    cap = n - 1 if max_failures is None else max_failures

    def rec(round_: int, available: Tuple[int, ...], acc: Tuple[CrashEvent, ...]):
        if round_ > rounds:
            yield FailurePattern(n, acc)
            return
        for count in range(min(max_crashes_per_round, len(available)) + 1):
            for crashers in itertools.combinations(available, count):
                if len(acc) + count > cap:
                    continue
                rest = tuple(p for p in available if p not in crashers)
                receiver_choices = [
                    list(_receiver_subsets(n, p, receiver_policy)) for p in crashers
                ]
                for receivers in itertools.product(*receiver_choices):
                    events = tuple(CrashEvent(p, round_, r) for p, r in zip(crashers, receivers))
                    yield from rec(round_ + 1, rest, acc + events)

    return rec(1, tuple(range(n)), ())


def restricted_adversaries(
    context: Context,
    time: Time,
    values: Optional[Sequence[Value]] = None,
    max_crashes_per_round: Optional[int] = None,
    receiver_policy: str = "canonical",
) -> List[Adversary]:
    """:func:`repro.topology.restricted_adversaries` as a plain list, by recursion."""
    k = context.k if max_crashes_per_round is None else max_crashes_per_round
    if values is None:
        values = [context.k] * context.n
    return [
        Adversary(values, pattern)
        for pattern in per_round_crash_patterns(context.n, time, k, receiver_policy, context.t)
    ]


def build_restricted_complex(
    context: Context,
    time: Time,
    values: Optional[Sequence[Value]] = None,
    max_crashes_per_round: Optional[int] = None,
    receiver_policy: str = "canonical",
) -> ProtocolComplex:
    """:func:`repro.topology.build_restricted_complex` on :func:`build_protocol_complex`."""
    adversaries = restricted_adversaries(
        context, time, values, max_crashes_per_round, receiver_policy
    )
    return build_protocol_complex(adversaries, time, context.t)


# ----------------------------------------------------------------- homology
def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) by textbook row reduction, independent of the kernel.

    Pivots on the lowest set bit of one row at a time and clears that column
    from every remaining row — no pivot index, no leading-bit order — so it
    checks :func:`repro.topology.connectivity.rank_of_int_rows` from outside.
    """
    remaining = [row for row in rows if row]
    rank = 0
    while remaining:
        pivot = remaining.pop()
        low = pivot & -pivot
        remaining = [r for r in (row ^ pivot if row & low else row for row in remaining) if r]
        rank += 1
    return rank


def _bigint_betti_stream(complex_: SimplicialComplex, top: int) -> Iterator[int]:
    """The shortcut-free Betti stream: every boundary rank by elimination.

    The production stream without its cone test and union-find pass:
    dimension 0 starts from the augmented boundary (every vertex maps to the
    generator of ``C_{-1}``) and each ``rank ∂_{q+1}`` is eliminated, then
    reused as the down-rank of dimension ``q + 1``.
    """
    facet_masks, _ = _local_facets(complex_)
    dimension = complex_.dimension
    current = _masks_at_dimension(facet_masks, 0)
    rank_down = 1 if current else 0
    for q in range(top + 1):
        above = _masks_at_dimension(facet_masks, q + 1) if q < dimension else []
        rank_up = boundary_rank(current, above)
        yield len(current) - rank_down - rank_up
        current = above
        rank_down = rank_up


def bigint_reduced_betti_numbers(
    complex_: SimplicialComplex, max_dimension: Optional[int] = None
) -> List[int]:
    """:func:`repro.topology.reduced_betti_numbers` on the shortcut-free stream."""
    if complex_.is_empty():
        return []
    top = complex_.dimension if max_dimension is None else min(max_dimension, complex_.dimension)
    return list(_bigint_betti_stream(complex_, top)) if top >= 0 else []


def bigint_connectivity_profile(
    complex_: SimplicialComplex, max_q: Optional[int] = None
) -> int:
    """:func:`repro.topology.connectivity_profile` on the shortcut-free stream."""
    if complex_.is_empty():
        return -2
    limit = complex_.dimension if max_q is None else max_q
    if limit < 0:
        return -1
    for q, betti in enumerate(_bigint_betti_stream(complex_, min(limit, complex_.dimension))):
        if betti != 0:
            return q - 1
    return limit


def _dense_simplices_by_dimension(complex_: SimplicialComplex) -> Dict[int, List[Simplex]]:
    """The seed grouping: the full face lattice, materialised as frozensets."""
    grouped: Dict[int, List[Simplex]] = {}
    for s in complex_.simplices():
        grouped.setdefault(len(s) - 1, []).append(s)
    for dim in grouped:
        grouped[dim].sort(key=lambda s: tuple(sorted(map(repr, s))))
    return grouped


def _dense_boundary_rank(lower: Sequence[Simplex], upper: Sequence[Simplex]) -> int:
    """The seed boundary rank: face lookups by frozenset difference."""
    if not upper or not lower:
        return 0
    index_of = {s: i for i, s in enumerate(lower)}
    rows: List[int] = []
    for s in upper:
        row = 0
        for vertex in s:
            position = index_of.get(s - {vertex})
            if position is not None:
                row |= 1 << position
        rows.append(row)
    return rank_of_int_rows(rows)


def dense_reduced_betti_numbers(
    complex_: SimplicialComplex, max_dimension: int | None = None
) -> List[int]:
    """The seed homology algorithm, kept as the differential-testing oracle.

    Materialises **every** face of every facet as a frozenset before any
    elimination, recomputes each boundary rank twice (once as up-rank, once
    as down-rank) — exactly the dense path the bitset kernel replaced, and
    the baseline ``bench_star_connectivity`` measures against.
    """
    if complex_.is_empty():
        return []
    grouped = _dense_simplices_by_dimension(complex_)
    top = complex_.dimension if max_dimension is None else min(max_dimension, complex_.dimension)
    betti: List[int] = []
    for q in range(top + 1):
        current = grouped.get(q, [])
        below = grouped.get(q - 1, [])
        above = grouped.get(q + 1, [])
        n_q = len(current)
        if q == 0:
            rank_down = 1 if n_q > 0 else 0
        else:
            rank_down = _dense_boundary_rank(below, current)
        rank_up = _dense_boundary_rank(current, above)
        betti.append(n_q - rank_down - rank_up)
    return betti


def dense_connectivity_profile(complex_: SimplicialComplex, max_q: int | None = None) -> int:
    """The seed profile scan: one full Betti recomputation per probed ``q``."""
    if complex_.is_empty():
        return -2
    limit = complex_.dimension if max_q is None else max_q
    level = -1
    for q in range(limit + 1):
        betti = dense_reduced_betti_numbers(complex_, max_dimension=q)
        if all(b == 0 for b in betti[: q + 1]):
            level = q
        else:
            break
    return level


#: The homology oracles by name: ``(reduced_betti_numbers, connectivity_profile)`` twins.
HOMOLOGY_ORACLES = {
    "bigint": (bigint_reduced_betti_numbers, bigint_connectivity_profile),
    "dense": (dense_reduced_betti_numbers, dense_connectivity_profile),
}


class _OracleProfileCache:
    """The :class:`repro.topology.ConnectivityCache` memo, misses run an oracle."""

    def __init__(self, profile) -> None:
        self._profile = profile
        self._profiles: Dict[Tuple, int] = {}
        self.misses = 0

    def profile(self, star: SimplicialComplex, max_q: int) -> int:
        key = (renaming_star_signature(star), max_q)
        if key not in self._profiles:
            self.misses += 1
            self._profiles[key] = self._profile(star, max_q=max_q)
        return self._profiles[key]


def capacity_connectivity_census(
    pc: ProtocolComplex, k: int, symmetry: str = "none", homology: str = "bigint"
) -> CapacityCensus:
    """:func:`repro.topology.capacity_connectivity_census` on a homology oracle.

    The production class stream and fold, with every star profile computed
    by the ``homology`` oracle (``"bigint"`` or ``"dense"``) — memoised on
    the quotient paths under the production cache key, so ``classes`` and
    ``homology_runs`` match the production census along with its row.
    """
    profile_of = HOMOLOGY_ORACLES[homology][1]
    groups, _profile, cache = census_classes(pc, k, symmetry=symmetry)
    if cache is not None:
        cache = _OracleProfileCache(profile_of)
        profile_of = cache.profile
    census = CapacityCensus(classes=len(groups))
    fold_census(pc, k, groups, lambda star: profile_of(star, max_q=k - 1), cache, census)
    return census


# ------------------------------------------------------------------ systems
def system_from_family(
    protocol,
    adversaries,
    t: int,
    horizon: Optional[int] = None,
    symmetry: str = "none",
) -> System:
    """:meth:`repro.knowledge.System.from_family` as one eager ``Run`` per stream item.

    The quotient systems re-key the directly iterated index by canonical
    view-key class, exactly as the production quotient does.
    """
    items = list(family_stream(adversaries, symmetry))
    system = System([Run(protocol, adversary, t, horizon=horizon) for _i, adversary, _w in items])
    if symmetry != "none":
        system._quotient_index(tuple(weight for _i, _a, weight in items), symmetry)
    return system


def system_from_family_two_pass(
    protocol, adversaries: Iterable[Adversary], t: int, horizon: Optional[int] = None
) -> System:
    """The two-pass system construction the fused pass replaced.

    One :class:`repro.engine.SweepRunner` pass for decisions, then a second,
    layer-retaining :class:`ViewSource` pass — with no early stopping — for
    the Definition 4 index.  ``tests/test_fused_scheduler.py`` pins the fused
    system to it and ``benchmarks/bench_system_build.py`` measures the
    fusion (≥1.8x is the acceptance gate).
    """
    batch = adversaries if isinstance(adversaries, (list, tuple)) else list(adversaries)
    if not batch:
        raise ValueError("a system must contain at least one run")
    swept = SweepRunner(protocol, t, horizon=horizon).sweep(batch)
    resolved_horizon = swept[0].horizon
    cache = RunCache()
    runs = tuple(FamilyRun(run, cache) for run in swept)
    source = ViewSource(batch, t, resolved_horizon)
    stop_times = [run.last_view_time for run in runs]
    index: Dict[Tuple, List[int]] = {}
    for time in range(resolved_horizon + 1):
        for group in source.groups_at(time):
            # A reference run ends once all its active processes decided;
            # points past a member's stop time are not points of the
            # system, exactly as in the eager per-run indexing.
            live = [pos for pos in group.positions if stop_times[pos] >= time]
            if not live:
                continue
            for process in group.active_processes():
                index.setdefault(group.key(process), []).extend(live)
    for indices in index.values():
        # The eager system indexes in run order; one sort per class restores
        # that order after the per-group extends.
        indices.sort()
    return System._from_index(runs, index)


# ------------------------------------------- orbits: hash-dedup and sizes
def automorphism_count(adversary: Adversary) -> int:
    """``|Aut(α)|`` under process renaming (the stabiliser of the orbit map).

    Factored as ``∏ |twin cell|!`` over the interchangeable cells of the
    stable refined partition, times a backtracking count of the
    automorphisms fixing those cells pointwise (the structurally-entangled
    processes — crashers and asymmetric receivers — are always few).
    """
    n = adversary.n
    events = _normal_events(adversary)
    colors, in_from, receivers, value_classes = _initial_colors(adversary, "process")
    colors = _refine(n, colors, in_from, receivers, value_classes)
    # The value-coloured refinement already separates unequal values, so the
    # value-free twin test of the shared partition is exact here too.
    twin_classes, active_cells = _twin_partition(n, events, colors)
    count = 1
    for cell in twin_classes:
        count *= math.factorial(len(cell))
    return count * sum(1 for _ in _twin_fixing_automorphisms(n, events, active_cells))


def adversary_orbit_size(adversary: Adversary) -> int:
    """The size of the process-renaming orbit: ``n! / |Aut(α)|``.

    This is the number of *distinct* adversaries in the orbit, which equals
    the within-space class size on every enumeration of
    :mod:`repro.adversaries.enumeration` (those spaces are closed under
    renaming).
    """
    return math.factorial(adversary.n) // automorphism_count(adversary)


def view_key_orbit_size(key: ViewKey) -> int:
    """The number of distinct renamings of a view key: ``n! / ∏ |row class|!``.

    The stabiliser fixes the observer and permutes only within classes of
    identical attribute rows, so its order is the product of the non-observer
    row-multiplicity factorials.
    """
    _time, _observer_row, other_rows = _view_key_rows(key)
    n = len(other_rows) + 1
    stabiliser = 1
    run = 1
    for previous, current in zip(other_rows, other_rows[1:]):
        if current == previous:
            run += 1
            stabiliser *= run
        else:
            run = 1
    return math.factorial(n) // stabiliser


def dedup_orbits(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[AdversaryOrbit]:
    """:func:`repro.adversaries.enumerate_orbits` by hash-dedup.

    The full space is streamed through canonical-form hashing and each orbit
    is yielded the first time it is met, with its size from the
    orbit–stabiliser theorem (:func:`adversary_orbit_size`).  Representatives
    and sizes equal the constructive stream's; the orbit *order* may differ.
    """
    if limit is not None and limit <= 0:
        return
    produced = 0
    seen = set()
    # One pattern-canonicalisation per distinct failure pattern: the
    # enumeration iterates input vectors in the inner loop, so the cache
    # amortises the graph search across every vector sharing the pattern.
    pattern_cache: dict = {}
    for adversary in enumerate_adversaries(
        context, max_crash_round, receiver_policy, max_failures
    ):
        canonical = canonical_adversary(adversary, pattern_cache=pattern_cache)
        if canonical.key in seen:
            continue
        seen.add(canonical.key)
        yield AdversaryOrbit(
            canonical.representative,
            adversary_orbit_size(canonical.representative),
        )
        produced += 1
        if limit is not None and produced >= limit:
            return


def dedup_pattern_and_orbit_counts(
    context: Context,
    max_crash_round: Optional[int] = None,
    receiver_policy: str = "canonical",
    max_failures: Optional[int] = None,
    ceiling: Optional[int] = None,
) -> Tuple[int, int]:
    """:func:`repro.adversaries.pattern_and_orbit_counts` by hash-dedup.

    Streams the whole space and counts distinct pattern/adversary keys;
    ``ceiling`` stops counting once the orbit total exceeds it.
    """
    pattern_keys = set()
    orbits = 0
    for _index, adversary in iter_orbit_representatives(
        enumerate_adversaries(context, max_crash_round, receiver_policy, max_failures)
    ):
        orbits += 1
        pattern_keys.add(canonical_adversary(adversary).key[0])
        if ceiling is not None and orbits > ceiling:
            break
    return len(pattern_keys), orbits


# -------------------- store keys: the reference walk of repro.store.stable_key
def _jsonable(value: Any) -> Any:
    """Map nested tuples/frozensets onto JSON-representable structures."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    raise TypeError(f"cannot build a stable store key from {type(value).__name__}: {value!r}")


# ------------------------------------------------------------------ surgery
def verify_surgery(original, result: SurgeryResult, t: Optional[int] = None) -> SurgeryCheck:
    """:func:`repro.adversaries.verify_surgery` re-simulated on a bare oracle ``Run``."""
    t = original.t if t is None else t
    horizon = max(original.horizon, result.time)
    return check_surgery(original, result, Run(None, result.adversary, t, horizon=horizon))


# ------------------------------------------------------------ trie views
class GroupViews:
    """The views of one (prefix-class, input-class) group of a trie layer.

    Everything here is a function of the group's :class:`StructLayer` and
    input vector alone, so it is computed once per class and shared by its
    members: canonical keys, per-layer hidden sets and the witness matrices
    of Definition 2.  (Construction costs what it did when the two-pass
    system was production, so ``bench_system_build`` measures the fusion
    against the same baseline.)
    """

    __slots__ = ("layer", "values", "adversaries", "positions", "_keys", "_active",
                 "_hidden", "_witness")

    def __init__(self, layer: StructLayer, values: Tuple, members: Sequence) -> None:
        self.layer = layer
        self.values = values
        #: The member adversaries of the class and their family positions.
        self.adversaries: Tuple[Adversary, ...] = tuple(item.adversary for item in members)
        self.positions: Tuple[int, ...] = tuple(item.pos for item in members)
        self._keys: Dict[ProcessId, ViewKey] = {}
        self._active: Optional[Tuple[ProcessId, ...]] = None
        self._hidden: Dict[ProcessId, Tuple[FrozenSet[ProcessId], ...]] = {}
        self._witness: Dict[Tuple[ProcessId, Optional[int]], List] = {}

    @property
    def time(self) -> Time:
        return self.layer.time

    def active_processes(self) -> Tuple[ProcessId, ...]:
        """Processes with a local state at this group's time."""
        if self._active is None:
            rows = self.layer.rows_seen
            self._active = tuple(i for i in range(self.layer.n) if rows[i] is not None)
        return self._active

    def view(self, process: ProcessId) -> ArrayView:
        """The view of an active process (``KeyError`` otherwise, like ``Run.view``)."""
        if not 0 <= process < self.layer.n or self.layer.rows_seen[process] is None:
            raise KeyError((process, self.layer.time))
        return ArrayView(self.layer, process, self.values)

    def key(self, process: ProcessId) -> ViewKey:
        """The canonical view key of an active process (cached per class)."""
        cached = self._keys.get(process)
        if cached is None:
            cached = self._keys[process] = view_key(self.view(process))
        return cached

    def hidden_sets(self, process: ProcessId) -> Tuple[FrozenSet[ProcessId], ...]:
        """Per-layer hidden process sets w.r.t. the observer (layers 0..time)."""
        if process not in self._hidden:
            view = self.view(process)
            self._hidden[process] = tuple(
                view.hidden_processes_at(layer) for layer in range(self.time + 1)
            )
        return self._hidden[process]

    def hidden_capacity(self, process: ProcessId) -> int:
        """``HC<process, time>``, from the layer's structural summary."""
        self.view(process)
        return self.layer.hidden_capacity(process)

    def witness_matrix(self, process: ProcessId, capacity: Optional[int] = None):
        """Definition 2 witness rows (:func:`repro.knowledge.hidden.witness_matrix`)."""
        from .knowledge.hidden import witness_matrix

        if (process, capacity) not in self._witness:
            self._witness[(process, capacity)] = witness_matrix(self.view(process), capacity)
        return self._witness[(process, capacity)]


class ViewSource:
    """Canonical views of a whole adversary family at every time ``0..time``.

    Schedules the family on the prefix-sharing trie with *no* protocol and
    *no* early stopping, advances ``time`` rounds and keeps every layer's
    (prefix-class, input-class) groups: the object-level view surface the
    two-pass system construction (:func:`system_from_family_two_pass`)
    indexes, pinned to the oracle ``Run`` views by
    ``tests/test_complex_differential.py``.
    """

    def __init__(self, adversaries: Iterable[Adversary], t: int, time: Time) -> None:
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        batch = adversaries if isinstance(adversaries, (list, tuple)) else list(adversaries)
        self.time = time
        n, prepared = prepare_adversaries(batch, t)
        self._layers: List[Tuple[GroupViews, ...]] = []
        if not prepared:
            self._layers = [() for _ in range(time + 1)]
            return
        scheduler = PrefixScheduler(n, prepared)
        for level in range(time + 1):
            if level:
                scheduler.advance()
            self._layers.append(
                tuple(
                    GroupViews(group.layer, group.values, group.members)
                    for group in scheduler.groups.values()
                )
            )

    def groups(self) -> Tuple[GroupViews, ...]:
        """All equivalence classes of the family at ``time``."""
        return self._layers[-1]

    def groups_at(self, time: Time) -> Tuple[GroupViews, ...]:
        """The equivalence classes at an intermediate time ``0 .. time``."""
        if not 0 <= time <= self.time:
            raise ValueError(f"time must be in 0..{self.time}, got {time}")
        return self._layers[time]

    def group_of(self, pos: int) -> GroupViews:
        """The class of the adversary at family position ``pos`` at ``time``."""
        return next(group for group in self.groups() if pos in group.positions)

    def key(self, pos: int, process: ProcessId) -> ViewKey:
        """Canonical view key of ``process`` under adversary ``pos`` at ``time``."""
        return self.group_of(pos).key(process)
