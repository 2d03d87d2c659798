"""The survey pipeline: stream → batch → evaluate → fold.

Both exhaustive surveys fold a deterministic stream into one aggregate:
the checker sweep (:func:`repro.verification.checker.fold_checks`) and the
Proposition 2 census (:func:`repro.topology.protocol_complex.fold_census`).
:func:`fold_stream` is that loop, once.  Everything else is an optional
attachment — a per-item verdict ``memo`` (the durable result store), an
``on_boundary`` hook called with the cursor after every batch (checkpoints
and budgets, :mod:`repro.runtime`), a resume ``cursor`` — and a plain
survey attaches nothing.  Items fold in stream order whether their verdict
was evaluated or memoized, so plain, memoized and resumed folds of one
stream produce byte-identical aggregates.  Every batch is evaluated in
this process, on the one engine core.

Collector policy: the cyclic garbage collector is paused while a batch is
built, evaluated and folded, and one young-generation ``gc.collect(0)``
runs at each batch boundary.  A batch's objects (prepared adversaries,
trie groups, runs, verdicts) live for exactly one batch and are freed by
reference counting when the next one replaces them; left to its
allocation-count trigger, the collector would instead promote them and
rescan every live object in a full collection almost once per batch.
Cyclic garbage an ``evaluate`` or ``fold`` might make is held back by at
most one batch (the repo's own code makes none,
``tests/test_gc_policy.py``).  The collector's prior state is restored
however the loop ends; if it was already off on entry (a nested
:func:`fold_stream`, or a caller's choice), the loop neither collects nor
re-enables it; the switch is process-wide, so concurrent folds in
threads share it and leave it on once all have ended.
:func:`collector_paused` is that pause and restore; the
protocol-complex build (:func:`repro.topology.build_protocol_complex`)
runs under it too, with no collection of its own: almost everything it
allocates lives until it returns.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

#: Checker stream items per batch.  Large enough that the batch engine keeps
#: its trie prefix sharing inside one sweep call and the checkpoint-write
#: cost stays <5% (gated by ``benchmarks/bench_resilience.py``), small
#: enough that an interrupted hour-scale survey loses minutes, not hours.
DEFAULT_BATCH_SIZE = 8192


def split_family(family) -> Tuple[bool, Iterable]:
    """Whether ``family`` is an orbit family, and an iterable over all of it.

    A :class:`repro.adversaries.RestrictedSpace`, or an iterable whose first
    item is an :class:`repro.adversaries.AdversaryOrbit` (an
    :func:`repro.adversaries.enumerate_orbits` stream), is an orbit family;
    any other iterable is a family of members.  A space comes back as
    itself; an iterable comes back as an iterator that still yields the
    item peeked at.
    """
    from .adversaries.enumeration import AdversaryOrbit, RestrictedSpace

    if isinstance(family, RestrictedSpace):
        return True, family
    items = iter(family)
    first = next(items, None)
    if first is None:
        return False, ()
    return isinstance(first, AdversaryOrbit), itertools.chain([first], items)


def family_stream(family) -> Iterator[Tuple[int, Any, int]]:
    """The ``(index, adversary, weight)`` stream a survey folds over a family.

    The family's type decides (:func:`split_family`).  An orbit family
    streams its generated canonical representatives
    (:func:`repro.adversaries.enumeration.constructive_quotient`), numbered
    in generation order and weighted by orbit size; any other family
    streams every member at weight 1.  The checker, the domination
    comparisons, ``collect``, :func:`repro.runtime.resilient_check` and
    ``System.from_family`` all read their families through it.

    The orbit stream is lazy and chunked: each ``next()`` that runs out of
    orbits generates the next :data:`DEFAULT_BATCH_SIZE` of them (inside
    :func:`fold_stream`'s batch, with the collector paused), so a survey
    holds O(batch) orbits, never the whole front.  The hash-dedup quotient
    of an arbitrary family is the :func:`repro.oracles.quotient_family`
    fixture.
    """
    orbits, items = split_family(family)
    if orbits:
        return _orbit_stream(items)
    return zip(itertools.count(), items, itertools.repeat(1))


def _orbit_stream(family) -> Iterator[Tuple[int, Any, int]]:
    """:func:`repro.adversaries.enumeration.constructive_quotient` chunk by chunk.

    A chunk's indices are ``range(len(chunk))``; offset by the orbits
    before the chunk, they are generation-order numbers over the whole
    stream.
    """
    from .adversaries import enumeration

    orbits = enumeration.constructive_orbit_stream(family)
    offset = 0
    while True:
        representatives, weights, indices = enumeration.constructive_quotient(
            itertools.islice(orbits, DEFAULT_BATCH_SIZE)
        )
        if not indices:
            return
        items = zip(range(offset, offset + len(indices)), representatives, weights)
        offset += len(indices)
        # Only ``items`` holds the chunk, and it is dropped before the next
        # chunk is generated: one chunk is alive at a time.
        del representatives, weights, indices
        yield from items
        del items


@contextlib.contextmanager
def collector_paused() -> Iterator[bool]:
    """Pause the cyclic collector for the block; yields whether it was on.

    The prior state is restored however the block ends.  A collector that
    was off on entry stays off: the caller should not collect either (the
    yielded ``False``).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield collecting
    finally:
        if collecting:
            gc.enable()


def fold_stream(
    stream: Iterable,
    evaluate: Callable[[List], Iterable],
    fold: Callable[[Any, Any], None],
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    cursor: int = 0,
    memo=None,
    on_boundary: Optional[Callable[[int], bool]] = None,
) -> None:
    """Fold ``stream`` in batches, skipping its first ``cursor`` items.

    ``evaluate(items)`` returns one verdict per item, in order (lazily if it
    likes); ``fold(item, verdict)`` folds one into the aggregate.
    ``memo.lookup(items)`` returns ``{position: verdict}`` for the batch
    positions it knows; ``memo.save(position, verdict)`` gets every verdict
    evaluated here.  The cyclic collector is paused inside the loop and
    runs once per batch boundary (see the module docstring).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    with collector_paused() as collecting:
        items = itertools.islice(stream, cursor, None)
        while True:
            folded = _fold_batch(list(itertools.islice(items, batch_size)), evaluate, fold, memo)
            if not folded:
                return
            cursor += folded
            if on_boundary is not None and on_boundary(cursor):
                return
            if collecting:
                gc.collect(0)


def _fold_batch(batch: List, evaluate, fold, memo) -> int:
    """Evaluate and fold one batch; returns its size.

    The batch's objects die with this frame, before the boundary collection,
    which therefore scans only what outlives the batch.
    """
    if not batch:
        return 0
    found = memo.lookup(batch) if memo is not None else {}
    pending = batch
    if found:
        pending = [item for position, item in enumerate(batch) if position not in found]
    verdicts = iter(evaluate(pending) if pending else ())
    for position, item in enumerate(batch):
        verdict = found.get(position)
        if verdict is None:
            verdict = next(verdicts)
            if memo is not None:
                memo.save(position, verdict)
        fold(item, verdict)
    return len(batch)
