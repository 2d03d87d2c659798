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
stream produce byte-identical aggregates.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

#: Checker stream items per batch.  Large enough that the batch engine keeps
#: its trie prefix sharing inside one sweep call and the checkpoint-write
#: cost stays <5% (gated by ``benchmarks/bench_resilience.py``), small
#: enough that an interrupted hour-scale survey loses minutes, not hours.
DEFAULT_BATCH_SIZE = 8192


def family_stream(adversaries, symmetry: str = "none") -> Iterator[Tuple[int, Any, int]]:
    """The ``(index, adversary, weight)`` stream a survey folds over a family.

    ``symmetry="none"`` streams every member with weight 1.
    ``symmetry="quotient"`` streams the first-seen member of each renaming
    class (:func:`repro.symmetry.quotient_family`) at its family position,
    weighted by the members in the class.  ``symmetry="constructive"``
    streams the generated canonical representatives
    (:func:`repro.adversaries.enumeration.constructive_quotient`), numbered
    in generation order and weighted by orbit size.  The checker, the
    domination comparisons, ``collect`` and ``System.from_family`` all read
    their families through it.
    """
    from .symmetry import validate_symmetry_choice

    validate_symmetry_choice(symmetry)
    if symmetry == "none":
        return ((index, adversary, 1) for index, adversary in enumerate(adversaries))
    if symmetry == "constructive":
        from .adversaries.enumeration import constructive_quotient

        representatives, weights, indices = constructive_quotient(adversaries)
    else:
        from .symmetry import quotient_family

        representatives, weights, indices = quotient_family(adversaries)
    return zip(indices, representatives, weights)


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
    evaluated here.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    items = itertools.islice(stream, cursor, None)
    while True:
        batch = list(itertools.islice(items, batch_size))
        if not batch:
            return
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
        cursor += len(batch)
        if on_boundary is not None and on_boundary(cursor):
            return
