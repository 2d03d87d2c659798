"""Optmin[k]: the unbeatable protocol for nonuniform k-set consensus (Section 4).

The protocol's description is extremely succinct (paper, Section 4.1)::

    Protocol Optmin[k] (for an undecided process i at time m):
        if i is low or i has hidden capacity < k then decide(Min<i,m>)

where

* ``Min<i,m>`` is the minimal initial value ``i`` has seen by time ``m``;
* ``i`` is *low* at ``m`` if ``Min<i,m> < k``;
* the *hidden capacity* ``HC<i,m>`` (Definition 2) is the largest ``c`` such
  that every layer ``ℓ <= m`` contains at least ``c`` nodes hidden from
  ``<i, m>``.

Properties proven in the paper and checked by this library's test-suite and
benchmark harness:

* **Proposition 1** — Optmin[k] solves nonuniform k-set consensus and all
  processes decide by time ``⌊f/k⌋ + 1``.
* **Theorem 1** — Optmin[k] is *unbeatable*: no protocol solving the problem
  can have even one process decide strictly earlier in some adversary without
  some process deciding strictly later in another.
* **Theorem 2** — Optmin[k] is also last-decider unbeatable.

Optmin[1] coincides with the unbeatable consensus protocol Opt0 of
Castañeda–Gonczarowski–Moses 2014 (being low = having seen ``0``; hidden
capacity ``< 1`` = some layer with no hidden node).
"""

from __future__ import annotations

from typing import Optional

from ..model.run import RoundContext
from ..model.types import Value
from .protocol import Protocol


class OptMin(Protocol):
    """The unbeatable nonuniform k-set consensus protocol ``Optmin[k]``."""

    name = "Optmin[k]"
    uniform = False

    def decide(self, ctx: RoundContext) -> Optional[Value]:
        """Decide ``Min<i,m>`` iff the process is low or its hidden capacity is below ``k``."""
        view = ctx.view
        if view.is_low(self.k) or view.hidden_capacity() < self.k:
            return view.min_value()
        return None

    def max_decision_time(self, n: int, t: int) -> int:
        """Proposition 1's bound with ``f = t`` (the engine stops earlier when ``f < t``)."""
        return t // self.k + 1

    def decision_bound(self, f: int) -> int:
        """Proposition 1: every process decides by time ``⌊f/k⌋ + 1``."""
        return f // self.k + 1


class OptMinWithExplanation(OptMin):
    """Optmin[k] instrumented to also report *why* it decided.

    Identical decisions to :class:`OptMin`; additionally records, per process,
    whether the decision was triggered by being low or by the hidden capacity
    dropping below ``k``.  Used by examples and by the FIG2 benchmark, which
    reports how often each trigger fires.

    Because ``decide`` mutates ``self.reasons``, run it on the reference
    engine (:class:`repro.model.run.Run`) only: the batch engine evaluates
    decision rules once per distinct local state of a pass, so the recorded
    reasons would cover only one call per local state.
    """

    name = "Optmin[k] (instrumented)"

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.reasons: dict[int, str] = {}

    def decide(self, ctx: RoundContext) -> Optional[Value]:
        view = ctx.view
        if view.is_low(self.k):
            self.reasons[view.process] = "low"
            return view.min_value()
        if view.hidden_capacity() < self.k:
            self.reasons[view.process] = "hidden-capacity"
            return view.min_value()
        return None
