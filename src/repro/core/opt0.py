"""The unbeatable (1-set) consensus protocols Opt0 and u-Opt0 (paper, Section 3).

The paper reviews the unbeatable protocols of Castañeda–Gonczarowski–Moses
2014 for binary consensus, which Optmin[k] and u-Pmin[k] generalise::

    Protocol Opt0 (for an undecided process i at time m):
        if seen 0 then decide(0)
        elseif some time ℓ <= m contains no hidden node then decide(1)

Opt0 is exactly Optmin[1] restricted to values ``{0, 1}``: "seen 0" is "is
low" and "some layer has no hidden node" is "hidden capacity < 1".  Likewise
u-Opt0 is u-Pmin[1].  These classes are provided both as faithful,
independently-readable implementations of the Section 3 pseudo-code and as the
``k = 1`` anchors for the cross-validation tests, which assert that on every
adversary ``Opt0`` and ``OptMin(1)`` (and ``UOpt0`` and ``UPMin(1)``) produce
identical decisions at identical times.
"""

from __future__ import annotations

from typing import Optional

from ..model.run import RoundContext
from ..model.types import Value
from .protocol import Protocol


class Opt0(Protocol):
    """The unbeatable nonuniform binary consensus protocol ``Opt0``."""

    name = "Opt0"
    uniform = False

    def __init__(self) -> None:
        super().__init__(k=1)

    def decide(self, ctx: RoundContext) -> Optional[Value]:
        """Decide 0 upon seeing 0; decide 1 once some layer has no hidden node."""
        view = ctx.view
        if view.knows_value(0):
            return 0
        if any(view.hidden_count_at(layer) == 0 for layer in range(view.time + 1)):
            # No hidden path exists, so no unknown initial value can reach any
            # active process: nobody will ever decide 0.
            return view.min_value()
        return None

    def max_decision_time(self, n: int, t: int) -> int:
        """Worst case ``t + 1`` rounds (the f+1 early-stopping bound with f = t)."""
        return t + 1

    def decision_bound(self, f: int) -> int:
        """Proposition 1 with ``k = 1``: every process decides by time ``f + 1``."""
        return f + 1


class UOpt0(Protocol):
    """The unbeatable uniform binary consensus protocol ``u-Opt0`` (= u-Pmin[1])."""

    name = "u-Opt0"
    uniform = True

    def __init__(self) -> None:
        super().__init__(k=1)

    def decide(self, ctx: RoundContext) -> Optional[Value]:
        """The u-Pmin decision rule specialised to ``k = 1``."""
        view = ctx.view
        if (view.knows_value(0) or view.hidden_capacity() < 1) and ctx.knows_persist(
            view.min_value()
        ):
            return view.min_value()
        previous = ctx.previous_view
        if ctx.time > 0 and previous is not None:
            if previous.knows_value(0) or previous.hidden_capacity() < 1:
                return previous.min_value()
        if ctx.time == ctx.t + 1:
            return view.min_value()
        return None

    def max_decision_time(self, n: int, t: int) -> int:
        """Worst case ``t + 1`` rounds (Theorem 3 with ``k = 1``)."""
        return t + 1

    def decision_bound(self, t: int, f: int) -> int:
        """Theorem 3 with ``k = 1``: every process decides by ``min(t + 1, f + 2)``."""
        return min(t + 1, f + 2)
