"""The protocol interface shared by the paper's protocols and the baselines.

Since the library only considers full-information protocols (Coan's
reduction, paper Section 2.1), a protocol is fully specified by its decision
rule: a deterministic function from a process's local state (plus the system
constants ``n`` and ``t``) to either a decision value or "stay undecided".
The run engine (:mod:`repro.model.run`) invokes that rule at every node of a
run, in time order, for processes that have not decided yet.

Concrete protocols subclass :class:`Protocol` and implement
:meth:`Protocol.decide`.  They additionally declare:

* ``k`` — the agreement parameter they solve set consensus for;
* ``uniform`` — whether they are designed to satisfy *Uniform* k-Agreement;
* ``max_decision_time(n, t)`` — the worst-case decision-time bound they are
  proven to meet (used by the run engine to pick a simulation horizon and by
  the bound-checking benchmarks).
"""

from __future__ import annotations

import abc
from typing import Optional

from ..model.run import RoundContext
from ..model.types import Value


class Protocol(abc.ABC):
    """A full-information decision protocol for (uniform or nonuniform) k-set consensus."""

    #: Human-readable protocol name (the paper's notation where applicable).
    name: str = "protocol"

    #: Whether the protocol targets Uniform k-Agreement (decisions of crashed
    #: processes count) rather than the nonuniform variant.
    uniform: bool = False

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k

    @property
    def k(self) -> int:
        """The agreement parameter ``k``."""
        return self._k

    @abc.abstractmethod
    def decide(self, ctx: RoundContext) -> Optional[Value]:
        """The decision rule at a node.

        It must be a deterministic function of the process's local state
        (what ``ctx`` exposes) and of ``n`` and ``t``.  The batch engine
        relies on that: it evaluates ``decide`` once per distinct local
        state in each pass and reuses the result for every run sharing the
        state, so a rule that keeps side state (such as the instrumented
        :class:`repro.core.OptMinWithExplanation`) belongs on
        :class:`repro.model.run.Run`.

        Parameters
        ----------
        ctx:
            The :class:`repro.model.run.RoundContext` of an *undecided*
            process at the current time.

        Returns
        -------
        Optional[Value]
            The value to decide on now, or ``None`` to stay undecided.
        """

    @abc.abstractmethod
    def max_decision_time(self, n: int, t: int) -> int:
        """An upper bound on the time by which every correct process decides."""

    def describe(self) -> str:
        """One-line description used in comparison tables."""
        kind = "uniform" if self.uniform else "nonuniform"
        return f"{self.name} (k={self._k}, {kind})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self._k})"
