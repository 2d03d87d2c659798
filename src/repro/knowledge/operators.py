"""Epistemic operators over systems of runs (paper, Appendix A).

The paper's protocol design is guided by a knowledge-based analysis: a fact
``A`` is *known* by process ``i`` at a point ``(r, m)`` of a system ``R`` iff
``A`` holds at every point ``(r', m)`` of ``R`` in which ``i`` has the same
local state (Definition 4).  The *Knowledge of Preconditions* principle
(Theorem 4) then says that if ``A`` is a necessary condition for an action,
``K_i A`` is a necessary condition for ``i`` performing it.

This module implements that semantics literally, for finite systems of runs
(all runs of a protocol over an enumerated or sampled adversary family).  It
is not used by the protocols themselves — they evaluate the *local* proxies
(``seen v``, hidden capacity, persistence) that the paper proves equivalent to
the relevant knowledge — but it is used by tests to validate those
equivalences on small systems, closing the loop between the epistemic
definitions and the combinatorial decision rules:

* ``K_i ∃v``  ⇔  ``i`` has seen ``v``  (full-information exchange);
* ``i`` can decide high  ⇔  ``K_i``("at most ``k-1`` low values will ever be
  decided by correct processes")  ⇔  ``HC<i,m> < k`` for a high ``i``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.run import Run
from ..model.types import ProcessId, Time, Value
from ..model.view import view_key


#: A fact is any predicate over a point ``(run, time)`` of the system.
Fact = Callable[[Run, Time], bool]


class FamilyRun:
    """One member of a batch-built :class:`System`: sweep decisions plus
    on-demand oracle views.

    Wraps a decision-sized :class:`repro.engine.sweep.BatchRun` and serves
    the view surface (``view`` / ``has_view`` / ``views_at``) from the
    system's shared :class:`repro.engine.RunCache` — a reference run is
    simulated only for adversaries a fact actually inspects views of, and at
    most once each.  A reference run under a protocol stops simulating once
    every active process has decided, so the surface is clamped to the swept
    run's ``stop_time`` (views are protocol-independent, hence identical up
    to that point) and the memoised bare run only simulates that far.
    Everything else (decisions, decision times, decided values, the
    adversary itself) delegates to the wrapped batch run, so the facts of
    this module consume either run flavour interchangeably.
    """

    __slots__ = ("_run", "_cache")

    def __init__(self, run, cache) -> None:
        self._run = run
        self._cache = cache

    @property
    def last_view_time(self) -> Time:
        """The last time this run has local states for.

        The reference loop checks the all-decided early stop only from time 1
        on, so even a run whose processes all decide at time 0 carries views
        through time 1 — hence the floor.
        """
        return max(self._run.stop_time, 1)

    def _oracle(self) -> Run:
        run = self._run
        return self._cache.get(run.adversary, run.t, self.last_view_time)

    def view(self, process: ProcessId, time: Time):
        """The view of ``process`` at ``time`` (``KeyError`` if it has none)."""
        if time > self.last_view_time:
            raise KeyError((process, time))
        return self._oracle().view(process, time)

    def has_view(self, process: ProcessId, time: Time) -> bool:
        """Whether ``process`` has a local state at ``time``."""
        return time <= self.last_view_time and self._oracle().has_view(process, time)

    def views_at(self, time: Time):
        """All views of processes active at ``time`` (``{}`` past the last view time)."""
        if time > self.last_view_time:
            return {}
        return self._oracle().views_at(time)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_run"), name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FamilyRun({self._run!r})"


class System:
    """A finite system ``R`` of runs of a single protocol over a context.

    The system groups points by local state so that the knowledge operator of
    Definition 4 can be evaluated by direct quantification.  Local states are
    indexed by their canonical :func:`repro.model.view.view_key` — the view
    *read API*, not the concrete ``View`` class — so queries may come from
    either engine's views (a batch :class:`repro.engine.ArrayView` of the same
    local state produces the identical key).
    """

    def __init__(self, runs: Sequence[Run]) -> None:
        if not runs:
            raise ValueError("a system must contain at least one run")
        self._runs: Tuple[Run, ...] = tuple(runs)
        self._symmetry = "none"
        self._orbit_weights: Optional[Tuple[int, ...]] = None
        # Index: canonical view key (which embeds process and time) -> list of
        # run indices whose owner has that local state at that point.
        self._index: Dict[Tuple, List[int]] = {}
        for idx, run in enumerate(self._runs):
            for view in self._iter_views(run):
                self._index.setdefault(view_key(view), []).append(idx)

    @staticmethod
    def _iter_views(run: Run):
        for time in range(run.horizon + 1):
            yield from run.views_at(time).values()

    @classmethod
    def from_family(
        cls,
        protocol,
        adversaries: Iterable,
        t: int,
        horizon: Optional[int] = None,
        symmetry: str = "none",
    ) -> "System":
        """Build the system of all runs of ``protocol`` over an adversary family.

        The system is assembled from **one** fused trie traversal
        (:meth:`repro.engine.SweepRunner.sweep_fused`): the protocol's
        decisions are evaluated and the Definition 4 local-state index is
        snapshotted as the same scheduler pass advances — every
        ``(process, time)`` point of every run is keyed once per
        (prefix-class, input-class), not once per adversary, and branches are
        dropped the moment they stop contributing points.  The runs of the
        resulting system are :class:`FamilyRun` facades
        whose view surface is served lazily by a shared
        :class:`repro.engine.RunCache`: only the adversaries of points
        actually queried (or of runs whose views a fact inspects) are ever
        re-simulated, at most once each — not the whole family up front.

        The fused pass is pinned to the eager ``Run`` system and the two-pass
        construction it replaced (the :mod:`repro.oracles` fixtures).

        ``symmetry="quotient"`` builds the *quotient* system: the family is
        grouped by process-renaming orbit
        (:func:`repro.symmetry.quotient_family`), one representative run is
        built per orbit (the fused pass sees only representatives, so
        decision evaluation and view snapshotting happen once per class),
        and the Definition 4 index is keyed by the **canonical** view-key
        class (:func:`repro.symmetry.canonical_view_key`) so that local
        states of renamed runs coincide.  For renaming-invariant facts over
        a renaming-closed family, ``knows`` on the quotient system equals
        ``knows`` on the full system (pinned by
        ``tests/test_quotient_differential.py``); :attr:`orbit_weights`
        records how many family members each run stands for.

        ``symmetry="constructive"`` builds the same system from representatives
        generated from a :class:`repro.adversaries.RestrictedSpace`
        (:func:`repro.pipeline.family_stream`), never enumerating the family.
        """
        from ..engine.sweep import SweepRunner
        from ..engine.views import RunCache
        from ..pipeline import family_stream

        items = list(family_stream(adversaries, symmetry))
        batch = [adversary for _index, adversary, _weight in items]
        if not batch:
            raise ValueError("a system must contain at least one run")
        runner = SweepRunner(protocol, t, horizon=horizon)
        swept, index = runner.sweep_fused(batch)
        cache = RunCache()
        system = cls._from_index(tuple(FamilyRun(run, cache) for run in swept), index)
        if symmetry != "none":
            system._quotient_index(tuple(weight for _i, _a, weight in items), symmetry)
        return system

    @classmethod
    def _from_index(cls, runs: Tuple, index: Dict[Tuple, List[int]]) -> "System":
        """A full system over ``runs`` whose Definition 4 index is already built."""
        system = cls.__new__(cls)
        system._runs = runs
        system._index = index
        system._symmetry = "none"
        system._orbit_weights = None
        return system

    def _quotient_index(self, weights: Tuple[int, ...], symmetry: str = "quotient") -> None:
        """Re-key the Definition 4 index by canonical view-key classes.

        Points whose local states differ only by a process renaming fall into
        one class, which is what makes quotient knowledge of
        renaming-invariant facts agree with the full system's.  ``symmetry``
        records which front produced the representatives (``"quotient"`` or
        ``"constructive"``); the index transform is identical.
        """
        from ..symmetry import canonical_view_key

        merged: Dict[Tuple, List[int]] = {}
        for key, indices in self._index.items():
            merged.setdefault(canonical_view_key(key), []).extend(indices)
        for indices in merged.values():
            indices.sort()
        self._index = merged
        self._symmetry = symmetry
        self._orbit_weights = weights

    @property
    def symmetry(self) -> str:
        """``"none"`` for a full system, ``"quotient"``/``"constructive"`` for an orbit-quotiented one."""
        return self._symmetry

    @property
    def orbit_weights(self) -> Optional[Tuple[int, ...]]:
        """Per-run orbit member counts of a quotient system (``None`` otherwise)."""
        return self._orbit_weights

    @property
    def runs(self) -> Tuple[Run, ...]:
        """The runs of the system."""
        return self._runs

    def runs_with_local_state(self, view) -> List[Run]:
        """All runs of the system realising the given local state.

        ``view`` may be a reference ``View`` or a batch ``ArrayView`` — any
        object the canonical :func:`repro.model.view.view_key` applies to.
        In a quotient system the lookup is by the state's renaming class, so
        views of runs that were quotiented away still resolve (to the runs
        realising any renaming of the state).  Raises if no run of the
        system realises the state.
        """
        key = view_key(view)
        if self._symmetry in ("quotient", "constructive"):
            from ..symmetry import canonical_view_key

            key = canonical_view_key(key)
        if key not in self._index:
            raise ValueError("the given point does not belong to this system")
        return [self._runs[idx] for idx in self._index[key]]

    def indistinguishable_runs(self, run: Run, process: ProcessId, time: Time) -> List[Run]:
        """All runs of the system in which ``process`` has the same local state at ``time``.

        The given run itself is included (knowledge is reflexive).  Raises if
        ``process`` has no local state at ``time`` in ``run`` or if the run is
        not part of the system.
        """
        return self.runs_with_local_state(run.view(process, time))

    def knows(self, fact: Fact, run: Run, process: ProcessId, time: Time) -> bool:
        """Definition 4: ``K_i fact`` at the point ``(run, time)``."""
        return all(
            fact(other, time) for other in self.indistinguishable_runs(run, process, time)
        )

    def fact_holds(self, fact: Fact, run: Run, time: Time) -> bool:
        """Evaluate a fact directly at a point (no knowledge operator)."""
        return fact(run, time)


# --------------------------------------------------------------------- facts
def exists_value(value: Value) -> Fact:
    """The fact ``∃value``: some process started with initial value ``value``."""

    def fact(run: Run, _time: Time) -> bool:
        return value in run.adversary.value_set()

    return fact


def no_correct_process_decides(value: Value) -> Fact:
    """The fact "no correct process ever decides ``value``" (used in the Opt0 analysis)."""

    def fact(run: Run, _time: Time) -> bool:
        return value not in run.decided_values(correct_only=True)

    return fact


def at_most_low_values_decided(k: int) -> Fact:
    """The fact "at most ``k-1`` values smaller than ``k`` are decided by correct processes"."""

    def fact(run: Run, _time: Time) -> bool:
        low_decided = {v for v in run.decided_values(correct_only=True) if v < k}
        return len(low_decided) <= k - 1

    return fact


def value_persists(value: Value) -> Fact:
    """The fact "every process active at the next time knows ``∃value``" (Definition 3's target)."""

    def fact(run: Run, time: Time) -> bool:
        next_views = run.views_at(time + 1)
        if not next_views:
            return True
        return all(view.knows_value(value) for view in next_views.values())

    return fact


def knowledge_of_precondition_holds(
    system: System,
    fact: Fact,
    decision_value: Value,
) -> bool:
    """Check Theorem 4 (Knowledge of Preconditions) on a finite system.

    For every run of the system and every process that decides
    ``decision_value`` at some time ``m``, verify that the process *knows*
    ``fact`` at ``m``.  Returns ``True`` iff the principle holds throughout
    the system; tests use it with ``fact = exists_value(v)`` to validate the
    Validity analysis of Section 3.
    """
    for run in system.runs:
        for decision in run.decisions():
            if decision.value != decision_value:
                continue
            if not system.knows(fact, run, decision.process, decision.time):
                return False
    return True
