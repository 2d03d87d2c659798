"""The batch sweep driver: simulate many adversaries of a context at once.

:class:`SweepRunner` consumes any iterable of adversaries (exhaustive
enumerations, random ensembles, hand-built scenario lists), schedules them on
the prefix-sharing trie of :mod:`repro.engine.trie`, evaluates the protocol's
decision rule once per distinct local state via the array-backed views of
:mod:`repro.engine.arrays`, and reports one :class:`BatchRun` per adversary —
a lightweight object exposing the read API of :class:`repro.model.run.Run`
(decisions, decision times, decided values) so the property checkers and the
analysis/benchmark layers consume a ``BatchRun`` and a ``Run`` interchangeably.

This is the only engine production code runs.  The reference engine
(:class:`repro.model.run.Run`) remains the oracle: the batch engine is
differentially tested against it (``tests/test_engine_differential.py``,
``tests/test_exhaustive.py`` and the :mod:`repro.oracles` fixtures) and must
produce bit-identical decisions and decision times on every adversary.

Every sweep runs in this process.  The traversal itself lives in
:mod:`repro.engine.fused`: the decision sweep is the
``collect_views=False`` mode of the fused scheduler pass, and
:meth:`SweepRunner.sweep_fused` exposes the full fused product (decisions
*plus* the canonical-view index) that ``System.from_family`` consumes in a
single pass.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..model.adversary import Adversary
from ..model.run import DecisionSummary, default_horizon
from ..model.types import Decision, ProcessId, Time, Value
from .fused import ViewIndex, run_fused_pass
from .trie import batch_system_size


class BatchRun:
    """The outcome of one adversary in a sweep, with the ``Run`` read surface.

    Exposes exactly the accessors the verification / analysis layers use on
    :class:`repro.model.run.Run` — not the per-view introspection API, which
    only exists on the reference engine (use a ``Run`` when you need views).
    Its decisions live in its trie group's :class:`DecisionSummary`, which
    every member of the group shares.
    """

    __slots__ = ("_protocol", "_adversary", "_t", "_horizon", "_summary", "index", "stop_time")

    def __init__(
        self,
        protocol,
        adversary: Adversary,
        t: int,
        horizon: int,
        summary: DecisionSummary,
        index: int,
        stop_time: int,
    ) -> None:
        self._protocol = protocol
        self._adversary = adversary
        self._t = t
        self._horizon = horizon
        self._summary = summary
        #: Position of the adversary in the sweep input.
        self.index = index
        #: The time at which the trie branch of this adversary finalised.
        self.stop_time = stop_time

    # -------------------------------------------------------------- accessors
    @property
    def adversary(self) -> Adversary:
        return self._adversary

    @property
    def protocol(self):
        return self._protocol

    @property
    def n(self) -> int:
        return self._adversary.n

    @property
    def t(self) -> int:
        return self._t

    @property
    def horizon(self) -> int:
        return self._horizon

    def decision_summary(self) -> DecisionSummary:
        return self._summary

    def decisions(self) -> Tuple[Decision, ...]:
        return self._summary.decisions

    def decision(self, process: ProcessId) -> Optional[Decision]:
        for d in self._summary.decisions:
            if d.process == process:
                return d
        return None

    def decision_value(self, process: ProcessId) -> Optional[Value]:
        d = self.decision(process)
        return None if d is None else d.value

    def decision_time(self, process: ProcessId) -> Optional[Time]:
        d = self.decision(process)
        return None if d is None else d.time

    def decided_values(self, correct_only: bool = False) -> FrozenSet[Value]:
        pattern = self._adversary.pattern
        return frozenset(
            d.value
            for d in self._summary.decisions
            if not correct_only or not pattern.is_faulty(d.process)
        )

    def correct_processes(self) -> FrozenSet[ProcessId]:
        return self._adversary.pattern.correct

    def last_decision_time(self, correct_only: bool = True) -> Optional[Time]:
        pattern = self._adversary.pattern
        for d in self._summary.latest_first:
            if not correct_only or not pattern.is_faulty(d.process):
                return d.time
        return None

    def all_correct_decided(self) -> bool:
        decided = self._summary.decided
        return all(decided >> p & 1 for p in self.correct_processes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchRun(#{self.index}, n={self.n}, decisions={len(self._summary.decisions)}, "
            f"stop_time={self.stop_time})"
        )


class SweepReport:
    """Aggregate bookkeeping of one sweep (exposed by :meth:`SweepRunner.sweep`)."""

    __slots__ = ("adversaries", "layers_computed", "reference_layer_estimate")

    def __init__(self, adversaries: int, layers_computed: int, reference_layer_estimate: int) -> None:
        #: Number of adversaries swept.
        self.adversaries = adversaries
        #: StructLayer simulations the trie actually performed.
        self.layers_computed = layers_computed
        #: Layer simulations the reference engine would have performed
        #: (one per adversary per simulated time), for the sharing factor.
        self.reference_layer_estimate = reference_layer_estimate

    @property
    def sharing_factor(self) -> float:
        """How many reference layer simulations each trie layer replaced."""
        if not self.layers_computed:
            return 1.0
        return self.reference_layer_estimate / self.layers_computed

    def summary(self) -> str:
        return (
            f"swept {self.adversaries} adversaries with {self.layers_computed} shared "
            f"layer simulations (~{self.sharing_factor:.1f}x structural sharing)"
        )


class SweepRunner:
    """Batch execution of one protocol over many adversaries.

    The decision rule must be a deterministic function of the local state
    and ``n``, ``t`` (as every full-information protocol's rule is by
    definition): the batch engine evaluates ``decide`` once per distinct
    ``(layer, process, seen inputs)`` of each pass — not once per adversary
    or trie group; :func:`repro.engine.fused._apply_group_decisions` gives
    the soundness argument.  Protocols that accumulate side state in
    ``decide`` (e.g. the
    instrumented ``OptMinWithExplanation``) belong on
    :class:`repro.model.run.Run`.

    Parameters
    ----------
    protocol:
        The protocol whose decision rule is swept (any
        :class:`repro.core.protocol.Protocol`).
    t:
        The a-priori crash bound given to the protocol.
    horizon:
        Simulation horizon; defaults to the protocol's declared worst case
        plus one round of slack, exactly like the reference engine.
    """

    def __init__(self, protocol, t: int, horizon: Optional[int] = None) -> None:
        self.protocol = protocol
        self.t = t
        self.horizon = horizon
        self.last_report: Optional[SweepReport] = None

    # ------------------------------------------------------------------ sweeps
    def sweep(self, adversaries: Iterable[Adversary]) -> List[BatchRun]:
        """Simulate every adversary; results are ordered like the input."""
        runs, _index = self._run_pass(adversaries, collect_views=False)
        return runs

    def sweep_fused(
        self, adversaries: Iterable[Adversary]
    ) -> Tuple[List[BatchRun], ViewIndex]:
        """One fused traversal: runs *and* the canonical local-state index.

        The index maps every canonical view key realised by the family (at
        the points of the system: times ``0 .. max(stop_time, 1)`` per run)
        to the sorted positions of the runs realising it — exactly the
        Definition 4 index ``System.from_family`` consumes, produced by the
        same single pass that evaluated the decisions.
        """
        return self._run_pass(adversaries, collect_views=True)

    def _run_pass(
        self, adversaries: Iterable[Adversary], collect_views: bool
    ) -> Tuple[List[BatchRun], Optional[ViewIndex]]:
        if self.protocol is None:
            # The reference engine supports bare full-information runs because
            # its product is views; a batch sweep's product is decisions, so a
            # protocol-less sweep could only ever return empty results.
            raise ValueError(
                "SweepRunner requires a protocol; for bare full-information "
                "runs (views, no decisions) use repro.model.Run / execute_many"
            )
        batch = adversaries if isinstance(adversaries, (list, tuple)) else list(adversaries)
        if not batch:
            self.last_report = SweepReport(0, 0, 0)
            return [], ({} if collect_views else None)
        # One system size for the whole batch: it fixes the horizon.
        n = batch_system_size(batch)
        horizon = default_horizon(self.protocol, n, self.t, self.horizon)

        outcome = run_fused_pass(
            self.protocol, batch, self.t, horizon, n=n, collect_views=collect_views
        )
        runs = [
            BatchRun(self.protocol, batch[pos], self.t, horizon, summary, pos, stop_time)
            for pos, summary, stop_time in outcome.raw
        ]
        reference_layers = sum(run.stop_time + 1 for run in runs)
        self.last_report = SweepReport(len(runs), outcome.layers_computed, reference_layers)
        index = outcome.view_index
        if index is not None:
            # The pass appends per group, in trie order; one sort per key
            # restores the run order the reference System constructor
            # indexes in.
            for positions in index.values():
                positions.sort()
        return runs, index

    # ------------------------------------------------------------ aggregation
    def decision_times(
        self, adversaries: Iterable[Adversary], correct_only: bool = True
    ) -> List[Optional[Time]]:
        """Last (correct) decision time per adversary, in input order."""
        return [run.last_decision_time(correct_only=correct_only) for run in self.sweep(adversaries)]


def sweep(
    protocol,
    adversaries: Iterable[Adversary],
    t: int,
    horizon: Optional[int] = None,
) -> List[BatchRun]:
    """Convenience wrapper: batch-simulate ``protocol`` against ``adversaries``."""
    return SweepRunner(protocol, t, horizon=horizon).sweep(adversaries)

