"""View surfaces on the layer chain, and the memoised reference-run front.

Families get their canonical views from the fused and view-only passes of
:mod:`repro.engine.fused`.  :class:`LayerViews` is the single-adversary
surface: the ``Run`` view read API (``view`` / ``has_view`` / ``views_at``)
on the copy-on-write layer chain, which
:func:`repro.adversaries.surgery.verify_surgery` re-simulates surgered
adversaries with.  :class:`RunCache` keeps the reference engine as the lazy
view oracle: a memoised front for ``Run(None, adversary, t, horizon=...)``,
so repeated vertex lookups against one adversary re-simulate nothing.  The
batch layers track per-round sender sets, so the one
:func:`repro.model.view.view_key` applies to either engine's views.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..model.adversary import Adversary
from ..model.run import Run, default_horizon
from ..model.types import ProcessId, Time
from .arrays import ArrayView, StructLayer
from .trie import events_by_round


class RunCache:
    """Memoised bare full-information reference runs (the oracle path).

    One cache replaces the scattered ``Run(None, adversary, t, horizon=...)``
    call sites: every distinct ``(adversary, t, horizon)`` triple is simulated
    exactly once, however many vertex lookups hit it.  ``hits`` / ``misses``
    are exposed for instrumentation and tests.

    Entries live as long as the cache does (a ``Run`` retains every view of
    its execution), so survey-scale consumers should share one cache per
    complex — as :class:`repro.topology.protocol_complex.ProtocolComplex`
    does — and :meth:`clear` it when a sweep over a large family is done
    with its lookups.
    """

    __slots__ = ("_runs", "hits", "misses")

    def __init__(self) -> None:
        self._runs: Dict[Tuple[Adversary, int, Optional[int]], Run] = {}
        self.hits = 0
        self.misses = 0

    def get(self, adversary: Adversary, t: int, horizon: Optional[int] = None) -> Run:
        """The memoised bare run of ``adversary`` (simulated on first use).

        The horizon is normalised through the shared ``default_horizon``
        policy before keying, so equivalent requests (e.g. an explicit
        ``horizon=0`` vs the clamped ``1``) share one simulation.
        """
        horizon = default_horizon(None, adversary.n, t, horizon)
        key = (adversary, t, horizon)
        run = self._runs.get(key)
        if run is None:
            self.misses += 1
            run = self._runs[key] = Run(None, adversary, t, horizon=horizon)
        else:
            self.hits += 1
        return run

    def clear(self) -> None:
        """Drop every retained run (the hit/miss counters are kept)."""
        self._runs.clear()

    def __len__(self) -> int:
        return len(self._runs)


class LayerViews:
    """The ``Run`` view read surface for one adversary, on the layer chain.

    Simulates the bare full-information exchange (no protocol, no decisions)
    up to ``horizon`` on :class:`StructLayer` rows and serves
    :class:`ArrayView` objects.  Drop-in for the view-lookup subset of the
    reference ``Run`` API (``view`` raises ``KeyError`` for nodes without a
    local state, exactly like ``Run.view``).
    """

    __slots__ = ("adversary", "t", "horizon", "_layers")

    def __init__(self, adversary: Adversary, t: int, horizon: Time) -> None:
        adversary.pattern.check_crash_bound(t)
        self.adversary = adversary
        self.t = t
        # Same floor the Run constructor applies to explicit horizons (the
        # policy is owned by default_horizon), so the two lookup surfaces
        # agree at horizon <= 0 too.
        self.horizon = default_horizon(None, adversary.n, t, horizon)
        # The trie owns the canonical per-round event keying; reusing it
        # keeps this chain and the scheduler's identical.
        events = events_by_round(adversary.pattern)
        layer = StructLayer.root(adversary.n)
        layers = [layer]
        for round_ in range(1, self.horizon + 1):
            layer = layer.child(events.get(round_, ()))
            layers.append(layer)
        self._layers = layers

    @property
    def n(self) -> int:
        return self.adversary.n

    def has_view(self, process: ProcessId, time: Time) -> bool:
        """Whether ``process`` has a local state at ``time``."""
        return (
            0 <= time <= self.horizon
            and 0 <= process < self.adversary.n
            and self._layers[time].rows_seen[process] is not None
        )

    def view(self, process: ProcessId, time: Time) -> ArrayView:
        """The view of ``process`` at ``time`` (``KeyError`` if it has none)."""
        if not self.has_view(process, time):
            raise KeyError((process, time))
        return ArrayView(self._layers[time], process, self.adversary.values)

    def views_at(self, time: Time) -> Dict[ProcessId, ArrayView]:
        """All views of processes active at ``time`` (``{}`` out of range,
        matching ``Run.views_at``)."""
        if not 0 <= time <= self.horizon:
            return {}
        layer = self._layers[time]
        values = self.adversary.values
        return {
            p: ArrayView(layer, p, values)
            for p in range(self.adversary.n)
            if layer.rows_seen[p] is not None
        }
