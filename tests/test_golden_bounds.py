"""Golden regression tests pinning the paper's headline decision-time numbers.

Proposition 1 and Theorem 3 are verified *qualitatively* elsewhere (property
checks, exhaustive sweeps).  These tests pin the *exact* numbers the
reproduction currently produces — worst-case chain times, the Fig. 4
comparison, exhaustive decision-time histograms — so that any future engine
or protocol change that silently drifts a result (off-by-one horizons,
reordered decision application, altered tie-breaking) fails loudly here even
if the paper's inequalities still hold.

All ensembles are deterministic: fixed seeds, fixed enumeration restrictions.
The histograms were produced by the reference engine and are asserted through
the batch engine (the engines are pinned to each other by the differential
suite, so a drift in either trips these).
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.adversaries import AdversaryGenerator, figure2_scenario, figure4_scenario
from repro.adversaries.enumeration import enumerate_adversaries
from repro.analysis import collect
from repro.baselines import EarlyDecidingKSet, FloodMin, UniformEarlyDecidingKSet
from repro.core import OptMin, UPMin
from repro.engine import SweepRunner
from repro.model import Context, Run
from repro.topology import build_restricted_complex, connectivity_profile


class TestProposition1Golden:
    """Optmin[k] worst cases: the Fig. 2 hidden-chain adversaries are tight."""

    #: (k, chain depth) -> (n of the scenario, t of the scenario, last decision time)
    FIG2_GOLDEN = {
        (2, 2): (8, 4, 3),
        (3, 2): (11, 6, 3),
        (2, 3): (10, 6, 4),
    }

    @pytest.mark.parametrize("k,depth", sorted(FIG2_GOLDEN))
    def test_hidden_chain_realises_bound(self, k, depth):
        n, t, last = self.FIG2_GOLDEN[(k, depth)]
        scenario = figure2_scenario(k=k, depth=depth)
        assert scenario.adversary.n == n
        assert scenario.context.t == t
        run = Run(OptMin(k), scenario.adversary, scenario.context.t)
        assert run.last_decision_time() == last
        # The golden number *is* the paper bound ⌊f/k⌋ + 1 with f = k·depth.
        assert last == scenario.adversary.num_failures // k + 1

    def test_random_ensemble_histogram(self):
        """Seeded (n=7, t=4, k=2) ensemble: exact Optmin[k] histogram."""
        context = Context(n=7, t=4, k=2)
        adversaries = AdversaryGenerator(context, seed=702).sample(80)
        stats = collect([OptMin(2)], adversaries, context.t)["Optmin[k]"]
        assert dict(sorted(stats.histogram.items())) == {0: 12, 1: 68}
        assert stats.worst_time == 1
        assert stats.mean_time == pytest.approx(0.85)

    def test_exhaustive_histogram_n4_t2(self):
        """Exhaustive n=4, t=2, k=2 sweep: exact decision-time distribution."""
        context = Context(n=4, t=2, k=2)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=2, receiver_policy="canonical")
        )
        histogram = {}
        for run in SweepRunner(OptMin(2), context.t).sweep(adversaries):
            last = run.last_decision_time()
            histogram[last] = histogram.get(last, 0) + 1
        assert histogram == {0: 22576, 1: 29345}


class TestTheorem3Golden:
    """u-Pmin[k] uniform-bound numbers, including the Fig. 4 headline."""

    def test_figure4_comparison(self):
        """The paper's headline: u-Pmin decides at 2 where the baselines need ⌊t/k⌋+1."""
        scenario = figure4_scenario(k=3, rounds=4)
        t = scenario.context.t
        golden = {
            "u-Pmin[k]": 2,
            "Optmin[k]": 2,
            "u-EarlyDeciding[k] (new-failure rule)": 5,
            "EarlyDeciding[k] (new-failure rule)": 5,
            "FloodMin": 5,
        }
        for protocol in (
            UPMin(3),
            OptMin(3),
            UniformEarlyDecidingKSet(3),
            EarlyDecidingKSet(3),
            FloodMin(3),
        ):
            run = Run(protocol, scenario.adversary, t)
            assert run.last_decision_time() == golden[protocol.name], protocol.name
        assert golden["FloodMin"] == t // 3 + 1

    def test_random_ensemble_histogram(self):
        """Seeded (n=7, t=4, k=2) ensemble: exact u-Pmin[k] histogram."""
        context = Context(n=7, t=4, k=2)
        adversaries = AdversaryGenerator(context, seed=702).sample(80)
        stats = collect([UPMin(2)], adversaries, context.t)["u-Pmin[k]"]
        assert dict(sorted(stats.histogram.items())) == {1: 26, 2: 54}
        assert stats.worst_time == 2
        assert stats.mean_time == pytest.approx(1.675)

    def test_exhaustive_histogram_n4_t2(self):
        """Exhaustive n=4, t=2, k=2 sweep: exact uniform decision-time distribution."""
        context = Context(n=4, t=2, k=2)
        adversaries = list(
            enumerate_adversaries(context, max_crash_round=2, receiver_policy="canonical")
        )
        histogram = {}
        for run in SweepRunner(UPMin(2), context.t).sweep(adversaries):
            last = run.last_decision_time()
            histogram[last] = histogram.get(last, 0) + 1
        assert histogram == {1: 43489, 2: 8432}
        # Theorem 3's deadline ⌊t/k⌋ + 1 = 2 is reached but never exceeded.
        assert max(histogram) == context.t // context.k + 1


class TestProposition2Golden:
    """Star-complex connectivity over the exhaustive n=4, t=2 restricted family.

    Pins the exact (hidden capacity, star connectivity level) census of every
    vertex of the "at most k=2 crashes per round" protocol complex, produced
    identically by both complex-builder engines.  A drift in either the view
    materialisation (vertex identity), the complex construction (stars), or
    the homology code (connectivity levels) trips these exact counts.
    """

    #: time -> (vertices, facets, {(hidden capacity, connectivity level): count})
    GOLDEN = {
        1: (28, 71, {(0, 1): 4, (1, 1): 24}),
        2: (244, 273, {(0, 1): 220, (1, 1): 24}),
    }

    @pytest.mark.parametrize("engine", ["batch", "reference"])
    @pytest.mark.parametrize("time", sorted(GOLDEN))
    def test_star_connectivity_census(self, time, engine):
        context = Context(n=4, t=2, k=2)
        golden_vertices, golden_facets, golden_census = self.GOLDEN[time]
        build = build_restricted_complex if engine == "batch" else oracles.build_restricted_complex
        pc = build(context, time=time)
        assert len(pc.complex.vertices) == golden_vertices
        assert len(pc.complex.facets) == golden_facets
        census = {}
        for vertex, (adversary, process) in pc.vertex_views.items():
            run = pc.run_cache.get(adversary, context.t, horizon=time)
            capacity = run.view(process, time).hidden_capacity()
            level = connectivity_profile(pc.complex.star(vertex), max_q=context.k - 1)
            census[(capacity, level)] = census.get((capacity, level), 0) + 1
            # Proposition 2's implication, vertex by vertex: capacity >= k
            # forces a (k-1)-connected star (vacuous here at capacity <= 1 for
            # k=2 — the census still pins the k=1 instances via level >= 0).
            if capacity >= 1:
                assert level >= 0
        assert census == golden_census
        # One oracle simulation per distinct representative adversary, not
        # one per vertex lookup.
        assert pc.run_cache.misses == len({a for a, _ in pc.vertex_views.values()})
