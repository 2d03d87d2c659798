"""Differential harness for the view-materialisation layer.

The decision batteries pin the batch engine's *decisions* to the reference
oracle; this suite pins its *views*: protocol and star complexes built on
the trie must be vertex-for-vertex and facet-for-facet identical to the
per-adversary builds of :mod:`repro.oracles` over the exhaustive n=4, t=2
restricted family (and, for the census, the n=5 m=2 family), the canonical
``view_key`` must agree across engines on every node of every run, and the
Lemma 2 surgery verifier must reach the same verdicts on the layer chain as
on the oracle ``Run``.  Also covers the ``RunCache`` memoisation contract (one simulation
per distinct adversary, however many vertex lookups hit it).
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.adversaries import AdversaryGenerator, figure2_scenario, lemma2_surgery, verify_surgery
from repro.engine import LayerViews, RunCache
from repro.oracles import ViewSource
from repro.knowledge import System, exists_value
from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.model.view import view_key
from repro.topology import (
    build_protocol_complex,
    build_restricted_complex,
    capacity_connectivity_census,
)
from repro.topology.protocol_complex import per_round_crash_patterns, restricted_adversaries


CONTEXT = Context(n=4, t=2, k=2)


def restricted_family(time, values=None):
    values = [CONTEXT.k] * CONTEXT.n if values is None else values
    return [
        Adversary(values, pattern)
        for pattern in per_round_crash_patterns(CONTEXT.n, time, CONTEXT.k)
        if pattern.num_failures <= CONTEXT.t
    ]


class TestComplexesIdenticalAcrossEngines:
    """The acceptance criterion: same vertex set, same facets, both builders."""

    @pytest.mark.parametrize("time", [0, 1, 2])
    def test_restricted_complex_identical(self, time):
        reference = oracles.build_restricted_complex(CONTEXT, time=time)
        batch = build_restricted_complex(CONTEXT, time=time)
        assert batch.complex.vertices == reference.complex.vertices
        assert set(batch.complex.facets) == set(reference.complex.facets)
        assert batch.time == reference.time == time
        # The representative bookkeeping must cover exactly the vertex set.
        assert set(batch.vertex_views) == set(reference.vertex_views)

    def test_mixed_input_vectors_identical(self):
        """The complex must also agree when the family crosses input classes."""
        adversaries = restricted_family(1, values=[0, 1, 2, 2]) + restricted_family(1)
        reference = oracles.build_protocol_complex(adversaries, time=1, t=CONTEXT.t)
        batch = build_protocol_complex(adversaries, time=1, t=CONTEXT.t)
        assert batch.complex.vertices == reference.complex.vertices
        assert set(batch.complex.facets) == set(reference.complex.facets)

    @pytest.mark.parametrize("time", [1, 2])
    def test_star_complexes_identical(self, time):
        reference = oracles.build_restricted_complex(CONTEXT, time=time)
        batch = build_restricted_complex(CONTEXT, time=time)
        for adversary, process in reference.vertex_views.values():
            star_ref = reference.star_of(adversary, process, CONTEXT.t)
            star_bat = batch.star_of(adversary, process, CONTEXT.t)
            assert star_ref == star_bat

    def test_empty_family(self):
        batch = build_protocol_complex([], time=1, t=CONTEXT.t)
        reference = oracles.build_protocol_complex([], time=1, t=CONTEXT.t)
        assert batch.complex.is_empty() and reference.complex.is_empty()


class TestCensusAgainstOracleBuild:
    """The n=5 t=2 k=2 m=2 census (1,501 adversaries) on both builds."""

    CONTEXT = Context(n=5, t=2, k=2)

    @pytest.fixture(scope="class")
    def builds(self):
        assert sum(1 for _ in restricted_adversaries(self.CONTEXT, 2)) == 1501
        reference = oracles.build_restricted_complex(self.CONTEXT, time=2)
        return reference, build_restricted_complex(self.CONTEXT, time=2)

    @pytest.mark.parametrize("symmetry", ["none", "quotient"])
    def test_census_matches_oracle_build(self, builds, symmetry):
        reference, pc = builds
        expected = capacity_connectivity_census(reference, 2, symmetry=symmetry)
        assert pc.complex.vertex_count == reference.complex.vertex_count == 565
        assert len(pc.complex.facet_masks) == len(reference.complex.facet_masks) == 751
        assert pc.complex == reference.complex
        census = capacity_connectivity_census(pc, 2, symmetry=symmetry)
        assert census.row == expected.row
        assert census.classes == expected.classes


class TestViewSourceAgainstOracle:
    def test_canonical_keys_match_reference_views(self):
        """view_key over the trie == view_key over the oracle, node for node."""
        adversaries = restricted_family(2, values=[0, 1, 2, 2])
        for time in (0, 1, 2):
            source = ViewSource(adversaries, CONTEXT.t, time)
            for pos, adversary in enumerate(adversaries):
                run = Run(None, adversary, CONTEXT.t, horizon=time)
                group = source.group_of(pos)
                active = set(group.active_processes())
                assert active == set(run.views_at(time))
                for process in active:
                    assert source.key(pos, process) == view_key(run.view(process, time))

    def test_groups_share_key_computation(self):
        """All members of a (prefix, input) class share one GroupViews object."""
        pattern = FailurePattern(4, [CrashEvent(0, 1, frozenset({1}))])
        adversaries = [Adversary([1, 1, 2, 2], pattern)] * 3
        source = ViewSource(adversaries, CONTEXT.t, 1)
        assert len(source.groups()) == 1
        group = source.groups()[0]
        assert group.positions == (0, 1, 2)
        assert source.group_of(0) is source.group_of(2)

    def test_structural_summaries(self):
        scenario = figure2_scenario(k=2, depth=2)
        source = ViewSource([scenario.adversary], scenario.context.t, 2)
        group = source.group_of(0)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=2)
        observer = scenario.observer
        view = run.view(observer, 2)
        assert group.hidden_capacity(observer) == view.hidden_capacity()
        assert group.hidden_sets(observer) == tuple(
            view.hidden_processes_at(layer) for layer in range(3)
        )
        from repro.knowledge import witness_matrix

        assert group.witness_matrix(observer) == witness_matrix(view)

    def test_invalid_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            ViewSource([], CONTEXT.t, -1)

    def test_inactive_process_lookup_raises_keyerror(self):
        """Same lookup contract as Run.view / LayerViews.view."""
        pattern = FailurePattern(4, [CrashEvent(0, 1, frozenset())])
        source = ViewSource([Adversary([2, 2, 2, 2], pattern)], CONTEXT.t, 2)
        group = source.group_of(0)
        assert 0 not in group.active_processes()
        with pytest.raises(KeyError):
            group.view(0)
        with pytest.raises(KeyError):
            source.key(0, 0)
        with pytest.raises(KeyError):
            group.hidden_capacity(0)


class TestLayerViews:
    def test_view_lookup_matches_run(self):
        generator = AdversaryGenerator(CONTEXT, seed=11)
        for adversary in generator.sample(20):
            run = Run(None, adversary, CONTEXT.t, horizon=3)
            layered = LayerViews(adversary, CONTEXT.t, 3)
            for time in range(4):
                assert set(layered.views_at(time)) == set(run.views_at(time))
                for process in range(adversary.n):
                    assert layered.has_view(process, time) == run.has_view(process, time)
                    if run.has_view(process, time):
                        assert view_key(layered.view(process, time)) == view_key(
                            run.view(process, time)
                        )

    def test_missing_view_raises_keyerror(self):
        pattern = FailurePattern(4, [CrashEvent(0, 1, frozenset())])
        layered = LayerViews(Adversary([2, 2, 2, 2], pattern), CONTEXT.t, 2)
        with pytest.raises(KeyError):
            layered.view(0, 1)
        with pytest.raises(KeyError):
            layered.view(1, 3)  # beyond the horizon

    def test_views_at_out_of_range_is_empty(self):
        """Run.views_at returns {} outside the simulated range; so must this."""
        adversary = Adversary([2, 2, 2, 2], FailurePattern.failure_free(4))
        layered = LayerViews(adversary, CONTEXT.t, 2)
        assert layered.views_at(3) == {}
        assert layered.views_at(-1) == {}

    def test_horizon_floor_matches_run(self):
        """Run clamps explicit horizons to >= 1 (default_horizon); so must this."""
        adversary = Adversary([2, 2, 2, 2], FailurePattern.failure_free(4))
        run = Run(None, adversary, CONTEXT.t, horizon=0)
        layered = LayerViews(adversary, CONTEXT.t, 0)
        assert layered.horizon == run.horizon == 1
        assert view_key(layered.view(0, 1)) == view_key(run.view(0, 1))

    def test_crash_bound_enforced(self):
        pattern = FailurePattern(4, [CrashEvent(0, 1), CrashEvent(1, 1), CrashEvent(2, 1)])
        with pytest.raises(ValueError):
            LayerViews(Adversary([2, 2, 2, 2], pattern), CONTEXT.t, 2)


class TestRunCache:
    def test_vertex_lookups_simulate_each_adversary_once(self):
        pc = build_restricted_complex(CONTEXT, time=1)
        adversary, process = next(iter(pc.vertex_views.values()))
        for _ in range(5):
            pc.star_of(adversary, process, CONTEXT.t)
            pc.vertex_of(adversary, process, CONTEXT.t)
        assert pc.run_cache.misses == 1
        assert pc.run_cache.hits == 9

    def test_distinct_horizons_are_distinct_entries(self):
        cache = RunCache()
        adversary = Adversary([1, 1, 1, 1], FailurePattern.failure_free(4))
        first = cache.get(adversary, CONTEXT.t, horizon=1)
        second = cache.get(adversary, CONTEXT.t, horizon=2)
        again = cache.get(adversary, CONTEXT.t, horizon=1)
        assert first is again
        assert first is not second
        assert len(cache) == 2


class TestSurgeryAcrossEngines:
    @pytest.mark.parametrize("k,depth", [(2, 1), (2, 2), (3, 2)])
    def test_verdicts_identical_on_figure2(self, k, depth):
        scenario = figure2_scenario(k=k, depth=depth)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=depth)
        result = lemma2_surgery(run, scenario.observer, depth, list(range(k)))
        batch = verify_surgery(run, result)
        reference = oracles.verify_surgery(run, result)
        assert batch == reference
        assert batch.ok

    def test_verdicts_identical_on_random_nodes(self):
        context = Context(n=6, t=4, k=2)
        generator = AdversaryGenerator(context, seed=23, max_crash_round=2)
        compared = 0
        for adversary in generator.sample(60, num_failures=context.t):
            run = Run(None, adversary, context.t, horizon=2)
            for time in (1, 2):
                if not run.has_view(0, time) or run.view(0, time).hidden_capacity() < 2:
                    continue
                result = lemma2_surgery(run, 0, time, [0, 1])
                assert verify_surgery(run, result) == oracles.verify_surgery(run, result)
                compared += 1
        assert compared >= 5

    def test_layered_base_run_works_end_to_end(self):
        """The whole surgery pipeline on the batch substrate (no oracle Run)."""
        scenario = figure2_scenario(k=3, depth=2)
        base = LayerViews(scenario.adversary, scenario.context.t, 2)
        result = lemma2_surgery(base, scenario.observer, 2, [0, 1, 2])
        assert verify_surgery(base, result).ok

    def test_explicit_protocol_reruns_under_the_protocol(self):
        """Passing a protocol re-runs the surgered adversary under it (a ``Run``)."""
        from repro.core import OptMin

        scenario = figure2_scenario(k=2, depth=2)
        run = Run(None, scenario.adversary, scenario.context.t, horizon=2)
        result = lemma2_surgery(run, scenario.observer, 2, [0, 1])
        assert verify_surgery(run, result, OptMin(2)) == oracles.verify_surgery(run, result)


class TestKnowledgeOnViewAPI:
    def test_system_answers_array_view_queries(self):
        """A batch ArrayView of the same local state hits the same index entry."""
        context = Context(n=4, t=2, k=2)
        adversaries = AdversaryGenerator(context, seed=31).sample(15)
        from repro.core import OptMin

        runs = [Run(OptMin(2), adversary, context.t) for adversary in adversaries]
        system = System(runs)
        probed = 0
        for run in runs:
            layered = LayerViews(run.adversary, context.t, run.horizon)
            for time in range(run.horizon + 1):
                for process, view in run.views_at(time).items():
                    expected = system.indistinguishable_runs(run, process, time)
                    via_batch_view = system.runs_with_local_state(layered.view(process, time))
                    assert via_batch_view == expected
                    probed += 1
        assert probed > 0
        # Knowledge semantics are unchanged by the keying: every decider knows
        # the existence of some value it decided on.
        for run in runs:
            for decision in run.decisions():
                assert system.knows(
                    exists_value(decision.value), run, decision.process, decision.time
                )

    def test_unknown_local_state_rejected(self):
        context = Context(n=3, t=1, k=1)
        run = Run(None, Adversary([0, 1, 1], FailurePattern.failure_free(3)), context.t)
        system = System([run])
        foreign = Run(None, Adversary([1, 0, 0], FailurePattern.failure_free(3)), context.t)
        with pytest.raises(ValueError, match="does not belong"):
            system.runs_with_local_state(foreign.view(0, 1))
