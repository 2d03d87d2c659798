"""Differential harness for the fused single-pass scheduler.

The fused pass (:mod:`repro.engine.fused`) must be observationally identical
to the composition it replaced — a decision sweep plus a second,
layer-retaining view pass — on every product: raw decisions, the Definition 4
local-state index of ``System.from_family``, and the complex builders' facet
payloads.  This suite pins

* the single-traversal contract (the ``PrefixScheduler.passes_started``
  counter: one pass for the fused construction, two for the retained
  baseline);
* fused == two-pass == reference systems, index entry for index entry;
* batch boundaries: a family swept in batches that split trie groups
  mid-class gives the whole pass's runs, and the batches' view indices
  merge to its index;
* the canonical-key fast path (:func:`repro.engine.struct_view_key`) against
  the oracle ``view_key``, including the all-seen shortcut;
* the facet payload of the per-observer last round against a level-by-level
  oracle, byte for byte and in order.
"""

from __future__ import annotations

import pytest

from repro import oracles
from repro.adversaries import AdversaryGenerator
from repro.adversaries.enumeration import enumerate_adversaries
from repro.core import Opt0, OptMin, UPMin
from repro.engine import PrefixScheduler, SweepRunner, struct_view_key
from repro.engine.fused import run_facets_pass, run_fused_pass
from repro.engine.trie import prepare_adversaries
from repro.engine.views import LayerViews
from repro.knowledge import System
from repro.model import Adversary, Context, Run
from repro.model.run import default_horizon
from repro.model.view import view_key
from repro.topology import build_protocol_complex
from repro.topology.protocol_complex import per_round_crash_patterns


CONTEXT = Context(n=4, t=2, k=2)


@pytest.fixture(scope="module")
def family():
    return list(
        enumerate_adversaries(CONTEXT, max_crash_round=2, receiver_policy="canonical", limit=400)
    )


class TestSinglePassContract:
    def test_fused_system_is_one_traversal(self, family):
        before = PrefixScheduler.passes_started
        System.from_family(OptMin(2), family, CONTEXT.t)
        assert PrefixScheduler.passes_started - before == 1

    def test_two_pass_baseline_is_two_traversals(self, family):
        before = PrefixScheduler.passes_started
        oracles.system_from_family_two_pass(OptMin(2), family, CONTEXT.t)
        assert PrefixScheduler.passes_started - before == 2

    def test_batch_complex_build_is_one_traversal(self, family):
        before = PrefixScheduler.passes_started
        build_protocol_complex(family, time=2, t=CONTEXT.t)
        assert PrefixScheduler.passes_started - before == 1


class TestFusedSystemIdentity:
    @pytest.mark.parametrize("protocol_factory", [lambda: OptMin(2), lambda: UPMin(2), Opt0])
    def test_fused_equals_two_pass_and_reference(self, family, protocol_factory):
        fused = System.from_family(protocol_factory(), family, CONTEXT.t)
        two_pass = oracles.system_from_family_two_pass(protocol_factory(), family, CONTEXT.t)
        reference = oracles.system_from_family(protocol_factory(), family, CONTEXT.t)
        assert fused._index == two_pass._index == reference._index
        for f, t, r in zip(fused.runs, two_pass.runs, reference.runs):
            assert f.decisions() == t.decisions() == r.decisions()

    def test_restricted_family_identity(self):
        """The Prop2-style family: crashes in every round up to the horizon."""
        adversaries = [
            Adversary([CONTEXT.k] * CONTEXT.n, pattern)
            for pattern in per_round_crash_patterns(CONTEXT.n, 2, CONTEXT.k)
            if pattern.num_failures <= CONTEXT.t
        ]
        fused = System.from_family(OptMin(2), adversaries, CONTEXT.t)
        two_pass = oracles.system_from_family_two_pass(OptMin(2), adversaries, CONTEXT.t)
        assert fused._index == two_pass._index


class TestBatchBoundaries:
    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_batches_merge_to_the_whole_pass(self, family, batch_size):
        """Odd batch sizes split trie classes mid-group; the products must not change."""
        runner = SweepRunner(OptMin(2), CONTEXT.t)
        whole_runs, whole_index = runner.sweep_fused(family)
        runs, index = [], {}
        for start in range(0, len(family), batch_size):
            batch_runs, batch_index = runner.sweep_fused(family[start : start + batch_size])
            runs += batch_runs
            for key, positions in batch_index.items():
                index.setdefault(key, []).extend(start + position for position in positions)
        assert index == whole_index
        assert [run.decisions() for run in runs] == [run.decisions() for run in whole_runs]
        assert [run.stop_time for run in runs] == [run.stop_time for run in whole_runs]


class TestStructViewKey:
    def test_matches_oracle_view_key(self):
        """struct_view_key over the layer chain == view_key over oracle views,
        node for node — including failure-free branches (the all-seen fast
        path shares the input tuple instead of copying it)."""
        generator = AdversaryGenerator(CONTEXT, seed=7)
        adversaries = generator.sample(12) + generator.sample(3, num_failures=0)
        compared = 0
        for adversary in adversaries:
            run = Run(None, adversary, CONTEXT.t, horizon=3)
            layered = LayerViews(adversary, CONTEXT.t, 3)
            for time in range(4):
                layer = layered._layers[time]
                for process in range(adversary.n):
                    if not run.has_view(process, time):
                        with pytest.raises(KeyError):
                            struct_view_key(layer, process, adversary.values)
                        continue
                    assert struct_view_key(layer, process, adversary.values) == view_key(
                        run.view(process, time)
                    )
                    compared += 1
        assert compared > 100

    def test_decision_only_pass_has_no_index(self, family):
        horizon = default_horizon(OptMin(2), CONTEXT.n, CONTEXT.t, None)
        outcome = run_fused_pass(
            OptMin(2), family[:20], CONTEXT.t, horizon, collect_views=False
        )
        assert outcome.view_index is None
        assert len(outcome.raw) == 20


def _oracle_facets_pass(adversaries, t, time, n=None):
    """The facet payload as a full trie advance computes it: every level up
    to ``time`` simulated as layers, then one ``struct_view_key`` per active
    process per class, and each distinct facet kept at its first (smallest)
    position.  :func:`run_facets_pass` resolves the last round per observer
    instead and must agree with this exactly, order included."""
    n, prepared = prepare_adversaries(adversaries, t, n)
    table, facets, index = [], [], {}
    if not prepared:
        return table, facets
    scheduler = PrefixScheduler(n, prepared)
    for _ in range(time):
        scheduler.advance()
    for group in scheduler.groups.values():
        vids = []
        for i in range(n):
            if group.layer.rows_seen[i] is None:
                continue
            vertex = (i, struct_view_key(group.layer, i, group.values))
            if vertex not in index:
                index[vertex] = len(table)
                table.append(vertex)
            vids.append(index[vertex])
        if vids:
            facets.append((group.members[0].pos, tuple(vids)))
    facets.sort(key=lambda facet: facet[0])
    first = {}
    for pos, vids in facets:
        first.setdefault(vids, pos)
    return table, [(pos, vids) for vids, pos in first.items()]


def _restricted_grid():
    """(n, time, per-round cap, receiver policy) cases small enough for tier-1."""
    cases = []
    for n in (3, 4, 5):
        for time in (0, 1, 2, 3):
            for cap in (1, 2):
                for policy in ("canonical", "all"):
                    if (
                        n == 3
                        or time <= 1
                        or (n == 4 and time == 2 and (policy == "canonical" or cap == 1))
                        or (policy == "canonical" and cap == 1 and time <= 7 - n)
                    ):
                        cases.append((n, time, cap, policy))
    return cases


def _two_input_family(n, time, cap, policy):
    """Every restricted pattern under two input vectors that differ wherever
    they can: groups of one layer then differ only in the values they see."""
    vectors = ([0] * n, list(range(n)))
    return [
        Adversary(values, pattern)
        for pattern in per_round_crash_patterns(n, time, cap, policy)
        for values in vectors
    ]


class TestFacetPayloadDifferential:
    """The per-observer last round of :func:`run_facets_pass` against the
    level-by-level oracle: identical ``(table, facets)``, order included."""

    @pytest.mark.parametrize("n,time,cap,policy", _restricted_grid())
    def test_restricted_families(self, n, time, cap, policy):
        family = _two_input_family(n, time, cap, policy)
        assert run_facets_pass(family, n - 1, time) == _oracle_facets_pass(family, n - 1, time)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("time", [1, 2, 3])
    def test_random_families(self, seed, time):
        """Random inputs and crash rounds past ``time`` (which the last round
        must ignore), plus a repeated adversary whose class has two members."""
        context = Context(n=5, t=3, k=2)
        family = AdversaryGenerator(context, seed=seed, max_crash_round=3).sample(250)
        family.append(family[17])
        assert run_facets_pass(family, context.t, time) == _oracle_facets_pass(
            family, context.t, time
        )

    def test_observer_rows_match_child_layers(self):
        """``observer_rows(i, S)`` with the sender set the child layer reports
        for ``i`` reproduces that layer's rows, for every active observer."""
        n = 4
        family = [Adversary([0] * n, pattern) for pattern in per_round_crash_patterns(n, 3, 1)]
        _n, prepared = prepare_adversaries(family, n - 1)
        scheduler = PrefixScheduler(n, prepared)
        compared = 0
        for _ in range(3):
            scheduler.advance()
            for group in scheduler.groups.values():
                child = group.layer
                for i in range(n):
                    if child.rows_seen[i] is None:
                        continue
                    assert child.parent.observer_rows(i, child.senders_of(i)) == (
                        child.rows_seen[i],
                        child.rows_evidence[i],
                    )
                    compared += 1
        assert compared > 1000


class TestBatchRunOrderedDecisions:
    def test_decisions_precomputed_and_sorted(self, family):
        runs = SweepRunner(OptMin(2), CONTEXT.t).sweep(family[:30])
        for run in runs:
            first = run.decisions()
            # Precomputed at construction: repeated calls return the same tuple.
            assert run.decisions() is first
            assert [d.process for d in first] == sorted(d.process for d in first)
            # The per-process lookup surface stays consistent with the tuple.
            for decision in first:
                assert run.decision(decision.process) == decision
