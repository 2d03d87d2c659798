"""The "at most k crashes per round" family as a lazy sequence, and the walk over it.

:func:`repro.topology.restricted_adversaries` returns a
:class:`repro.adversaries.PerRoundCrashFamily`: a sized sequence over the
crash-option tree, which :func:`repro.engine.fused.run_facets_pass` walks
instead of scheduling one adversary at a time.  Over a grid of small
families (n 2-5, every t, m 0-3, cap 1-2, every receiver policy) this suite
pins

* the sequence: ``len`` is the member count, iteration is the plain
  recursive enumeration of :func:`repro.oracles.restricted_adversaries`,
  ``family[i]`` unranks to the same members, a slice is the list of those
  members, out-of-range indices raise ``IndexError``, and the positions
  :meth:`~repro.adversaries.PerRoundCrashFamily.branches` gives tile the
  members subtree by subtree;
* the walk: its ``(table, facets)`` payload is the trie's payload over the
  listed members, order included, minus exactly the facets whose
  representative member is *dominated* (a round-``m`` crasher's last
  message reached every process up at time ``m``), and holds each
  distinct facet once, at its smallest position;
* the theorem behind that pruning, on the trie path alone: a member's
  facet is non-maximal in the complex exactly when the member is
  dominated;
* the build: the complex, its vertex ids and its ``vertex_views`` are those
  of the per-adversary :func:`repro.oracles.build_restricted_complex`;
* the checks: crash bound, parameters and input vector fail as the
  per-adversary path fails.

Families above a few thousand members are left to the benchmarks: the
oracle build simulates one ``Run`` per member.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import oracles
from repro.adversaries import PerRoundCrashFamily
from repro.engine import PrefixScheduler, struct_view_key
from repro.engine.fused import run_facets_pass
from repro.engine.trie import prepare_adversaries
from repro.model import Context
from repro.topology import SimplicialComplex, build_restricted_complex
from repro.topology.protocol_complex import per_round_crash_patterns, restricted_adversaries

#: Largest family the sequence and walk checks run on (310 of the 336 cases).
WALK_LIMIT = 3000
#: Largest family the oracle build runs on (one ``Run`` per member).
ORACLE_LIMIT = 1000


def _size(n, t, m, cap, policy):
    return len(PerRoundCrashFamily(n, m, cap, [0] * n, policy, max_failures=t))


GRID = [
    (n, t, m, cap, policy)
    for n in range(2, 6)
    for t in range(n)
    for m in range(4)
    for cap in (1, 2)
    for policy in ("none", "canonical", "all")
]
WALK_GRID = [case for case in GRID if _size(*case) <= WALK_LIMIT]
ORACLE_GRID = [case for case in GRID if _size(*case) <= ORACLE_LIMIT]
#: Multi-round families of at least 100 members: several levels of subtrees.
DEEP_GRID = [
    case for case in WALK_GRID if case[2] >= 2 and case[4] != "none" and _size(*case) >= 100
]


def _ids(grid):
    return ["n{}-t{}-m{}-cap{}-{}".format(*case) for case in grid]


def _args(n, t, m, cap, policy):
    """``restricted_adversaries`` arguments: distinct inputs, so seen values vary."""
    return (Context(n=n, t=t, k=cap), m, list(range(n)), cap, policy)


class TestSequence:
    @pytest.mark.parametrize("case", WALK_GRID, ids=_ids(WALK_GRID))
    def test_members_len_index_and_slices(self, case):
        family = restricted_adversaries(*_args(*case))
        members = list(family)
        assert members == oracles.restricted_adversaries(*_args(*case))
        assert len(family) == len(members) == sum(1 for _ in family)
        assert [family[i] for i in range(len(family))] == members
        assert family[-1] == members[-1]
        third = len(members) // 3
        for window in (slice(third, 2 * third + 1), slice(None, third), slice(-third, None)):
            assert family[window] == members[window]
        assert family[1::3] == members[1::3]
        assert family[5:2] == []
        for index in (len(family), -len(family) - 1):
            with pytest.raises(IndexError):
                family[index]

    @pytest.mark.parametrize("case", DEEP_GRID, ids=_ids(DEEP_GRID))
    def test_branches_tile_the_members(self, case):
        """Each option's position is the first member of its subtree, and the
        subtrees of a node's options cover its members in order, down to the
        leaves, whose crashes are the events collected on the way."""
        n, _t, m, _cap, _policy = case
        family = restricted_adversaries(*_args(*case))
        members = list(family)

        def tile(up, round_, first, events):
            if round_ > m:
                assert set(members[first].pattern.crashes) == set(events)
                return first + 1
            position = first
            for start, more, rest in family.branches(up, round_, first):
                assert start == position
                assert all(event.round == round_ for event in more)
                position = tile(rest, round_ + 1, start, events + more)
            return position

        assert tile(tuple(range(n)), 1, 0, ()) == len(members)

    def test_patterns_are_the_per_round_patterns(self):
        for n, m, cap, policy in ((3, 2, 1, "all"), (4, 2, 2, "canonical"), (5, 1, 2, "none")):
            assert list(per_round_crash_patterns(n, m, cap, policy)) == list(
                oracles.per_round_crash_patterns(n, m, cap, policy)
            )


def _assert_distinct_in_order(payload):
    """The payload contract: each distinct facet once, positions strictly increasing."""
    _table, facets = payload
    positions = [position for position, _vids in facets]
    assert positions == sorted(set(positions))
    assert len({vids for _position, vids in facets}) == len(facets)


def _dominated(adversary, m):
    """Whether a member has a round-``m`` crasher whose round-``m`` message
    reached every process still up at time ``m``, read off its pattern."""
    pattern = adversary.pattern
    alive = pattern.active_processes(m)
    return any(event.round == m and event.receivers >= alive for event in pattern.crashes)


class TestWalk:
    @pytest.mark.parametrize("case", WALK_GRID, ids=_ids(WALK_GRID))
    def test_payload_is_the_trie_payload(self, case):
        """The walk's payload is the trie's over the listed members, minus the
        facets whose representative is dominated.  The walk keeps the trie's
        vertex table: every vertex first appears at an undominated member."""
        n, t, m, _cap, _policy = case
        family = restricted_adversaries(*_args(*case))
        members = list(family)
        payload = run_facets_pass(family, t, m)
        _assert_distinct_in_order(payload)
        table, facets = run_facets_pass(members, t, m)
        kept = [(pos, vids) for pos, vids in facets if not _dominated(members[pos], m)]
        assert payload == (table, kept)

    @pytest.mark.parametrize("case", WALK_GRID, ids=_ids(WALK_GRID))
    def test_dominated_members_are_the_non_maximal_facets(self, case):
        """The theorem the walk's pruning rests on, checked without the walk:
        every member's facet comes from a full trie advance to time ``m``,
        and it is a strict face of another facet exactly when the member is
        dominated."""
        n, t, m, _cap, _policy = case
        members = list(restricted_adversaries(*_args(*case)))
        n, prepared = prepare_adversaries(members, t)
        scheduler = PrefixScheduler(n, prepared)
        for _ in range(m):
            scheduler.advance()
        facet_of = [None] * len(members)
        for group in scheduler.groups.values():
            layer = group.layer
            facet = frozenset(
                (i, struct_view_key(layer, i, group.values))
                for i in range(n)
                if layer.rows_seen[i] is not None
            )
            for item in group.members:
                facet_of[item.pos] = facet
        maximal = set(SimplicialComplex(facet_of).facets)
        assert [facet not in maximal for facet in facet_of] == [
            _dominated(member, m) for member in members
        ]

    def test_n6_walk_is_per_distinct_facet_and_vertex(self, monkeypatch):
        """The n=6 two-round census family: 260,275 members, but the payload
        holds only its 32,298 maximal facets, once each (the members realise
        56,559 distinct facets; the walk skips the dominated ones), and the
        walk builds one view key per vertex (5,316), not one per (node,
        observer, sender set)."""
        import repro.engine.fused as fused

        built = []
        view_key = fused._view_key
        monkeypatch.setattr(fused, "_view_key", lambda *parts: built.append(1) or view_key(*parts))
        family = restricted_adversaries(Context(n=6, t=5, k=2), 2)
        payload = run_facets_pass(family, 5, 2)
        _assert_distinct_in_order(payload)
        table, facets = payload
        assert (len(family), len(table), len(facets)) == (260275, 5316, 32298)
        assert len(built) == len(table)

    def test_long_horizon_needs_no_frame_per_round(self):
        """The walk, the pattern stream and the view keys' round-sender chains
        are loops: a 150-round build runs under a recursion limit of 150."""
        code = """
import sys
from repro.model import Context
from repro.topology import build_restricted_complex
from repro.topology.protocol_complex import restricted_adversaries
sys.setrecursionlimit(150)
family = restricted_adversaries(Context(n=2, t=1, k=1), 150)
pc = build_restricted_complex(Context(n=2, t=1, k=1), 150)
print(len(family), len(list(family.patterns())), len(pc.complex.vertices), len(pc.complex.facets))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == ["601", "601", "302", "301"]

    @pytest.mark.parametrize("case", ORACLE_GRID, ids=_ids(ORACLE_GRID))
    def test_complex_is_the_oracle_complex(self, case):
        production = build_restricted_complex(*_args(*case))
        reference = oracles.build_restricted_complex(*_args(*case))
        assert production.complex == reference.complex
        assert production.complex.facet_masks == reference.complex.facet_masks
        pool, reference_pool = production.complex.pool, reference.complex.pool
        assert [pool.vertex_at(i) for i in range(len(pool))] == [
            reference_pool.vertex_at(i) for i in range(len(reference_pool))
        ]
        assert list(production.vertex_views.items()) == list(reference.vertex_views.items())


class TestChecks:
    CONTEXT = Context(n=3, t=1, k=1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(time=-1), "round count must be >= 0"),
            (dict(time=1, max_crashes_per_round=-1), "per-round crash cap must be >= 0"),
            (dict(time=1, receiver_policy="some"), "unknown receiver policy"),
            (dict(time=1, values=[0, 0]), "input vector has 2 entries"),
            (dict(time=1, values=[0, -1, 0]), "initial values must be non-negative"),
        ],
    )
    def test_bad_parameters_raise(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            restricted_adversaries(self.CONTEXT, **kwargs)
        with pytest.raises(ValueError, match=message):
            build_restricted_complex(self.CONTEXT, **kwargs)

    def test_crash_bound_is_checked_like_the_members(self):
        family = restricted_adversaries(Context(n=4, t=3, k=2), 2)
        for t in (1, 2):
            for members in (family, list(family)):
                with pytest.raises(ValueError, match="exceeding the bound t="):
                    run_facets_pass(members, t, 2)
        with pytest.raises(ValueError, match="0 <= t <= n-1"):
            run_facets_pass(family, 4, 2)

    def test_other_time_falls_back_to_the_trie(self):
        """A family simulated past (or short of) its rounds is scheduled member by member."""
        family = restricted_adversaries(Context(n=4, t=3, k=2), 1)
        for time in (0, 2):
            assert run_facets_pass(family, 3, time) == run_facets_pass(list(family), 3, time)
