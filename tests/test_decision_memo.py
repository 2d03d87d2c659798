"""The batch engine decides once per local state of a pass.

:func:`repro.engine.fused.run_fused_pass` memoises the decision rule per
``(layer, process, seen inputs)``: a trie group fixes the whole input
vector, but a process's local state only holds the inputs it has seen, so
groups that differ elsewhere share one ``decide`` call.  These tests pin
the call counts, check the memoised decisions run by run against the
reference :class:`repro.model.run.Run`, and check that
the memo dies with its pass.

Pinned counts, on the constructive n=5 t=3 k=2 space with round-1 crashes
(6,786 orbits, one batch).  Deciding once per trie group and undecided
process, as the engine did before the memo, made Optmin[2] call ``decide``
6,594 times (1,215 at time 0) and u-Pmin[2] 17,808 times (1,215 at time 0).
Once per local state, they call it 1,360 and 4,646 times (15 at time 0:
n × |domain|).
"""

from __future__ import annotations

import copy
import gc
from collections import Counter

import pytest

from repro.adversaries import RestrictedSpace
from repro.core import OptMin, UPMin
from repro.engine import StructLayer, SweepRunner
from repro.engine.trie import PrefixScheduler
from repro.model import Context, Run
from repro.verification import check_protocol

from test_engine_differential import protocols_for
from test_opt0 import LateOpt0

PIN_SPACE = RestrictedSpace(Context(n=5, t=3, k=2), max_crash_round=1)

#: Whole exhaustive spaces per agreement parameter, small enough for the
#: reference engine to replay every member of each protocol.
DIFFERENTIAL_SPACES = {
    1: RestrictedSpace(Context(n=4, t=2, k=1), max_crash_round=2, receiver_policy="none"),
    2: RestrictedSpace(Context(n=4, t=2, k=2), max_crash_round=1, max_failures=1),
}


def counting(protocol):
    """A copy of ``protocol`` that counts its ``decide`` calls per time."""
    calls: Counter = Counter()

    class Counting(type(protocol)):
        def decide(self, ctx):
            calls[ctx.time] += 1
            return super().decide(ctx)

    counted = copy.copy(protocol)
    counted.__class__ = Counting
    return counted, calls


@pytest.mark.parametrize(
    "protocol, expected",
    [(OptMin(2), {0: 15, 1: 1257, 2: 88}), (UPMin(2), {0: 15, 1: 3771, 2: 860})],
    ids=["optmin", "upmin"],
)
def test_decide_call_counts(protocol, expected):
    counted, calls = counting(protocol)
    passes = PrefixScheduler.passes_started
    report = check_protocol(counted, PIN_SPACE, PIN_SPACE.context.t, symmetry="constructive")
    passes = PrefixScheduler.passes_started - passes
    assert report.ok
    assert dict(calls) == expected
    # At time 0 a process has seen only its own input.
    context = PIN_SPACE.context
    assert calls[0] <= passes * context.n * len(context.values_domain)


@pytest.mark.parametrize("k", [1, 2])
def test_memoised_decisions_match_reference(k):
    space = DIFFERENTIAL_SPACES[k]
    context = space.context
    adversaries = list(space)
    protocols = protocols_for(k) + ([LateOpt0()] if k == 1 else [])
    for protocol in protocols:
        counted, calls = counting(protocol)
        runs = SweepRunner(counted, context.t).sweep(adversaries)
        # The memo hit: the root holds one group per input vector, but only
        # n × |domain| local states.
        assert calls[0] <= context.n * len(context.values_domain) < len(set(a.values for a in adversaries))
        for adversary, batch in zip(adversaries, runs):
            reference = Run(protocol, adversary, context.t)
            assert batch.decisions() == reference.decisions(), f"{protocol.name} diverges on {adversary!r}"
            assert batch.last_decision_time() == reference.last_decision_time()


def _live_layers() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is StructLayer)


def test_no_layer_outlives_its_pass():
    """The memo keys on layers, so it must die with the pass that made them.

    Layers carry no ``__weakref__`` slot (the trie builds thousands), so
    the live layers are counted off the collector's object list instead of
    through a weakref to the pass's root.  The collector is off while the
    sweep runs: reference counting alone must free every layer.
    """
    space = PIN_SPACE
    adversaries = [orbit.representative for orbit in space.orbits()][:2000]
    gc.collect()
    before = _live_layers()
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = SweepRunner(OptMin(2), space.context.t).sweep(adversaries)
        assert len(runs) == len(adversaries)
        assert _live_layers() == before
    finally:
        if enabled:
            gc.enable()
