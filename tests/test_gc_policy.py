"""The survey loop's collector policy, and surveys that make no cyclic garbage.

:func:`repro.pipeline.fold_stream` pauses the cyclic garbage collector
inside its loop, runs one young-generation collection per batch boundary
and restores the collector's prior state however the loop ends.  Cyclic
garbage a survey makes would wait for a collection in that scheme, so the
repo's surveys must make none: each is run in a fresh interpreter with
the collector off, and a final ``gc.collect()`` must find nothing.
:func:`repro.topology.build_protocol_complex` runs under the same pause
(:func:`repro.pipeline.collector_paused`), with no collection of its own.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

import repro.topology.protocol_complex as protocol_complex
from repro.model import Context
from repro.pipeline import fold_stream
from repro.topology import build_protocol_complex
from repro.topology.protocol_complex import restricted_adversaries


# ------------------------------------------------------- no cyclic garbage
#: ``(imports, survey)`` per case; importing makes cycles of its own, so the
#: collector is switched off between the two.
SURVEYS = {
    "constructive-sweep": (
        """
from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.verification import check_protocol
""",
        """
space = RestrictedSpace(Context(n=5, t=2, k=2), max_crash_round=2, receiver_policy="canonical")
assert check_protocol(OptMin(2), space, 2).ok
""",
    ),
    "resilient-check-with-store": (
        """
import os, tempfile
from repro.adversaries.enumeration import RestrictedSpace
from repro.core import OptMin
from repro.model import Context
from repro.runtime import resilient_check
from repro.store import ResultStore
""",
        """
space = RestrictedSpace(Context(n=5, t=2, k=2), max_crash_round=2, receiver_policy="canonical")
with tempfile.TemporaryDirectory() as directory:
    store = ResultStore(os.path.join(directory, "store.sqlite"))
    assert resilient_check(OptMin(2), space, 2, batch_size=256, result_store=store).value.ok
    assert store.misses == space.orbit_count()
    store.close()
""",
    ),
    "multi-protocol-surveys": (
        """
from repro.adversaries.enumeration import RestrictedSpace, estimate_adversary_count
from repro.analysis import collect
from repro.baselines import FloodMin
from repro.core import OptMin, UPMin
from repro.model import Context
from repro.verification import check_protocol, compare_protocols, last_decider_compare
""",
        """
space = RestrictedSpace(Context(n=5, t=2, k=2), max_crash_round=2, receiver_policy="canonical")
assert all(check_protocol(protocol, space, 2).ok for protocol in (OptMin(2), UPMin(2)))
assert compare_protocols(OptMin(2), FloodMin(2), space, 2).dominates
assert last_decider_compare(OptMin(2), FloodMin(2), space, 2).dominates
assert collect([OptMin(2), FloodMin(2)], space, 2)[OptMin(2).name].runs == estimate_adversary_count(
    space.context, max_crash_round=2, receiver_policy="canonical"
)
""",
    ),
    "complex-build-and-census": (
        """
from repro.model import Context
from repro.topology import build_restricted_complex, capacity_connectivity_census
""",
        """
pc = build_restricted_complex(Context(n=5, t=4, k=2), 2, max_crashes_per_round=2)
census = capacity_connectivity_census(pc, 2)
assert census.row == (1360, 0, 0, 1360, 0) and census.classes == 28
""",
    ),
}


@pytest.mark.parametrize("name", sorted(SURVEYS))
def test_survey_makes_no_cyclic_garbage(name, fresh_interpreter):
    imports, survey = SURVEYS[name]
    result = fresh_interpreter(
        f"import gc\n{imports}\ngc.collect()\ngc.disable()\n{survey}\nprint(gc.collect())\n"
    )
    assert result.returncode == 0, result.stderr
    garbage = result.stdout.split()[-1]
    assert garbage == "0", f"{name} left {garbage} objects in reference cycles"


# --------------------------------------------------- the collector policy
@pytest.fixture
def collections():
    """Young-generation collections started while the test runs; restores the collector."""
    started = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            started.append(info)

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)
        (gc.enable if enabled else gc.disable)()


def evaluate_paused(items):
    assert not gc.isenabled()
    return [item * 2 for item in items]


def test_collector_restored_after_a_normal_end(collections):
    folded = []
    fold_stream(range(10), evaluate_paused, lambda item, verdict: folded.append(verdict), batch_size=4)
    assert folded == [2 * item for item in range(10)]
    assert gc.isenabled()
    assert len(collections) == 3  # one per batch boundary


def test_collector_restored_after_a_boundary_stop(collections):
    cursors = []

    def stop(cursor):
        cursors.append(cursor)
        return True

    fold_stream(range(10), evaluate_paused, lambda item, verdict: None, batch_size=4, on_boundary=stop)
    assert cursors == [4]
    assert gc.isenabled()


def test_collector_restored_when_evaluate_raises(collections):
    def fail(items):
        assert not gc.isenabled()
        raise RuntimeError("evaluate failed")

    with pytest.raises(RuntimeError, match="evaluate failed"):
        fold_stream(range(10), fail, lambda item, verdict: None, batch_size=4)
    assert gc.isenabled()


def test_collector_off_on_entry_stays_off_and_never_collects(collections):
    gc.disable()
    fold_stream(range(10), evaluate_paused, lambda item, verdict: None, batch_size=4)
    assert not gc.isenabled()
    assert collections == []


def test_nested_fold_keeps_the_collector_off_until_the_outer_loop_ends(collections):
    inner_collections = []

    def fold(item, verdict):
        before = len(collections)
        fold_stream(range(5), evaluate_paused, lambda *_: None, batch_size=2)
        inner_collections.append(len(collections) - before)
        assert not gc.isenabled()

    fold_stream(range(6), evaluate_paused, fold, batch_size=3)
    assert inner_collections == [0] * 6
    assert gc.isenabled()
    assert len(collections) == 2  # the outer loop's two boundaries


def test_concurrent_folds_leave_the_collector_on(collections):
    """The switch is process-wide; the service folds in several runner threads."""

    def survey():
        for _ in range(50):
            fold_stream(range(20), list, lambda item, verdict: None, batch_size=3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=survey) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert gc.isenabled()


def test_a_fold_outlived_by_a_fold_it_paused_leaves_the_collector_on(collections):
    """Thread B enters while A has the collector paused, and finishes after A."""
    a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()

    def evaluate_first(items):
        a_inside.set()
        assert b_inside.wait(10)
        return items

    def evaluate_second(items):
        b_inside.set()
        assert a_done.wait(10)
        return items

    def run_first():
        fold_stream([1], evaluate_first, lambda item, verdict: None)
        a_done.set()

    first = threading.Thread(target=run_first)
    first.start()
    assert a_inside.wait(10)
    second = threading.Thread(
        target=fold_stream, args=([1], evaluate_second, lambda item, verdict: None)
    )
    second.start()
    first.join(timeout=20)
    second.join(timeout=20)
    assert not first.is_alive() and not second.is_alive()
    assert a_done.is_set()
    assert gc.isenabled()


# ------------------------------------------------- the protocol-complex build
@pytest.fixture
def every_collection():
    """Collections of any generation started while the test runs; restores the collector."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    enabled = gc.isenabled()
    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)
        (gc.enable if enabled else gc.disable)()


def _build(t=3):
    # 3,641 members with up to 3 crashes; t < 3 fails the crash bound.
    return build_protocol_complex(restricted_adversaries(Context(n=4, t=3, k=2), 2), 2, t)


def test_build_pauses_the_collector_and_restores_it(monkeypatch, every_collection):
    paused = []
    run_facets_pass = protocol_complex.run_facets_pass

    def probe(*args, **kwargs):
        paused.append(not gc.isenabled())
        return run_facets_pass(*args, **kwargs)

    monkeypatch.setattr(protocol_complex, "run_facets_pass", probe)
    gc.enable()
    assert len(_build().complex.facet_masks) > 0
    assert paused == [True]
    assert gc.isenabled()


def test_build_that_raises_restores_the_collector(every_collection):
    gc.enable()
    with pytest.raises(ValueError, match="exceeding the bound t=2"):
        _build(t=2)
    assert gc.isenabled()


def test_build_with_the_collector_off_keeps_it_off_and_never_collects(every_collection):
    gc.disable()
    _build()
    with pytest.raises(ValueError, match="exceeding the bound t=2"):
        _build(t=2)
    assert not gc.isenabled()
    assert every_collection == []
