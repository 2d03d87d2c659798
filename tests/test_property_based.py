"""Property-based tests (hypothesis) for the core invariants.

Random adversaries are generated through a hypothesis strategy over crash
events, input vectors and crash bounds; the properties exercised are the
paper's specification clauses (Validity, Decision, (Uniform) k-Agreement,
decision-time bounds), the structural invariants of views and hidden
capacity, the Lemma 2 surgery guarantees, Sperner's lemma, and the compact
implementation's soundness.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EarlyDecidingKSet, FloodMin, OptMin, UPMin
from repro.adversaries import lemma2_surgery, verify_surgery
from repro.efficient import compare_compact_to_fip
from repro.model import Adversary, CrashEvent, FailurePattern, Run
from repro.topology import (
    is_sperner_coloring,
    paper_subdivision,
    random_sperner_coloring,
    sperner_lemma_holds,
)
from repro.verification import (
    check_nonuniform_run,
    check_uniform_run,
    proposition1_bound,
    theorem3_bound,
)

# --------------------------------------------------------------------------
# Strategy: adversaries over a small parameter space.
# --------------------------------------------------------------------------

N = 6
MAX_T = 4
MAX_ROUND = 3


@st.composite
def adversaries(draw, k: int = 2, n: int = N, max_failures: int = MAX_T):
    """A random adversary over ``n`` processes with at most ``max_failures`` crashes."""
    values = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    failure_count = draw(st.integers(0, max_failures))
    faulty = draw(
        st.lists(st.integers(0, n - 1), min_size=failure_count, max_size=failure_count, unique=True)
    )
    events = []
    for process in faulty:
        round_ = draw(st.integers(1, MAX_ROUND))
        receivers = draw(
            st.frozensets(
                st.integers(0, n - 1).filter(lambda q, p=process: q != p), max_size=n - 1
            )
        )
        events.append(CrashEvent(process, round_, receivers))
    return Adversary(values, FailurePattern(n, events))


COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------
# Protocol specifications.
# --------------------------------------------------------------------------


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_optmin_spec_and_bound_hold(adversary):
    run = Run(OptMin(2), adversary, MAX_T)
    bound = proposition1_bound(2, adversary.num_failures)
    assert check_nonuniform_run(run, 2, bound) == []


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_upmin_spec_and_bound_hold(adversary):
    run = Run(UPMin(2), adversary, MAX_T)
    bound = theorem3_bound(2, MAX_T, adversary.num_failures)
    assert check_uniform_run(run, 2, bound) == []


@COMMON_SETTINGS
@given(adversary=adversaries(k=3))
def test_optmin_k3_spec_holds(adversary):
    run = Run(OptMin(3), adversary, MAX_T)
    assert check_nonuniform_run(run, 3, proposition1_bound(3, adversary.num_failures)) == []


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_baselines_remain_correct(adversary):
    flood = Run(FloodMin(2), adversary, MAX_T)
    assert check_uniform_run(flood, 2, MAX_T // 2 + 1) == []
    early = Run(EarlyDecidingKSet(2), adversary, MAX_T)
    assert check_nonuniform_run(early, 2, adversary.num_failures // 2 + 1) == []


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_optmin_dominates_early_deciding_pointwise(adversary):
    optmin = Run(OptMin(2), adversary, MAX_T)
    baseline = Run(EarlyDecidingKSet(2), adversary, MAX_T)
    for p in range(adversary.n):
        bt = baseline.decision_time(p)
        if bt is not None:
            ot = optmin.decision_time(p)
            assert ot is not None and ot <= bt


# --------------------------------------------------------------------------
# Structural invariants of views and hidden capacity.
# --------------------------------------------------------------------------


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_hidden_capacity_is_weakly_decreasing(adversary):
    run = Run(None, adversary, MAX_T, horizon=MAX_ROUND + 1)
    for p in range(adversary.n):
        previous = None
        time = 0
        while run.has_view(p, time):
            capacity = run.view(p, time).hidden_capacity()
            if previous is not None:
                assert capacity <= previous
            previous = capacity
            time += 1


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_node_classification_is_a_partition(adversary):
    run = Run(None, adversary, MAX_T, horizon=2)
    from repro.model import ProcessTimeNode

    for p, view in run.views_at(2).items():
        for j in range(adversary.n):
            for layer in range(3):
                node = ProcessTimeNode(j, layer)
                statuses = [
                    view.is_seen(node),
                    view.is_guaranteed_crashed(node),
                    j in view.hidden_processes_at(layer),
                ]
                assert sum(statuses) == 1


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_correct_process_values_monotone(adversary):
    """Vals<i, m> only grows with time for every surviving process."""
    run = Run(None, adversary, MAX_T, horizon=MAX_ROUND + 1)
    for p in range(adversary.n):
        previous = frozenset()
        time = 0
        while run.has_view(p, time):
            current = run.view(p, time).values()
            assert previous <= current
            previous = current
            time += 1


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_minimum_never_increases(adversary):
    run = Run(None, adversary, MAX_T, horizon=MAX_ROUND + 1)
    for p in range(adversary.n):
        previous = None
        time = 0
        while run.has_view(p, time):
            current = run.view(p, time).min_value()
            if previous is not None:
                assert current <= previous
            previous = current
            time += 1


# --------------------------------------------------------------------------
# Lemma 2 surgery, compact implementation, Sperner.
# --------------------------------------------------------------------------


@COMMON_SETTINGS
@given(adversary=adversaries(k=2, max_failures=4), data=st.data())
def test_lemma2_surgery_guarantees(adversary, data):
    run = Run(None, adversary, MAX_T, horizon=2)
    candidates = [
        (p, time)
        for time in (1, 2)
        for p in range(adversary.n)
        if run.has_view(p, time) and run.view(p, time).hidden_capacity() >= 2
    ]
    if not candidates:
        return
    process, time = data.draw(st.sampled_from(candidates))
    result = lemma2_surgery(run, process, time, [0, 1])
    check = verify_surgery(run, result)
    assert check.observer_view_preserved
    assert check.values_delivered
    assert check.no_foreign_values


@COMMON_SETTINGS
@given(adversary=adversaries(k=2))
def test_compact_reconstruction_is_sound(adversary):
    comparison = compare_compact_to_fip(adversary, MAX_T)
    assert comparison.values_match
    assert comparison.failures_match
    assert comparison.capacity_never_lower


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 1000))
def test_sperner_lemma_parity(k, seed):
    subdivision = paper_subdivision(k)
    coloring = random_sperner_coloring(subdivision, seed)
    assert is_sperner_coloring(subdivision, coloring)
    assert sperner_lemma_holds(subdivision, coloring)
