"""PROP1 — Proposition 1: Optmin[k] decides by time ⌊f/k⌋ + 1.

The benchmark checks the bound over (i) random adversary ensembles for a grid
of (n, k, f) and (ii) the worst-case hidden-chain adversaries on which the
bound is tight, and reports the observed decision-time histogram against the
bound.  The whole grid runs on the batch sweep engine (:mod:`repro.engine`);
``tests/test_engine_differential.py`` pins that engine to the reference
``Run``, so the timed numbers stay comparable across engine changes.
"""

from __future__ import annotations

import pytest

from repro import OptMin, Run
from repro.adversaries import AdversaryGenerator, figure2_scenario
from repro.analysis import collect
from repro.model import Context
from repro.verification import check_protocol, proposition1_bound

from conftest import print_table


GRID = [(7, 2, 4), (7, 3, 6), (10, 2, 6), (10, 3, 6)]
SAMPLES = 80


def run_grid():
    rows = []
    for n, k, t in GRID:
        context = Context(n=n, t=t, k=k)
        generator = AdversaryGenerator(context, seed=n * 100 + k)
        adversaries = generator.sample(SAMPLES)
        stats = collect(
            [OptMin(k)],
            adversaries,
            context.t,
            bound_for=lambda protocol, adversary: proposition1_bound(k, adversary.num_failures),
        )["Optmin[k]"]
        violations = len(check_protocol(OptMin(k), adversaries[:20], context.t).violations)
        worst_case = figure2_scenario(k=k, depth=t // k)
        tight = Run(OptMin(k), worst_case.adversary, worst_case.context.t).last_decision_time()
        rows.append(
            (
                n,
                k,
                t,
                f"{stats.mean_time:.2f}",
                stats.worst_time,
                t // k + 1,
                stats.bound_violations + violations,
                tight,
            )
        )
    return rows


@pytest.mark.benchmark(group="prop1")
def test_prop1_worst_case_bound(benchmark):
    rows = benchmark(run_grid)
    print_table(
        "PROP1 — Optmin[k] decision times vs the ⌊f/k⌋+1 bound",
        ["n", "k", "t", "mean", "worst observed", "⌊t/k⌋+1", "violations", "tight chain run"],
        rows,
    )
    for _n, k, t, _mean, worst, bound, violations, tight in rows:
        assert violations == 0
        assert worst <= bound
        # The hidden-chain adversary realises the bound exactly.
        assert tight == t // k + 1
