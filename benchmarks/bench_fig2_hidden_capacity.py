"""FIG2 — Fig. 2: hidden capacity k blocks Optmin[k]; its collapse releases the decision.

The figure's claim: ``k`` disjoint hidden chains keep ``HC<i, m> = k`` for as
long as they run, so the observer cannot decide under Optmin[k] (deciding
would risk k-Agreement, as the chains could be carrying all k low values);
one round after the chains end the capacity collapses and the observer
decides.  The benchmark sweeps ``k`` and the chain depth and reports the
observer's hidden-capacity profile and decision time.
"""

from __future__ import annotations

import pytest

from repro.adversaries import figure2_scenario
from repro.core import OptMinWithExplanation
from repro.model import Run

from conftest import print_table


PARAMETERS = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]


def run_sweep():
    rows = []
    for k, depth in PARAMETERS:
        scenario = figure2_scenario(k=k, depth=depth, extra_processes=2)
        bare = Run(None, scenario.adversary, scenario.context.t, horizon=depth + 1)
        protocol = OptMinWithExplanation(k)
        run = Run(protocol, scenario.adversary, scenario.context.t)
        profile = [
            bare.view(scenario.observer, time).hidden_capacity() for time in range(depth + 2)
        ]
        rows.append(
            (
                k,
                depth,
                scenario.adversary.num_failures,
                profile,
                run.decision_time(scenario.observer),
                protocol.reasons.get(scenario.observer, "-"),
            )
        )
    return rows


@pytest.mark.benchmark(group="fig2")
def test_fig2_hidden_capacity_sweep(benchmark):
    rows = benchmark(run_sweep)
    print_table(
        "FIG2 — hidden-capacity profile of the observer and its Optmin[k] decision time",
        ["k", "depth", "f", "HC profile (t=0..)", "decision time", "trigger"],
        rows,
    )
    for k, depth, f, profile, decision_time, trigger in rows:
        # Capacity holds at >= k through the chain depth ...
        assert all(capacity >= k for capacity in profile[: depth + 1])
        # ... and collapses right after, releasing the decision (Prop. 1 tight).
        assert profile[depth + 1] < k
        assert decision_time == depth + 1 == f // k + 1
        assert trigger in {"hidden-capacity", "low"}
