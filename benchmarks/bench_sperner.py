"""SPERNER — Appendix B.1: the Div σ subdivision and Sperner's lemma machinery.

The benchmark builds the paper's subdivision ``Div σ`` for increasing ``k``,
colors it with decision-style Sperner colorings, and verifies the parity
statement of Sperner's lemma (Lemma 4) that the topological unbeatability
proof consumes — reporting the size of the subdivision and the number of
fully-colored simplexes (i.e. executions deciding k+1 distinct values that the
proof derives a contradiction from).
"""

from __future__ import annotations

import pytest

from repro.topology import (
    census,
    paper_subdivision,
    random_sperner_coloring,
    sperner_lemma_holds,
)

from conftest import print_table


K_SWEEP = [1, 2, 3, 4, 5]


def run_sweep():
    rows = []
    for k in K_SWEEP:
        subdivision = paper_subdivision(k)
        coloring = random_sperner_coloring(subdivision, seed=k)
        summary = census(subdivision, coloring)
        parity = sperner_lemma_holds(subdivision, coloring)
        rows.append(
            (
                k,
                summary["vertices"],
                summary["top_simplices"],
                summary["fully_colored"],
                parity,
            )
        )
    return rows


@pytest.mark.benchmark(group="sperner")
def test_sperner_machinery(benchmark):
    rows = benchmark(run_sweep)
    print_table(
        "SPERNER — Div σ sizes and Sperner's lemma parity",
        ["k", "vertices", "top simplices", "fully colored", "odd parity"],
        rows,
    )
    for k, vertices, top, fully, parity in rows:
        assert parity
        assert fully >= 1 and fully % 2 == 1
        if k == 2:
            # Fig. 5 (center): 5 vertices and 4 triangles.
            assert vertices == 5 and top == 4
