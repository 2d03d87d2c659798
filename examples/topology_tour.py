#!/usr/bin/env python3
"""A tour of the topological machinery: protocol complexes, star complexes, Sperner.

Reproduces the objects behind the paper's topological unbeatability proof on a
laptop-sized system:

* the one-round protocol complex of the "at most k crashes per round" family;
* the star complex of a node with hidden capacity k, and the homological check
  of Proposition 2 (capacity >= k  ⇒  (k-1)-connected star);
* the paper's ``Div σ`` subdivision (Fig. 5) and Sperner's lemma.

Run with:  python examples/topology_tour.py

The complex builders run on the batch engine (the whole adversary family is
materialised on the prefix-sharing trie).
"""

from __future__ import annotations

from repro.model import Adversary, Context, CrashEvent, FailurePattern, Run
from repro.topology import (
    build_restricted_complex,
    census,
    connectivity_profile,
    first_vertex_coloring,
    paper_subdivision,
    reduced_betti_numbers,
    sperner_lemma_holds,
)


def protocol_complex_tour() -> None:
    print("=" * 72)
    print("Protocol complex and star complexes (Proposition 2)")
    print("=" * 72)
    k = 2
    context = Context(n=5, t=4, k=k)
    pc = build_restricted_complex(context, time=1, max_crashes_per_round=k)
    print(
        f"one-round protocol complex, n={context.n}, at most {k} crashes/round: "
        f"{len(pc.complex.vertices)} vertices, {len(pc.complex.facets)} facets, "
        f"dimension {pc.complex.dimension}"
    )
    print(f"reduced Betti numbers (whole complex): {reduced_betti_numbers(pc.complex, k)}")

    # A node with hidden capacity k: two silent crashes in round 1.
    adversary = Adversary(
        [k] * context.n,
        FailurePattern(
            context.n, [CrashEvent(1, 1, frozenset()), CrashEvent(2, 1, frozenset())]
        ),
    )
    run = Run(None, adversary, context.t, horizon=1)
    capacity = run.view(0, 1).hidden_capacity()
    star = pc.star_of(adversary, 0, context.t)
    print(
        f"\nobserver 0 after two silent crashes: hidden capacity {capacity}; "
        f"star complex has {len(star.facets)} facets, "
        f"connectivity level {connectivity_profile(star, max_q=k - 1)} "
        f"(Proposition 2 predicts >= {k - 1})"
    )

    # Contrast with the failure-free vertex (capacity 0).
    clean = Adversary([k] * context.n, FailurePattern.failure_free(context.n))
    star_clean = pc.star_of(clean, 0, context.t)
    run_clean = Run(None, clean, context.t, horizon=1)
    print(
        f"failure-free observer: hidden capacity {run_clean.view(0, 1).hidden_capacity()}; "
        f"star connectivity level {connectivity_profile(star_clean, max_q=k - 1)} "
        "(the converse direction is open — see the paper)"
    )


def sperner_tour() -> None:
    print()
    print("=" * 72)
    print("The Div σ subdivision and Sperner's lemma (Appendix B.1, Fig. 5)")
    print("=" * 72)
    for k in (1, 2, 3, 4):
        subdivision = paper_subdivision(k)
        coloring = first_vertex_coloring(subdivision)
        summary = census(subdivision, coloring)
        print(
            f"k={k}: {summary['vertices']:3d} vertices, {summary['top_simplices']:3d} top simplexes, "
            f"{summary['fully_colored']} fully colored (odd: {bool(summary['parity_odd'])}), "
            f"Sperner's lemma holds: {sperner_lemma_holds(subdivision, coloring)}"
        )
    print(
        "\nIn the unbeatability proof, a fully colored simplex is an execution in"
        " which k+1 distinct values are decided — the contradiction that forces a"
        " high process with hidden capacity k to stay undecided."
    )


if __name__ == "__main__":
    protocol_complex_tour()
    sperner_tour()
