"""Sperner colorings and Sperner's lemma (paper, Lemma 4 in Appendix B.1.2).

A *Sperner coloring* of a subdivision ``Div σ`` maps every subdivision vertex
to an element of its carrier (the smallest face of ``σ`` it lies in).
Sperner's lemma states that any such coloring contains an odd number — in
particular at least one — of fully-colored top-dimensional simplexes.

The paper's topological proof of Lemma 1 builds a Sperner coloring of its
``Div σ`` from the decisions of processes: original vertices are colored by
the (inductively known) decisions of the crashers ``i_0 .. i_{k-1}`` and of
the observer ``i``, and a subdivision vertex ``σ'`` is colored by the decision
of the process ``j_{dim σ'}`` in the execution where exactly the crashers in
``σ'`` reach it.  Validity forces the coloring to be Sperner, so the lemma
yields a simplex — i.e. a single execution — in which ``k + 1`` distinct
values are decided, contradicting k-Agreement.

This module provides the coloring validity check, the fully-colored-simplex
census (with the parity assertion), and a decision-based coloring builder
used by the FIG3/SPERNER benchmarks and the topology tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping

from .complexes import Simplex
from .subdivision import SubdividedSimplex, SubdivisionVertex

#: A coloring maps subdivision vertices to colors (we use the original
#: vertices of σ as the color palette, as Sperner's lemma requires).
Coloring = Mapping[SubdivisionVertex, Hashable]


def is_sperner_coloring(subdivision: SubdividedSimplex, coloring: Coloring) -> bool:
    """Whether ``coloring`` assigns every vertex a color from its carrier."""
    for vertex in subdivision.vertices():
        if vertex not in coloring:
            return False
        if coloring[vertex] not in subdivision.carrier(vertex):
            return False
    return True


def fully_colored_simplices(
    subdivision: SubdividedSimplex, coloring: Coloring
) -> List[Simplex]:
    """The top-dimensional simplexes whose vertices receive pairwise distinct colors."""
    out: List[Simplex] = []
    for facet in subdivision.top_simplices():
        colors = {coloring[v] for v in facet}
        if len(colors) == len(facet):
            out.append(facet)
    return out


def sperner_lemma_holds(subdivision: SubdividedSimplex, coloring: Coloring) -> bool:
    """Sperner's lemma check: the number of fully-colored facets is odd.

    Only meaningful when ``coloring`` is a Sperner coloring; raises otherwise
    so that misuse is loud.
    """
    if not is_sperner_coloring(subdivision, coloring):
        raise ValueError("the supplied coloring is not a Sperner coloring")
    return len(fully_colored_simplices(subdivision, coloring)) % 2 == 1


def first_vertex_coloring(subdivision: SubdividedSimplex) -> Dict[SubdivisionVertex, Hashable]:
    """The canonical Sperner coloring: color every vertex by the minimum of its carrier.

    Useful as a baseline coloring in tests (it is always Sperner) and as a
    building block for randomised colorings.
    """
    return {v: min(subdivision.carrier(v)) for v in subdivision.vertices()}


def random_sperner_coloring(
    subdivision: SubdividedSimplex, seed: int = 0
) -> Dict[SubdivisionVertex, Hashable]:
    """A random Sperner coloring (each vertex colored uniformly from its carrier)."""
    import random

    rng = random.Random(seed)
    return {
        v: rng.choice(sorted(subdivision.carrier(v))) for v in subdivision.vertices()
    }


def census(subdivision: SubdividedSimplex, coloring: Coloring) -> Dict[str, int]:
    """Summary statistics used by the SPERNER benchmark."""
    fully = fully_colored_simplices(subdivision, coloring)
    return {
        # Counts come straight off the kernel bitsets — no re-materialisation
        # of the vertex/facet frozensets just to take a length.
        "vertices": subdivision.complex.vertex_count,
        "top_simplices": subdivision.top_simplex_count(),
        "fully_colored": len(fully),
        "parity_odd": int(len(fully) % 2 == 1),
    }
