"""Communication graphs ``Gα`` as explicit (networkx) graph objects.

networkx is optional (the ``graph`` extra): nothing in the package needs
it at import, and each helper that builds or queries a graph imports it on
first use, so ``import repro`` never loads it.

The run engine keeps views in a compact summary form for speed; for analysis,
visualisation and cross-checking it is often convenient to materialise the
paper's layered communication graph ``Gα`` explicitly:

* nodes are process-time pairs ``<i, m>`` (only nodes at which the process is
  still operating are included);
* an edge ``<i, m-1> -> <j, m>`` is present iff ``i``'s round-``m`` message to
  ``j`` is delivered under the failure pattern (self-edges ``<i, m-1> -> <i, m>``
  are included for active processes, mirroring the view definition);
* time-0 nodes carry the initial values as node attributes.

The exported graph supports two consumers:

* :func:`view_subgraph` extracts ``Gα(i, m)`` — the causal past of a node —
  which the tests use to cross-check the run engine's summary-based view
  computation against the from-first-principles graph reachability definition;
* plotting / inspection by downstream users (the graph is a plain
  ``networkx.DiGraph``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

from .adversary import Adversary
from .types import ProcessTimeNode, Time

if TYPE_CHECKING:
    import networkx as nx


def communication_graph(adversary: Adversary, horizon: Time) -> "nx.DiGraph":
    """Materialise ``Gα`` up to ``horizon`` as a directed layered graph.

    Node keys are ``(process, time)`` tuples; time-0 nodes have an
    ``initial_value`` attribute and every node has ``active`` (whether the
    process is still operating at that time) and ``faulty`` attributes.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    import networkx as nx

    pattern = adversary.pattern
    graph = nx.DiGraph()
    for process in range(adversary.n):
        for time in range(horizon + 1):
            if not pattern.is_active(process, time):
                break
            attributes = {
                "active": True,
                "faulty": pattern.is_faulty(process),
            }
            if time == 0:
                attributes["initial_value"] = adversary.initial_value(process)
            graph.add_node((process, time), **attributes)
    for time in range(1, horizon + 1):
        round_ = time
        for receiver in range(adversary.n):
            if (receiver, time) not in graph:
                continue
            # Self edge: a process always carries its own previous state forward.
            if (receiver, time - 1) in graph:
                graph.add_edge((receiver, time - 1), (receiver, time), round=round_, self_edge=True)
            for sender in pattern.senders_to(receiver, round_):
                if (sender, time - 1) in graph:
                    graph.add_edge((sender, time - 1), (receiver, time), round=round_, self_edge=False)
    return graph


def view_subgraph(graph: "nx.DiGraph", node: ProcessTimeNode) -> "nx.DiGraph":
    """``Gα(i, m)``: the subgraph of ``Gα`` from which ``<i, m>`` is reachable.

    This is the from-first-principles definition of a full-information view
    (all nodes with a Lamport message chain to the observer), used to
    cross-validate the run engine's incremental computation.
    """
    key = (node.process, node.time)
    if key not in graph:
        raise KeyError(f"{node} is not a node of the communication graph")
    import networkx as nx

    ancestors: Set[Tuple[int, int]] = nx.ancestors(graph, key)
    ancestors.add(key)
    return graph.subgraph(ancestors).copy()


def seen_nodes(graph: "nx.DiGraph", node: ProcessTimeNode) -> Set[ProcessTimeNode]:
    """All process-time nodes seen by ``node`` according to the explicit graph."""
    subgraph = view_subgraph(graph, node)
    return {ProcessTimeNode(process, time) for process, time in subgraph.nodes}


def latest_seen_per_process(graph: "nx.DiGraph", node: ProcessTimeNode, n: int) -> Dict[int, int]:
    """For each process, the latest time whose node is seen by ``node`` (-1 if none)."""
    latest = {process: -1 for process in range(n)}
    for seen in seen_nodes(graph, node):
        latest[seen.process] = max(latest[seen.process], seen.time)
    return latest


def message_chain_exists(
    graph: "nx.DiGraph", source: ProcessTimeNode, target: ProcessTimeNode
) -> bool:
    """Whether a (Lamport) message chain leads from ``source`` to ``target``."""
    source_key = (source.process, source.time)
    target_key = (target.process, target.time)
    if source_key not in graph or target_key not in graph:
        return False
    if source_key == target_key:
        return True
    import networkx as nx

    return nx.has_path(graph, source_key, target_key)


def layer_counts(graph: "nx.DiGraph") -> Dict[Time, int]:
    """Number of surviving nodes per layer (handy for quick sanity plots)."""
    counts: Dict[Time, int] = {}
    for _process, time in graph.nodes:
        counts[time] = counts.get(time, 0) + 1
    return counts
