"""The paper's illustrative adversaries (Figures 1, 2 and 4), generalised.

Each builder returns a :class:`Scenario`: the adversary together with the
roles of the participating processes, the context it lives in, and the
decision-time expectations the corresponding figure states.  The FIG*
benchmarks and several integration tests consume these scenarios.

* :func:`figure1_scenario` — a hidden path w.r.t. ``<i, m>`` (Section 3,
  Fig. 1): a chain of processes crashing one per round, each delivering only
  to its successor, silently carrying an initial value that the observer
  never learns about.  With the value present the observer cannot decide 1
  in Opt0; the benchmark sweeps the chain length.
* :func:`figure2_scenario` — hidden capacity ``k`` at ``<i, m>`` (Section 4,
  Fig. 2): ``k`` disjoint hidden chains.  The observer cannot decide under
  Optmin[k] while the chains persist, and Lemma 2 turns the chains into
  carriers of arbitrary values.
* :func:`figure4_scenario` — the uniform-consensus speed-up run (Section 5,
  Fig. 4): ``k``-ish crashes per round keep every failure-counting baseline
  undecided until ``⌊t/k⌋ + 1``, yet the information flow makes the hidden
  capacity of every surviving process drop below ``k`` at time 2, so
  u-Pmin[k] decides at time 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..model.adversary import Adversary, Context
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.types import ProcessId, Value
from .generators import crash_chain_events


@dataclass(frozen=True)
class Scenario:
    """An adversary plus the metadata needed to interpret it.

    Attributes
    ----------
    name:
        Short identifier (``"fig1"``, ``"fig2"``, ``"fig4"``).
    adversary:
        The adversary ``α = (v⃗, F)``.
    context:
        A context that admits the adversary.
    observer:
        The process the figure reasons about (``i`` in the paper).
    roles:
        Named process groups (chains, revealers, correct processes, ...).
    expectations:
        Free-form figure expectations (e.g. the expected decision time of a
        protocol on this adversary), used by benchmarks for reporting and by
        tests for assertions.
    """

    name: str
    adversary: Adversary
    context: Context
    observer: ProcessId
    roles: Dict[str, Tuple[ProcessId, ...]] = field(default_factory=dict)
    expectations: Dict[str, int] = field(default_factory=dict)


def figure1_scenario(chain_length: int = 2, extra_processes: int = 1, chain_value: Value = 0) -> Scenario:
    """The Fig. 1 hidden-path adversary for binary consensus.

    Parameters
    ----------
    chain_length:
        The number of crashing chain members, i.e. the time ``m`` up to which
        the path stays hidden from the observer.  Fig. 1 uses ``m = 2``.
    extra_processes:
        Additional always-correct processes holding value 1 (besides the
        observer).
    chain_value:
        The value silently carried by the chain (0 in the figure).

    The chain occupies processes ``1 .. chain_length + 1``: member ``ℓ``
    crashes in round ``ℓ + 1`` delivering only to member ``ℓ + 1``; the last
    member stays alive, so at time ``chain_length`` it may be the only
    process knowing ``chain_value``.
    """
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    observer = 0
    chain = list(range(1, chain_length + 2))
    n = 1 + len(chain) + extra_processes
    values = [1] * n
    values[chain[0]] = chain_value
    pattern = FailurePattern(n, crash_chain_events(chain))
    t = max(chain_length, 1)
    context = Context(n=n, t=t, k=1, max_value=1 if chain_value <= 1 else chain_value)
    adversary = Adversary(values, pattern)
    context.validate(adversary)
    return Scenario(
        name="fig1",
        adversary=adversary,
        context=context,
        observer=observer,
        roles={
            "chain": tuple(chain),
            "correct": tuple(
                p for p in range(n) if p not in set(chain[:-1])
            ),
        },
        expectations={
            # The observer cannot decide 1 before the chain is exhausted; with
            # the chain delivering the 0 onwards, Opt0 has the observer decide
            # only once some layer has no hidden node.
            "observer_min_decision_time": chain_length,
        },
    )


def figure2_scenario(k: int = 3, depth: int = 2, extra_processes: int = 1, high_value: Value | None = None) -> Scenario:
    """The Fig. 2 hidden-capacity adversary: ``k`` disjoint hidden chains.

    ``k`` chains, each with ``depth + 1`` members (layers ``0 .. depth``).
    The layer-``ℓ`` member of every chain crashes in round ``ℓ + 1``
    delivering only to the layer-``ℓ+1`` member, so at every layer
    ``0 .. depth`` exactly ``k`` nodes are hidden from the observer — i.e.
    ``HC<observer, depth> >= k`` (in fact ``= k`` once enough failures are
    known), which is exactly the situation in which Optmin[k] must stay
    undecided.

    All processes start with the high value ``k`` (the chains are hidden
    *capacity*, not hidden values: Lemma 2 can retro-fit arbitrary values
    onto them).
    """
    if k < 1 or depth < 1:
        raise ValueError("k and depth must be >= 1")
    high = k if high_value is None else high_value
    observer = 0
    chains: List[List[ProcessId]] = []
    next_pid = 1
    for _ in range(k):
        chain = list(range(next_pid, next_pid + depth + 1))
        next_pid += depth + 1
        chains.append(chain)
    n = next_pid + extra_processes
    values = [high] * n
    events: List[CrashEvent] = []
    for chain in chains:
        events.extend(crash_chain_events(chain))
    pattern = FailurePattern(n, events)
    f = k * depth
    context = Context(n=n, t=max(f, 1), k=k, max_value=high)
    adversary = Adversary(values, pattern)
    context.validate(adversary)
    return Scenario(
        name="fig2",
        adversary=adversary,
        context=context,
        observer=observer,
        roles={
            **{f"chain{idx}": tuple(chain) for idx, chain in enumerate(chains)},
            "chains_flat": tuple(p for chain in chains for p in chain),
            "correct": tuple(
                p
                for p in range(n)
                if p not in {member for chain in chains for member in chain[:-1]}
            ),
        },
        expectations={
            "observer_hidden_capacity_at_depth": k,
            "observer_earliest_decision": depth + 1,
        },
    )


def figure4_scenario(k: int = 3, rounds: int = 4, correct_processes: int = 2) -> Scenario:
    """The Fig. 4 adversary: u-Pmin[k] decides at time 2, baselines at ``⌊t/k⌋ + 1``.

    Construction (generalising the figure; ``rounds`` is the paper's
    ``⌊t/k⌋``, i.e. the number of rounds during which every correct process
    keeps perceiving at least ``k`` new failures):

    * ``k - 1`` *value chains* carry the low values ``0 .. k-2``: the layer-``ℓ``
      carrier of chain ``b`` crashes in round ``ℓ + 1`` delivering only to the
      layer-``ℓ+1`` carrier, exactly as in Fig. 2.
    * Round 1 additionally crashes two high-valued processes: ``silent``
      delivers only to the round-2 ``revealer``, and ``late_revealed``
      delivers to everybody *except* the revealer.
    * Round 2 additionally crashes the ``revealer``, which delivers to
      everybody.  Its relayed view simultaneously (i) shows the survivors the
      initial state of ``silent`` — shrinking the set of layer-0 nodes hidden
      from them to the ``k - 1`` value-chain heads, i.e. hidden capacity
      ``k - 1 < k`` — and (ii) reveals the crash of ``late_revealed``, keeping
      the number of *newly perceived* failures at ``k`` so the
      failure-counting baselines stay undecided.
    * Rounds ``3 .. rounds`` each crash the next carrier of every value chain
      plus one fresh high-valued process that delivers to nobody, so the
      baselines keep perceiving ``k`` new failures per round.

    With ``f = t = k * rounds + 1``, the baselines decide at time
    ``⌊t/k⌋ + 1 = rounds + 1`` while every correct process decides the high
    value ``k`` at time 2 under u-Pmin[k].
    """
    if k < 2:
        raise ValueError("the figure-4 construction needs k >= 2")
    if rounds < 2:
        raise ValueError("rounds must be >= 2")

    pid = 0

    def take(count: int) -> List[ProcessId]:
        nonlocal pid
        block = list(range(pid, pid + count))
        pid += count
        return block

    correct = take(correct_processes)
    # Value chains: chain b has carriers for layers 0 .. rounds-1.
    chains = [take(rounds) for _ in range(k - 1)]
    silent = take(1)[0]
    late_revealed = take(1)[0]
    revealer = take(1)[0]
    extras = take(max(rounds - 2, 0))
    n = pid

    values = [k] * n
    for b, chain in enumerate(chains):
        values[chain[0]] = b  # low values 0 .. k-2

    events: List[CrashEvent] = []
    # Value chains: carrier ℓ crashes in round ℓ+1 delivering only to carrier ℓ+1
    # (the final carrier delivers to nobody).
    for chain in chains:
        for layer, carrier in enumerate(chain):
            receivers = frozenset({chain[layer + 1]}) if layer + 1 < len(chain) else frozenset()
            events.append(CrashEvent(carrier, layer + 1, receivers))
    # Round 1: `silent` delivers only to the revealer; `late_revealed` delivers
    # to everyone except the revealer.
    events.append(CrashEvent(silent, 1, frozenset({revealer})))
    events.append(
        CrashEvent(
            late_revealed,
            1,
            frozenset(q for q in range(n) if q not in (late_revealed, revealer)),
        )
    )
    # Round 2: the revealer delivers to everyone.
    events.append(
        CrashEvent(revealer, 2, frozenset(q for q in range(n) if q != revealer))
    )
    # Rounds 3..rounds: one fresh, fully silent crash per round.
    for idx, extra in enumerate(extras):
        events.append(CrashEvent(extra, 3 + idx, frozenset()))

    pattern = FailurePattern(n, events)
    f = pattern.num_failures
    t = f
    context = Context(n=n, t=t, k=k, max_value=k)
    adversary = Adversary(values, pattern)
    context.validate(adversary)
    return Scenario(
        name="fig4",
        adversary=adversary,
        context=context,
        observer=correct[0],
        roles={
            "correct": tuple(correct),
            "silent": (silent,),
            "late_revealed": (late_revealed,),
            "revealer": (revealer,),
            "extras": tuple(extras),
            **{f"chain{b}": tuple(chain) for b, chain in enumerate(chains)},
        },
        expectations={
            "upmin_decision_time": 2,
            "baseline_decision_time": rounds + 1,
            "deadline": t // k + 1,
        },
    )
