"""Run surgery: the constructive adversary transformation of Lemma 2.

Lemma 2 is the combinatorial engine behind both unbeatability proofs: given a
run ``r``, a node ``<i, m>`` with hidden capacity ``c`` and any ``c`` values
``v_1 .. v_c``, there exists a run ``r'`` of the same protocol that ``i``
cannot distinguish from ``r`` at time ``m`` (``r'_i(m) = r_i(m)``), in which

(a) the layer-``ℓ`` witness of chain ``b`` has seen ``v_b``,
(b) apart from ``v_b`` it has seen nothing that ``i`` has not seen, and
(c) it still has hidden capacity ``>= c - 1``, witnessed by the other chains.

The construction turns the hidden-capacity witnesses into ``c`` disjoint crash
chains: the layer-``ℓ`` witness of chain ``b`` crashes at time ``ℓ`` (round
``ℓ+1``) delivering only to the layer-``ℓ+1`` witness, it receives the same
round-``ℓ`` messages as ``i`` plus a message from ``i`` and the chain message
from its predecessor, and the chain heads are re-assigned the initial values
``v_1 .. v_c``.

:func:`lemma2_surgery` implements this transformation on adversaries (the
failure pattern and input vector are what the external scheduler controls; the
run is then re-simulated).  :func:`verify_surgery` re-simulates the surgered
adversary and checks the lemma's guarantees, which is how the FIG2/FIG3
benchmarks and the unbeatability tests exercise the combinatorial proof
constructively.  The re-simulation materialises the surgered views on the
copy-on-write layer chain (:class:`repro.engine.LayerViews`); the checks
themselves (:func:`check_surgery`) are view-only, so the
:func:`repro.oracles.verify_surgery` re-run on the oracle ``Run`` reaches
the same verdicts (``tests/test_complex_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..knowledge.hidden import disjoint_hidden_chains
from ..model.adversary import Adversary
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.run import Run
from ..model.types import ProcessId, Time, Value
from ..model.view import view_key


@dataclass(frozen=True)
class SurgeryResult:
    """The outcome of a Lemma 2 surgery.

    Attributes
    ----------
    adversary:
        The surgered adversary (defining the run ``r'``).
    chains:
        The witness chains used: ``chains[b][ℓ]`` is the layer-``ℓ`` witness
        of chain ``b`` (the paper's ``i^ℓ_b``).
    values:
        The values assigned to the chains (``values[b]`` travels down chain
        ``b``).
    observer:
        The observed process ``i``.
    time:
        The observation time ``m``.
    """

    adversary: Adversary
    chains: Tuple[Tuple[ProcessId, ...], ...]
    values: Tuple[Value, ...]
    observer: ProcessId
    time: Time


def lemma2_surgery(
    run: Run,
    observer: ProcessId,
    time: Time,
    values: Sequence[Value],
    chains: Optional[Sequence[Sequence[ProcessId]]] = None,
) -> SurgeryResult:
    """Apply the Lemma 2 construction to ``<observer, time>`` in ``run``.

    Parameters
    ----------
    run:
        The original run ``r`` (only its adversary and the observer's view are
        used).
    observer, time:
        The node ``<i, m>`` the construction is anchored at.  The observer
        must be active at ``time``.
    values:
        The values ``v_1 .. v_c`` to be carried by the chains; ``c`` must not
        exceed the observer's hidden capacity at ``time``.
    chains:
        Optional explicit witness chains (``c`` chains of ``time + 1``
        processes each, pairwise disjoint within every layer and all hidden
        from the observer).  When omitted, chains are derived from the
        observer's view via :func:`repro.knowledge.hidden.disjoint_hidden_chains`.

    Returns
    -------
    SurgeryResult
        The surgered adversary plus the chain/value bookkeeping.
    """
    view = run.view(observer, time)
    c = len(values)
    if c == 0:
        raise ValueError("at least one value must be supplied")
    if c > view.hidden_capacity():
        raise ValueError(
            f"requested {c} chains but the hidden capacity of <{observer},{time}> is only "
            f"{view.hidden_capacity()}"
        )
    if chains is None:
        chains = disjoint_hidden_chains(view, c)
    chains = tuple(tuple(chain) for chain in chains)
    _validate_chains(view, chains, time)

    adversary = run.adversary
    n = adversary.n
    new_values = list(adversary.values)
    for b, chain in enumerate(chains):
        new_values[chain[0]] = values[b]

    crash_map: Dict[ProcessId, CrashEvent] = {e.process: e for e in adversary.pattern.crashes}
    witnesses_at_layer: Dict[Time, Dict[ProcessId, Tuple[int, int]]] = {}
    for b, chain in enumerate(chains):
        for layer, w in enumerate(chain):
            witnesses_at_layer.setdefault(layer, {})[w] = (b, layer)

    # Step 1: witnesses at layers < m crash at their layer, delivering only to
    # the next chain member.  Witnesses at layer m must be alive through round
    # m (drop any earlier crash; a later crash is irrelevant to <i, m> and we
    # simply remove it to keep the pattern minimal).
    for b, chain in enumerate(chains):
        for layer, w in enumerate(chain):
            if layer < time:
                crash_map[w] = CrashEvent(w, layer + 1, frozenset({chain[layer + 1]}))
            else:
                crash_map.pop(w, None)

    # Step 2: every *other* process crashing in round ℓ must deliver to the
    # layer-ℓ witnesses exactly when it delivers to the observer (plus the
    # observer itself always delivers to the witnesses of the layer matching
    # its own crash round, should it crash).
    all_chain_members = {w for chain in chains for w in chain}
    for p, event in list(crash_map.items()):
        if p in all_chain_members:
            continue
        layer = event.round
        layer_witnesses = witnesses_at_layer.get(layer, {})
        if not layer_witnesses:
            continue
        receivers = set(event.receivers)
        delivers_to_observer = observer in receivers or p == observer
        for w in layer_witnesses:
            if w == p:
                continue
            if p == observer or delivers_to_observer:
                receivers.add(w)
            else:
                receivers.discard(w)
        crash_map[p] = CrashEvent(p, event.round, frozenset(receivers - {p}))

    new_pattern = FailurePattern(n, crash_map.values())
    new_adversary = Adversary(new_values, new_pattern)
    return SurgeryResult(
        adversary=new_adversary,
        chains=chains,
        values=tuple(values),
        observer=observer,
        time=time,
    )


def _validate_chains(view, chains: Tuple[Tuple[ProcessId, ...], ...], time: Time) -> None:
    """Sanity checks: chains have the right length, are layer-disjoint and hidden."""
    for chain in chains:
        if len(chain) != time + 1:
            raise ValueError(
                f"every chain must have {time + 1} members (one per layer), got {len(chain)}"
            )
    for layer in range(time + 1):
        members = [chain[layer] for chain in chains]
        if len(set(members)) != len(members):
            raise ValueError(f"chains are not disjoint at layer {layer}: {members}")
        hidden = view.hidden_processes_at(layer)
        not_hidden = [m for m in members if m not in hidden]
        if not_hidden:
            raise ValueError(
                f"processes {not_hidden} are not hidden from the observer at layer {layer}"
            )


@dataclass(frozen=True)
class SurgeryCheck:
    """The verdict of :func:`verify_surgery` (all fields should be ``True``)."""

    observer_view_preserved: bool
    values_delivered: bool
    no_foreign_values: bool
    residual_capacity: bool

    @property
    def ok(self) -> bool:
        """Whether every guarantee of Lemma 2 held."""
        return (
            self.observer_view_preserved
            and self.values_delivered
            and self.no_foreign_values
            and self.residual_capacity
        )


def verify_surgery(
    original: Run,
    result: SurgeryResult,
    protocol=None,
    t: Optional[int] = None,
) -> SurgeryCheck:
    """Re-simulate the surgered adversary and check Lemma 2's guarantees.

    The bare full-information exchange is re-simulated on the copy-on-write
    layer chain.  Passing a ``protocol`` re-runs the surgered adversary
    under it instead, including its early stopping.  The guarantees are
    those of :func:`check_surgery`.
    """
    from ..engine.views import LayerViews

    t = original.t if t is None else t
    horizon = max(original.horizon, result.time)
    if protocol is None:
        surgered = LayerViews(result.adversary, t, horizon)
    else:
        surgered = Run(protocol, result.adversary, t, horizon=horizon)
    return check_surgery(original, result, surgered)


def check_surgery(original: Run, result: SurgeryResult, surgered) -> SurgeryCheck:
    """Check Lemma 2's guarantees on an already re-simulated surgered run.

    Checks, with ``r`` the original run and ``r'`` the surgered one:

    * ``r'_i(m) = r_i(m)`` — the observer cannot tell the runs apart;
    * ``values[b] ∈ Vals<i^ℓ_b, ℓ>`` for every chain ``b`` and layer ``ℓ``;
    * ``Vals<i^ℓ_b, ℓ> \\ {values[b]} ⊆ Vals<i, ℓ>``;
    * ``HC<i^ℓ_b, ℓ> >= c - 1`` for every chain ``b`` and layer ``ℓ``.

    ``surgered`` is anything with the ``view`` lookup surface (a ``Run`` or
    a :class:`repro.engine.LayerViews`).  Indistinguishability is asserted
    through the canonical ``view_key``, which is engine-agnostic.
    """
    observer, time = result.observer, result.time
    c = len(result.chains)

    view_preserved = view_key(surgered.view(observer, time)) == view_key(
        original.view(observer, time)
    )

    values_delivered = True
    no_foreign = True
    residual = True
    for b, chain in enumerate(result.chains):
        vb = result.values[b]
        for layer, w in enumerate(chain):
            witness_view = surgered.view(w, layer)
            if vb not in witness_view.values():
                values_delivered = False
            observer_view = surgered.view(observer, layer)
            if not (witness_view.values() - {vb}) <= observer_view.values():
                no_foreign = False
            if witness_view.hidden_capacity() < c - 1:
                residual = False
    return SurgeryCheck(
        observer_view_preserved=view_preserved,
        values_delivered=values_delivered,
        no_foreign_values=no_foreign,
        residual_capacity=residual,
    )
