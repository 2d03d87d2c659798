"""Fundamental types for the synchronous crash-failure message-passing model.

The paper's model (Section 2.1) has ``n >= 2`` processes ``Procs = {1..n}`` that
communicate in lock-step rounds over a complete network.  Round ``m+1`` takes
place between time ``m`` and time ``m+1``.  We index processes ``0..n-1`` in
code (the paper uses ``1..n``); everything else follows the paper verbatim.

This module defines light-weight value objects shared by every other module:

* :class:`ProcessTimeNode` — the node ``<i, m>`` (process ``i`` at time ``m``).
* :class:`Decision` — a decision event (process, value, time).
* :data:`UNDECIDED` — sentinel for "no decision yet", the paper's ``⊥``.
* Type aliases :data:`ProcessId`, :data:`Time`, :data:`Value`, :data:`Round`.

All objects in this module are immutable and hashable so they can be used as
dictionary keys, set members, and elements of frozen adversary descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

# A process identifier: 0-based, in ``range(n)``.
ProcessId = int

# A global-clock time, ``m >= 0``.  Time ``m`` is the boundary between round
# ``m`` and round ``m+1``.
Time = int

# A communication round, ``>= 1``.  Round ``m`` spans times ``m-1 .. m``.
Round = int

# An initial/decision value.  The paper uses ``{0, .., k}`` by default and
# notes (Footnote 4) that any ``{0, .., d}`` with ``d >= k`` works unchanged.
Value = int

#: Sentinel used for "this process has not decided" (the paper's ``⊥``).
UNDECIDED: Final = None


@dataclass(frozen=True, order=True)
class ProcessTimeNode:
    """The process-time node ``<i, m>`` of the layered communication graph.

    The paper (Section 2.1) reasons about the state and behaviour of processes
    at nodes ``<i, m>``: process ``i`` at time ``m``.  Failure patterns, views,
    hidden-node classification and hidden capacity are all phrased in terms of
    such nodes.
    """

    process: ProcessId
    time: Time

    def __post_init__(self) -> None:
        if self.process < 0:
            raise ValueError(f"process id must be non-negative, got {self.process}")
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.process},{self.time}>"


@dataclass(frozen=True, order=True)
class Decision:
    """A decision event: ``process`` decided ``value`` at ``time``.

    Decision events are produced by the run engine (:mod:`repro.model.run`)
    and consumed by the property checkers and the decision-time analyses.
    """

    process: ProcessId
    value: Value
    time: Time

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"decide({self.value}) by p{self.process} at t={self.time}"


def validate_system_size(n: int) -> None:
    """Validate the number of processes (the paper requires ``n >= 2``)."""
    if n < 2:
        raise ValueError(f"the model requires at least 2 processes, got n={n}")


def validate_crash_bound(n: int, t: int) -> None:
    """Validate the a-priori crash bound ``t`` (the paper requires ``t <= n-1``)."""
    validate_system_size(n)
    if not 0 <= t <= n - 1:
        raise ValueError(f"the crash bound must satisfy 0 <= t <= n-1, got t={t}, n={n}")


def validate_value_domain(k: int, max_value: int | None = None) -> int:
    """Validate and resolve the value domain ``{0..d}`` for ``k``-set consensus.

    Parameters
    ----------
    k:
        The agreement parameter; must be ``>= 1``.
    max_value:
        The largest allowed initial value ``d``.  Defaults to ``k`` (the
        paper's convention); any ``d >= k`` is accepted (Footnote 4).

    Returns
    -------
    int
        The resolved ``d``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got k={k}")
    d = k if max_value is None else max_value
    if d < k:
        raise ValueError(f"the value domain {{0..d}} must have d >= k, got d={d}, k={k}")
    return d
