"""Adversaries: the pair ``α = (v⃗, F)`` of input vector and failure pattern.

The paper (Section 2.1) treats the input vector and the failure pattern as
being determined by an external scheduler; the pair is called an *adversary*.
A protocol ``P`` and an adversary ``α`` uniquely determine a run ``P[α]``.

A *context* ``γ = (V⃗, F)`` is a set of adversaries — in this library a
:class:`Context` records the system size ``n``, the crash bound ``t``, the
agreement parameter ``k`` and the value domain, and can validate that an
adversary belongs to it.  Contexts are what the domination and unbeatability
definitions (Definitions 1 and 6) quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .failure_pattern import FailurePattern
from .types import (
    ProcessId,
    Value,
    validate_crash_bound,
    validate_value_domain,
)


class Adversary:
    """An adversary ``α = (v⃗, F)``.

    Attributes
    ----------
    values:
        The input vector ``v⃗ = (v_0, .., v_{n-1})``.
    pattern:
        The failure pattern ``F``.
    """

    __slots__ = ("_values", "_pattern", "_hash")

    def __init__(self, values: Sequence[Value], pattern: FailurePattern) -> None:
        values = self.checked_values(values, pattern.n)
        self._values: Tuple[Value, ...] = values
        self._pattern = pattern
        self._hash = hash((values, pattern))

    @staticmethod
    def checked_values(values: Sequence[Value], n: int) -> Tuple[Value, ...]:
        """``values`` as an input vector of ``n`` processes, or ``ValueError``.

        The checks the constructor makes: ``n`` entries, non-negative ints.
        """
        values = tuple(map(int, values))
        if len(values) != n:
            raise ValueError(
                f"input vector has {len(values)} entries but the failure pattern has n={n}"
            )
        if min(values) < 0:
            raise ValueError(f"initial values must be non-negative, got {values}")
        return values

    @classmethod
    def trusted(cls, values: Tuple[Value, ...], pattern: FailurePattern) -> "Adversary":
        """The adversary ``(values, pattern)``, with no check of ``values``.

        ``values`` must be a result of :meth:`checked_values` for
        ``pattern.n``: the orbit enumerator checks each of its vectors once
        and reuses it for every pattern of the same stabiliser shape.
        """
        adversary = cls.__new__(cls)
        adversary._values = values
        adversary._pattern = pattern
        adversary._hash = hash((values, pattern))
        return adversary

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        """Number of processes."""
        return self._pattern.n

    @property
    def values(self) -> Tuple[Value, ...]:
        """The input vector ``v⃗``."""
        return self._values

    @property
    def pattern(self) -> FailurePattern:
        """The failure pattern ``F``."""
        return self._pattern

    @property
    def num_failures(self) -> int:
        """``f``: the number of crashes in this adversary's failure pattern."""
        return self._pattern.num_failures

    def initial_value(self, process: ProcessId) -> Value:
        """The initial value of ``process``."""
        return self._values[process]

    def value_set(self) -> frozenset[Value]:
        """The set of initial values present in the run (``∃v`` facts)."""
        return frozenset(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Adversary):
            return NotImplemented
        return self._values == other._values and self._pattern == other._pattern

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Adversary(values={list(self._values)}, pattern={self._pattern!r})"

    # --------------------------------------------------------------- variants
    def with_values(self, values: Sequence[Value]) -> "Adversary":
        """A copy of this adversary with a different input vector."""
        return Adversary(values, self._pattern)

    def with_pattern(self, pattern: FailurePattern) -> "Adversary":
        """A copy of this adversary with a different failure pattern."""
        return Adversary(self._values, pattern)

    @staticmethod
    def failure_free(values: Sequence[Value]) -> "Adversary":
        """The failure-free adversary with the given input vector."""
        return Adversary(values, FailurePattern.failure_free(len(values)))


@dataclass(frozen=True)
class Context:
    """A context ``γ``: the family of adversaries a protocol is run against.

    Attributes
    ----------
    n:
        Number of processes.
    t:
        A-priori bound on the number of crashes (``0 <= t <= n-1``).
    k:
        The set-consensus agreement parameter.
    max_value:
        The largest allowed initial value ``d`` (default ``k``; Footnote 4
        allows any ``d >= k``).
    """

    n: int
    t: int
    k: int
    max_value: int | None = None

    def __post_init__(self) -> None:
        validate_crash_bound(self.n, self.t)
        d = validate_value_domain(self.k, self.max_value)
        object.__setattr__(self, "max_value", d)

    @property
    def values_domain(self) -> range:
        """The admissible initial values ``{0 .. d}``."""
        return range(self.max_value + 1)

    def validate(self, adversary: Adversary) -> None:
        """Raise unless ``adversary`` belongs to this context."""
        if adversary.n != self.n:
            raise ValueError(f"adversary has n={adversary.n}, context expects n={self.n}")
        adversary.pattern.check_crash_bound(self.t)
        bad = [v for v in adversary.values if v not in self.values_domain]
        if bad:
            raise ValueError(
                f"adversary uses values {sorted(set(bad))} outside the domain 0..{self.max_value}"
            )

    def admits(self, adversary: Adversary) -> bool:
        """Whether ``adversary`` belongs to this context."""
        try:
            self.validate(adversary)
        except ValueError:
            return False
        return True

    def worst_case_nonuniform_bound(self, f: int | None = None) -> int:
        """The nonuniform decision-time bound ``⌊f/k⌋ + 1`` (Proposition 1)."""
        f = self.t if f is None else f
        return f // self.k + 1

    def worst_case_uniform_bound(self, f: int | None = None) -> int:
        """The uniform decision-time bound ``min(⌊t/k⌋+1, ⌊f/k⌋+2)`` (Theorem 3)."""
        f = self.t if f is None else f
        return min(self.t // self.k + 1, f // self.k + 2)

    def horizon(self) -> int:
        """A safe simulation horizon: no protocol in this library decides later."""
        return max(self.t + 2, self.t // self.k + 2, 2)


def check_adversaries(context: Context, adversaries: Iterable[Adversary]) -> None:
    """Validate a whole collection of adversaries against a context."""
    for adversary in adversaries:
        context.validate(adversary)
