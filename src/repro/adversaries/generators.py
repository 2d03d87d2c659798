"""Random and structured adversary generators.

The benchmarks and property tests need large families of adversaries
``α = (v⃗, F)`` drawn from a context ``γ = (n, t, k)``.  This module provides:

* :class:`AdversaryGenerator` — a seeded random generator over a context,
  with knobs controlling how adversarial the failure patterns are (how many
  crashes, how they spread over rounds, how selective the crashing-round
  deliveries are);
* :func:`crash_chain_events` — the "hidden chain" building block: a
  sequence of processes each crashing one round after the other, every crash
  delivering only to the next process in the chain (the pattern behind
  Figs. 1 and 2 and behind every lower-bound construction in this area).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ..model.adversary import Adversary, Context
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.types import ProcessId, Round, Value


class AdversaryGenerator:
    """A seeded random adversary generator for a fixed context.

    Parameters
    ----------
    context:
        The context ``γ`` to draw adversaries from.
    seed:
        Seed for the private :class:`random.Random` instance (generation is
        fully deterministic given the seed).
    max_crash_round:
        Crashes are placed in rounds ``1 .. max_crash_round`` (so it must be
        ``>= 1`` when given).  Defaults to the context's worst-case horizon,
        which is where crashes can still influence decisions.
    """

    def __init__(
        self,
        context: Context,
        seed: int = 0,
        max_crash_round: Optional[int] = None,
    ) -> None:
        if max_crash_round is not None and max_crash_round < 1:
            # This generator *places* crashes, so it needs at least round 1;
            # a falsy 0 used to be silently coerced to the horizon instead.
            raise ValueError(
                f"max_crash_round must be >= 1 (got {max_crash_round}); "
                f"sample a failure-free space with random_adversary(num_failures=0)"
            )
        self._context = context
        self._rng = random.Random(seed)
        self._max_crash_round = (
            context.horizon() if max_crash_round is None else max_crash_round
        )

    @property
    def context(self) -> Context:
        """The context adversaries are drawn from."""
        return self._context

    # ----------------------------------------------------------------- parts
    def random_values(self) -> Tuple[Value, ...]:
        """A uniformly random input vector over the context's value domain."""
        domain = list(self._context.values_domain)
        return tuple(self._rng.choice(domain) for _ in range(self._context.n))

    def random_pattern(self, num_failures: Optional[int] = None) -> FailurePattern:
        """A random failure pattern with ``num_failures`` crashes (random if ``None``)."""
        n, t = self._context.n, self._context.t
        if num_failures is None:
            num_failures = self._rng.randint(0, t)
        if not 0 <= num_failures <= t:
            raise ValueError(f"num_failures must be in 0..{t}, got {num_failures}")
        faulty = self._rng.sample(range(n), num_failures)
        events = []
        for p in faulty:
            round_ = self._rng.randint(1, self._max_crash_round)
            others = [q for q in range(n) if q != p]
            # Bias towards highly selective deliveries: those are the patterns
            # that keep nodes hidden and therefore stress the protocols most.
            mode = self._rng.random()
            if mode < 0.35:
                receivers: List[ProcessId] = []
            elif mode < 0.70:
                receivers = self._rng.sample(others, self._rng.randint(1, max(1, len(others) // 2)))
            elif mode < 0.85:
                receivers = self._rng.sample(others, self._rng.randint(1, len(others)))
            else:
                receivers = others
            events.append(CrashEvent(p, round_, frozenset(receivers)))
        return FailurePattern(n, events)

    # ------------------------------------------------------------- adversaries
    def random_adversary(self, num_failures: Optional[int] = None) -> Adversary:
        """A random adversary from the context."""
        adversary = Adversary(self.random_values(), self.random_pattern(num_failures))
        self._context.validate(adversary)
        return adversary

    def sample(self, count: int, num_failures: Optional[int] = None) -> List[Adversary]:
        """A list of ``count`` random adversaries."""
        return [self.random_adversary(num_failures) for _ in range(count)]

    def stream(self, num_failures: Optional[int] = None) -> Iterator[Adversary]:
        """An infinite stream of random adversaries."""
        while True:
            yield self.random_adversary(num_failures)


def crash_chain_events(
    chain: Sequence[ProcessId],
    first_round: Round = 1,
) -> List[CrashEvent]:
    """Crash events for a "hidden chain": each member delivers only to the next one.

    ``chain[0]`` crashes in ``first_round`` delivering only to ``chain[1]``,
    ``chain[1]`` crashes in ``first_round + 1`` delivering only to
    ``chain[2]``, and so on.  The last member of the chain does not crash.
    """
    events = []
    for idx in range(len(chain) - 1):
        events.append(
            CrashEvent(chain[idx], first_round + idx, frozenset({chain[idx + 1]}))
        )
    return events

