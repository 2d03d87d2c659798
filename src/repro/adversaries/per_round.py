"""The "at most ``k`` crashes per round" family as a sized, lazy sequence.

Proposition 2's protocol complexes are built over the adversary family of
the topological lower-bound literature ([15, 22]): every failure pattern
with at most ``k`` crashes in each of ``m`` rounds and at most
``max_failures`` in all, under one fixed input vector.  The family is a
tree.  A node is a round together with the processes still up before it;
its children are that round's *crash options*, each a set of at most ``k``
of those processes crashing, with one receiver set per crasher for its
crashing-round message.  Members are the leaves, in depth-first order.

:class:`PerRoundCrashFamily` describes the family by that tree alone.  The
options of a node are generated once per (processes up, round) and grouped
into blocks by crash count.  Every option of a block roots a subtree of the
same size, which depends only on the round and on how many processes are
up, so ``len()`` is a closed form and ``family[i]`` unranks in a few steps
per round; a slice is a list of members.  Consumers that only need the
tree, like the protocol-complex walk of
:func:`repro.engine.fused.run_facets_pass`, read
:meth:`PerRoundCrashFamily.branches` and never build one
:class:`Adversary` per member.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from typing import Dict, Iterator, List, Tuple

from ..model.adversary import Adversary
from ..model.failure_pattern import CrashEvent, FailurePattern
from ..model.types import ProcessId, Round, Value, validate_crash_bound
from .enumeration import _receiver_subsets

#: The receiver policies of :func:`repro.adversaries.enumerate_failure_patterns`.
RECEIVER_POLICIES = ("none", "canonical", "all")

#: One crash option of a round: its crash events (sorted by process) and the
#: processes still up after it.
CrashOption = Tuple[Tuple[CrashEvent, ...], Tuple[ProcessId, ...]]

#: The options of one node with one crash count, after the number of members
#: below each of them.
OptionBlock = Tuple[int, List[CrashOption]]


class PerRoundCrashFamily(Sequence):
    """Adversaries with at most ``max_crashes_per_round`` crashes in each round.

    Members are ``Adversary(values, pattern)`` for every failure pattern over
    ``rounds`` rounds with at most ``max_crashes_per_round`` crashes per
    round and at most ``max_failures`` (default ``n - 1``) in all, in
    depth-first order of the crash-option tree: fewer crashers first, then
    crasher sets in lexicographic order, then receiver sets in
    ``receiver_policy`` order (the order of
    :func:`repro.adversaries.enumerate_failure_patterns`).  The parameters
    and the input vector are validated once, here, with the errors
    :class:`Adversary` and :class:`FailurePattern` would raise.
    """

    __slots__ = (
        "n",
        "rounds",
        "max_crashes_per_round",
        "receiver_policy",
        "max_failures",
        "values",
        "size",
        "_receivers",
        "_options",
        "_sizes",
        "_runs",
    )

    def __init__(
        self,
        n: int,
        rounds: int,
        max_crashes_per_round: int,
        values: Sequence[Value],
        receiver_policy: str = "canonical",
        max_failures: int | None = None,
    ) -> None:
        max_failures = n - 1 if max_failures is None else max_failures
        validate_crash_bound(n, max_failures)
        if rounds < 0:
            raise ValueError(f"the round count must be >= 0, got {rounds}")
        if max_crashes_per_round < 0:
            raise ValueError(
                f"the per-round crash cap must be >= 0, got {max_crashes_per_round}"
            )
        if receiver_policy not in RECEIVER_POLICIES:
            raise ValueError(f"unknown receiver policy {receiver_policy!r}")
        values = tuple(int(v) for v in values)
        if len(values) != n:
            raise ValueError(
                f"input vector has {len(values)} entries but the failure pattern has n={n}"
            )
        if any(v < 0 for v in values):
            raise ValueError(f"initial values must be non-negative, got {values}")
        self.n = n
        self.rounds = rounds
        self.max_crashes_per_round = max_crashes_per_round
        self.receiver_policy = receiver_policy
        self.max_failures = max_failures
        self.values = values
        self._receivers = [list(_receiver_subsets(n, p, receiver_policy)) for p in range(n)]
        #: (processes up, round) -> that node's option blocks.
        self._options: Dict[Tuple[Tuple[ProcessId, ...], Round], List[OptionBlock]] = {}
        #: (round, number of processes up) -> members below such a node.
        self._sizes: Dict[Tuple[Round, int], int] = {}
        #: Processes up -> crashing runs by length (:meth:`_crashing_runs`).
        self._runs = self._crashing_runs()
        #: The member count (``len()``, which cannot exceed a machine word).
        self.size = self._subtree(1, n)

    # ------------------------------------------------------------ the tree
    def _crash_counts(self, up: int) -> range:
        """How many of ``up`` processes one round may crash."""
        crashed = self.n - up
        return range(min(self.max_crashes_per_round, up, self.max_failures - crashed) + 1)

    def _crashing_runs(self) -> Dict[int, List[int]]:
        """Processes up -> entry ``j``: the sequences of ``j`` crash options that
        each crash someone, starting with that many processes up."""
        choices = len(self._receivers[0])
        floor = self.n - self.max_failures
        runs: Dict[int, List[int]] = {}
        for up in range(floor, self.n + 1):
            counts = range(1, len(self._crash_counts(up)))
            # Each crashing option takes someone down: at most up - floor of them.
            runs[up] = [1] + [
                sum(
                    math.comb(up, count) * choices**count * runs[up - count][j]
                    for count in counts
                    if j < len(runs[up - count])
                )
                for j in range(up - floor)
            ]
        return runs

    def _subtree(self, round_: Round, up: int) -> int:
        """Members below a node that picks round ``round_``'s crashes with ``up`` processes up.

        Such a member crashes someone in ``j`` of the ``R`` rounds left and
        no one in the others: ``C(R, j)`` ways to place those rounds times
        the ``j``-option crashing runs to fill them.  A closed form in ``R``,
        so sizing a family costs nothing per round.
        """
        size = self._sizes.get((round_, up))
        if size is None:
            left = max(0, self.rounds - round_ + 1)
            size = self._sizes[(round_, up)] = sum(
                math.comb(left, j) * runs for j, runs in enumerate(self._runs[up])
            )
        return size

    def options(self, up: Tuple[ProcessId, ...], round_: Round) -> List[OptionBlock]:
        """Round ``round_``'s crash options with processes ``up``, one block per crash count."""
        blocks = self._options.get((up, round_))
        if blocks is None:
            blocks = self._options[(up, round_)] = []
            for count in self._crash_counts(len(up)):
                block: List[CrashOption] = []
                for crashers in itertools.combinations(up, count):
                    rest = tuple(p for p in up if p not in crashers)
                    for receivers in itertools.product(*(self._receivers[p] for p in crashers)):
                        events = tuple(
                            CrashEvent(p, round_, r) for p, r in zip(crashers, receivers)
                        )
                        block.append((events, rest))
                blocks.append((self._subtree(round_ + 1, len(up) - count), block))
        return blocks

    def branches(
        self, up: Tuple[ProcessId, ...], round_: Round, first: int
    ) -> Iterator[Tuple[int, Tuple[CrashEvent, ...], Tuple[ProcessId, ...]]]:
        """The options of one node, in order.

        ``first`` is the position of the node's first member; each option
        comes as ``(position of its first member, events, processes up
        after it)``.
        """
        for size, block in self.options(up, round_):
            for q, (events, rest) in enumerate(block):
                yield first + q * size, events, rest
            first += size * len(block)

    def check_crash_bound(self, t: int) -> None:
        """Raise unless every pattern of the family is in ``Crash(t)``.

        The check :func:`repro.engine.prepare_adversaries` makes member by
        member, made once for the whole family: its largest patterns crash
        the cap in every round until ``max_failures`` is reached.
        """
        validate_crash_bound(self.n, t)
        most = min(self.max_failures, self.rounds * self.max_crashes_per_round)
        if most > t:
            raise ValueError(
                f"the family has patterns with {most} crashes, exceeding the bound t={t}"
            )

    # ------------------------------------------------------------ members
    def patterns(self) -> Iterator[FailurePattern]:
        """The failure patterns of the members, in member order.

        The tree is walked depth first with an explicit stack (entry ``r - 1``
        branches round ``r``), not one Python frame per round.
        """
        n, rounds = self.n, self.rounds

        def walk():
            if not rounds:
                yield FailurePattern(n, ())
                return
            stack = [((), self.branches(tuple(range(n)), 1, 0))]
            while stack:
                events, branches = stack[-1]
                branch = next(branches, None)
                if branch is None:
                    stack.pop()
                    continue
                position, more, rest = branch
                if len(stack) < rounds:
                    stack.append((events + more, self.branches(rest, len(stack) + 1, position)))
                else:
                    yield FailurePattern(n, events + more)

        return walk()

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Adversary]:
        values = self.values
        return (Adversary(values, pattern) for pattern in self.patterns())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"family index {index} out of range for {len(self)} members")
        up, events = tuple(range(self.n)), ()
        for round_ in range(1, self.rounds + 1):
            for size, block in self.options(up, round_):
                span = size * len(block)
                if index < span:
                    q, index = divmod(index, size)
                    more, up = block[q]
                    events += more
                    break
                index -= span
        return Adversary(self.values, FailurePattern(self.n, events))
