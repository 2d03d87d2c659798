"""The synchronous crash-failure message-passing substrate (paper, Section 2.1).

Public surface:

* :class:`repro.model.types.ProcessTimeNode`, :class:`repro.model.types.Decision`
* :class:`repro.model.failure_pattern.CrashEvent`, :class:`repro.model.failure_pattern.FailurePattern`
* :class:`repro.model.adversary.Adversary`, :class:`repro.model.adversary.Context`
* :class:`repro.model.view.View`, :func:`repro.model.view.view_key`
* :class:`repro.model.run.Run`, :func:`repro.model.run.execute`

The from-first-principles view (graph reachability over ``<i, m>`` nodes)
that pins the run engine's views is a test fixture:
:func:`repro.oracles.seen_nodes` / :func:`repro.oracles.latest_seen_per_process`.
"""

from .adversary import Adversary, Context
from .failure_pattern import CrashEvent, FailurePattern
from .run import RoundContext, Run, execute
from .types import Decision, ProcessId, ProcessTimeNode, Round, Time, Value
from .view import NEVER_SEEN, NO_EVIDENCE, View, view_key

__all__ = [
    "Adversary",
    "Context",
    "CrashEvent",
    "Decision",
    "FailurePattern",
    "NEVER_SEEN",
    "NO_EVIDENCE",
    "ProcessId",
    "ProcessTimeNode",
    "Round",
    "RoundContext",
    "Run",
    "Time",
    "Value",
    "View",
    "execute",
    "view_key",
]
