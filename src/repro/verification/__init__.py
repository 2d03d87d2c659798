"""Verification: specification checks, domination comparisons, unbeatability evidence."""

from .beatability import (
    BeatabilityWitness,
    EagerOptMin,
    beating_attempt_witness,
    demonstrate_unbeatability_mechanism,
    find_agreement_violation,
)
from .checker import CheckReport, check_protocol
from .domination import (
    DominationReport,
    compare_protocols,
    last_decider_compare,
)
from .properties import (
    Violation,
    check_agreement,
    check_decision,
    check_decision_times,
    check_nonuniform_run,
    check_run_for_protocol,
    check_uniform_agreement,
    check_uniform_run,
    check_validity,
    proposition1_bound,
    theorem3_bound,
)

__all__ = [
    "BeatabilityWitness",
    "CheckReport",
    "DominationReport",
    "EagerOptMin",
    "Violation",
    "beating_attempt_witness",
    "check_agreement",
    "check_decision",
    "check_decision_times",
    "check_nonuniform_run",
    "check_protocol",
    "check_run_for_protocol",
    "check_uniform_agreement",
    "check_uniform_run",
    "check_validity",
    "compare_protocols",
    "demonstrate_unbeatability_mechanism",
    "find_agreement_violation",
    "last_decider_compare",
    "proposition1_bound",
    "theorem3_bound",
]
