"""Hidden capacity, disjoint hidden chains and epistemic operators.

The combinatorial layer between the raw model (:mod:`repro.model`) and the
protocols (:mod:`repro.core`): everything the paper builds on views — hidden
capacity and its witnesses (Definition 2), the disjoint hidden chains Lemma 2
turns into crash chains, and knowledge over systems of runs (Appendix A).
"""

from .hidden import (
    classify_layer,
    disjoint_hidden_chains,
    hidden_capacity,
    witness_matrix,
)
from .operators import (
    Fact,
    FamilyRun,
    System,
    at_most_low_values_decided,
    exists_value,
    knowledge_of_precondition_holds,
    no_correct_process_decides,
    value_persists,
)

__all__ = [
    "Fact",
    "FamilyRun",
    "System",
    "at_most_low_values_decided",
    "classify_layer",
    "disjoint_hidden_chains",
    "exists_value",
    "hidden_capacity",
    "knowledge_of_precondition_holds",
    "no_correct_process_decides",
    "value_persists",
    "witness_matrix",
]
