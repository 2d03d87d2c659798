"""The communication-efficient implementation of Appendix E (compact messages, bit accounting)."""

from .compact import (
    CompactComparison,
    CompactMessage,
    CompactSimulation,
    compare_compact_to_fip,
    nlogn_bound,
)

__all__ = [
    "CompactComparison",
    "CompactMessage",
    "CompactSimulation",
    "compare_compact_to_fip",
    "nlogn_bound",
]
