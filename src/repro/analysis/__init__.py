"""Analysis and reporting helpers used by the examples and the benchmark harness."""

from .decision_times import ProtocolStatistics, collect, speedup_table
from .reporting import format_table, render_run, statistics_report

__all__ = [
    "ProtocolStatistics",
    "collect",
    "format_table",
    "render_run",
    "speedup_table",
    "statistics_report",
]
