"""Plain-text rendering of runs, comparison tables and benchmark output.

The benchmark harness prints paper-style tables (one row per protocol or per
parameter setting) and the examples render runs in the style of the paper's
figures (one row per process, one column per time, with crash and decision
annotations).  Everything here is dependency-free string formatting.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..model.run import Run
from ..model.types import Time


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    columns = len(headers)
    normalised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[c])), *(len(row[c]) for row in normalised)) if normalised else len(str(headers[c]))
        for c in range(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(headers[c]).ljust(widths[c]) for c in range(columns))
    lines.append(header_line)
    lines.append("-+-".join("-" * widths[c] for c in range(columns)))
    for row in normalised:
        lines.append(" | ".join(row[c].ljust(widths[c]) for c in range(columns)))
    return "\n".join(lines)


def render_run(run: Run, max_time: Optional[Time] = None) -> str:
    """Render a run in the style of the paper's figures.

    One row per process, one column per time.  Each cell shows the minimal
    value the process has seen at that time; a ``†`` marks the round in which
    the process crashes, ``*v`` marks a decision on value ``v``, and ``·``
    marks times after the crash.
    """
    pattern = run.adversary.pattern
    horizon = run.horizon if max_time is None else min(max_time, run.horizon)
    headers = ["process"] + [f"t={m}" for m in range(horizon + 1)]
    rows: List[List[str]] = []
    for process in range(run.n):
        row = [f"p{process}" + ("" if not pattern.is_faulty(process) else " (faulty)")]
        decision = run.decision(process)
        for time in range(horizon + 1):
            if not run.has_view(process, time):
                crash_round = pattern.crash_round(process)
                row.append("†" if crash_round == time else "·")
                continue
            cell = str(run.view(process, time).min_value())
            if decision is not None and decision.time == time:
                cell += f" *{decision.value}"
            row.append(cell)
        rows.append(row)
    return format_table(headers, rows, title=f"run of {getattr(run.protocol, 'name', 'fip')}")


def statistics_report(stats: Mapping[str, object]) -> str:
    """Render a mapping of :class:`repro.analysis.decision_times.ProtocolStatistics`."""
    headers = ["protocol", "runs", "mean", "worst", "undecided", "bound violations"]
    rows = []
    for name, entry in stats.items():
        rows.append(
            [
                name,
                entry.runs,
                f"{entry.mean_time:.2f}",
                entry.worst_time,
                entry.undecided_runs,
                entry.bound_violations,
            ]
        )
    return format_table(headers, rows, title="decision-time statistics")
