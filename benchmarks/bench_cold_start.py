"""COLD START — engineering benchmark: what a fresh interpreter pays to import each entry point.

Every ``repro`` CLI call, job runner and perfbench set-up probe is a
short-lived process that starts by
importing the package, so import time and import memory are paid once per
process.  For each entry point this benchmark starts :data:`REPEATS` fresh
interpreters and records

* ``import_seconds`` — the median wall time of the imports themselves,
  timed inside the child;
* ``process_seconds`` — the median wall time of the whole child process,
  interpreter start-up and exit included, timed from outside;
* ``max_rss_kb`` — the median of the child's own peak RSS after the
  imports: ``VmHWM`` from ``/proc/self/status`` where there is one, since
  Linux's ``ru_maxrss`` carries over the parent's peak across ``exec``
  (a child of a 30 MB pytest process would report at least 30 MB), and
  ``ru_maxrss`` elsewhere.

It asserts, for every child, that none of :data:`FORBIDDEN_AT_IMPORT` was
loaded: production is stdlib-only at import, networkx (the optional graph
export) and the HTTP front end's asyncio and ``urllib.request`` load on
first use.  The timings are recorded, not gated (``BENCH_cold_start.json``;
``compare_bench.py`` diffs its ``*_seconds`` leaves).  The last row runs
``repro --help`` end to end.

Run it as ``python -m pytest benchmarks/bench_cold_start.py -q -s``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from conftest import print_table, record_benchmark

#: Fresh interpreters per entry point.
REPEATS = 7

#: The entry points, each imported alone in a fresh interpreter.
ENTRY_POINTS = (
    ("repro",),
    ("repro.core", "repro.verification.checker"),
    ("repro.topology.protocol_complex",),
    ("repro.service", "repro.store"),
    ("repro.cli",),
)

#: Modules no entry point may load at import.
FORBIDDEN_AT_IMPORT = ("numpy", "networkx", "sympy", "asyncio", "urllib.request")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import contextlib, io, json, resource, sys, time
start = time.perf_counter()
{body}
elapsed = time.perf_counter() - start
loaded = [name for name in {forbidden!r} if name in sys.modules]
try:
    with open("/proc/self/status") as status:
        rss = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss //= 1024 if sys.platform == "darwin" else 1
print(json.dumps({{"import_seconds": elapsed, "max_rss_kb": rss, "loaded": loaded}}))
"""

#: ``repro --help``: import the CLI and print its usage, as the console script does.
_HELP = """
import repro.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    repro.cli.main(["--help"])
"""


def _probe(body: str) -> dict:
    code = _PROBE.format(body=body, forbidden=FORBIDDEN_AT_IMPORT)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    sample = json.loads(result.stdout.splitlines()[-1])
    sample["process_seconds"] = time.perf_counter() - start
    return sample


def _row(name: str, body: str) -> dict:
    samples = [_probe(body) for _ in range(REPEATS)]
    for sample in samples:
        assert not sample["loaded"], f"{name} loaded {sample['loaded']} at import"
    return {
        "name": name,
        "import_seconds": statistics.median(s["import_seconds"] for s in samples),
        "process_seconds": statistics.median(s["process_seconds"] for s in samples),
        "max_rss_kb": statistics.median(s["max_rss_kb"] for s in samples),
    }


def test_cold_start():
    rows = [_row(" + ".join(modules), f"import {', '.join(modules)}") for modules in ENTRY_POINTS]
    rows.append(_row("repro --help", _HELP))
    print_table(
        f"Cold start: median of {REPEATS} fresh interpreters",
        ["entry point", "import s", "process s", "max RSS MB"],
        [
            [
                row["name"],
                f"{row['import_seconds']:.3f}",
                f"{row['process_seconds']:.3f}",
                f"{row['max_rss_kb'] / 1024:.1f}",
            ]
            for row in rows
        ],
    )
    record_benchmark(
        "cold_start",
        {"repeats": REPEATS, "forbidden_at_import": list(FORBIDDEN_AT_IMPORT), "entry_points": rows},
    )
