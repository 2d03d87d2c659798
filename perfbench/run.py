"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-n6 --seed 1 --seconds 10 --trace 0

Workloads (``workloads.py``): ``sweep-n6`` (Optmin[2] checker sweep),
``census-n6m2`` (protocol-complex build plus Prop 2 census) and
``jobs-mixed`` (cold, store-warm and duplicate jobs through the job queue);
``--workload all`` runs the three in turn, each in its own process.
Iterations repeat, serially in this one process, until ``--seconds`` have
passed (at least one runs).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates traced and untraced
iterations, starting with a traced one so that its per-stage peak-RSS
samples see a fresh process, and reports the per-layer metrics.  Every
output is checked against ``goldens.json``; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload: str, scratch: str) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, scratch],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_iteration(workload, tracer):
    """One iteration; traced, its ``counts`` gain the tracer's per-layer counts."""
    from layers import derive, install
    from workloads import Iteration

    state = workload.fresh()
    try:
        if tracer is None:
            return workload.run(state, None)
        tracer.begin_run()
        patches = install(tracer)
        frame = tracer.enter()
        try:
            iteration = workload.run(state, tracer)
        finally:
            tracer.leave(frame, "bench.iteration")
            patches.restore()
        iteration.counts.update(tracer.end_run())
        iteration.counts.update(derive(iteration.counts))
        problems = workload.traced_invariants(iteration.counts)
        iteration.expect(not problems, "; ".join(problems))
        return iteration
    except Exception:  # a crashed iteration is a failed operation, not a crashed run
        traceback.print_exc()
        return Iteration(0.0, 0, attempted=1, failed=1, problems=["iteration raised"])
    finally:
        workload.close(state)
        gc.collect()


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(names, traced: List, untraced: List) -> Dict[str, float]:
    """Medians over traced iterations; peak-RSS samples from the first one."""
    values: Dict[str, float] = {}
    for name in names:
        if name.startswith("jobs."):
            values[name] = median([it.phases.get(name, 0.0) for it in untraced])
        elif name.endswith(".peak_rss_mb"):
            values[name] = traced[0].counts.get(name, 0.0) if traced else 0.0
        else:
            values[name] = median([it.counts.get(name, 0.0) for it in traced])
    values["trace.wall_s"] = median([it.counts.get("bench.iteration.s", 0.0) for it in traced])
    values["trace.leftover_s"] = median(
        [sum(v for k, v in it.counts.items() if k.startswith("bench.") and k.endswith(".self_s")) for it in traced]
    )
    values["trace.overhead_s"] = median([it.wall_s for it in traced]) - median(
        [it.wall_s for it in untraced]
    )
    return {name: values[name] for name in names}


def self_time_table(traced: List) -> List[str]:
    """Median self time per span: the per-layer split of the traced wall time."""
    names = sorted({k[: -len(".self_s")] for it in traced for k in it.counts if k.endswith(".self_s")})
    rows = [(name, median([it.counts.get(name + ".self_s", 0.0) for it in traced])) for name in names]
    rows = sorted((row for row in rows if row[1]), key=lambda row: -row[1])
    wall = median([it.counts.get("bench.iteration.s", 0.0) for it in traced])
    lines = [f"  {'span':44s} {'self s':>9s}"]
    lines += [f"  {name:44s} {value:9.4f}" for name, value in rows]
    lines.append(f"  {'sum of self times':44s} {sum(v for _, v in rows):9.4f}")
    lines.append(f"  {'traced iteration wall':44s} {wall:9.4f}")
    return lines


def measure(args, bench: Dict, scratch: str):
    from spans import Tracer, peak_rss_mb
    from workloads import WORKLOADS

    setup = [time_setup(args.workload, scratch) for _ in range(SETUP_PROBES)]
    workload = WORKLOADS[args.workload](args.seed, scratch)
    problems = workload.invariants()

    tracer = Tracer() if args.trace else None
    traced: List = []
    untraced: List = []
    first_peak_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = args.trace and len(traced) <= len(untraced)
        iteration = run_iteration(workload, tracer if trace_this else None)
        (traced if trace_this else untraced).append(iteration)
        if first_peak_mb is None:
            # Later iterations add allocator slack to the high-water mark, so
            # the peak of one iteration in a fresh process is what is reported.
            first_peak_mb = peak_rss_mb()
        if time.perf_counter() >= deadline and (untraced and (traced or not args.trace)):
            break

    iterations = traced + untraced
    attempted = 1 + sum(it.attempted for it in iterations)
    failed = (1 if problems else 0) + sum(it.failed for it in iterations)
    for problem in problems + [p for it in iterations for p in it.problems]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    good = [it for it in untraced if not it.failed]
    e2e = {
        "wall_s": median([it.wall_s for it in good]),
        "members_per_s": median([it.members / it.wall_s for it in good if it.wall_s]),
        "peak_rss_mb": first_peak_mb,
        "setup_s": median(setup),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    report = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced, {len(traced)} traced iterations",
        f"  error_rate {failed / attempted:.4g} ({failed} failed of {attempted} attempted)",
    ]
    report += [f"  {name} {value:.6g} {units[name]}" for name, value in e2e.items()]
    report.append("  untraced iteration walls (s): " + " ".join(f"{it.wall_s:.3f}" for it in good))
    phases = sorted({k for it in untraced for k in it.phases})
    report += [
        f"  {name} {median([it.phases[name] for it in untraced]):.6g} {units[name]} "
        f"(median of {len(untraced)})"
        for name in phases
    ]
    if args.trace:
        metrics = per_layer_metrics([m["name"] for m in bench["per_layer"]], traced, untraced)
        report += self_time_table(traced)
        path = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.json")
        report.append(f"  {tracer.write(path)} spans written to {os.path.relpath(path, ROOT)}")
        report.append(
            f"  tracing overhead {metrics['trace.overhead_s']:.4f} s per iteration "
            f"(traced minus untraced wall_s)"
        )
    else:
        metrics = e2e
    print("\n".join(report))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        # Each workload in a fresh process, so each peak RSS is its own.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=workdir)
    try:
        result = measure(args, bench, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
