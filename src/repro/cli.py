"""Command-line interface: run, compare and reproduce without writing code.

Installed as the ``repro-set-consensus`` console script (also runnable as
``python -m repro.cli``).  Sub-commands:

* ``run``      — execute one protocol against a random or figure adversary and
  print the figure-style run rendering plus the specification check;
* ``compare``  — decision-time statistics and domination verdicts for several
  protocols over a random ensemble;
* ``sweep``    — exhaustively verify a protocol over the enumerated adversary
  space of a context on the batch engine; ``--symmetry constructive``
  sweeps one *generated* canonical representative per renaming orbit,
  which opens spaces whose full enumeration is intractable;
* ``count``    — pre-flight tractability guard: closed-form member count plus
  constructive pattern/adversary orbit counts for a restricted space,
  without enumerating it;
* ``figure4``  — regenerate the paper's headline uniform-consensus comparison
  for a chosen ``k`` and ``⌊t/k⌋``;
* ``surgery``  — apply the Lemma 2 surgery on the Fig. 2 adversary and print
  the verification outcome and the Lemma 3 confrontation;
* ``census``   — the Proposition 2 capacity-vs-connectivity census over the
  restricted protocol complex, with ``--symmetry quotient`` collapsing the
  survey to canonical vertex classes;
* ``serve``    — the survey service: a crash-safe job queue plus a stdlib
  async HTTP API (submit/status/result/cancel/events) over the resilient
  runtime; drains gracefully on SIGTERM/SIGINT (exit 130) or ``--deadline``
  (exit 3), leases released and checkpoints flushed (see docs/service.md);
* ``jobs``     — client for the service: submit/status/result/events/cancel/
  list, over HTTP (``--url``) or directly against the queue database
  (``--queue``).

``sweep`` and ``census`` always run on the :mod:`repro.runtime` runners;
the runtime flags only attach things to them (``--checkpoint DIR`` and
``--resume``: checkpointed batches; ``--deadline SECONDS``: a budget stop
at a batch boundary; ``--store PATH``: the durable cross-run result
store, administered by the ``store`` subcommand: ``inspect`` /
``verify`` / ``gc`` / ``export``); see ``docs/robustness.md`` and
``docs/store.md``.  Every subcommand runs its surveys in its own process,
with no worker pool.  Exit codes: 0 success,
1 verification failure, 2 usage error (a bad flag, or a parameter out of
range such as ``-t`` >= ``-n`` or ``-k 0``), 3 budget stop (resumable), 130
interrupted.

The CLI is a thin veneer over the library; every command prints exactly what
the corresponding example/benchmark computes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .adversaries import (
    AdversaryGenerator,
    figure1_scenario,
    figure2_scenario,
    figure4_scenario,
    lemma2_surgery,
    verify_surgery,
)
from .analysis import collect, render_run, statistics_report
from .baselines import EarlyDecidingKSet, FloodMin, UniformEarlyDecidingKSet
from .core import Opt0, OptMin, UOpt0, UPMin
from .model import Context, Run
from .service.specs import DEFAULT_ADMISSION_CEILING
from .verification import (
    check_run_for_protocol,
    compare_protocols,
    demonstrate_unbeatability_mechanism,
)

PROTOCOLS = {
    "optmin": lambda k: OptMin(k),
    "upmin": lambda k: UPMin(k),
    "opt0": lambda k: Opt0(),
    "uopt0": lambda k: UOpt0(),
    "floodmin": lambda k: FloodMin(k),
    "early": lambda k: EarlyDecidingKSet(k),
    "uearly": lambda k: UniformEarlyDecidingKSet(k),
}


def _protocol(name: str, k: int):
    try:
        return PROTOCOLS[name](k)
    except KeyError:
        raise SystemExit(f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}")


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with an out-of-range parameter a usage error.

    Contexts and scenarios reject parameters outside the paper's constraints
    with ``ValueError``; the CLI prints that constraint on one stderr line
    and exits 2, so exit 1 keeps meaning a failed verification.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        print(f"repro-set-consensus: error: {error}", file=sys.stderr)
        raise SystemExit(2)


def _add_context_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, default=7, help="number of processes (default 7)")
    parser.add_argument("-t", type=int, default=4, help="crash bound (default 4)")
    parser.add_argument("-k", type=int, default=2, help="agreement parameter (default 2)")
    parser.add_argument("--seed", type=int, default=0, help="adversary generator seed")


def _add_symmetry_argument(parser: argparse.ArgumentParser) -> None:
    from .symmetry import SYMMETRIES

    parser.add_argument(
        "--symmetry",
        default=SYMMETRIES[0],
        choices=list(SYMMETRIES),
        help="'quotient' sweeps one representative per process-renaming orbit "
        "(orbit-weighted reports; identical verdicts); 'constructive' "
        "generates the representatives directly from the space description "
        "(no full enumeration — use `count` to size a space first)",
    )


def _add_restriction_arguments(parser: argparse.ArgumentParser) -> None:
    """Space-restriction flags shared by ``sweep`` and ``count``."""
    parser.add_argument(
        "--max-crash-round", type=int, default=None, help="latest enumerated crash round"
    )
    parser.add_argument(
        "--receiver-policy",
        default="canonical",
        choices=["all", "canonical", "none"],
        help="crashing-round delivery subsets to enumerate",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, help="cap the number of crashes below t"
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume and budget flags shared by ``sweep`` and ``census``."""
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint directory: save resumable progress after every batch "
        "(atomic, checksummed, rotated writes) and enable --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest valid checkpoint in --checkpoint",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the run checkpoints and exits 3 (resumable)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="durable result store (SQLite): memoize verdicts/profiles/census "
        "rows across runs; corrupt rows self-heal, an unusable store degrades "
        "to pure compute (see docs/store.md)",
    )


def _run_attached(args: argparse.Namespace, survey, *positional, **options):
    """``survey(*positional, **options)`` with what the runtime flags attach.

    Returns ``(outcome, runtime summary lines, seconds)``, or ``None`` once
    an unusable checkpoint has been reported.  ``REPRO_FAULTS`` (a
    FaultPlan JSON document) activates deterministic fault injection on a
    real CLI run — the chaos CI job drives this.
    """
    from .runtime import CheckpointError, CheckpointStore, FaultPlan, RunReport

    faults = FaultPlan.from_env()
    events = RunReport()
    result_store = None
    if args.store is not None:
        from .store import ResultStore

        result_store = ResultStore(args.store, faults=faults, report=events)
    start = time.perf_counter()
    try:
        outcome = survey(
            *positional,
            store=CheckpointStore(args.checkpoint, faults=faults) if args.checkpoint else None,
            resume=args.resume,
            result_store=result_store,
            deadline_seconds=args.deadline,
            report=events,
            **options,
        )
    except CheckpointError as error:
        print(f"checkpoint error: {error}")
        return None
    finally:
        if result_store is not None:
            result_store.close()
    summaries = [events.summary()]
    if result_store is not None:
        summaries.append(result_store.summary())
    return outcome, summaries, time.perf_counter() - start


def _stopped_message(args: argparse.Namespace, outcome) -> str:
    hint = f" --checkpoint {args.checkpoint} --resume" if args.checkpoint else ""
    return (
        f"stopped at cursor {outcome.cursor} ({outcome.stop_reason}); "
        f"progress checkpointed — rerun with{hint or ' --checkpoint DIR'} to continue"
    )


def cmd_run(args: argparse.Namespace) -> int:
    context = _checked(Context, n=args.n, t=args.t, k=args.k)
    if args.scenario == "random":
        adversary = AdversaryGenerator(context, seed=args.seed).random_adversary(args.failures)
    elif args.scenario == "fig1":
        scenario = _checked(figure1_scenario, chain_length=max(args.k, 2))
        adversary, context = scenario.adversary, scenario.context
    elif args.scenario == "fig2":
        scenario = _checked(figure2_scenario, k=args.k, depth=2)
        adversary, context = scenario.adversary, scenario.context
    else:
        scenario = _checked(figure4_scenario, k=max(args.k, 2), rounds=4)
        adversary, context = scenario.adversary, scenario.context
    protocol = _protocol(args.protocol, context.k)
    run = Run(protocol, adversary, context.t)
    print(render_run(run))
    print()
    for decision in run.decisions():
        print(f"  {decision}")
    violations = check_run_for_protocol(run)
    print(f"\nspecification check: {'OK' if not violations else [str(v) for v in violations]}")
    return 0 if not violations else 1


def cmd_compare(args: argparse.Namespace) -> int:
    context = _checked(Context, n=args.n, t=args.t, k=args.k)
    adversaries = AdversaryGenerator(context, seed=args.seed).sample(args.samples)
    symmetry = args.symmetry
    if symmetry == "constructive":
        # The compare ensemble is randomly sampled — there is no enumerated
        # space description to generate representatives from, so the
        # hash-dedup quotient is the orbit front for this command.
        print(
            "note: compare samples a random ensemble; constructive generation "
            "needs an enumerated space — using symmetry='quotient' on the sample"
        )
        symmetry = "quotient"
    protocols = [_protocol(name, args.k) for name in args.protocols]
    print(statistics_report(collect(protocols, adversaries, context.t, symmetry=symmetry)))
    print()
    reference_pool = protocols[1:] or [FloodMin(args.k)]
    for reference in reference_pool:
        report = compare_protocols(
            protocols[0], reference, adversaries, context.t, symmetry=symmetry
        )
        print(report.summary())
    return 0


def cmd_figure4(args: argparse.Namespace) -> int:
    from .engine import sweep

    scenario = _checked(figure4_scenario, k=args.k, rounds=args.rounds)
    t = scenario.context.t
    adversary = scenario.adversary
    print(
        f"Fig. 4 adversary: n={adversary.n}, t=f={t}, deadline ⌊t/k⌋+1={t // args.k + 1}"
    )
    if args.symmetry != "none":
        # Decision times are constant on renaming orbits, so the canonical
        # representative reproduces the figure; print the certificate so the
        # per-process times can be lifted back by hand if wanted.  A single
        # concrete adversary has no space description, so 'constructive'
        # shares this canonicalisation path.
        from .symmetry import canonical_adversary

        canonical = canonical_adversary(adversary)
        adversary = canonical.representative
        print(
            f"  ({args.symmetry}: canonical representative via "
            f"π={list(canonical.permutation)})"
        )
    for name in ("upmin", "optmin", "uearly", "early", "floodmin"):
        protocol = _protocol(name, args.k)
        (run,) = sweep(protocol, [adversary], t)
        print(f"  {protocol.name:45s} last correct decision at time {run.last_decision_time()}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .service.specs import admission, build_space

    context = _checked(Context, n=args.n, t=args.t, k=args.k)
    protocol = _protocol(args.protocol, args.k)
    spec = {
        "kind": "sweep", "n": args.n, "t": args.t, "k": args.k,
        "protocol": args.protocol, "symmetry": args.symmetry,
        "max_crash_round": args.max_crash_round,
        "receiver_policy": args.receiver_policy,
        "max_failures": args.max_failures, "limit": args.limit,
    }
    verdict = admission(spec)
    if not verdict["admit"]:
        restrict = (
            "restrict it with --max-crash-round / --max-failures / "
            "--receiver-policy none"
        )
        if verdict["unit"] == "orbit representatives":
            print(
                f"refusing to sweep >{verdict['ceiling']:,} orbit representatives "
                f"without --limit; size the space first with "
                f"`repro-set-consensus count`, {restrict}, or cap it with --limit"
            )
        else:
            print(
                f"refusing to enumerate ~{verdict['workload']:,} adversaries without "
                f"--limit (threshold {verdict['ceiling']:,}); size the space with "
                f"`repro-set-consensus count`, {restrict}, cap it with --limit, "
                f"or sweep its orbits with --symmetry constructive"
            )
        return 2
    from .runtime import resilient_check

    ran = _run_attached(
        args, resilient_check, protocol, build_space(spec), context.t, symmetry=args.symmetry
    )
    if ran is None:
        return 2
    outcome, summaries, elapsed = ran
    report = outcome.value
    rate = report.runs_checked / elapsed if elapsed > 0 else float("inf")
    print(
        f"sweep of {protocol.name} over n={args.n}, t={args.t}, k={args.k} "
        f"({args.receiver_policy} deliveries): {report.runs_checked} adversaries"
        + (f" (resumed from cursor {outcome.resumed_from})" if outcome.resumed_from else "")
    )
    print(report.summary())
    print(
        f"symmetry={args.symmetry}, {elapsed:.2f}s ({rate:,.0f} adversaries/s)"
    )
    for line in summaries:
        print(line)
    for index, violation in report.violations[:10]:
        print(f"  adversary #{index}: {violation}")
    if not outcome.completed:
        print(_stopped_message(args, outcome))
        return 3
    if report.runs_checked == 0:
        # An exhaustive-verification command must not succeed vacuously
        # (e.g. a negative --max-failures empties the space).
        print("no adversaries were enumerated — nothing was verified; check the restriction flags")
        return 2
    return 0 if report.ok else 1


def cmd_count(args: argparse.Namespace) -> int:
    from .adversaries.enumeration import estimate_adversary_count, pattern_and_orbit_counts

    context = _checked(Context, n=args.n, t=args.t, k=args.k)
    restrictions = dict(
        max_crash_round=args.max_crash_round,
        receiver_policy=args.receiver_policy,
        max_failures=args.max_failures,
    )
    start = time.perf_counter()
    members = estimate_adversary_count(context, **restrictions)
    patterns, orbits = pattern_and_orbit_counts(context, **restrictions)
    elapsed = time.perf_counter() - start
    print(
        f"restricted adversary space over n={args.n}, t={args.t}, k={args.k} "
        f"(max_crash_round={args.max_crash_round}, "
        f"receiver_policy={args.receiver_policy}, max_failures={args.max_failures})"
    )
    print(f"  members (closed form)   : {members:,}")
    print(f"  failure-pattern orbits  : {patterns:,}")
    print(f"  adversary orbits        : {orbits:,}")
    if orbits:
        print(f"  orbit reduction factor  : {members / orbits:,.1f}x")
    print(f"  counted in {elapsed:.2f}s (constructive; no members materialised)")
    exhaustive_ok = members <= DEFAULT_ADMISSION_CEILING
    constructive_ok = orbits <= DEFAULT_ADMISSION_CEILING
    print(
        f"  sweep (exhaustive)      : "
        f"{'tractable' if exhaustive_ok else 'needs --limit'} "
        f"(threshold {DEFAULT_ADMISSION_CEILING:,} members)"
    )
    print(
        f"  sweep --symmetry constructive: "
        f"{'tractable' if constructive_ok else 'needs --limit'} "
        f"(threshold {DEFAULT_ADMISSION_CEILING:,} orbits)"
    )
    return 0


def cmd_surgery(args: argparse.Namespace) -> int:
    from .engine import LayerViews

    scenario = _checked(figure2_scenario, k=args.k, depth=args.depth)
    base = LayerViews(scenario.adversary, scenario.context.t, horizon=args.depth)
    result = lemma2_surgery(base, scenario.observer, args.depth, list(range(args.k)))
    check = verify_surgery(base, result)
    print("Lemma 2 surgery on the Fig. 2 adversary")
    print(f"  chains: {[list(chain) for chain in result.chains]}")
    print(f"  observer view preserved : {check.observer_view_preserved}")
    print(f"  values delivered        : {check.values_delivered}")
    print(f"  no foreign values       : {check.no_foreign_values}")
    print(f"  residual capacity >= k-1: {check.residual_capacity}")
    mechanism = demonstrate_unbeatability_mechanism(args.k, args.depth)
    print("\nLemma 3 confrontation (can the observer be made to decide earlier?)")
    print(f"  Optmin decides values {mechanism['optmin_decided_values']} — within k={args.k}")
    print(
        f"  eager attempt decides {mechanism['eager_decided_values']} — "
        f"{len(mechanism['eager_violations'])} k-Agreement violation(s)"
    )
    return 0 if check.ok else 1


def cmd_census(args: argparse.Namespace) -> int:
    """The Proposition 2 census; the complex is rebuilt on every invocation.

    Building is the cheap part relative to the homology survey at scale;
    a checkpoint cursor indexes the canonical class stream of the survey.
    """
    from .runtime import resilient_census
    from .service.specs import normalize_spec
    from .topology import build_restricted_complex

    context = _checked(Context, n=args.n, t=args.t, k=args.k)
    # -m takes the job service's census rule (time >= 1).
    _checked(
        normalize_spec, {"kind": "census", "n": args.n, "t": args.t, "k": args.k, "time": args.time}
    )
    build_start = time.perf_counter()
    pc = build_restricted_complex(context, time=args.time)
    build_elapsed = time.perf_counter() - build_start
    ran = _run_attached(
        args, resilient_census, pc, context.k, symmetry=args.symmetry,
        # The engine field is fixed (there is one engine) so that census
        # checkpoints written when it was an option still resume.
        spec_extra={"n": args.n, "t": args.t, "engine": "batch"},
    )
    if ran is None:
        return 2
    outcome, summaries, survey_elapsed = ran
    census = outcome.value
    complex_ = pc.complex
    print(
        f"Proposition 2 census over n={args.n}, t={args.t}, k={args.k}, m={args.time} "
        f"(symmetry={args.symmetry})"
        + (f" (resumed from cursor {outcome.resumed_from})" if outcome.resumed_from else "")
    )
    print(
        f"  complex: {complex_.vertex_count} vertices, "
        f"{len(complex_.facet_masks)} facets, dim {complex_.dimension} "
        f"(built in {build_elapsed:.2f}s)"
    )
    print(f"  vertices             : {census.vertices}")
    print(f"  capacity >= k        : {census.high_capacity}")
    print(f"  ... with (k-1)-conn. : {census.consistent}")
    print(f"  (k-1)-connected stars: {census.connected_stars}")
    print(f"  ... with capacity>=k : {census.connected_high}")
    print(
        f"  survey: {census.classes} classes, {census.homology_runs} homology "
        f"runs in {survey_elapsed:.2f}s"
    )
    for line in summaries:
        print("  " + line)
    if not outcome.completed:
        print("  " + _stopped_message(args, outcome))
        return 3
    holds = census.consistent == census.high_capacity
    print(f"  Proposition 2 (capacity >= k ⇒ (k-1)-connected star): {'OK' if holds else 'VIOLATED'}")
    return 0 if holds else 1


def cmd_store(args: argparse.Namespace) -> int:
    """Administer a durable result store: inspect, verify, gc, export."""
    import os

    from .store import ResultStore

    if args.action != "inspect" and not os.path.exists(args.path):
        # inspect creating an empty store is harmless; the mutating/reading
        # admin actions on a missing path are almost certainly a typo.
        print(f"store {args.path} does not exist")
        return 2
    read_only = args.action == "export"
    store = ResultStore(args.path, read_only=read_only)
    try:
        if not store.available:
            print(f"store {args.path} is unusable: {store.disabled_reason}")
            return 2
        if args.action == "inspect":
            counts = store.counts()
            print(f"store {counts['path']} (schema {counts['schema']})")
            for kind, count in counts["kinds"].items():
                print(f"  {kind:15s}: {count} rows")
            print(f"  total          : {counts['rows']} rows")
            print(f"  quarantined    : {counts['quarantined']} rows")
            if counts.get("bytes") is not None:
                print(f"  file size      : {counts['bytes']:,} bytes")
            return 0
        if args.action == "verify":
            verdict = store.verify()
            print(
                f"verified {verdict['checked']} rows: "
                f"{verdict['corrupt']} corrupt (quarantined for recompute)"
            )
            return 0 if verdict["corrupt"] == 0 else 1
        if args.action == "gc":
            before = store.counts()
            purged = store.gc()["purged"]
            after_bytes = store.counts().get("bytes")
            print(
                f"purged {purged} quarantined rows; "
                f"{before['rows']} live rows kept"
                + (f", file now {after_bytes:,} bytes" if after_bytes is not None else "")
            )
            return 0
        # export
        if args.output is None or args.output == "-":
            exported = store.export(sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                exported = store.export(handle)
        print(
            f"exported {exported} rows"
            + (f" to {args.output}" if args.output not in (None, "-") else ""),
            file=sys.stderr,
        )
        return 0
    finally:
        store.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the survey service: job queue + runners + async HTTP API.

    Blocks until SIGTERM/SIGINT (drain, exit 130) or ``--deadline`` (drain,
    exit 3); the drain is graceful — runners stop at a batch boundary with
    checkpoints flushed and leases released, so in-flight jobs resume.
    """
    from .service import serve

    store_path = None if args.store == "none" else args.store

    def announce(service) -> None:
        print(f"survey service listening on http://{service.host}:{service.port}")
        print(f"  queue={service.queue_path}")
        print(f"  workdir={service.workdir}")
        sys.stdout.flush()

    return serve(
        args.queue,
        args.workdir,
        host=args.host,
        port=args.port,
        deadline_seconds=args.deadline,
        lease_seconds=args.lease,
        ceiling=args.ceiling,
        max_depth=args.max_depth,
        runners=args.runners,
        batch_size=args.batch_size,
        job_deadline_seconds=args.job_deadline,
        store_path=store_path,
        announce=announce,
    )


def cmd_jobs(args: argparse.Namespace) -> int:
    """Submit to and inspect the survey service.

    ``--url`` talks to a running service over HTTP; ``--queue`` operates on
    the queue database directly (same validation and admission, no service
    required — useful for scripting and post-mortems).
    """
    import json as _json

    from .service import (
        JobQueue,
        JobQueueError,
        SpecError,
        admission,
        job_id,
        normalize_spec,
    )

    if args.url is not None:
        from .service.api import request_json

    def render(payload) -> None:
        print(_json.dumps(payload, indent=2, sort_keys=True))

    if args.action in ("status", "result", "events", "cancel") and not args.job:
        print(f"jobs {args.action} requires a job id", file=sys.stderr)
        return 2

    try:
        if args.action == "submit":
            if args.spec is not None:
                try:
                    raw = _json.loads(args.spec)
                except ValueError as error:
                    print(f"--spec is not valid JSON: {error}", file=sys.stderr)
                    return 2
            else:
                raw = {"kind": args.kind}
                for field, value in (
                    ("n", args.n),
                    ("t", args.t),
                    ("k", args.k),
                    ("protocol", args.protocol),
                    ("symmetry", args.symmetry),
                    ("limit", args.limit),
                    ("time", args.time),
                ):
                    if value is not None:
                        raw[field] = value
            if args.url is not None:
                status, payload = request_json(args.url, "POST", "/jobs", raw)
                render(payload)
                return 0 if status in (200, 202) else 2
            try:
                spec = normalize_spec(raw)
            except SpecError as error:
                print(f"invalid spec: {error}", file=sys.stderr)
                return 2
            verdict = admission(spec, ceiling=args.ceiling)
            if not verdict["admit"]:
                print(f"rejected: {verdict['reason']}", file=sys.stderr)
                return 2
            with JobQueue(args.queue) as queue:
                job = queue.submit(job_id(spec), spec)
            render(
                {
                    "job": job["id"],
                    "created": job["created"],
                    "requeued": job["requeued"],
                    "state": job["state"],
                    "admission": verdict,
                }
            )
            return 0

        if args.action == "list":
            if args.url is not None:
                path = "/jobs" + (f"?state={args.state}" if args.state else "")
                status, payload = request_json(args.url, "GET", path)
                render(payload)
                return 0 if status == 200 else 1
            with JobQueue(args.queue) as queue:
                render({"jobs": queue.jobs(state=args.state), "counts": queue.counts()})
            return 0

        if args.action == "cancel":
            if args.url is not None:
                status, payload = request_json(args.url, "POST", f"/jobs/{args.job}/cancel")
                render(payload)
                return 0 if status == 200 else 1
            with JobQueue(args.queue) as queue:
                prior = queue.cancel(args.job)
            if prior is None:
                print(f"job {args.job} is not cancellable (unknown or terminal)", file=sys.stderr)
                return 1
            render({"job": args.job, "state": "cancelled", "was": prior})
            return 0

        if args.action == "events":
            if args.url is not None:
                status, payload = request_json(args.url, "GET", f"/jobs/{args.job}/events")
                render(payload)
                return 0 if status == 200 else 1
            with JobQueue(args.queue) as queue:
                render({"job": args.job, "events": queue.events(args.job)})
            return 0

        # status / result: one fetch, or a --wait poll until terminal.
        def fetch():
            if args.url is not None:
                status, payload = request_json(args.url, "GET", f"/jobs/{args.job}")
                return payload if status == 200 else None
            with JobQueue(args.queue) as queue:
                return queue.job(args.job)

        deadline = time.monotonic() + args.wait
        while True:
            job = fetch()
            if job is None:
                print(f"no such job: {args.job}", file=sys.stderr)
                return 1
            if job["state"] in ("done", "failed", "cancelled") or time.monotonic() >= deadline:
                break
            time.sleep(0.5)
        if args.action == "status":
            render(job)
            return 0
        if job["state"] == "done":
            render({"job": job["id"], "state": "done", "result": job["result"]})
            return 0
        if job["state"] in ("failed", "cancelled"):
            render({"job": job["id"], "state": job["state"], "error": job["error"]})
            return 1
        print(f"job {args.job} is {job['state']}, not finished", file=sys.stderr)
        return 3
    except JobQueueError as error:
        print(f"job queue error: {error}", file=sys.stderr)
        return 1
    except OSError as error:  # connection refused, timeout, DNS
        print(f"cannot reach {args.url}: {error}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-set-consensus",
        description="Unbeatable set consensus (Castañeda–Gonczarowski–Moses 2016) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute one protocol against one adversary")
    _add_context_arguments(run_parser)
    run_parser.add_argument("--protocol", default="optmin", choices=sorted(PROTOCOLS))
    run_parser.add_argument(
        "--scenario", default="random", choices=["random", "fig1", "fig2", "fig4"]
    )
    run_parser.add_argument("--failures", type=int, default=None, help="exact number of crashes")
    run_parser.set_defaults(func=cmd_run)

    compare_parser = subparsers.add_parser("compare", help="compare protocols over a random ensemble")
    _add_context_arguments(compare_parser)
    compare_parser.add_argument("--samples", type=int, default=100)
    compare_parser.add_argument(
        "--protocols",
        nargs="+",
        default=["optmin", "early", "floodmin"],
        choices=sorted(PROTOCOLS),
    )
    _add_symmetry_argument(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    sweep_parser = subparsers.add_parser(
        "sweep", help="exhaustively verify a protocol over an enumerated adversary space"
    )
    _add_context_arguments(sweep_parser)
    sweep_parser.add_argument("--protocol", default="optmin", choices=sorted(PROTOCOLS))
    _add_restriction_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--limit", type=int, default=None, help="truncate the adversary stream (smoke runs)"
    )
    _add_symmetry_argument(sweep_parser)
    _add_runtime_arguments(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    count_parser = subparsers.add_parser(
        "count",
        help="size a restricted adversary space before sweeping it "
        "(members, orbits, tractability verdicts)",
    )
    _add_context_arguments(count_parser)
    _add_restriction_arguments(count_parser)
    count_parser.set_defaults(func=cmd_count)

    figure4_parser = subparsers.add_parser("figure4", help="regenerate the Fig. 4 comparison")
    figure4_parser.add_argument("-k", type=int, default=3)
    figure4_parser.add_argument("--rounds", type=int, default=4, help="the adversary's ⌊t/k⌋")
    _add_symmetry_argument(figure4_parser)
    figure4_parser.set_defaults(func=cmd_figure4)

    surgery_parser = subparsers.add_parser("surgery", help="run the Lemma 2 surgery demonstration")
    surgery_parser.add_argument("-k", type=int, default=3)
    surgery_parser.add_argument("--depth", type=int, default=2)
    surgery_parser.set_defaults(func=cmd_surgery)

    census_parser = subparsers.add_parser(
        "census", help="Proposition 2 capacity-vs-connectivity census"
    )
    census_parser.add_argument("-n", type=int, default=4, help="number of processes (default 4)")
    census_parser.add_argument("-t", type=int, default=2, help="crash bound (default 2)")
    census_parser.add_argument("-k", type=int, default=2, help="agreement parameter (default 2)")
    census_parser.add_argument(
        "-m", "--time", type=int, default=1, help="protocol-complex round count (default 1)"
    )
    _add_symmetry_argument(census_parser)
    _add_runtime_arguments(census_parser)
    census_parser.set_defaults(func=cmd_census)

    store_parser = subparsers.add_parser(
        "store",
        help="administer a durable result store (inspect / verify / gc / export)",
    )
    store_parser.add_argument(
        "action",
        choices=["inspect", "verify", "gc", "export"],
        help="inspect: row counts per kind; verify: digest-check every row, "
        "quarantining corrupt ones; gc: purge the quarantine and VACUUM; "
        "export: verified rows as deterministic JSONL",
    )
    store_parser.add_argument("path", help="the store file (as passed to --store)")
    store_parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="export destination (default stdout)",
    )
    store_parser.set_defaults(func=cmd_store)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the survey service: crash-safe job queue + async HTTP API "
        "(submit/status/result/cancel/events; graceful drain on SIGTERM)",
    )
    serve_parser.add_argument(
        "--queue", required=True, metavar="PATH", help="job queue database file"
    )
    serve_parser.add_argument(
        "--workdir",
        required=True,
        metavar="DIR",
        help="runner state: per-job checkpoint directories and (by default) "
        "the shared result store",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="listen address")
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="listen port (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--runners", type=int, default=1, help="job-executing worker threads (default 1)"
    )
    serve_parser.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="job lease length: a crashed runner's job is reclaimed this long "
        "after its last heartbeat (default 30)",
    )
    serve_parser.add_argument(
        "--max-depth",
        type=int,
        default=32,
        help="queued+running jobs accepted before submits get 429 (default 32)",
    )
    serve_parser.add_argument(
        "--ceiling",
        type=int,
        default=DEFAULT_ADMISSION_CEILING,
        help="admission ceiling: reject specs whose closed-form workload "
        f"exceeds this (default {DEFAULT_ADMISSION_CEILING:,})",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="service wall-clock budget; on expiry the service drains and exits 3",
    )
    serve_parser.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget; an expired job checkpoints and requeues",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=None, help="survey batch size (checkpoint cadence)"
    )
    serve_parser.add_argument(
        "--store",
        default="auto",
        metavar="PATH",
        help="result store path ('auto' = workdir/results.sqlite, 'none' disables)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    jobs_parser = subparsers.add_parser(
        "jobs",
        help="submit to and inspect the survey service "
        "(--url for a running service, --queue for the database directly)",
    )
    jobs_parser.add_argument(
        "action", choices=["submit", "status", "result", "events", "cancel", "list"]
    )
    jobs_parser.add_argument(
        "job", nargs="?", default=None, help="job id (status/result/events/cancel)"
    )
    transport = jobs_parser.add_mutually_exclusive_group(required=True)
    transport.add_argument("--queue", metavar="PATH", help="operate on a queue database")
    transport.add_argument("--url", metavar="URL", help="operate through a running service")
    jobs_parser.add_argument(
        "--spec",
        default=None,
        metavar="JSON",
        help="submit: the full job spec as JSON (overrides the spec flags)",
    )
    jobs_parser.add_argument(
        "--kind", default="sweep", choices=["sweep", "census"], help="submit: job kind"
    )
    jobs_parser.add_argument("-n", type=int, default=None, help="submit: number of processes")
    jobs_parser.add_argument("-t", type=int, default=None, help="submit: crash bound")
    jobs_parser.add_argument("-k", type=int, default=None, help="submit: agreement parameter")
    jobs_parser.add_argument(
        "--protocol", default=None, choices=sorted(PROTOCOLS), help="submit: sweep protocol"
    )
    from .symmetry import SYMMETRIES as _symmetries

    jobs_parser.add_argument(
        "--symmetry", default=None, choices=list(_symmetries), help="submit: sweep symmetry"
    )
    jobs_parser.add_argument(
        "--time", type=int, default=None, help="submit: census round count"
    )
    jobs_parser.add_argument(
        "--limit", type=int, default=None, help="submit: cap the sweep stream"
    )
    jobs_parser.add_argument(
        "--ceiling",
        type=int,
        default=DEFAULT_ADMISSION_CEILING,
        help="submit --queue: admission ceiling (the service applies its own)",
    )
    jobs_parser.add_argument(
        "--state",
        default=None,
        choices=["queued", "running", "done", "failed", "cancelled"],
        help="list: filter by state",
    )
    jobs_parser.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="status/result: poll until the job is terminal or this long has passed",
    )
    jobs_parser.set_defaults(func=cmd_jobs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the console script.

    Exit codes: 0 success, 1 verification failure, 2 usage error (a bad
    flag, or a parameter out of range for the paper's model), 3 budget
    stop (progress checkpointed, resumable), 130 interrupted (Ctrl-C; the
    last completed batch is already checkpointed when ``--checkpoint`` is
    given).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and getattr(args, "checkpoint", None) is None:
        # Catch the broken flag combination at parse time (exit 2, usage on
        # stderr) instead of deep inside the resilient path.
        parser.error(
            "--resume requires --checkpoint DIR (there is no checkpoint "
            "directory to resume from)"
        )
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print(
            "interrupted — partial progress is checkpointed "
            "where --checkpoint was given (rerun with --resume)",
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
