"""The per-layer wrappers: which public function each layer span times.

:func:`install` replaces each function or method below with a
:mod:`spans` wrapper and returns the :class:`spans.Patches` that undo it.
Names follow ``<module>.<function>``; the quantities a wrapper adds are
``<module>.<function>.<quantity>``.  Where one function is reached under
two names (a module-level import and its source module), both names are
patched with the same wrapper.
"""

from __future__ import annotations

from spans import Patches, TracedIterator, Tracer, peak_rss_mb, span


def install(tracer: Tracer) -> Patches:
    import repro.adversaries.enumeration as enumeration
    import repro.service.runner as service_runner
    import repro.topology.protocol_complex as protocol_complex
    import repro.verification.checker as checker
    import repro.verification.properties as properties
    from repro.engine.sweep import SweepRunner
    from repro.runtime.checkpoint import CheckpointStore
    from repro.service.jobs import JobQueue
    from repro.store.sqlite import ResultStore
    from repro.topology.complexes import SimplicialComplex
    from repro.topology.connectivity import ConnectivityCache

    patches = Patches()
    add = tracer.add

    def sample_rss(name):
        def after(_args=None, _result=None):
            tracer.set(name + ".peak_rss_mb", peak_rss_mb())

        return after

    # -- adversaries / symmetry
    def quotient_counts(_args, result):
        representatives, weights, _indices = result
        add("adversaries.constructive_quotient.orbits", len(representatives))
        add("adversaries.constructive_quotient.members", sum(weights))

    patches.set(
        enumeration,
        "constructive_quotient",
        span(tracer, "adversaries.constructive_quotient", enumeration.constructive_quotient, quotient_counts),
    )
    orbits = enumeration.RestrictedSpace.orbits
    patches.set(
        enumeration.RestrictedSpace,
        "orbits",
        lambda self, *args, **kwargs: TracedIterator(
            tracer, "adversaries.orbits", orbits(self, *args, **kwargs)
        ),
    )

    # -- engine (sweep)
    def sweep_counts(args, _result):
        report = args[0].last_report
        add("engine.sweep.runs", report.adversaries)
        add("engine.sweep.layers_computed", report.layers_computed)
        add("engine.sweep.reference_layers", report.reference_layer_estimate)

    patches.set(SweepRunner, "sweep", span(tracer, "engine.sweep", SweepRunner.sweep, sweep_counts))

    # -- verification
    check_run = span(
        tracer,
        "verification.check_run",
        properties.check_run_for_protocol,
        lambda _args, result: add("verification.check_run.violations", len(result)),
    )
    patches.set(properties, "check_run_for_protocol", check_run)
    patches.set(checker, "check_run_for_protocol", check_run)
    patches.set(checker.CheckReport, "record", span(tracer, "verification.record", checker.CheckReport.record))
    patches.set(checker, "check_protocol", span(tracer, "verification.check_protocol", checker.check_protocol))

    # -- topology (build) and engine (facets)
    patterns = protocol_complex.per_round_crash_patterns
    patches.set(
        protocol_complex,
        "per_round_crash_patterns",
        lambda *args, **kwargs: TracedIterator(
            tracer,
            "topology.per_round_crash_patterns",
            patterns(*args, **kwargs),
            on_end=sample_rss("topology.per_round_crash_patterns"),
        ),
    )

    def facets_counts(args, result):
        table, facets = result
        add("engine.run_facets_pass.adversaries", len(args[0]))
        add("engine.run_facets_pass.vertices", len(table))
        add("engine.run_facets_pass.facets", len(facets))
        sample_rss("engine.run_facets_pass")()

    patches.set(
        protocol_complex,
        "run_facets_pass",
        span(tracer, "engine.run_facets_pass", protocol_complex.run_facets_pass, facets_counts),
    )

    # Only the assembling calls (maximality filter on) are the build's
    # ``from_masks``; ``star`` reuses it with ``maximal=True`` on facets that
    # are already maximal, which stays inside the star span.
    from_masks = SimplicialComplex.__dict__["from_masks"].__func__

    def masks_counts(args, result):
        add("topology.from_masks.facets_in", len(args[2]))
        add("topology.from_masks.facets_out", len(result.facet_masks))
        sample_rss("topology.from_masks")()

    traced_from_masks = span(tracer, "topology.from_masks", from_masks, masks_counts)

    def from_masks_entry(cls, pool, masks, maximal=False):
        if maximal:
            return from_masks(cls, pool, masks, maximal)
        return traced_from_masks(cls, pool, masks)

    patches.set(SimplicialComplex, "from_masks", classmethod(from_masks_entry))
    patches.set(
        protocol_complex,
        "build_restricted_complex",
        span(
            tracer,
            "topology.build_restricted_complex",
            protocol_complex.build_restricted_complex,
            sample_rss("topology.build_restricted_complex"),
        ),
    )

    # -- topology (survey)
    patches.set(
        protocol_complex,
        "census_classes",
        span(
            tracer,
            "topology.census_classes",
            protocol_complex.census_classes,
            lambda _args, result: add("topology.census_classes.classes", len(result[0])),
        ),
    )
    patches.set(
        protocol_complex,
        "capacity_connectivity_census",
        span(
            tracer,
            "topology.capacity_connectivity_census",
            protocol_complex.capacity_connectivity_census,
        ),
    )
    patches.set(SimplicialComplex, "star", span(tracer, "topology.star", SimplicialComplex.star))
    traced_profile = span(tracer, "topology.profile", ConnectivityCache.profile)

    def profile_entry(self, complex_, max_q=None):
        misses = self.misses
        level = traced_profile(self, complex_, max_q)
        add("topology.profile.misses", self.misses - misses)
        return level

    patches.set(ConnectivityCache, "profile", profile_entry)

    # -- runtime
    patches.set(
        service_runner,
        "resilient_check",
        span(tracer, "runtime.resilient_check", service_runner.resilient_check),
    )
    patches.set(CheckpointStore, "save", span(tracer, "runtime.checkpoint_save", CheckpointStore.save))

    # -- store
    def read_counts(args, result):
        add("store.get_many.keys", len(args[3]))
        add("store.get_many.hits", len(result))

    patches.set(ResultStore, "get_many", span(tracer, "store.get_many", ResultStore.get_many, read_counts))
    patches.set(ResultStore, "put", span(tracer, "store.put", ResultStore.put))
    patches.set(ResultStore, "flush", span(tracer, "store.flush", ResultStore.flush))

    # -- service
    patches.set(JobQueue, "submit", span(tracer, "service.submit", JobQueue.submit))
    patches.set(JobQueue, "claim", span(tracer, "service.claim", JobQueue.claim))
    patches.set(JobQueue, "complete", span(tracer, "service.complete", JobQueue.complete))
    patches.set(
        service_runner.JobRunner,
        "run_once",
        span(tracer, "service.run_once", service_runner.JobRunner.run_once),
    )
    return patches


def derive(counts):
    """Ratios computed from a run's summed counts."""
    layers = counts.get("engine.sweep.layers_computed", 0)
    keys = counts.get("store.get_many.keys", 0)
    return {
        "engine.sweep.sharing_factor": counts.get("engine.sweep.reference_layers", 0) / layers if layers else 0.0,
        "store.hit_ratio": counts.get("store.get_many.hits", 0) / keys if keys else 0.0,
        "topology.per_round_crash_patterns.patterns": counts.get("topology.per_round_crash_patterns.calls", 0),
    }
