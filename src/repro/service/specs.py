"""Job specs: the validated, canonical description of one survey job.

A job payload is a plain JSON object — ``{"kind": "sweep", ...}`` or
``{"kind": "census", ...}`` — because the queue's idempotence contract
requires that *the spec is the identity*: :func:`normalize_spec` maps
every equivalent request (omitted defaults, key order) onto one canonical
dict — converting no types: ``"n": "5"`` is a :class:`SpecError`, not ``5``
— and :func:`job_id` hashes that canonical form with the store's
:func:`repro.store.keys.spec_hash`.  Two clients asking
for the same survey therefore compute the same job id before the queue is
ever touched, which is what makes concurrent duplicate submits collapse
onto one row.

:func:`admission` is the service's O(1) intractability guard: the
closed-form member count and the bounded constructive orbit probe
(:func:`repro.adversaries.enumeration.pattern_and_orbit_counts` with a
``ceiling``) decide *at submit time* whether the spec is sweepable at all
— an n=8 exhaustive request is rejected with the counts that condemn it,
without enumerating a single adversary.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..model import Context

#: Default ceiling on admitted work: orbit representatives for constructive
#: sweeps, closed-form members otherwise.  The one tractability threshold —
#: ``cli sweep`` refuses through :func:`admission`, and ``cli count`` and the
#: ``--ceiling`` defaults of ``serve`` / ``jobs`` read it too.
DEFAULT_ADMISSION_CEILING = 200_000

_SWEEP_DEFAULTS: Dict[str, Any] = {
    "protocol": "optmin",
    "max_crash_round": None,
    "receiver_policy": "canonical",
    "max_failures": None,
    "limit": None,
    "symmetry": "constructive",
    # Fixed, like the engine field of the checkpoint specs: there is one
    # engine, but job ids hash the normalized spec, so the field stays and
    # ids of jobs submitted when it was an option still match.
    "engine": "batch",
    "enforce_paper_bound": True,
}

_CENSUS_DEFAULTS: Dict[str, Any] = {
    "time": 1,
    "symmetry": "quotient",
    # One homology kernel: null or "packed" is kept as given (job ids hash
    # it), anything else is rejected.
    "backend": None,
    "engine": "batch",  # fixed; see _SWEEP_DEFAULTS
}


class SpecError(ValueError):
    """A job spec failed validation (HTTP 400 at the API, exit 2 at the CLI)."""


def _require_int(spec: Dict[str, Any], field: str, minimum: int = 0) -> int:
    value = spec.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise SpecError(f"spec field {field!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _optional_int(spec: Dict[str, Any], field: str, minimum: int = 0) -> Optional[int]:
    if spec.get(field) is None:
        return None
    return _require_int(spec, field, minimum)


def _choice(spec: Dict[str, Any], field: str, choices: Tuple[str, ...]) -> str:
    value = spec.get(field)
    if value not in choices:
        raise SpecError(f"spec field {field!r} must be one of {sorted(choices)}, got {value!r}")
    return value


def protocol_names() -> Tuple[str, ...]:
    """The submittable protocol names (the CLI registry, imported lazily)."""
    from ..cli import PROTOCOLS

    return tuple(sorted(PROTOCOLS))


def normalize_spec(raw: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical form of a job spec: validated, defaults filled, fixed keys.

    Raises :class:`SpecError` on anything malformed — unknown kind, missing
    context, unknown protocol/symmetry, an engine other than ``"batch"``, a
    census backend other than ``"packed"``,
    negative bounds, a non-boolean ``enforce_paper_bound``, unexpected
    fields.  The returned dict is identity material: equal surveys, equal
    dicts — so a census asking for ``"constructive"`` symmetry, which the
    census runs as ``"quotient"``, normalizes to ``"quotient"``.
    """
    from ..symmetry import SYMMETRIES

    if not isinstance(raw, dict):
        raise SpecError(f"job spec must be a JSON object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in ("sweep", "census"):
        raise SpecError(f"spec field 'kind' must be 'sweep' or 'census', got {kind!r}")
    defaults = _SWEEP_DEFAULTS if kind == "sweep" else _CENSUS_DEFAULTS
    allowed = {"kind", "n", "t", "k", *defaults}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise SpecError(f"unknown spec fields for kind={kind!r}: {unknown}")
    spec = {"kind": kind, **defaults}
    spec.update({key: raw[key] for key in raw if key != "kind"})

    spec["n"] = _require_int(spec, "n", minimum=1)
    spec["t"] = _require_int(spec, "t", minimum=0)
    spec["k"] = _require_int(spec, "k", minimum=1)
    try:  # Context enforces the paper's parameter constraints (t < n, ...)
        Context(n=spec["n"], t=spec["t"], k=spec["k"])
    except (ValueError, AssertionError) as error:
        raise SpecError(f"invalid context n={spec['n']}, t={spec['t']}, k={spec['k']}: {error}")
    _choice(spec, "engine", ("batch",))
    if kind == "sweep":
        _choice(spec, "protocol", protocol_names())
        _choice(spec, "symmetry", tuple(SYMMETRIES))
        _choice(spec, "receiver_policy", ("all", "canonical", "none"))
        spec["max_crash_round"] = _optional_int(spec, "max_crash_round", minimum=0)
        spec["max_failures"] = _optional_int(spec, "max_failures", minimum=0)
        spec["limit"] = _optional_int(spec, "limit", minimum=1)
        if not isinstance(spec["enforce_paper_bound"], bool):
            raise SpecError(
                "spec field 'enforce_paper_bound' must be a JSON boolean, "
                f"got {spec['enforce_paper_bound']!r}"
            )
    else:
        spec["time"] = _require_int(spec, "time", minimum=1)
        if _choice(spec, "symmetry", tuple(SYMMETRIES)) == "constructive":
            spec["symmetry"] = "quotient"
        if spec["backend"] is not None:
            _choice(spec, "backend", ("packed",))
    return {key: spec[key] for key in sorted(spec)}


def job_id(spec: Dict[str, Any]) -> str:
    """The job identity: the spec hash of the canonical spec."""
    from ..store import spec_hash

    return spec_hash(spec)


def admission(
    spec: Dict[str, Any], ceiling: int = DEFAULT_ADMISSION_CEILING
) -> Dict[str, Any]:
    """Closed-form tractability verdict for a normalized spec.

    Returns ``{"admit": bool, "reason": str | None, "workload": int,
    "unit": str, "ceiling": int}``.  The workload is what the job would
    actually fold: constructive sweeps are measured in orbit
    representatives (the bounded ``pattern_and_orbit_counts`` probe stops
    as soon as the ceiling is exceeded), other sweeps in closed-form
    members, and censuses in members of the family their complex is built
    over (``len`` of
    :func:`repro.topology.protocol_complex.restricted_adversaries`, also a
    closed form).  An explicit ``limit`` caps a sweep's stream and always
    admits.  Nothing is enumerated either way.
    """
    from ..adversaries.enumeration import estimate_adversary_count, pattern_and_orbit_counts

    context = Context(n=spec["n"], t=spec["t"], k=spec["k"])
    if spec["kind"] == "sweep":
        restrictions = dict(
            max_crash_round=spec["max_crash_round"],
            receiver_policy=spec["receiver_policy"],
            max_failures=spec["max_failures"],
        )
        if spec["limit"] is not None:
            return {
                "admit": True, "reason": None, "workload": spec["limit"],
                "unit": "capped stream items", "ceiling": ceiling,
            }
        if spec["symmetry"] == "constructive":
            _patterns, workload = pattern_and_orbit_counts(
                context, ceiling=ceiling, **restrictions
            )
            unit = "orbit representatives"
        else:
            workload = estimate_adversary_count(context, **restrictions)
            unit = "enumerated members"
        shown = f"{workload:,}+"
        remedy = (
            "restrict the space (max_crash_round / max_failures / receiver_policy), "
            "cap it with 'limit', or sweep orbits with symmetry='constructive'"
        )
    else:
        from ..topology.protocol_complex import restricted_adversaries

        # The census builds its m-round complex over restricted_adversaries:
        # one input vector, at most k crashes per round.  Each first-round
        # crash option (the one-round space with at most k crashes, over one
        # input vector) roots members of its own, so their O(t) count bounds
        # the family below and refuses a huge n before its option table is
        # built.
        first_round = estimate_adversary_count(
            context, max_crash_round=1, max_failures=min(context.k, context.t)
        ) // len(context.values_domain) ** context.n
        if first_round > ceiling:
            workload, shown = first_round, f"{first_round:,}+"
        else:
            # size, not len(): a huge time overflows len()'s machine word.
            workload = restricted_adversaries(context, spec["time"]).size
            shown = f"{workload:,}"
        unit = "complex-building members"
        remedy = "lower the census 'time', or n, t or k"
    if workload > ceiling:
        reason = (
            f"intractable: {shown} {unit} exceeds the admission ceiling of {ceiling:,}; {remedy}"
        )
        return {
            "admit": False, "reason": reason, "workload": workload,
            "unit": unit, "ceiling": ceiling,
        }
    return {"admit": True, "reason": None, "workload": workload, "unit": unit, "ceiling": ceiling}


# --------------------------------------------------------------- construction
def build_protocol(spec: Dict[str, Any]):
    """The protocol instance a sweep spec names."""
    from ..cli import PROTOCOLS

    return PROTOCOLS[spec["protocol"]](spec["k"])


def build_space(spec: Dict[str, Any]):
    """The :class:`RestrictedSpace` a sweep spec describes."""
    from ..adversaries.enumeration import RestrictedSpace

    return RestrictedSpace(
        Context(n=spec["n"], t=spec["t"], k=spec["k"]),
        max_crash_round=spec["max_crash_round"],
        receiver_policy=spec["receiver_policy"],
        max_failures=spec["max_failures"],
        limit=spec["limit"],
    )
