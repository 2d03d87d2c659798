"""Canonical keys and spec identities for the durable result store.

Memoizing a survey result across runs is only sound if the key pins down
*everything* the value depends on — and nothing more, or the cache never
hits.  Three layers of identity:

* the **item key** — the canonical serialization of the object the value
  was computed *from*: an adversary (values + crash events), a
  protocol-complex vertex (process + canonical view key), or a star
  complex's exact isomorphism signature.  The constructive enumerator's
  stream items are canonical orbit representatives with identity
  certificates, so their serialization *is* the orbit's canonical form;
* the **spec identity hash** — a SHA-256 over the canonical JSON of the
  parameters the value additionally depends on (the protocol and its ``k``
  for checker verdicts; the complex fingerprint and ``k`` for census
  classes; nothing at all for connectivity profiles, which are a pure
  function of the star's isomorphism class and therefore shared across
  every survey that ever probes an isomorphic star);
* the **row digest** (:func:`repro.store.sqlite.row_digest`) — a SHA-256
  over ``(schema, kind, spec, key, payload)`` verified on every read, so a
  corrupt or misfiled row is detected, never served.

Keys are produced by :func:`stable_key`, a canonical JSON form that maps
tuples and frozensets onto deterministically ordered lists — ``repr`` is
not used anywhere, so the keys are independent of hash randomization and
interpreter version.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict


def _jsonable(value: Any) -> Any:
    """Map nested tuples/frozensets onto JSON-representable structures."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    raise TypeError(f"cannot build a stable store key from {type(value).__name__}: {value!r}")


def stable_key(value: Any) -> str:
    """The canonical (sorted, compact) JSON form used for keys and payloads."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def spec_hash(spec: Dict[str, Any]) -> str:
    """The spec identity hash: SHA-256 hex over the canonical JSON of ``spec``."""
    return hashlib.sha256(stable_key(spec).encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ item keys
def adversary_key(adversary) -> str:
    """The canonical form of one adversary: input vector + crash events.

    Crash events are serialized ``[process, round, sorted(receivers)]`` in
    process order (the :class:`repro.model.failure_pattern.FailurePattern`
    invariant), so equal adversaries — and only equal adversaries — share a
    key.  On the constructive stream the adversary is already its orbit's
    canonical representative, which makes this the orbit's canonical form.
    """
    return stable_key(
        [
            list(adversary.values),
            [
                [event.process, event.round, sorted(event.receivers)]
                for event in adversary.pattern.crashes
            ],
        ]
    )


def vertex_key(vertex) -> str:
    """The canonical form of a protocol-complex vertex ``(process, view key)``.

    View keys are nested tuples of ints (the canonical local-state rows the
    fused builder pass emits), so the serialization is exact — two vertices
    share a key iff they are the same local state.
    """
    return stable_key(vertex)


def profile_key(signature_name: str, signature, max_q) -> str:
    """The key of one memoized connectivity profile.

    ``signature`` is the exact canonical form of the star's facet structure
    (:func:`repro.symmetry.star_signature` or
    :func:`repro.symmetry.renaming_star_signature`); the *function name* is
    part of the key because the two signature spaces are distinct canonical
    forms and must not be mixed.  ``max_q`` is part of the key for the same
    reason it is part of the in-memory cache key: a profile truncated at
    ``k - 1`` says nothing about higher dimensions.
    """
    return stable_key([signature_name, signature, max_q])


# -------------------------------------------------------------- spec identities
def check_store_spec(protocol_name: str, t: int, k: int, enforce_paper_bound: bool) -> Dict:
    """What a checker verdict depends on besides the adversary itself.

    Deliberately *excludes* the symmetry mode (a verdict is a property of
    the adversary, however the stream reached it) and the space restrictions
    (ditto) — so a quotient sweep warms the cache for an exhaustive one and
    restricted sweeps share verdicts with wider ones.  ``k`` is included
    explicitly because protocol ``name`` strings do not encode it.
    """
    return {
        "kind": "check",
        "protocol": protocol_name,
        "t": t,
        "k": k,
        "enforce_paper_bound": bool(enforce_paper_bound),
    }


def census_class_store_spec(pc, k: int) -> Dict:
    """What a census class verdict depends on besides its vertex.

    A vertex's star — and therefore its connectivity level — depends on the
    *whole* complex the vertex lives in, so the spec fingerprints the
    complex (round count, vertex and facet counts) alongside ``k``.
    Symmetry is excluded: grouping does not change a class's
    ``(capacity, level)`` pair.
    """
    return {
        "kind": "census_class",
        "k": k,
        "time": pc.time,
        "vertices": pc.complex.vertex_count,
        "facets": len(pc.complex.facet_masks),
    }


def census_row_key(symmetry: str) -> str:
    """The key of one memoized *whole-census* row.

    The counter row itself is symmetry-invariant (the quotient census
    reproduces the exhaustive one exactly, by the pinned identity), but the
    ``classes`` bookkeeping a census reports is not — the exhaustive fold
    has one class per vertex, the quotient one per canonical view-key class
    — so the key separates the two fold shapes.  ``"constructive"`` *is*
    the quotient shape on a built complex (same grouping, by construction)
    and shares its key.
    """
    return stable_key(["census_row", "none" if symmetry == "none" else "quotient"])


#: Connectivity profiles are a pure function of the star's isomorphism
#: class: their spec identity is a constant, so every survey — any context,
#: any round count — shares one profile namespace.
PROFILE_STORE_SPEC: Dict[str, Any] = {"kind": "profile"}
PROFILE_SPEC_HASH = spec_hash(PROFILE_STORE_SPEC)
