"""Canonical keys and spec identities for the durable result store.

Memoizing a survey result across runs is only sound if the key pins down
*everything* the value depends on — and nothing more, or the cache never
hits.  Three layers of identity:

* the **item key** — the canonical serialization of the object the value
  was computed *from*: an adversary (values + crash events), a
  protocol-complex vertex (process + canonical view key), or a star
  complex's exact isomorphism signature.  The constructive enumerator's
  stream items are the canonical representatives of their process-renaming
  orbits (each carrying its orbit size), so a representative's
  serialization *is* the orbit's canonical form;
* the **spec identity hash** — a SHA-256 over the canonical JSON of the
  parameters the value additionally depends on (the protocol and its ``k``
  for checker verdicts; the complex fingerprint and ``k`` for census
  classes; nothing at all for connectivity profiles, which are a pure
  function of the star's isomorphism class and therefore shared across
  every survey that ever probes an isomorphic star);
* the **row digest** (:func:`repro.store.sqlite.row_digest`) — a SHA-256
  over ``(schema, kind, spec, key, payload)`` verified on every read, so a
  corrupt or misfiled row is detected, never served.

Keys are produced by :func:`stable_key`, one pass of the stdlib C JSON
encoder mapping tuples and sets onto ordered lists (adversary keys join
``str`` of plain ints, their JSON form, onto encoder text) — ``repr`` is
not used anywhere, so the keys are independent of hash randomization and
interpreter version.  Dict keys must be ``str`` (audit:
tests/test_store_keys_differential.py).
"""

from __future__ import annotations

import hashlib
import json
from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, Iterable, List


def _json_form(value: Any) -> Any:
    """The encoder's ``default`` hook: a set as the sorted JSON forms of its members."""
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise TypeError(f"cannot build a stable store key from {type(value).__name__}: {value!r}")
    parts = [_json_form(x) if isinstance(x, (list, tuple, set, frozenset)) else x for x in value]
    return parts if isinstance(value, (list, tuple)) else sorted(parts)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_form)


def stable_key(value: Any) -> str:
    """The canonical (sorted, compact) JSON form of keys, payloads, specs and checkpoints."""
    return _ENCODER.encode(value)


class EncodedPayload:
    """A payload already in its :func:`stable_key` text form.

    :meth:`repro.store.ResultStore.put` stores ``text`` as it is instead of
    encoding the payload again, so a writer that meets one value many times
    (a sweep's clean verdicts) encodes it once.  ``text`` is a plain ``str``:
    SQLite binds a ``str`` subclass through its adapter lookup, per row.
    """

    __slots__ = ("text",)

    def __init__(self, payload: Any) -> None:
        self.text = stable_key(payload)


def spec_hash(spec: Dict[str, Any]) -> str:
    """The spec identity hash: SHA-256 hex over the canonical JSON of ``spec``."""
    return hashlib.sha256(stable_key(spec).encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ item keys
def adversary_keys(adversaries: Iterable) -> List[str]:
    """:func:`adversary_key` of each adversary; a run of consecutive equal
    patterns (an orbit stream's shape) encodes its crash events once.

    An adversary's values are plain non-negative ints (its constructor
    coerces them), whose ``str`` is their JSON form.  Each distinct input
    vector of the call is written out once and joined onto the run's crash
    text: the same bytes as ``stable_key([list(values), crashes])``.
    """
    keys: List[str] = []
    vectors: Dict[tuple, str] = {}
    for pattern, members in groupby(adversaries, attrgetter("pattern")):
        crashes = "]," + _ENCODER.encode(
            [[event.process, event.round, sorted(event.receivers)] for event in pattern.crashes]
        ) + "]"
        for member in members:
            values = member.values
            vector = vectors.get(values)
            if vector is None:
                vector = vectors[values] = "[[" + ",".join(map(str, values))
            keys.append(vector + crashes)
    return keys


def adversary_key(adversary) -> str:
    """The canonical form of one adversary: input vector + crash events.

    Crash events are serialized ``[process, round, sorted(receivers)]`` in
    process order (the :class:`repro.model.failure_pattern.FailurePattern`
    invariant), so equal adversaries — and only equal adversaries — share a
    key.  On the constructive stream the adversary is already its orbit's
    canonical representative, which makes this the orbit's canonical form.
    """
    return adversary_keys((adversary,))[0]


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
