"""The result store's single-pass encoder against the reference walk.

:func:`repro.store.stable_key` is one call of a module-level stdlib
``json.JSONEncoder`` (sorted keys, compact separators) whose ``default``
hook turns sets and frozensets into lists sorted in the order of their JSON
forms.  The reference it replaced — the recursive walk
``repro.oracles._jsonable`` mapping every value onto JSON-representable
structures, then ``json.dumps`` — lives on below as :func:`reference_key`
and :func:`reference_adversary_key`.
Stores written under the walk keep hitting only while every key and
payload the two produce is byte-identical, which this battery checks on
every orbit representative of the n=4 spaces and of n=5 t=2 mcr=2 (keyed a
batch at a time by :func:`repro.store.adversary_keys`, in stream order,
shuffled, and with equal-but-not-identical pattern objects), every vertex
and star-profile key of the n=4 two-round complex, the three payload kinds,
and seeded random nested values.  The write path is checked the same way:
the digest ``ResultStore.put`` commits against :func:`repro.store.row_digest`
on seeded keys and payloads (non-ASCII, newlines), and the checker memo's
payload texts (one per distinct clean verdict) against ``stable_key``.

The contract is narrower than the walk's on one point: **dict keys must be
``str``**.  The walk applied ``str()`` to every key; the encoder leaves
non-``str`` keys to ``json``, so int keys sort numerically rather than as
strings, bool and ``None`` keys are spelled ``true`` / ``false`` / ``null``
rather than ``True`` / ``False`` / ``None``, and tuple keys raise
``TypeError``.  No production caller passes such keys.  The audited call
sites are:

* ``repro.store.keys``: ``adversary_key`` / ``adversary_keys`` (lists),
  ``vertex_key`` and ``profile_key`` (nested tuples, frozensets, ints,
  ``inf``, ``None``), ``CENSUS_ROW_KEY`` (a list of str), ``spec_hash`` over
  ``check_store_spec``, ``census_class_store_spec`` and
  ``PROFILE_STORE_SPEC`` (str-keyed dicts);
* ``repro.store.sqlite``: ``ResultStore.put`` payloads — ``check``
  (``decision_time``, ``violations``), ``census_class`` (``capacity``,
  ``level``), ``census_row`` (``counters``, ``classes``) and ``profile``
  (an int) — and the str fields of ``ResultStore.export``;
* ``repro.service.specs.job_id``: ``spec_hash`` of a normalized job spec,
  whose keys are the fixed str field names;
* ``repro.runtime.checkpoint.canonical_json`` (the same function): the
  checkpoint envelope and stream specs, and survey payloads whose int-keyed
  maps were already encoded by ``json.dumps`` with the same options.
"""

from __future__ import annotations

import json
import math
import random
import sqlite3
from contextlib import closing

import pytest

from repro import oracles
from repro.adversaries import RestrictedSpace
from repro.model import Adversary, Context, FailurePattern
from repro.runtime import canonical_json
from repro.store import (
    EncodedPayload,
    ResultStore,
    adversary_key,
    adversary_keys,
    profile_key,
    row_digest,
    stable_key,
    vertex_key,
)
from repro.symmetry import renaming_star_signature, star_signature
from repro.topology import build_restricted_complex

#: Every restriction of the n=4 spaces whose orbit streams stay small.
N4_SPACES = [
    RestrictedSpace(Context(n=4, t=t, k=2), max_crash_round=mcr, receiver_policy=policy)
    for t in (1, 2, 3)
    for policy in ("none", "canonical", "all")
    for mcr in (1, 2)
]
SPACES = N4_SPACES + [RestrictedSpace(Context(n=5, t=2, k=2), max_crash_round=2)]


def reference_key(value):
    return json.dumps(oracles._jsonable(value), sort_keys=True, separators=(",", ":"))


def reference_adversary_key(adversary):
    return reference_key(
        [
            list(adversary.values),
            [
                [event.process, event.round, sorted(event.receivers)]
                for event in adversary.pattern.crashes
            ],
        ]
    )


def space_id(space):
    return (
        f"n{space.context.n}-t{space.context.t}-mcr{space.max_crash_round}"
        f"-{space.receiver_policy}"
    )


def representatives(space):
    return [orbit.representative for orbit in space.orbits()]


def equal_copies(adversaries):
    """Each adversary rebuilt on a fresh, equal pattern object."""
    return [
        Adversary(a.values, FailurePattern(a.pattern.n, list(a.pattern.crashes)))
        for a in adversaries
    ]


class TestAdversaryKeys:
    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_batch_keys_match_the_walk(self, space):
        members = representatives(space)
        expected = [reference_adversary_key(a) for a in members]
        assert len(set(expected)) == len(expected)
        # Stream order: each pattern's value vectors arrive consecutively.
        assert adversary_keys(members) == expected
        # Shuffled: patterns recur out of order, so nothing is shared.
        order = list(range(len(members)))
        random.Random(space_id(space)).shuffle(order)
        assert adversary_keys(members[i] for i in order) == [expected[i] for i in order]
        # Originals interleaved with copies on fresh, equal pattern objects:
        # neighbours have equal patterns in distinct objects.
        mixed = [a for pair in zip(members, equal_copies(members)) for a in pair]
        keys = adversary_keys(mixed)
        assert keys[0::2] == keys[1::2] == expected

    def test_single_item_form_is_the_batch_form(self):
        members = representatives(N4_SPACES[3])
        assert [adversary_key(a) for a in members] == adversary_keys(members)
        assert adversary_keys([]) == []


@pytest.fixture(scope="module")
def complex_n4m2():
    return build_restricted_complex(Context(n=4, t=2, k=2), 2)


class TestComplexKeys:
    def test_vertex_keys(self, complex_n4m2):
        vertices = list(complex_n4m2.complex.vertices)
        assert len(vertices) == complex_n4m2.complex.vertex_count
        keys = [vertex_key(v) for v in vertices]
        assert keys == [reference_key(v) for v in vertices]
        assert len(set(keys)) == len(keys)
        assert any("Infinity" in key for key in keys)

    @pytest.mark.parametrize("signature", [renaming_star_signature, star_signature])
    def test_profile_keys(self, complex_n4m2, signature):
        for vertex in complex_n4m2.complex.vertices:
            star_key = signature(complex_n4m2.complex.star(vertex))
            for max_q in (None, 0, 1):
                assert profile_key(signature.__name__, star_key, max_q) == reference_key(
                    [signature.__name__, star_key, max_q]
                )


class TestPayloads:
    PAYLOADS = [
        {"decision_time": 2, "violations": []},
        {
            "decision_time": 4,
            "violations": [
                ["k-agreement", "correct processes decided 3 values [0, 1, 2] > k=2", None],
                ["decision", "correct process 2 never decided within horizon 3 — Ω ≤ ∞", 2],
            ],
        },
        {"capacity": 0, "level": -1},
        {"capacity": 2, "level": 1},
        {"counters": [244, 100, 90, 180, 88], "classes": 31},
        {"counters": [0, 0, 0, 0, 0], "classes": 0},
        3,
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_payload_text(self, payload):
        assert stable_key(payload) == reference_key(payload)


def random_text(rng: random.Random, alphabet: str, longest: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))


def random_value(rng: random.Random, depth: int = 0):
    """One seeded nested value of the shapes store keys and payloads take."""
    leaves = [
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice([0.5, -2.25, 1e300, math.inf, -math.inf, rng.random()]),
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: random_text(rng, "aZ0 _\"\\é∞Ωλ\u2264\U0001f600", 6),
    ]
    if depth >= 3 or rng.random() < 0.35:
        return rng.choice(leaves)()
    width = rng.randint(0, 4)
    shape = rng.randrange(5)
    if shape == 0:
        return tuple(random_value(rng, depth + 1) for _ in range(width))
    if shape == 1:
        return [random_value(rng, depth + 1) for _ in range(width)]
    if shape == 2:  # frozensets of ints (past 9: numeric, not text, order) or int tuples
        if rng.random() < 0.5:
            return frozenset(rng.randint(-3, 25) for _ in range(width))
        return frozenset(
            tuple(rng.randint(0, 12) for _ in range(rng.randint(0, 3))) for _ in range(width)
        )
    if shape == 3:  # nested sets: the sort order is the members' JSON order
        return frozenset(
            (rng.randint(0, 3), frozenset(rng.sample(range(6), rng.randint(0, 3))))
            for _ in range(width)
        )
    return {random_text(rng, "abcé∞", 4): random_value(rng, depth + 1) for _ in range(width)}


class TestRandomValues:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_nested_values(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            value = random_value(rng)
            assert stable_key(value) == reference_key(value), value

    def test_sets_sort_by_json_form_not_subset_order(self):
        value = frozenset({(1, frozenset({2, 3})), (1, frozenset({0, 5})), (0, frozenset())})
        assert stable_key(value) == reference_key(value) == "[[0,[]],[1,[0,5]],[1,[2,3]]]"


class TestContract:
    def test_checkpoint_json_is_the_store_encoder(self):
        assert canonical_json is stable_key

    @pytest.mark.parametrize(
        "value", [object(), {(1, 2): 3}, [frozenset({object()})], {"a": {(0,): 1}}]
    )
    def test_unencodable_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            stable_key(value)

    def test_non_str_keys_follow_json(self):
        """The narrowed contract: non-``str`` keys are ``json``'s, not ``str()``'s."""
        assert stable_key({10: "b", 2: "a"}) == '{"2":"a","10":"b"}'
        assert reference_key({10: "b", 2: "a"}) == '{"10":"b","2":"a"}'
        assert stable_key({True: 1}) == '{"true":1}'
        assert reference_key({True: 1}) == '{"True":1}'
        assert stable_key({None: 1}) == '{"null":1}'


class TestWritePath:
    """``ResultStore.put``'s digest and the memo's payload texts against the references.

    ``put`` hashes each ``(kind, spec)`` row prefix once and copies the
    state per row; the committed digest must still be :func:`row_digest`
    (which reads, ``verify()`` and ``export()`` check against).  The
    checker memo encodes one payload text per distinct clean verdict.
    """

    KINDS = ["check", "census_class", "profile", "kind\nwith newline", "ké∞"]

    @staticmethod
    def committed(path):
        with closing(sqlite3.connect(path)) as conn:
            return conn.execute(
                "SELECT kind, spec_hash, item_key, payload, sha256 FROM results ORDER BY rowid"
            ).fetchall()

    @pytest.mark.parametrize("seed", range(8))
    def test_put_digest_is_row_digest(self, tmp_path, seed):
        rng = random.Random(seed)
        alphabet = "aZ0 _\"\\\n\r\té∞Ωλ≤\U0001f600"
        path = str(tmp_path / "store.sqlite")
        specs = [random_text(rng, alphabet, 8) for _ in range(3)] + ["", "a" * 64]
        written = {}
        with ResultStore(path) as store:
            for _ in range(300):
                kind, spec_h = rng.choice(self.KINDS), rng.choice(specs)
                key = random_text(rng, alphabet, 12)
                payload = random_value(rng)
                if rng.random() < 0.5:
                    store.put(kind, spec_h, key, EncodedPayload(payload))
                else:
                    store.put(kind, spec_h, key, payload)
                written.setdefault((kind, spec_h, key), stable_key(payload))
            store.flush()
            assert store.verify() == {"checked": len(written), "corrupt": 0}
        rows = self.committed(path)
        assert len(rows) == len(written)
        for kind, spec_h, key, payload_text, digest in rows:
            assert payload_text == written[kind, spec_h, key]
            assert digest == row_digest(kind, spec_h, key, payload_text)

    def test_encoded_payload_is_stored_as_its_text(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        payload = {"decision_time": 2, "violations": [["v", "é\nΩ", None]]}
        with ResultStore(path) as store:
            store.put("check", "s", "plain", payload)
            store.put("check", "s", "encoded", EncodedPayload(payload))
            # A plain str payload is still a JSON string, not pre-encoded text.
            store.put("check", "s", "string", stable_key(payload))
            store.flush()
            assert store.get("check", "s", "encoded") == payload
        texts = {row[2]: row[3] for row in self.committed(path)}
        assert texts["plain"] == texts["encoded"] == stable_key(payload)
        assert texts["string"] == stable_key(stable_key(payload))

    def test_memo_texts_are_per_distinct_clean_verdict(self, tmp_path):
        from repro.runtime.runner import _check_memo
        from repro.verification.properties import Violation

        members = representatives(SPACES[-1])[:400]
        rng = random.Random(7)
        verdicts = []
        for _ in members:
            if rng.random() < 0.2:
                verdicts.append(
                    (rng.choice([1, 2]), [Violation("decision", f"process {rng.randrange(5)}", 1)])
                )
            else:
                verdicts.append((rng.choice([None, 0, 1, 2, 3]), []))
        path = str(tmp_path / "store.sqlite")
        with ResultStore(path) as store:
            memo = _check_memo(store, "spec")
            memo.lookup([(i, adversary, 1) for i, adversary in enumerate(members)])
            for position, verdict in enumerate(verdicts):
                memo.save(position, verdict)
            store.flush()
            # Only clean verdicts are cached, one text per decision time.
            clean_times = {time for time, violations in verdicts if not violations}
            assert sorted(memo.texts, key=repr) == sorted(
                ((time,) for time in clean_times), key=repr
            )
            texts = [payload.text for payload in memo.texts.values()]
            assert len(set(texts)) == len(texts)
        expected = [
            stable_key({
                "decision_time": time,
                "violations": [[v.property_name, v.message, v.process] for v in violations],
            })
            for time, violations in verdicts
        ]
        rows = self.committed(path)
        assert [row[2] for row in rows] == adversary_keys(members)
        assert [row[3] for row in rows] == expected
        for kind, spec_h, key, payload_text, digest in rows:
            assert digest == row_digest(kind, spec_h, key, payload_text)

    def test_census_memo_texts_are_per_distinct_verdict(self, tmp_path):
        from repro.runtime.runner import _census_class_memo

        rng = random.Random(11)
        vertices = [(p, (i, frozenset({p}))) for p in range(3) for i in range(60)]
        verdicts = [(rng.randrange(4), rng.choice([-1, 0, 1, None])) for _ in vertices]
        path = str(tmp_path / "store.sqlite")
        with ResultStore(path) as store:
            memo = _census_class_memo(store, "spec")
            memo.lookup([(vertex, 1) for vertex in vertices])
            for position, verdict in enumerate(verdicts):
                memo.save(position, verdict)
            store.flush()
            assert set(memo.texts) == set(verdicts)
        rows = self.committed(path)
        assert [row[2] for row in rows] == [vertex_key(vertex) for vertex in vertices]
        assert [row[3] for row in rows] == [
            stable_key({"capacity": capacity, "level": level}) for capacity, level in verdicts
        ]
