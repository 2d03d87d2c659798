"""Durable, self-healing result store (see :mod:`repro.store.sqlite`)."""

from .keys import (
    CENSUS_ROW_KEY,
    PROFILE_SPEC_HASH,
    PROFILE_STORE_SPEC,
    EncodedPayload,
    adversary_key,
    adversary_keys,
    census_class_store_spec,
    check_store_spec,
    profile_key,
    spec_hash,
    stable_key,
    vertex_key,
)
from .sqlite import STORE_SCHEMA, ResultStore, row_digest

__all__ = [
    "CENSUS_ROW_KEY",
    "PROFILE_SPEC_HASH",
    "PROFILE_STORE_SPEC",
    "EncodedPayload",
    "ResultStore",
    "STORE_SCHEMA",
    "adversary_key",
    "adversary_keys",
    "census_class_store_spec",
    "check_store_spec",
    "profile_key",
    "row_digest",
    "spec_hash",
    "stable_key",
    "vertex_key",
]
