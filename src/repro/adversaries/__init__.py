"""Adversary construction: random generators, the paper's figures, Lemma 2 surgery, enumeration,
and the per-round crash family of the Proposition 2 complexes."""

from .enumeration import (
    AdversaryOrbit,
    RestrictedSpace,
    constructive_orbit_stream,
    constructive_quotient,
    count_orbits,
    enumerate_adversaries,
    enumerate_failure_patterns,
    enumerate_input_vectors,
    enumerate_orbits,
    estimate_adversary_count,
    pattern_and_orbit_counts,
)
from .generators import (
    AdversaryGenerator,
    crash_chain_events,
)
from .per_round import PerRoundCrashFamily
from .scenarios import Scenario, figure1_scenario, figure2_scenario, figure4_scenario
from .surgery import SurgeryCheck, SurgeryResult, lemma2_surgery, verify_surgery

__all__ = [
    "AdversaryGenerator",
    "AdversaryOrbit",
    "PerRoundCrashFamily",
    "RestrictedSpace",
    "Scenario",
    "SurgeryCheck",
    "SurgeryResult",
    "constructive_orbit_stream",
    "constructive_quotient",
    "count_orbits",
    "crash_chain_events",
    "enumerate_adversaries",
    "enumerate_failure_patterns",
    "enumerate_input_vectors",
    "enumerate_orbits",
    "estimate_adversary_count",
    "pattern_and_orbit_counts",
    "figure1_scenario",
    "figure2_scenario",
    "figure4_scenario",
    "lemma2_surgery",
    "verify_surgery",
]
