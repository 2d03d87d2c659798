"""Shared fixtures for the test-suite.

The fixtures provide small contexts, deterministic adversary generators and
the paper's figure scenarios, so that individual test modules stay focused on
behaviour rather than setup.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.adversaries import (
    AdversaryGenerator,
    figure1_scenario,
    figure2_scenario,
    figure4_scenario,
)
from repro.model import Adversary, Context, CrashEvent, FailurePattern


@pytest.fixture
def small_context() -> Context:
    """A small context used by the randomised integration tests."""
    return Context(n=6, t=4, k=2)


@pytest.fixture
def tiny_context() -> Context:
    """A context small enough for exhaustive enumeration."""
    return Context(n=3, t=2, k=1, max_value=1)


@pytest.fixture
def consensus_context() -> Context:
    """A binary-consensus context (k = 1)."""
    return Context(n=5, t=3, k=1, max_value=1)


@pytest.fixture
def generator(small_context: Context) -> AdversaryGenerator:
    """A deterministic adversary generator over the small context."""
    return AdversaryGenerator(small_context, seed=20160523)


@pytest.fixture
def random_adversaries(generator: AdversaryGenerator):
    """A fixed batch of random adversaries from the small context."""
    return generator.sample(120)


@pytest.fixture
def fig1():
    """The Fig. 1 hidden-path scenario (chain length 2)."""
    return figure1_scenario(chain_length=2)


@pytest.fixture
def fig2():
    """The Fig. 2 hidden-capacity scenario (k = 3, depth 2)."""
    return figure2_scenario(k=3, depth=2)


@pytest.fixture
def fig4():
    """The Fig. 4 uniform speed-up scenario (k = 3, 4 heavy rounds)."""
    return figure4_scenario(k=3, rounds=4)


@pytest.fixture
def failure_free_adversary() -> Adversary:
    """A failure-free adversary on five processes with values 0..2."""
    return Adversary([0, 1, 2, 2, 1], FailurePattern.failure_free(5))


@pytest.fixture
def single_silent_crash() -> Adversary:
    """One process crashes in round 1 without delivering anything."""
    return Adversary(
        [0, 1, 1, 1, 1],
        FailurePattern(5, [CrashEvent(0, 1, frozenset())]),
    )


@pytest.fixture
def fresh_interpreter():
    """Run ``python -c code`` in a new interpreter that imports this checkout's ``repro``."""
    source_root = str(Path(repro.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )

    return run
