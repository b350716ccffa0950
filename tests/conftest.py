"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.profile import LinearProfile, TabulatedProfile
from repro.core.session import Session, SessionLoad

# Tier-1 must be a function of the tree: fixed draws, and no example
# database whose git-ignored leftovers could replay an old failure.
# ``HYPOTHESIS_PROFILE`` selects another registered profile instead.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def table2_profiles():
    """The paper's Table 2 batching profiles for models A, B, C."""
    return {
        "A": TabulatedProfile(name="A", points=((4, 50.0), (8, 75.0), (16, 100.0))),
        "B": TabulatedProfile(name="B", points=((4, 50.0), (8, 90.0), (16, 125.0))),
        "C": TabulatedProfile(name="C", points=((4, 60.0), (8, 95.0), (16, 125.0))),
    }


@pytest.fixture
def table2_loads(table2_profiles):
    """Section 4.1's residual workload: A=64 r/s, B=C=32 r/s."""
    return [
        SessionLoad(Session("A", 200.0), 64.0, table2_profiles["A"]),
        SessionLoad(Session("B", 250.0), 32.0, table2_profiles["B"]),
        SessionLoad(Session("C", 250.0), 32.0, table2_profiles["C"]),
    ]


def linear(alpha: float = 1.0, beta: float = 10.0, name: str = "m",
           max_batch: int = 64, **kw) -> LinearProfile:
    return LinearProfile(name=name, alpha=alpha, beta=beta,
                         max_batch=max_batch, **kw)


@pytest.fixture
def make_linear():
    return linear
