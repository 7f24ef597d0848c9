"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import _native
from repro.trace import Request, SyntheticConfig, Trace, generate_trace


@pytest.fixture(scope="session")
def native():
    """Skip unless the native module loads: for tests that hold a C
    routine equal to its Python reference."""
    if _native.load() is None:
        pytest.skip("native module unavailable (no C compiler, or REPRO_GBDT_NO_CC)")


@pytest.fixture
def python_fallback(monkeypatch):
    """Run the test as if the native module could not be built: numpy
    prediction backend and split search, Python min-cost-flow loop, the
    tracker's numpy window gather and immediate (never deferred) records."""
    monkeypatch.setattr(_native, "_state", False)


@pytest.fixture
def paper_trace() -> Trace:
    """The exact example trace of the paper's Figure 3.

    Objects a, b, c, d with sizes 3, 1, 1, 2; request sequence
    a b c b d a c d a b b a.  Costs default to sizes (BHR objective).
    """
    ids = {"a": 0, "b": 1, "c": 2, "d": 3}
    sizes = {"a": 3, "b": 1, "c": 1, "d": 2}
    sequence = "a b c b d a c d a b b a".split()
    return Trace(
        [Request(t, ids[o], sizes[o]) for t, o in enumerate(sequence)],
        name="figure3",
    )


@pytest.fixture
def small_zipf_trace() -> Trace:
    """A small, deterministic Zipf trace with variable sizes."""
    return generate_trace(
        SyntheticConfig(
            n_requests=2000,
            n_objects=300,
            alpha=0.9,
            size_median=20,
            size_sigma=1.0,
            size_max=500,
            seed=123,
        )
    )


@pytest.fixture
def unit_size_trace() -> Trace:
    """A unit-size unit-cost trace (Belady-comparable)."""
    rng = np.random.default_rng(7)
    objs = rng.integers(0, 40, size=600)
    return Trace([Request(i, int(o), 1, 1.0) for i, o in enumerate(objs)])
