"""``simulate(..., batch_size=N)``: opt-outs, support flags, telemetry.

That batched hits equal the scalar loop's is pinned for every engine at
once in ``tests/test_engines_differential.py`` (with ``batch_size`` as a
no-op for every non-LFO policy); here: an LFO that cannot be batched
silently falls back to the scalar loop.
"""

import numpy as np
import pytest

from repro.cache import CachePolicy, LRUCache
from repro.core import LFOCache, LFOModel, LFOOnline
from repro.core.pipeline import prepare_windows
from repro.obs import MetricsRegistry, use_registry
from repro.sim import simulate
from repro.trace import SyntheticConfig, Trace, generate_trace

CACHE_SIZE = 60_000


@pytest.fixture(scope="module")
def setup():
    """A trained model plus the unseen tail of the trace it came from."""
    trace = generate_trace(
        SyntheticConfig(
            n_requests=9000, n_objects=500, size_median=20,
            size_sigma=1.0, size_max=400, seed=29,
        )
    )
    windows = prepare_windows(
        trace, cache_size=CACHE_SIZE, train_size=4000, test_size=500
    )
    model = LFOModel.train(windows.train)
    tail = Trace(requests=trace.requests[4500:])
    return model, tail


def run(tail, policy, batch_size):
    return simulate(tail, policy, batch_size=batch_size)


class TestFallbacks:
    def test_rescore_interval_opts_out(self, setup):
        model, tail = setup
        policy = LFOCache(CACHE_SIZE, model=model, rescore_interval=100)
        assert not policy.supports_batched_scoring
        a = run(tail, policy, 256)
        b = run(
            tail, LFOCache(CACHE_SIZE, model=model, rescore_interval=100), 0
        )
        assert np.array_equal(a.hits, b.hits)


class TestSupportFlags:
    def test_base_policy_opts_out(self):
        assert not LRUCache(100).supports_batched_scoring
        assert isinstance(LRUCache(100), CachePolicy)

    def test_lfo_requires_model(self):
        assert not LFOCache(100).supports_batched_scoring

    def test_lfo_with_static_model_opts_in(self, setup):
        model, _ = setup
        assert LFOCache(100, model=model).supports_batched_scoring

    def test_online_opts_out(self, setup):
        model, _ = setup
        online = LFOOnline(CACHE_SIZE, window=1000)
        assert not online.supports_batched_scoring
        online.set_model(model)
        assert not online.supports_batched_scoring


class TestObservability:
    def test_batch_counters_recorded(self, setup):
        model, tail = setup
        registry = MetricsRegistry()
        with use_registry(registry):
            run(tail, LFOCache(CACHE_SIZE, model=model), 128)
        snapshot = registry.to_dict()
        assert snapshot["histograms"]["features.batch_rows"]["count"] > 0
        assert (
            snapshot["histograms"]["features.batch_extract_seconds"]["count"]
            > 0
        )
