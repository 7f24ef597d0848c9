"""End-to-end integration tests across all subsystems."""

import json

import numpy as np
import pytest

from repro.cache import LRUCache, OptReplayCache, RandomCache
from repro.core import (
    LFOModel,
    LFOOnline,
    OptLabelConfig,
    prepare_windows,
    train_and_evaluate,
)
from repro.gbdt import GBDTClassifier, GBDTParams
from repro.opt import opt_bhr_bounds, solve_opt
from repro.sim import simulate
from repro.trace import (
    ContentClass,
    Trace,
    compute_stats,
    generate_adversarial_scan,
    generate_mixed_trace,
    read_binary_trace,
    write_binary_trace,
)


@pytest.fixture(scope="module")
def mix_trace():
    web = ContentClass("web", 400, 1.1, 40, 1.0, 800)
    photo = ContentClass("photo", 2_500, 0.6, 100, 0.8, 2_000)
    software = ContentClass("software", 40, 0.9, 3_000, 1.0, 30_000)
    return generate_mixed_trace(
        [web, photo, software], [0.55, 0.35, 0.10],
        n_requests=6_000, seed=42,
    )


@pytest.fixture(scope="module")
def mix_cache(mix_trace):
    return compute_stats(mix_trace).footprint_bytes // 12


class TestFullPipeline:
    """Trace -> features -> OPT labels -> training -> deployment."""

    def test_offline_accuracy_beats_baseline(self, mix_trace, mix_cache):
        windows = prepare_windows(
            mix_trace, mix_cache, train_size=3_000, test_size=3_000,
            label_config=OptLabelConfig(mode="segmented", segment_length=750),
        )
        report = train_and_evaluate(windows)
        base_rate = windows.test.y.mean()
        majority_error = min(base_rate, 1 - base_rate)
        assert report.prediction_error < 0.75 * majority_error

    def test_online_lfo_beats_random_and_lru(self, mix_trace, mix_cache):
        lfo = LFOOnline(
            mix_cache, window=1_500,
            gbdt_params=GBDTParams(num_iterations=15),
            label_config=OptLabelConfig(mode="segmented", segment_length=750),
        )
        r_lfo = simulate(mix_trace, lfo, warmup_fraction=0.25)
        r_rnd = simulate(
            mix_trace, RandomCache(mix_cache), warmup_fraction=0.25
        )
        r_lru = simulate(mix_trace, LRUCache(mix_cache), warmup_fraction=0.25)
        assert r_lfo.bhr > r_rnd.bhr
        assert r_lfo.bhr > r_lru.bhr

    def test_lfo_below_opt_bounds(self, mix_trace, mix_cache):
        lfo = LFOOnline(
            mix_cache, window=1_500,
            gbdt_params=GBDTParams(num_iterations=15),
            label_config=OptLabelConfig(mode="segmented", segment_length=750),
        )
        r_lfo = simulate(mix_trace, lfo, warmup_fraction=0.25)
        _, bhr_upper = opt_bhr_bounds(mix_trace, mix_cache, 1_500)
        assert r_lfo.bhr <= bhr_upper + 0.02

    def test_model_roundtrip_through_json(self, mix_trace, mix_cache):
        """A model survives full JSON serialisation and behaves identically
        inside a cache policy."""
        windows = prepare_windows(
            mix_trace, mix_cache, train_size=2_000, test_size=2_000,
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
        )
        report = train_and_evaluate(
            windows, params=GBDTParams(num_iterations=10)
        )
        payload = json.dumps(report.model.classifier.to_dict())
        classifier = GBDTClassifier.from_dict(json.loads(payload))
        restored = LFOModel(
            classifier.compiled(), report.model.cutoff, classifier
        )
        assert np.allclose(
            restored.likelihood(windows.test.X), report.likelihoods
        )


class TestScanRobustness:
    """Adversarial one-touch scans (the paper's robustness motivation)."""

    def test_lfo_ignores_scan_objects_after_training(self, mix_trace, mix_cache):
        """Once trained, LFO should refuse most never-reused scan objects,
        whereas LRU churns its whole cache."""
        scan = generate_adversarial_scan(
            2_000, object_size=500,
            start_time=float(mix_trace.times[-1]) + 1.0,
        )
        combined = Trace(mix_trace.requests + scan.requests)

        lfo = LFOOnline(
            mix_cache, window=2_000,
            gbdt_params=GBDTParams(num_iterations=15),
            label_config=OptLabelConfig(mode="segmented", segment_length=500),
        )
        lru = LRUCache(mix_cache)
        simulate(combined, lfo)
        simulate(combined, lru)

        scan_ids = set(scan.objs.tolist())
        lfo_polluted = sum(1 for o in scan_ids if lfo.contains(o))
        lru_polluted = sum(1 for o in scan_ids if lru.contains(o))
        assert lfo_polluted < lru_polluted

    def test_trace_io_roundtrip_preserves_simulation(self, mix_trace, tmp_path):
        path = tmp_path / "trace.bin"
        write_binary_trace(mix_trace, path)
        back = read_binary_trace(path)
        cache = 10_000
        assert (
            simulate(back, LRUCache(cache)).bhr
            == simulate(mix_trace, LRUCache(cache)).bhr
        )


class TestOptReplayConsistency:
    def test_replayed_opt_brackets_hold(self, mix_trace, mix_cache):
        """Exact OPT decisions replayed in a real cache give a BHR within
        the computed OPT bounds (up to the knock-on effects of Section 5)."""
        window = mix_trace[:2_000]
        opt = solve_opt(window, mix_cache)
        replay = OptReplayCache(
            mix_cache, opt.decisions, window, eviction="belady"
        )
        bhr = simulate(window, replay, warmup_fraction=0.0).bhr
        lo, hi = opt_bhr_bounds(window, mix_cache, 2_000)
        assert bhr <= hi + 0.05
