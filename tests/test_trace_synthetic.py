"""Tests for synthetic workload generation."""

import numpy as np
import pytest

from repro.trace import (
    ContentClass,
    SyntheticConfig,
    compute_stats,
    generate_adversarial_scan,
    generate_mix_shift_trace,
    generate_mixed_trace,
    generate_trace,
    sample_sizes,
    zipf_weights,
)
from repro.trace import synthetic

# Four content classes loosely shaped like the types a CDN serves.
WEB_CLASS = ContentClass("web", 4000, 0.9, 12_000, 1.2, 2_000_000)
PHOTO_CLASS = ContentClass("photo", 8000, 0.7, 40_000, 0.9, 4_000_000)
VIDEO_CLASS = ContentClass("video", 1500, 1.1, 1_500_000, 0.8, 50_000_000)
SOFTWARE_CLASS = ContentClass("software", 200, 1.3, 20_000_000, 1.0, 1_000_000_000)


class TestZipfWeights:
    def test_normalised(self):
        w = zipf_weights(100, 0.8)
        assert np.isclose(w.sum(), 1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(50, 1.0)
        assert (np.diff(w) < 0).all()

    def test_alpha_zero_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_higher_alpha_more_skewed(self):
        w_low = zipf_weights(100, 0.5)
        w_high = zipf_weights(100, 1.5)
        assert w_high[0] > w_low[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)


class TestSampleSizes:
    def test_bounds_respected(self):
        rng = np.random.default_rng(0)
        sizes = sample_sizes(rng, 1000, median=100, sigma=2.0, max_size=5000)
        assert sizes.min() >= 1
        assert sizes.max() <= 5000

    def test_median_roughly_matches(self):
        rng = np.random.default_rng(0)
        sizes = sample_sizes(rng, 20_000, median=1000, sigma=0.5, max_size=10**9)
        assert 800 < np.median(sizes) < 1250


class TestGenerateTrace:
    def test_deterministic_given_seed(self):
        cfg = SyntheticConfig(n_requests=500, n_objects=50, seed=9)
        t1 = generate_trace(cfg)
        t2 = generate_trace(cfg)
        assert t1.requests == t2.requests

    def test_different_seeds_differ(self):
        t1 = generate_trace(SyntheticConfig(n_requests=500, seed=1))
        t2 = generate_trace(SyntheticConfig(n_requests=500, seed=2))
        assert t1.requests != t2.requests

    def test_request_count(self):
        t = generate_trace(SyntheticConfig(n_requests=321, n_objects=40))
        assert len(t) == 321

    def test_sizes_consistent_per_object(self):
        t = generate_trace(SyntheticConfig(n_requests=2000, n_objects=100))
        t.validate()  # raises on per-object size inconsistency

    def test_times_monotone(self):
        t = generate_trace(SyntheticConfig(n_requests=1000, n_objects=100))
        assert (np.diff(t.times) >= 0).all()

    def test_locality_increases_short_reuse(self):
        base = SyntheticConfig(
            n_requests=5000, n_objects=2000, alpha=0.4, seed=3, locality=0.0
        )
        local = SyntheticConfig(
            n_requests=5000, n_objects=2000, alpha=0.4, seed=3, locality=0.6
        )
        def short_reuse_fraction(trace):
            nxt = trace.next_occurrence()
            idx = np.arange(len(trace))
            d = nxt - idx
            return ((d > 0) & (d < 100)).mean()
        assert short_reuse_fraction(generate_trace(local)) > short_reuse_fraction(
            generate_trace(base)
        )

    def test_zipf_alpha_recovered(self):
        """The Zipf exponent that maximises the likelihood of the ranked
        popularity counts, on a 0.01 grid over [0, 5], is the one asked
        for."""
        grid = np.linspace(0.0, 5.0, 501)
        for alpha in (0.6, 1.0, 1.4):
            trace = generate_trace(
                SyntheticConfig(
                    n_requests=30_000, n_objects=500, alpha=alpha, seed=8
                )
            )
            _, counts = np.unique(trace.objs, return_counts=True)
            counts = np.sort(counts)[::-1].astype(np.float64)
            log_ranks = np.log(np.arange(1, len(counts) + 1, dtype=np.float64))
            log_weights = -grid[:, None] * log_ranks[None, :]
            top = log_weights.max(axis=1, keepdims=True)
            log_norm = top + np.log(
                np.exp(log_weights - top).sum(axis=1, keepdims=True)
            )
            log_likelihood = ((log_weights - log_norm) * counts).sum(axis=1)
            fitted = grid[np.argmax(log_likelihood)]
            assert fitted == pytest.approx(alpha, abs=0.12)

    def test_size_median_and_sigma_recovered(self):
        trace = generate_trace(
            SyntheticConfig(
                n_requests=8000, n_objects=600, alpha=1.0,
                size_median=100, size_sigma=0.8, size_max=10_000, seed=4,
            )
        )
        _, first = np.unique(trace.objs, return_index=True)  # first-seen sizes
        sizes = trace.sizes[first].astype(np.float64)
        assert 60 < np.median(sizes) < 170
        assert 0.4 < np.log(sizes).std() < 1.2


class TestMixedTraces:
    def test_mixed_disjoint_id_spaces(self):
        t = generate_mixed_trace(
            [WEB_CLASS, VIDEO_CLASS], [0.5, 0.5], n_requests=2000, seed=5
        )
        web_ids = t.objs[t.objs < WEB_CLASS.n_objects]
        video_ids = t.objs[t.objs >= WEB_CLASS.n_objects]
        assert len(web_ids) > 0 and len(video_ids) > 0
        assert video_ids.max() < WEB_CLASS.n_objects + VIDEO_CLASS.n_objects

    def test_mixed_share_validation(self):
        with pytest.raises(ValueError):
            generate_mixed_trace([WEB_CLASS], [0.5, 0.5], 100)
        with pytest.raises(ValueError):
            generate_mixed_trace([WEB_CLASS], [-1.0], 100)

    def test_video_objects_larger_than_web(self):
        t = generate_mixed_trace(
            [WEB_CLASS, VIDEO_CLASS], [0.5, 0.5], n_requests=3000, seed=5
        )
        web_mask = t.objs < WEB_CLASS.n_objects
        assert t.sizes[~web_mask].mean() > t.sizes[web_mask].mean() * 5

    def test_mix_shift_changes_class_shares(self):
        t = generate_mix_shift_trace(
            [WEB_CLASS, SOFTWARE_CLASS],
            phase_shares=[[1.0, 0.0], [0.0, 1.0]],
            requests_per_phase=1000,
            seed=2,
        )
        first, second = t.objs[:1000], t.objs[1000:]
        assert (first < WEB_CLASS.n_objects).all()
        assert (second >= WEB_CLASS.n_objects).all()

    def test_mix_shift_times_monotone(self):
        t = generate_mix_shift_trace(
            [WEB_CLASS, PHOTO_CLASS], [[0.7, 0.3], [0.3, 0.7]], 500, seed=1
        )
        assert (np.diff(t.times) > 0).all()


class TestScan:
    def test_every_object_unique(self):
        t = generate_adversarial_scan(500)
        assert len(np.unique(t.objs)) == 500

    def test_stats_show_all_one_hit_wonders(self):
        t = generate_adversarial_scan(200)
        stats = compute_stats(t)
        assert stats.one_hit_wonder_ratio == 1.0
        assert stats.compulsory_miss_ratio == 1.0


class TestHeterogeneousCosts:
    def test_cost_median_draws_latency_costs(self):
        cheap = ContentClass("cheap", 50, 1.0, 100, 0.5, 1000,
                             cost_median=10.0, cost_sigma=0.2)
        dear = ContentClass("dear", 50, 1.0, 100, 0.5, 1000,
                            cost_median=1000.0, cost_sigma=0.2)
        t = generate_mixed_trace([cheap, dear], [0.5, 0.5], 2000, seed=3)
        cheap_mask = t.objs < 50
        assert t.costs[cheap_mask].mean() * 10 < t.costs[~cheap_mask].mean()

    def test_default_cost_is_size(self):
        cls = ContentClass("plain", 50, 1.0, 100, 0.5, 1000)
        t = generate_mixed_trace([cls], [1.0], 500, seed=4)
        assert (t.costs == t.sizes).all()

    def test_costs_consistent_per_object(self):
        cls = ContentClass("lat", 30, 1.0, 100, 0.5, 1000, cost_median=50.0)
        t = generate_mixed_trace([cls], [1.0], 1000, seed=5)
        seen = {}
        for r in t:
            if r.obj in seen:
                assert seen[r.obj] == r.cost
            seen[r.obj] = r.cost

    def test_mix_shift_carries_costs(self):
        cls = ContentClass("lat", 30, 1.0, 100, 0.5, 1000, cost_median=50.0)
        t = generate_mix_shift_trace([cls], [[1.0], [1.0]], 300, seed=6)
        assert (t.costs != t.sizes).any()


class TestObjectDrawsAreTheChoiceLoop:
    """The generators draw a window's objects with one ``random(n)`` and a
    ``searchsorted`` per class; the reference here is what they replaced:
    ``rng.choice(ids, p=weights)`` once per request."""

    CLASSES = [
        WEB_CLASS,
        ContentClass("tiny", 3, 0.0, 50, 0.5, 500),
        ContentClass("priced", 700, 1.3, 900, 1.0, 90_000, cost_median=40.0),
    ]

    @staticmethod
    def _phase(rng, catalogues, shares, n):
        """One phase of the per-request loop: ``(class, obj)`` draws."""
        shares = np.asarray(shares, dtype=np.float64)
        class_draw = rng.choice(len(catalogues), size=n, p=shares / shares.sum())
        gaps = rng.exponential(1.0, size=n)
        objs = [
            int(rng.choice(catalogues[c][0], p=catalogues[c][1]))
            for c in class_draw
        ]
        return class_draw, gaps, objs

    @pytest.mark.parametrize("seed", [0, 1, 42])
    @pytest.mark.parametrize(
        "shares", [(0.55, 0.35, 0.10), (1.0, 0.0, 0.0), (2.0, 5.0, 3.0)]
    )
    def test_mixed(self, seed, shares):
        rng = np.random.default_rng(seed)
        catalogues = synthetic._build_catalogues(rng, self.CLASSES)
        class_draw, gaps, objs = self._phase(rng, catalogues, shares, 1500)
        trace = generate_mixed_trace(self.CLASSES, shares, 1500, seed=seed)
        assert trace.objs.tolist() == objs
        assert np.array_equal(trace.times, np.cumsum(gaps))
        for c, request in zip(class_draw, trace):
            _ids, _weights, sizes, costs = catalogues[c]
            assert request.size == sizes[request.obj]
            assert request.cost == costs.get(request.obj, request.size)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "phases",
        [
            [(0.7, 0.2, 0.1), (0.1, 0.2, 0.7)],
            [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0)],
            [(0.2, 0.3, 0.5)],
        ],
    )
    def test_mix_shift(self, seed, phases):
        rng = np.random.default_rng(seed)
        catalogues = synthetic._build_catalogues(rng, self.CLASSES)
        objs, times, now = [], [], 0.0
        for shares in phases:
            _classes, gaps, drawn = self._phase(rng, catalogues, shares, 400)
            objs.extend(drawn)
            for gap in gaps:
                now += float(gap)
                times.append(now)
        trace = generate_mix_shift_trace(self.CLASSES, phases, 400, seed=seed)
        assert trace.objs.tolist() == objs
        assert trace.times.tolist() == times
