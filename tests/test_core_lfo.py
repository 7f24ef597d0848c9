"""Tests for the LFO model and cache policy."""

import numpy as np
import pytest

from repro.core import LFOCache, LFOModel, LFOOnline, error_rates
from repro.features import Dataset, FeatureTracker, feature_names
from repro.gbdt import CompiledPredictor, GBDTParams
from repro.trace import Request


def _toy_model(cutoff=0.5, n_gaps=4, positive_small=True):
    """A model trained to admit small objects (or large, when inverted)."""
    rng = np.random.default_rng(0)
    n = 2000
    names = feature_names(n_gaps)
    X = np.zeros((n, len(names)))
    X[:, 0] = rng.integers(1, 100, size=n)  # size
    X[:, 1] = X[:, 0]
    X[:, 2] = rng.integers(0, 1000, size=n)
    X[:, 3:] = rng.exponential(10, size=(n, n_gaps))
    if positive_small:
        y = (X[:, 0] < 50).astype(float)
    else:
        y = (X[:, 0] >= 50).astype(float)
    ds = Dataset(X, y, names)
    return LFOModel.train(
        ds, params=GBDTParams(num_iterations=10), cutoff=cutoff
    )


def _live_rank(policy, obj):
    """The score ``obj`` is ranked by: its one heap entry whose stamp is
    the live one (superseded entries stay in the heap until compacted)."""
    ranked = policy._ranked
    (score,) = [
        score for score, stamp, entry in ranked._heap
        if entry == obj and stamp == ranked._stamp[obj]
    ]
    return score


class TestLFOModel:
    def test_likelihood_shape(self):
        model = _toy_model()
        X = np.zeros((5, 3 + 4))
        X[:, 0] = [10, 20, 60, 80, 90]
        p = model.likelihood(X)
        assert p.shape == (5,)

    def test_learned_size_rule(self):
        model = _toy_model()
        small = np.zeros(7)
        small[0] = 10
        small[1] = 10
        big = small.copy()
        big[0] = 90
        big[1] = 90
        assert model.admit(small)
        assert not model.admit(big)

    def test_prediction_error_zero_on_learnable_rule(self):
        model = _toy_model()
        X = np.zeros((100, 7))
        X[:, 0] = np.linspace(1, 99, 100)
        X[:, 1] = X[:, 0]
        y = (X[:, 0] < 50).astype(float)
        error, _, _ = error_rates(model.likelihood(X), y, model.cutoff)
        assert error < 0.05

    def test_cutoff_changes_decisions(self):
        lenient = _toy_model(cutoff=0.01)
        strict = _toy_model(cutoff=0.99)
        borderline = np.zeros(7)
        borderline[0] = 49
        borderline[1] = 49
        assert lenient.admit(borderline) or not strict.admit(borderline)


class TestLFOCache:
    def test_cold_start_behaves_like_lru(self):
        policy = LFOCache(cache_size=20, model=None, n_gaps=4)
        policy.on_request(Request(0, 1, 10))
        policy.on_request(Request(1, 2, 10))
        policy.on_request(Request(2, 1, 10))  # refresh 1
        policy.on_request(Request(3, 3, 10))  # evicts 2 (LRU)
        assert policy.contains(1)
        assert not policy.contains(2)

    def test_admission_follows_model(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(cache_size=1000, model=model, n_gaps=4)
        policy.on_request(Request(0, 1, 10))   # small: admitted
        policy.on_request(Request(1, 2, 90))   # large: rejected
        assert policy.contains(1)
        assert not policy.contains(2)

    def test_eviction_targets_lowest_likelihood(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(cache_size=70, model=model, n_gaps=4)
        policy.on_request(Request(0, 1, 40))  # small-ish: mid likelihood
        policy.on_request(Request(1, 2, 10))  # small: high likelihood
        policy.on_request(Request(2, 3, 30))  # forces eviction of obj 1
        assert not policy.contains(1)
        assert policy.contains(2)
        assert policy.contains(3)

    def test_rescore_on_hit(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(cache_size=100, model=model, n_gaps=4)
        policy.on_request(Request(0, 1, 10))
        before = _live_rank(policy, 1)
        policy.on_request(Request(50.0, 1, 10))
        after = _live_rank(policy, 1)
        # The score was recomputed (gap features changed the input).
        ranked = policy._ranked
        assert before != after or ranked._stamp[1] == ranked._counter

    def test_capacity_invariant_with_model(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(cache_size=150, model=model, n_gaps=4)
        rng = np.random.default_rng(1)
        sizes = {}
        for t in range(400):
            obj = int(rng.integers(0, 60))
            size = sizes.setdefault(obj, int(rng.integers(1, 80)))
            policy.on_request(Request(float(t), obj, size))
            assert 0 <= policy.used_bytes <= 150

    def test_set_model_swaps_behaviour(self):
        policy = LFOCache(cache_size=1000, model=None, n_gaps=4)
        policy.on_request(Request(0, 1, 90))  # cold start admits anything
        assert policy.contains(1)
        policy.set_model(_toy_model(n_gaps=4))
        policy.on_request(Request(1, 2, 90))  # now rejected: too large
        assert not policy.contains(2)

    def test_last_features_exposed(self):
        policy = LFOCache(cache_size=100, n_gaps=4)
        policy.on_request(Request(0, 1, 10))
        assert policy.last_features is not None
        assert policy.last_features[0] == 10

    def test_reset(self):
        policy = LFOCache(cache_size=100, model=_toy_model(n_gaps=4), n_gaps=4)
        policy.on_request(Request(0, 1, 10))
        policy.reset()
        assert policy.used_bytes == 0
        assert policy.last_features is None

    def test_tracker_shared(self):
        tracker = FeatureTracker(n_gaps=4)
        policy = LFOCache(cache_size=100, n_gaps=4, tracker=tracker)
        policy.on_request(Request(0, 1, 10))
        assert tracker.n_tracked == 1


class TestLFOVariants:
    def test_invalid_eviction_mode(self):
        with pytest.raises(ValueError):
            LFOCache(cache_size=100, eviction="random")

    def test_invalid_rescore_interval(self):
        with pytest.raises(ValueError):
            LFOCache(cache_size=100, rescore_interval=-1)

    def test_lru_eviction_ignores_scores(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(
            cache_size=70, model=model, n_gaps=4, eviction="lru"
        )
        policy.on_request(Request(0, 1, 40))  # mid likelihood, oldest
        policy.on_request(Request(1, 2, 10))  # high likelihood
        policy.on_request(Request(2, 3, 30))  # needs space -> evict LRU (1)
        assert not policy.contains(1)
        assert policy.contains(2)

    def test_rescore_refreshes_stale_ranks(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(
            cache_size=1000, model=model, n_gaps=4, rescore_interval=3
        )
        policy.on_request(Request(0.0, 1, 10))
        stale = _live_rank(policy, 1)
        # Two more requests trigger the batch rescore at request #3.
        policy.on_request(Request(50.0, 2, 10))
        policy.on_request(Request(100.0, 3, 10))
        refreshed = _live_rank(policy, 1)
        # Object 1's gap_1 grew from 0 to 100: the score must have been
        # recomputed (stamp advanced even if the value barely moved).
        assert policy._ranked._stamp[1] > 1
        assert isinstance(refreshed, float) and isinstance(stale, float)

    def test_rescore_capacity_invariant(self):
        model = _toy_model(n_gaps=4)
        policy = LFOCache(
            cache_size=150, model=model, n_gaps=4, rescore_interval=10
        )
        rng = np.random.default_rng(3)
        sizes = {}
        for t in range(300):
            obj = int(rng.integers(0, 40))
            size = sizes.setdefault(obj, int(rng.integers(1, 60)))
            policy.on_request(Request(float(t), obj, size))
            assert 0 <= policy.used_bytes <= 150


class TestHeapBounded:
    """Regression: hit-heavy traffic used to grow the likelihood heap
    without bound (one stale tuple per re-rank, never reclaimed)."""

    def test_heap_stays_proportional_to_residents(self):
        model = _toy_model(cutoff=0.0, n_gaps=4)
        policy = LFOCache(cache_size=10_000, model=model, n_gaps=4)
        for t in range(5000):
            policy.on_request(Request(float(t), t % 25, 10))
            live = len(policy._ranked._stamp)
            assert len(policy._ranked._heap) <= max(64, 2 * live + 1)
        assert policy.n_objects == 25

    def test_compaction_preserves_victim_choice(self):
        model = _toy_model(cutoff=0.0, n_gaps=4)
        policy = LFOCache(cache_size=10_000, model=model, n_gaps=4)
        for t in range(500):
            policy.on_request(Request(float(t), t % 10, 10))
        before = policy._ranked.peek()
        policy._ranked._compact()
        assert policy._ranked.peek() == before
        assert len(policy._ranked._heap) == len(policy._ranked._stamp)


class TestMissHookParity:
    """``apply_scored`` must honour the base-class miss-observation
    contract (regression: LFO skipped ``_on_miss_observed`` entirely)."""

    def _observing(self, **kwargs):
        """An ``LFOCache`` whose class overrides the hook — the override is
        looked up once per class, which is what lets a refused miss skip
        building the ``Request`` the default no-op would ignore."""
        observed = []

        class Observing(LFOCache):
            def _on_miss_observed(self, request):
                observed.append(request.obj)
                super()._on_miss_observed(request)

        return Observing(**kwargs), observed

    def _assert_one_call_per_miss(self, **kwargs):
        policy, observed = self._observing(**kwargs)
        rng = np.random.default_rng(17)
        sizes = {}
        misses = 0
        for t in range(500):
            obj = int(rng.integers(0, 60))
            size = sizes.setdefault(obj, int(rng.integers(1, 80)))
            if not policy.on_request(Request(float(t), obj, size)):
                misses += 1
        assert misses > 0
        assert len(observed) == misses

    def test_model_mode_observes_every_miss(self):
        model = _toy_model(n_gaps=4)
        self._assert_one_call_per_miss(cache_size=300, model=model, n_gaps=4)

    def test_cold_start_observes_every_miss(self):
        self._assert_one_call_per_miss(cache_size=300, n_gaps=4)

    def test_refused_admission_still_observed(self):
        model = _toy_model(n_gaps=4)  # rejects large objects
        policy, observed = self._observing(
            cache_size=1000, model=model, n_gaps=4
        )
        policy.on_request(Request(0, 1, 90))  # rejected by the model
        assert not policy.contains(1)
        assert observed == [1]


class TestEvictionAbortRestore:
    """LFO shares the base eviction plan: an aborted plan restores victims
    *and* re-ranks them so they stay visible to likelihood eviction."""

    def _refusing_after(self, policy, n):
        original = type(policy)._select_victim
        state = {"left": n}

        def patched(self_, incoming):
            if state["left"] <= 0:
                return None
            state["left"] -= 1
            return original(self_, incoming)

        policy._select_victim = patched.__get__(policy)
        return state

    def test_cold_start_abort_restores_lru_state(self):
        policy = LFOCache(cache_size=100)  # model None: admit-all LRU
        policy.on_request(Request(0, 1, 60))
        policy.on_request(Request(1, 2, 40))
        self._refusing_after(policy, 1)
        policy.on_request(Request(2, 3, 90))
        assert policy.contains(1) and policy.contains(2)
        assert not policy.contains(3)
        assert policy.used_bytes == 100
        assert set(policy._lru) == {1, 2}

    def test_model_mode_abort_reranks_restored_victims(self):
        model = _toy_model(cutoff=0.0)  # admit everything, rank by score
        policy = LFOCache(cache_size=100, model=model, n_gaps=4)
        policy.on_request(Request(0, 1, 60))
        policy.on_request(Request(1, 2, 40))
        assert policy.used_bytes == 100
        state = self._refusing_after(policy, 1)
        policy.on_request(Request(2, 3, 90))
        assert policy.contains(1) and policy.contains(2)
        assert policy.used_bytes == 100
        # The restored victim must be re-ranked: victim selection still
        # reaches both residents once the refusal is lifted.
        state["left"] = 10
        policy.on_request(Request(3, 3, 90))
        assert policy.contains(3)
        assert not policy.contains(1) and not policy.contains(2)


class TestProbesCarryTheRealCost:
    """Eviction and restore probes score a resident with the retrieval
    cost the cache recorded for it.  It only shows for a resident whose
    tracker row the ``max_objects`` cap dropped (a tracked object's row
    carries the tracker's own last cost): the probe used to build
    ``Request(now, obj, size)``, whose cost defaults to the size."""

    def _policy_with_untracked_resident(self, eviction="likelihood"):
        model = _toy_model(cutoff=0.0)  # admit everything
        policy = LFOCache(
            cache_size=1000, model=model, eviction=eviction,
            tracker=FeatureTracker(n_gaps=4, max_objects=2),
        )
        for t, obj in enumerate((1, 2, 3)):
            policy.on_request(Request(float(t), obj, 100, 1.0))
        assert policy.contains(1) and policy.entry_cost(1) == 1.0
        assert policy.tracker.n_tracked == 2  # object 1 was capped away
        probed = []
        inner = policy.tracker.features_batch

        def features_batch(objs, *columns, **kwargs):
            X = inner(objs, *columns, **kwargs)
            probed.extend(zip(objs, X[:, 1].tolist()))
            return X

        policy.tracker.features_batch = features_batch
        return policy, probed

    def test_rescore_all(self):
        policy, probed = self._policy_with_untracked_resident()
        policy._rescore_all()
        assert dict(probed) == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_sampled_plan(self):
        policy, probed = self._policy_with_untracked_resident("sampled")
        assert sorted(policy._sampled_plan()) == [1, 2, 3]
        assert dict(probed) == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_restore(self):
        policy, probed = self._policy_with_untracked_resident()
        policy._remove(1)
        policy._restore(1, 100, Request(3.0, 4, 950, 7.0), cost=1.0)
        assert probed == [(1, 1.0)]
        assert policy.entry_cost(1) == 1.0


class TestPredictorResolvedOncePerModel:
    """``on_request`` keeps the compiled predictor of the model it last
    scored with and resolves again when ``policy.model`` is another
    object — however it got there."""

    @staticmethod
    def _tap_scores(policy):
        """The scores that reach ``policy.apply_scored``, as they come."""
        scores = []
        inner = policy.apply_scored

        def apply_scored(time, obj, size, cost, features, score):
            scores.append(score)
            return inner(time, obj, size, cost, features, score)

        policy.apply_scored = apply_scored
        return scores

    @staticmethod
    def _record_single_row_calls(monkeypatch):
        """Wrap ``CompiledPredictor.predict_proba_single`` on the class, as
        the perf ledger's tracer does; the ``(predictor, row)`` calls."""
        calls = []
        inner = CompiledPredictor.predict_proba_single

        def recorded(self, x):
            calls.append((self, x))
            return inner(self, x)

        monkeypatch.setattr(CompiledPredictor, "predict_proba_single", recorded)
        return calls

    @pytest.mark.parametrize("how", ["assign", "set_model"])
    def test_scalar_loop_follows_a_swapped_model(self, how):
        small, large = _toy_model(), _toy_model(positive_small=False)
        requests = [
            Request(float(t), t % 7, 10 + 12 * (t % 7)) for t in range(60)
        ]
        policy = LFOCache(cache_size=400, model=small, n_gaps=4)
        got = self._tap_scores(policy)
        for i, request in enumerate(requests):
            if i == 30 and how == "assign":
                policy.model = large
            elif i == 30:
                policy.set_model(large)
            policy.on_request(request)
        # The same loop with the model looked up at every request.
        reference = LFOCache(cache_size=400, model=small, n_gaps=4)
        want = []
        for i, request in enumerate(requests):
            if i == 30:
                reference.model = large
            features = reference.tracker.features(request, reference.free_bytes)
            want.append(
                reference.model.classifier.compiled().predict_proba_single(
                    features
                )
            )
            reference.apply_scored(
                request.time, request.obj, request.size, request.cost,
                features, want[-1],
            )
        assert got == want
        never_swapped = LFOCache(cache_size=400, model=small, n_gaps=4)
        stale = self._tap_scores(never_swapped)
        for request in requests:
            never_swapped.on_request(request)
        assert got[:30] == stale[:30] and got[30:] != stale[30:]

    def test_scalar_loop_follows_a_trainer_install(
        self, small_zipf_trace, monkeypatch
    ):
        """Inline training installs at a window's last request: the next
        one is scored by the new model's predictor."""
        scored_by = self._record_single_row_calls(monkeypatch)
        policy = LFOOnline(
            small_zipf_trace.footprint() // 10, window=500, n_gaps=4,
            gbdt_params=GBDTParams(num_iterations=4), min_positive_labels=1,
        )
        models = []
        for request in list(small_zipf_trace)[:1600]:
            live = policy.model
            policy.on_request(request)
            if live is not None:
                models.append(live)
                assert scored_by[-1][0] is live.classifier.compiled()
        assert len(scored_by) == len(models) == 1100  # cold for 500
        assert policy.n_retrains == 3
        assert len(set(map(id, models))) == 3  # every install was used

    def test_predict_proba_single_is_looked_up_at_call_time(self, monkeypatch):
        """What the perf ledger's tracer relies on: a wrapper put on the
        class after the first request still sees every later one."""
        policy = LFOCache(cache_size=400, model=_toy_model(), n_gaps=4)
        policy.on_request(Request(0.0, 1, 10))
        calls = self._record_single_row_calls(monkeypatch)
        for t in range(1, 6):
            policy.on_request(Request(float(t), t % 2, 10))
        assert len(calls) == 5 and calls[-1][1] is policy.last_features
