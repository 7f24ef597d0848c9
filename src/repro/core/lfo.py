"""The LFO caching policy (Sections 2.3 and 2.4 of the paper).

``LFOModel`` wraps the boosted-tree predictor that maps online features to
OPT's admission likelihood.  ``LFOCache`` is the caching policy built on
top of it:

* on a miss, admit iff the predicted likelihood is >= the cutoff (0.5);
* rank cached objects by predicted likelihood and evict the minimum;
* re-evaluate an object's likelihood whenever it is requested again — which
  means a cache hit can be followed by the eviction of the hit object,
  matching OPT's occasional behaviour (Section 2.4).

Before a model is available (cold start), ``LFOCache`` degrades to
admit-all LRU.

Eviction at scale
-----------------

Likelihood scores are kept *lazily stale*: an object is re-scored only
when it is requested (the paper's rule) or when it becomes an eviction
candidate — never globally.  Two structures keep that cheap at millions
of resident objects:

* the likelihood heap is the bounded ``repro.cache.ranked.RankedHeap``
  every score-ordered policy ranks in (compacted once stale entries
  exceed half of it: O(resident objects) memory);
* ``eviction="sampled"`` (LRB-style, "Learned Cache Eviction Framework
  with Minimal Overhead") draws ``SampledEvictionConfig.k`` seeded-random
  resident candidates plus the current heap minimum as a safety
  candidate, scores only those in one columnar ``features_batch`` probe
  + compiled-predictor call (``evict.candidates_scored``), and returns them
  worst-first as a multi-victim plan — eviction cost is O(k), independent
  of the resident-set size (``bench_ext_evict`` gates this at 10^6
  residents).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..features import Dataset, FeatureTracker
from ..gbdt import GBDTClassifier, GBDTParams
from ..cache import CachePolicy
from ..cache.ranked import RankedHeap
from ..obs import get_registry
from ..trace import Request

__all__ = ["LFOModel", "LFOCache", "SampledEvictionConfig", "error_rates"]

#: Bucket edges for the admission-score histogram: deciles of the
#: predicted likelihood (a sigmoid output in [0, 1]; the overflow bucket
#: is (0.9, 1.0]).  Ten bins is the conventional PSI granularity — the
#: ``score_drift`` SLO computes per-window population-stability indices over
#: exactly these buckets to spot covariate shift under a fixed model.
ADMISSION_SCORE_BUCKETS = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
)


@dataclass(frozen=True)
class SampledEvictionConfig:
    """Tuning knobs for ``LFOCache(eviction="sampled")``.

    Attributes:
        k: eviction candidates sampled per plan (the LRB paper finds
            16–64 sufficient; candidates are drawn with replacement and
            deduplicated, and the heap-minimum safety candidate is added
            on top, so at most ``k + 1`` objects are scored per plan).
        seed: seed for the candidate sampler's ``np.random.Generator``
            (re-seeded on :meth:`LFOCache.reset`, so victim sequences are
            reproducible run-to-run).
    """

    k: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")


@dataclass
class LFOModel:
    """A trained admission predictor plus its decision cutoff.

    Attributes:
        classifier: fitted :class:`GBDTClassifier`.
        cutoff: admission threshold on the predicted likelihood (0.5 in the
            paper; ~0.65 equalises false positives and negatives, §3).
        n_gaps: gap-feature count the classifier was trained with.
    """

    classifier: GBDTClassifier
    cutoff: float = 0.5
    n_gaps: int = 50

    @classmethod
    def train(
        cls,
        dataset: Dataset,
        params: GBDTParams | None = None,
        cutoff: float = 0.5,
        binning: tuple | None = None,
    ) -> "LFOModel":
        """Train a model on a (features, OPT labels) dataset.

        The fitted ensemble is flattened into its
        :class:`repro.gbdt.CompiledPredictor` here, at training time —
        in the online pipeline that is the background trainer, so the
        request path never pays compilation cost.
        """
        classifier = GBDTClassifier(params or GBDTParams())
        classifier.fit(dataset.X, dataset.y, binning=binning)
        classifier.compiled()
        n_gaps = len(dataset.names) - 3
        return cls(classifier=classifier, cutoff=cutoff, n_gaps=n_gaps)

    def likelihood(self, features: np.ndarray) -> np.ndarray:
        """Predicted probability that OPT would cache each row."""
        return self.classifier.compiled().predict_proba(features)

    def admit(self, features: np.ndarray) -> bool:
        """Admission decision for a single feature vector."""
        return self.classifier.compiled().predict_proba_single(features) >= self.cutoff


def error_rates(
    likelihoods: np.ndarray, labels: np.ndarray, cutoff: float
) -> tuple[float, float, float]:
    """(prediction error, FP rate, FN rate) at a cutoff.

    Rates follow the paper's Figure 5a convention: both are normalised by
    the total number of requests, so they sum to the prediction error.
    """
    predictions = likelihoods >= cutoff
    truth = labels > 0.5
    n = len(labels)
    fp = float((predictions & ~truth).sum()) / n
    fn = float((~predictions & truth).sum()) / n
    return fp + fn, fp, fn


class LFOCache(CachePolicy):
    """Likelihood-ranked cache driven by an :class:`LFOModel`.

    The paper remarks that only ~50 lines of simulator code are needed for
    LFO once OPT and the learner exist; the logic below is exactly that
    small.
    """

    name = "LFO"

    def __init__(
        self,
        cache_size: int,
        model: LFOModel | None = None,
        n_gaps: int = 50,
        tracker: FeatureTracker | None = None,
        eviction: str = "likelihood",
        rescore_interval: int = 0,
        sampled: SampledEvictionConfig | None = None,
    ) -> None:
        """Args:
            cache_size: capacity in bytes.
            model: trained predictor (None = cold-start admit-all LRU).
            n_gaps: gap-feature count of the tracker.
            tracker: optional shared feature state.
            eviction: ``"likelihood"`` (the paper's rule: evict the lowest
                predicted likelihood), ``"lru"`` (admission-only LFO — a
                §5 "policy design" variant), or ``"sampled"`` (score only
                K seeded-random candidates per eviction — the
                minimal-overhead engine for large resident sets, see the
                module docstring).
            rescore_interval: when > 0, every this-many requests *all*
                resident objects are re-scored in one vectorised batch, so
                eviction ranks never go stale (another §5 variant; the
                paper only re-scores an object when it is requested).
            sampled: sampling knobs for ``eviction="sampled"`` (defaults
                apply when None).
        """
        super().__init__(cache_size)
        if eviction not in ("likelihood", "lru", "sampled"):
            raise ValueError(
                "eviction must be 'likelihood', 'lru' or 'sampled'"
            )
        if rescore_interval < 0:
            raise ValueError("rescore_interval must be >= 0")
        self.model = model
        self.eviction = eviction
        self.rescore_interval = rescore_interval
        self.sampled_config = sampled or SampledEvictionConfig()
        self._rng = np.random.default_rng(self.sampled_config.seed)
        self._tracker = tracker or FeatureTracker(n_gaps=n_gaps)
        self._predictor = None  # of ``_predictor_model``, for on_request
        self._predictor_model: LFOModel | None = None
        self._ranked = RankedHeap()
        self._lru: OrderedDict[int, None] = OrderedDict()  # cold-start rank
        #: Residents as a swap-remove list + position map, so the sampler
        #: can draw uniform candidates in O(k) regardless of cache size.
        self._resident: list[int] = []
        self._resident_pos: dict[int, int] = {}
        self._requests_seen = 0
        self._now = 0.0
        self.last_features: np.ndarray | None = None
        #: A refused miss needs a ``Request`` only for an overridden hook.
        self._observes_misses = (
            type(self)._on_miss_observed is not CachePolicy._on_miss_observed
        )
        # Bind-cached score instrument (None while obs is disabled), so
        # the per-request cost is one identity compare — see
        # ``_bind_score_instrument``.
        self._obs_registry = None
        self._score_hist = None

    @property
    def tracker(self) -> FeatureTracker:
        """The online feature state (shared with the training pipeline)."""
        return self._tracker

    def set_model(self, model: LFOModel) -> None:
        """Swap in a freshly trained model (window hand-over, Fig. 2).

        Ensures the model's compiled predictor exists before the swap:
        for models arriving from a trainer process the flattened arrays
        travelled in the pickle, so this is a cache hit; for models built
        any other way it pulls the one-time flattening off the request
        path.
        """
        model.classifier.compiled()
        self.model = model

    @property
    def supports_batched_scoring(self) -> bool:
        """Whether the simulator may score requests in lookahead batches.

        Requires a static model (batch scores would go stale across a
        model swap) and no periodic full rescore (whose every-N-requests
        trigger is entangled with request order).  Sampled eviction stays
        batchable: its candidate scoring runs inside
        :meth:`apply_scored` against live tracker/free-bytes state, and
        its seeded generator advances only on evictions, which the
        batched engine replays in exactly the scalar order (see
        :mod:`repro.core.engine`).  Subclasses with request-path side
        effects (e.g. :class:`LFOOnline`) opt out.
        """
        return self.model is not None and self.rescore_interval == 0

    def _score_residents(self, objs: list[int]) -> list[float]:
        """Fresh likelihoods of resident ``objs``: one read-only columnar
        probe of live tracker state, one compiled-predictor call.

        The cost column is the resident's recorded retrieval cost (its
        size where :meth:`CachePolicy._evict_until_fits` falls back to
        it too) — it shows only for a resident whose tracker row the
        ``max_objects`` cap dropped; a tracked row carries its own.
        """
        sizes = [self._entries[obj] for obj in objs]
        known = self._costs
        costs = [known.get(obj, float(size)) for obj, size in zip(objs, sizes)]
        return self._score_rows(self._tracker.features_batch(
            objs, [self._now] * len(objs), sizes, costs, self.free_bytes
        ))

    def _score_rows(self, matrix: np.ndarray) -> list[float]:
        """The model's ranking score of each feature row."""
        return self.model.likelihood(matrix).tolist()

    def _rescore_all(self) -> None:
        """Batch-refresh every resident object's likelihood."""
        if self.model is None or not self._entries:
            return
        objs = list(self._entries)
        for obj, score in zip(objs, self._score_residents(objs)):
            self._ranked.push(obj, score)

    def on_request(self, request: Request) -> bool:
        """Process one request: score, admit/evict, learn features."""
        self._now = request.time
        if (
            self.rescore_interval
            and (self._requests_seen + 1) % self.rescore_interval == 0
        ):
            self._rescore_all()
        features = self._tracker.features(request, self.free_bytes)
        model = self.model
        if model is None:
            score = 0.0
        else:
            if model is not self._predictor_model:
                self._predictor = model.classifier.compiled()
                self._predictor_model = model
            score = self._predictor.predict_proba_single(features)
        return self.apply_scored(
            request.time, request.obj, request.size, request.cost,
            features, score,
        )

    def apply_scored(
        self,
        time: float,
        obj: int,
        size: int,
        cost: float,
        features: np.ndarray,
        score: float,
    ) -> bool:
        """Apply one already-scored request: admit/evict/record.

        Everything :meth:`on_request` does *after* feature extraction and
        model scoring, so the decision engine (:mod:`repro.core.engine`)
        can score lookahead windows and replay decisions through exactly
        this code path.  The request arrives as scalars: the engine
        holds columns, and hits and refused admissions need nothing
        else.  A ``Request`` is built only where a :class:`CachePolicy`
        hook takes one — the admit branch and a subclass's own
        ``_on_miss_observed``.
        """
        self._now = time
        self._requests_seen += 1
        self.last_features = features
        registry = get_registry()
        if registry is not self._obs_registry:
            self._bind_score_instrument(registry)
        if self._score_hist is not None and self.model is not None:
            self._score_hist.observe(score)
        hit = obj in self._entries
        if hit:
            # Re-evaluate the hit object's likelihood (Section 2.4).
            self._costs[obj] = cost
            self._ranked.push(obj, score)
            self._lru.move_to_end(obj)
        else:
            # Base-class contract: every observed miss reaches the hook,
            # even when admission is refused or the object cannot fit.
            if self._observes_misses:
                self._on_miss_observed(Request(time, obj, size, cost))
            if size <= self.cache_size and self._should_admit(score):
                request = Request(time, obj, size, cost)
                if self._evict_until_fits(request):
                    self._insert(request)
                    self._ranked.push(obj, score)
        self._tracker.update(obj, time, cost)
        return hit

    def _bind_score_instrument(self, registry) -> None:
        """Re-resolve the admission-score histogram for a new registry.

        Runs once per registry swap (``use_registry`` scopes), never per
        request: :meth:`apply_scored` only compares identities.  While
        observability is disabled the cached instrument is None and the
        per-request cost is a single ``is`` check.
        """
        self._obs_registry = registry
        self._score_hist = (
            registry.histogram("lfo.admission_score", ADMISSION_SCORE_BUCKETS)
            if registry.enabled
            else None
        )

    def _should_admit(self, score: float) -> bool:
        if self.model is None:
            return True  # cold start: admit-all LRU
        return score >= self.model.cutoff

    def _insert(self, request: Request) -> None:
        super()._insert(request)
        self._lru[request.obj] = None
        self._resident_pos[request.obj] = len(self._resident)
        self._resident.append(request.obj)

    def _remove(self, obj: int) -> None:
        super()._remove(obj)
        self._ranked.discard(obj)
        self._lru.pop(obj, None)
        # O(1) swap-remove keeps the sampler's candidate pool dense.
        pos = self._resident_pos.pop(obj)
        last = self._resident.pop()
        if last != obj:
            self._resident[pos] = last
            self._resident_pos[last] = pos

    def _restore(
        self,
        obj: int,
        size: int,
        incoming: Request,
        cost: float | None = None,
    ) -> None:
        # Re-insert and re-rank, otherwise a restored object would be
        # invisible to likelihood eviction (stuck resident forever).
        super()._restore(obj, size, incoming, cost)
        if self.model is not None:
            self._ranked.push(obj, self._score_residents([obj])[0])

    def _select_victim(self, incoming: Request) -> int | None:
        if self.model is None or self.eviction == "lru":
            return next(iter(self._lru), None)
        return self._ranked.peek()

    def _select_victims(self, incoming: Request) -> list[int]:
        if (
            self.eviction == "sampled"
            and self.model is not None
            and self._entries
        ):
            return self._sampled_plan()
        return super()._select_victims(incoming)

    def _sampled_plan(self) -> list[int]:
        """One sampled-candidate eviction plan, worst (lowest score) first.

        Draws ``k`` uniform resident candidates (with replacement,
        deduplicated) plus the current heap minimum as a safety candidate
        — the heap min carries the lowest *lazily stale* score, so a
        genuinely cold object cannot dodge eviction just by never being
        sampled.  All candidates are scored in one ``features_batch`` +
        compiled-predictor call against live tracker state and re-ranked
        (scored-on-candidacy keeps the heap fresh exactly where it
        matters).  With ``k >= n_objects`` the plan degenerates to a full
        fresh rescore of every resident in residency order — the
        equivalence anchor for the ablation tests.
        """
        config = self.sampled_config
        n = len(self._resident)
        if config.k >= n:
            candidates = list(self._entries)
        else:
            drawn = self._rng.integers(0, n, size=config.k)
            picked = dict.fromkeys(self._resident[i] for i in drawn)
            safety = self._ranked.peek()
            if safety is not None:
                picked[safety] = None
            candidates = list(picked)
        scores = self._score_residents(candidates)
        for obj, score in zip(candidates, scores):
            self._ranked.push(obj, score)
        registry = get_registry()
        if registry.enabled:
            registry.counter("evict.candidates_scored").inc(len(candidates))
        order = np.argsort(scores, kind="stable")
        return [candidates[i] for i in order]

    def _reset_policy_state(self) -> None:
        self._ranked.clear()
        self._lru.clear()
        self._resident.clear()
        self._resident_pos.clear()
        self._rng = np.random.default_rng(self.sampled_config.seed)
        self._requests_seen = 0
        self._now = 0.0
        self.last_features = None
