"""The full online LFO loop of the paper's Figure 2.

``LFOOnline`` records each window ``W[t]`` of requests together with the
online features observed live, computes OPT's decisions for the window once
it closes, trains a model, and serves window ``W[t+1]`` with it.  The
first window runs in cold-start (admit-all LRU) mode.  A model's trees are
grown fresh in one window of every ``regrow_every`` (2 by default; 1 is
the paper's loop) and refit on the windows between.

The loop itself — window buffer, submit → wait → install, watchdog,
backoff, staleness guard, and what happens when any of it fails —
is :class:`repro.core.trainer.WindowTrainer` (read its module docstring
for the contract).  This module holds what is LFO-specific:

* :class:`LabelFitJob`, the training job: label the window with OPT
  (:class:`OptLabelConfig`), score it with the deployed model (the
  ``online.opt_agreement`` gauges) and fit a GBDT on the live features
  (or refit the deployed one's leaves);
* :class:`LFOOnline`, an :class:`~repro.core.LFOCache` whose model slot is
  the trainer's install target, and whose admission and eviction degrade
  to LRU while the trainer reports the model stale.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._native import start
from ..gbdt import GBDTClassifier, GBDTParams
from ..gbdt.boosting import bin_matrix
from ..obs import get_registry
from ..opt import (
    solve_greedy,
    solve_opt,
    solve_pruned,
    solve_segmented,
)
from ..trace import Request, Trace
from .lfo import LFOCache, LFOModel, SampledEvictionConfig, error_rates
from .trainer import WindowTrainer

__all__ = ["LFOOnline", "LabelFitJob", "OptLabelConfig"]


@dataclass(frozen=True)
class OptLabelConfig:
    """How OPT labels are computed at each window boundary.

    ``mode`` is one of:

    * ``"exact"`` — full min-cost-flow solve of the window (slow beyond a
      few thousand requests);
    * ``"segmented"`` — time-axis split into ``segment_length`` chunks,
      each solved with :func:`~repro.opt.solve_segmented`'s default
      overlap (the approximation of [8], plus overlap to avoid boundary
      mislabels);
    * ``"pruned"`` — the paper's ranking-axis split, keeping the top 30%
      of requests by rank (also segmented);
    * ``"greedy"`` — rank-ordered greedy interval packing (the default:
      fastest, a feasible approximation rather than the flow optimum;
      the ``online.opt_agreement`` gauge measures what it costs).
    """

    mode: str = "greedy"
    segment_length: int = 1000

    def compute(self, window: Trace, cache_size: int) -> np.ndarray:
        """Return per-request OPT admission labels for a window."""
        if self.mode == "exact":
            return solve_opt(window, cache_size).decisions
        if self.mode == "segmented":
            return solve_segmented(
                window, cache_size, self.segment_length
            ).decisions
        if self.mode == "pruned":
            return solve_pruned(
                window, cache_size, keep_fraction=0.3,
                segment_length=self.segment_length,
            ).decisions
        if self.mode == "greedy":
            return solve_greedy(window, cache_size).decisions
        raise ValueError(f"unknown OPT label mode: {self.mode!r}")


@dataclass(frozen=True)
class LabelFitJob:
    """The LFO training job: label one closed window with OPT, fit a model.

    A frozen value with a pure ``__call__``, so it runs identically
    inline, in a worker thread, or (pickled) in a worker process.

    Attributes:
        cache_size: capacity the OPT oracle labels against — the cache
            the decisions will actually land in (one *shard's* capacity
            in a cluster).
        label_config: how OPT labels are derived.
        gbdt_params: learner hyperparameters (paper defaults).
        cutoff: admission likelihood threshold of the trained model.
        min_positive_labels: return no model when the window contains
            fewer positive OPT decisions than this (e.g. a pure scan),
            where training would produce a broken all-negative predictor.
        regrow_every: grow fresh trees in one window of every this many
            and refit the deployed model's trees in the others
            (:meth:`repro.gbdt.GBDTClassifier.refit`); 1 grows every
            window, the paper's loop.
    """

    cache_size: int
    label_config: OptLabelConfig = field(default_factory=OptLabelConfig)
    gbdt_params: GBDTParams = field(default_factory=GBDTParams)
    cutoff: float = 0.5
    min_positive_labels: int = 10
    regrow_every: int = 2

    def __post_init__(self) -> None:
        if self.regrow_every < 1:
            raise ValueError("regrow_every must be at least 1")

    def __call__(
        self, requests: list[Request], features: np.ndarray, name: str,
        deployed: LFOModel | None,
    ) -> LFOModel | None:
        """Label + fit, under ``online.label_solve`` / ``online.gbdt_fit``
        spans (nested in the trainer's ``online.train_window``); the fit's
        binning needs no label, so an idle core makes it during the solve
        (measured on two cores against binning after the solve:
        ``online_serve`` ~2% faster, 30 alternating pairs).  ``features``
        is the trainer's window matrix itself, and binning it adds only
        its ``uint8`` bins and column-sized temporaries.

        Between the two, ``deployed``, the model that served the window
        (None on a cold window), scores the rows it served in one batched
        call (``online.agreement``), published as how often its decisions
        agree with these labels, split into false admits and false
        rejects as in Figure 5a.

        The window refits instead of growing (``online.gbdt_refit``
        inside ``online.gbdt_fit``, no binning) when the deployed model
        has a classifier whose trees are fewer than ``regrow_every - 1``
        refits old (:attr:`LFOModel.refits`); a cold window, or a model
        built from bytes or a test double (no classifier), grows.  Every
        window a trainer closes has one width, that of the model it
        deployed: a deployed model of another width fails the job when
        it scores the window."""
        grown = getattr(deployed, "classifier", None)
        refit = grown is not None and deployed.refits + 1 < self.regrow_every
        if not refit:
            binning = start(bin_matrix, features, self.gbdt_params.max_bins)
        registry = get_registry()
        window = Trace(requests, name=name)
        with registry.span("online.label_solve"):
            labels = self.label_config.compute(window, self.cache_size)
        if deployed is not None:
            with registry.span("online.agreement"):
                error, false_admit, false_reject = error_rates(
                    deployed.likelihood(features), labels, deployed.cutoff
                )
            registry.gauge("online.opt_agreement").set(1.0 - error)
            registry.gauge("online.opt_false_admit").set(false_admit)
            registry.gauge("online.opt_false_reject").set(false_reject)
        if labels.sum() < self.min_positive_labels:
            return None
        with registry.span("online.gbdt_fit"):
            if refit:
                with registry.span("online.gbdt_refit"):
                    classifier = grown.refit(features, labels)
                    return LFOModel(
                        classifier.compiled(), self.cutoff, classifier,
                        deployed.refits + 1,
                    )
            classifier = GBDTClassifier(self.gbdt_params).fit(
                features, labels, binning=binning.result()[0]
            )
            return LFOModel(classifier.compiled(), self.cutoff, classifier)


class LFOOnline(LFOCache):
    """LFO with periodic retraining on sliding windows.

    An :class:`LFOCache` plus :attr:`trainer`, the
    :class:`~repro.core.trainer.WindowTrainer` that owns the window
    buffer and the training supervisor.  ``window`` and the arguments
    from ``background`` on are the trainer's (documented there);
    everything about a training run beyond the members below —
    ``training_stats``, ``resilience_stats``, ``training_pending``,
    ``degraded``, the ``n_watchdog_*`` / ``n_backoff_*`` /
    ``n_staleness_*`` counters — is read as ``policy.trainer.<name>``.

    Args:
        cache_size: capacity in bytes.
        window: requests per training window ``W[t]``.
        gbdt_params: learner hyperparameters (paper defaults when None).
        cutoff: admission likelihood threshold.
        label_config: how OPT labels are derived per window.
        n_gaps: gap-feature count.
        min_positive_labels: skip retraining when a window contains fewer
            positive OPT decisions than this (degenerate windows).
        regrow_every: windows per fresh fit; the others refit the last
            grown trees (:class:`LabelFitJob`; 1 = grow every window).

    While the trainer reports the model stale (``staleness_limit``),
    admission falls back to LRU: admit everything, evict the least
    recently used (cold-start behaviour), until the next install.
    """

    name = "LFO-online"

    def __init__(
        self,
        cache_size: int,
        window: int = 10_000,
        gbdt_params: GBDTParams | None = None,
        cutoff: float = 0.5,
        label_config: OptLabelConfig | None = None,
        n_gaps: int = 50,
        min_positive_labels: int = 10,
        eviction: str = "likelihood",
        rescore_interval: int = 0,
        sampled: SampledEvictionConfig | None = None,
        background: bool = False,
        executor: Executor | None = None,
        train_deadline: int | None = None,
        staleness_limit: int | None = None,
        retry_backoff: int = 0,
        regrow_every: int = 2,
    ) -> None:
        super().__init__(
            cache_size, model=None, n_gaps=n_gaps,
            eviction=eviction, rescore_interval=rescore_interval,
            sampled=sampled,
        )
        self.trainer = WindowTrainer(
            window,
            LabelFitJob(
                cache_size,
                label_config=label_config or OptLabelConfig(),
                gbdt_params=gbdt_params or GBDTParams(),
                cutoff=cutoff,
                min_positive_labels=min_positive_labels,
                regrow_every=regrow_every,
            ),
            self.set_model,
            background=background,
            executor=executor,
            train_deadline=train_deadline,
            staleness_limit=staleness_limit,
            retry_backoff=retry_backoff,
        )

    # -- the trainer's surface, as the serving loop and simulate see it --------

    @property
    def supports_batched_scoring(self) -> bool:
        """Never batchable: the model swaps at window boundaries and every
        request must buffer its live features for training."""
        return False

    @property
    def window(self) -> int:
        """Requests per training window."""
        return self.trainer.window

    @property
    def window_remaining(self) -> int:
        """Requests left before the current training window closes."""
        return self.trainer.remaining

    @property
    def n_retrains(self) -> int:
        """Models actually trained and installed."""
        return self.trainer.n_retrains

    @property
    def n_skipped_retrains(self) -> int:
        """Windows dropped because the trainer was busy."""
        return self.trainer.n_skipped_retrains

    @property
    def n_failed_retrains(self) -> int:
        """Training jobs that failed (model kept)."""
        return self.trainer.n_failed_retrains

    def finish_training(self, timeout: float | None = None) -> bool:
        """Wait for an in-flight training job and install its model
        (:meth:`WindowTrainer.finish`)."""
        return self.trainer.finish(timeout)

    def close(self) -> None:
        """Drain pending training and release a privately owned executor."""
        self.trainer.close()

    # -- request path --------------------------------------------------------

    def on_request(self, request: Request) -> bool:
        """Process one request, retraining at window boundaries.

        The scalar composition of the three steps the serving loop
        (:mod:`repro.serve`) drives itself around speculative batches —
        poll, decide, record — so both paths stay bit-identical.  In
        background mode this never solves labels or fits a model inline.
        """
        self.poll_training()
        hit = super().on_request(request)
        # ``last_features`` was computed inside LFOCache.on_request with the
        # live free-bytes observation — exactly what training must see.
        self.record_for_training((request,), self.last_features[None])
        return hit

    def poll_training(self) -> None:
        """Once per request, *before* it is scored
        (:meth:`WindowTrainer.poll`)."""
        self.trainer.poll()

    def record_for_training(
        self, requests: Sequence[Request], rows: np.ndarray
    ) -> None:
        """Buffer a block of served requests with the live rows they were
        scored with; retrain at the edge (:meth:`WindowTrainer.record`).
        """
        self.trainer.record(requests, rows)

    # -- degraded-mode serving -----------------------------------------------

    def _should_admit(self, score: float) -> bool:
        if self.trainer.degraded:
            # The stale model's scores are no longer trusted: admit
            # everything, as LRU does (cold-start behaviour).
            return True
        return super()._should_admit(score)

    def _select_victim(self, incoming: Request) -> int | None:
        if self.trainer.degraded:
            return next(iter(self._lru), None)
        return super()._select_victim(incoming)

    def _select_victims(self, incoming: Request) -> list[int]:
        # The staleness fallback outranks sampled eviction: a stale
        # model's candidate scores are exactly what degraded mode stops
        # trusting, so victims come from the LRU order until recovery.
        if self.trainer.degraded:
            victim = next(iter(self._lru), None)
            return [] if victim is None else [victim]
        return super()._select_victims(incoming)

    def _reset_policy_state(self) -> None:
        super()._reset_policy_state()
        self.trainer.reset()
