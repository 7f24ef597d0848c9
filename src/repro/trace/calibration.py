"""Workload calibration: fit popularity/size models to a trace.

These estimators close the loop between measured traces and the synthetic
generator: fit a Zipf exponent and a lognormal size model to any trace
(e.g. an open CDN trace), then feed the estimates into
:class:`repro.trace.synthetic.SyntheticConfig` to generate look-alike
workloads.  They also back the realism checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .record import Trace

__all__ = ["ZipfFit", "fit_zipf", "SizeFit", "fit_sizes", "calibration_report"]


@dataclass(frozen=True)
class ZipfFit:
    """Maximum-likelihood Zipf exponent over object popularity ranks.

    Attributes:
        alpha: fitted exponent of ``p(rank) ~ rank**-alpha``.
        n_objects: number of distinct objects.
        log_likelihood: attained log-likelihood.
    """

    alpha: float
    n_objects: int
    log_likelihood: float


def fit_zipf(trace: Trace) -> ZipfFit:
    """Fit a Zipf exponent to a trace's empirical popularity ranks.

    The likelihood of observing counts ``c_r`` at ranks ``r`` under
    ``p(r) = r**-a / H(a)`` is maximised over ``a`` by 1-D optimisation.
    """
    if len(trace) == 0:
        raise ValueError("cannot fit an empty trace")
    _, counts = np.unique(trace.objs, return_counts=True)
    counts = np.sort(counts)[::-1].astype(np.float64)
    ranks = np.arange(1, len(counts) + 1, dtype=np.float64)
    log_ranks = np.log(ranks)

    def neg_log_likelihood(alpha: float) -> float:
        log_weights = -alpha * log_ranks
        log_norm = np.log(np.exp(log_weights - log_weights.max()).sum())
        log_norm += log_weights.max()
        return -float((counts * (log_weights - log_norm)).sum())

    # Imported here: every shard and trainer imports this package, one
    # calibration report calls this.
    from scipy import optimize

    result = optimize.minimize_scalar(
        neg_log_likelihood, bounds=(0.0, 5.0), method="bounded"
    )
    return ZipfFit(
        alpha=float(result.x),
        n_objects=len(counts),
        log_likelihood=-float(result.fun),
    )


@dataclass(frozen=True)
class SizeFit:
    """Lognormal fit of per-object sizes.

    Attributes:
        median: fitted size median (bytes).
        sigma: fitted lognormal sigma.
        max_size: observed maximum (bytes).
    """

    median: float
    sigma: float
    max_size: int


def fit_sizes(trace: Trace) -> SizeFit:
    """Fit a lognormal to the distinct-object size distribution."""
    if len(trace) == 0:
        raise ValueError("cannot fit an empty trace")
    seen: dict[int, int] = {}
    for obj, size in zip(trace.objs.tolist(), trace.sizes.tolist()):
        seen.setdefault(obj, size)
    sizes = np.array(list(seen.values()), dtype=np.float64)
    logs = np.log(sizes)
    return SizeFit(
        median=float(np.exp(np.median(logs))),
        sigma=float(logs.std()),
        max_size=int(sizes.max()),
    )


def calibration_report(trace: Trace) -> dict:
    """One-stop summary used to seed :class:`SyntheticConfig` fields."""
    zipf = fit_zipf(trace)
    sizes = fit_sizes(trace)
    return {
        "n_requests": len(trace),
        "n_objects": zipf.n_objects,
        "alpha": zipf.alpha,
        "size_median": sizes.median,
        "size_sigma": sizes.sigma,
        "size_max": sizes.max_size,
    }
