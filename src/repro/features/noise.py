"""Feature accuracy reduction and noise injection (paper §2.2).

The paper argues the feature tracker's memory cost can be cut by storing
features at lower accuracy, and that "adding small amounts of noise can
actually be helpful in learning more robust models".  These utilities make
both claims testable:

* :func:`quantize_features` rounds features to a given number of
  significand bits (what a lossy fixed-width encoding would store);
* :func:`add_relative_noise` perturbs features multiplicatively.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize_features", "add_relative_noise"]


def quantize_features(X: np.ndarray, bits: int) -> np.ndarray:
    """Round every value to ``bits`` significand bits (log-scale buckets).

    Positive values are snapped to the nearest representable value with a
    ``bits``-bit mantissa — i.e. relative error is bounded by ``2**-bits``.
    Zero stays zero.  This models storing gaps/sizes in a compact
    floating-point-like encoding instead of full doubles.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if bits >= 52:
        return np.asarray(X, dtype=np.float64).copy()
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros_like(X)
    nonzero = X != 0
    vals = X[nonzero]
    signs = np.sign(vals)
    mags = np.abs(vals)
    exponents = np.floor(np.log2(mags))
    mantissas = mags / 2.0**exponents  # in [1, 2)
    step = 2.0 ** -(bits - 1)
    snapped = np.round((mantissas - 1.0) / step) * step + 1.0
    out[nonzero] = signs * snapped * 2.0**exponents
    return out


def add_relative_noise(
    X: np.ndarray, scale: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Multiply every value by ``1 + eps`` with ``eps ~ N(0, scale)``.

    Relative (not additive) noise keeps the perturbation meaningful across
    features spanning many orders of magnitude (bytes vs seconds).
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.asarray(X, dtype=np.float64)
    return X * (1.0 + rng.normal(0.0, scale, size=X.shape))
