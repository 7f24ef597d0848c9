"""Leaf-wise regression tree growth over binned features.

This is the tree builder inside the boosting loop: given per-sample
gradients and hessians, it grows a tree by repeatedly splitting the leaf
with the largest gain (LightGBM's *leaf-wise* strategy, as opposed to
XGBoost's level-wise growth), using per-bin gradient histograms so each
split search is O(n_bins) per feature.
"""

from __future__ import annotations

import ctypes
import heapq
from dataclasses import dataclass, field

import numpy as np

from .. import _native
from .binning import BinMapper

__all__ = ["Tree", "TreeGrowthParams", "grow_tree"]


@dataclass(frozen=True)
class TreeGrowthParams:
    """Regularisation and shape parameters for a single tree."""

    num_leaves: int = 31
    min_data_in_leaf: int = 20
    min_sum_hessian_in_leaf: float = 1e-3
    lambda_l2: float = 0.0
    min_gain_to_split: float = 0.0
    max_depth: int = -1  # -1 = unlimited


@dataclass
class Tree:
    """A fitted regression tree in flat-array form.

    Internal nodes hold ``feature``, a ``bin_threshold`` (go left when the
    sample's bin ≤ threshold) and the equivalent raw-value ``threshold``
    (go left when raw value ≤ threshold); leaves hold ``value``.
    ``feature[i] == -1`` marks a leaf.

    The node lists are the canonical state (kept for growth and
    serialisation); prediction runs on numpy views that are materialised
    once and cached.  All structural mutation goes through
    :meth:`_new_node`, :meth:`_set_split` and :meth:`_set_value`, which
    invalidate the cache — mutating the lists directly after a predict
    call would leave it stale.
    """

    feature: list[int] = field(default_factory=list)
    bin_threshold: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    gain: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._arrays: tuple[np.ndarray, ...] | None = None
        self._n_leaves: int | None = None

    def _invalidate(self) -> None:
        self._arrays = None
        self._n_leaves = None

    def _materialise(self) -> tuple[np.ndarray, ...]:
        """Node lists as numpy arrays, built once and reused per predict."""
        arrays = self._arrays
        if arrays is None:
            arrays = (
                np.asarray(self.feature, dtype=np.int64),
                np.asarray(self.bin_threshold, dtype=np.int64),
                np.asarray(self.threshold, dtype=np.float64),
                np.asarray(self.left, dtype=np.int64),
                np.asarray(self.right, dtype=np.int64),
                np.asarray(self.value, dtype=np.float64),
            )
            self._arrays = arrays
        return arrays

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.bin_threshold.append(0)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.gain.append(0.0)
        self._invalidate()
        return len(self.feature) - 1

    def _set_split(
        self,
        node: int,
        feature: int,
        bin_threshold: int,
        threshold: float,
        left: int,
        right: int,
        gain: float,
    ) -> None:
        """Turn a leaf into an internal node (cache-invalidating)."""
        self.feature[node] = feature
        self.bin_threshold[node] = bin_threshold
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        self.gain[node] = gain
        self._invalidate()

    def _set_value(self, node: int, value: float) -> None:
        """Assign a node's leaf value (cache-invalidating)."""
        self.value[node] = value
        self._invalidate()

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes (cached; recounted only after mutation)."""
        count = self._n_leaves
        if count is None:
            count = int((self._materialise()[0] == -1).sum())
            self._n_leaves = count
        return count

    def max_depth(self) -> int:
        """Longest root-to-leaf edge count (0 for a single-leaf tree)."""
        if not self.feature:
            return 0
        depth = [0] * len(self.feature)
        deepest = 0
        # Children are appended after their parent, so one forward pass
        # sees every parent before its children.
        for i, f in enumerate(self.feature):
            if f >= 0:
                child_depth = depth[i] + 1
                depth[self.left[i]] = child_depth
                depth[self.right[i]] = child_depth
                deepest = max(deepest, child_depth)
        return deepest

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predict from uint8 bin indices (vectorised level walk)."""
        n = binned.shape[0]
        node = np.zeros(n, dtype=np.int64)
        feature, bin_threshold, _, left, right, value = self._materialise()
        active = feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            feats = feature[cur]
            go_left = binned[idx, feats] <= bin_threshold[cur]
            node[idx] = np.where(go_left, left[cur], right[cur])
            active[idx] = feature[node[idx]] >= 0
        return value[node]

    def predict_raw_values(self, X: np.ndarray) -> np.ndarray:
        """Predict from raw float features using stored value thresholds."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        feature, _, threshold, left, right, value = self._materialise()
        active = feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            feats = feature[cur]
            go_left = X[idx, feats] <= threshold[cur]
            node[idx] = np.where(go_left, left[cur], right[cur])
            active[idx] = feature[node[idx]] >= 0
        return value[node]

    def split_features(self) -> list[int]:
        """Features used by internal nodes (one entry per split) — the raw
        material of the paper's Figure 8 importance measure."""
        return [f for f in self.feature if f >= 0]

    def split_gains(self) -> list[tuple[int, float]]:
        """(feature, gain) pairs for every internal node — the basis of
        gain-weighted importance."""
        return [
            (f, g) for f, g in zip(self.feature, self.gain) if f >= 0
        ]

    def to_dict(self) -> dict:
        """JSON-serialisable state."""
        return {
            "feature": self.feature,
            "bin_threshold": self.bin_threshold,
            "threshold": [
                t if np.isfinite(t) else "inf" for t in self.threshold
            ],
            "left": self.left,
            "right": self.right,
            "value": self.value,
            "gain": self.gain,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "Tree":
        """Inverse of :meth:`to_dict`."""
        return cls(
            feature=list(state["feature"]),
            bin_threshold=list(state["bin_threshold"]),
            threshold=[
                float("inf") if t == "inf" else float(t)
                for t in state["threshold"]
            ],
            left=list(state["left"]),
            right=list(state["right"]),
            value=list(state["value"]),
            gain=list(state.get("gain", [0.0] * len(state["feature"]))),
        )


@dataclass
class _LeafState:
    """Bookkeeping for a growable leaf."""

    node: int
    sample_idx: np.ndarray
    grad_sum: float
    hess_sum: float
    depth: int
    best_gain: float = -np.inf
    best_feature: int = -1
    best_bin: int = -1


def _leaf_value(grad_sum: float, hess_sum: float, lambda_l2: float) -> float:
    return -grad_sum / (hess_sum + lambda_l2)


#: Element budget (rows × features) of one histogram block in the numpy
#: split search: it bounds the key/weight temporaries and leaves every
#: cell's accumulation order alone.
_HIST_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class _SplitTables:
    """What the split search needs to know about the features.

    Built once per tree — or once per fit when every tree sees every
    feature — and never shared between fits, so ``scratch`` has one
    writer even when a background trainer and a foreground fit overlap.

    Attributes:
        binned: the bin matrix the tables were checked against.
        features: candidate columns in ``feature_subset`` order, features
            with fewer than two bins (nothing to split) dropped (int64).
        native: the :mod:`repro._native` handle, or ``None`` for the
            numpy search; each field below exists for one backend only.
        offsets: native — first histogram cell of every candidate plus
            the total; a feature owns ``n_bins`` cells, not ``stride``.
        scratch: native — the histogram, three 8-byte slots per cell,
            and three more per candidate for the routine's own lists.
        stride: numpy — histogram row width, the largest bin count.
        keys: numpy — ``(n_samples, len(features))`` histogram cell of
            every sample under every candidate feature,
            ``slot * stride + bin``, in the narrowest unsigned type that
            holds it.
        candidate: numpy — ``(len(features), stride)`` mask of real split
            points, ``bin < n_bins[feature] - 1`` (the last occupied bin
            and the padding beyond it send nothing right).
    """

    binned: np.ndarray
    features: np.ndarray
    native: _native.Native | None = None
    offsets: np.ndarray | None = None
    scratch: np.ndarray | None = None
    stride: int = 0
    keys: np.ndarray | None = None
    candidate: np.ndarray | None = None


def _split_tables(
    binned: np.ndarray, n_bins: list[int], feature_subset: np.ndarray
) -> _SplitTables:
    """Check ``binned`` against ``n_bins`` and lay out the histograms.

    The native routine indexes its histogram with the bins it reads, so a
    bin at or past its feature's count would be a write out of bounds
    where numpy only grew the ``bincount``; both backends refuse it here.
    """
    if not (
        isinstance(binned, np.ndarray)
        and binned.dtype == np.uint8
        and binned.ndim == 2
        and binned.flags.c_contiguous
    ):
        raise ValueError("binned must be a C-contiguous 2-D uint8 array")
    n_features = binned.shape[1]
    subset = np.asarray(feature_subset, dtype=np.int64)
    if len(n_bins) != n_features or not _native.all_below(
        subset, n_features
    ):
        raise ValueError(
            f"feature_subset and n_bins must describe {n_features} columns"
        )
    widths = np.asarray(n_bins, dtype=np.int64)[subset]
    features = subset[widths >= 2]
    widths = widths[widths >= 2]
    if (binned.max(axis=0, initial=0)[features] >= widths).any():
        raise ValueError("binned holds a bin index >= its feature's n_bins")
    native = _native.load()
    if native is not None:
        offsets = np.zeros(len(features) + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        return _SplitTables(
            binned=binned,
            features=features,
            native=native,
            offsets=offsets,
            scratch=np.empty(
                3 * (int(offsets[-1]) + len(features)), dtype=np.float64
            ),
        )
    stride = int(widths.max(initial=0))
    n_cells = len(features) * stride
    key_type = np.min_scalar_type(max(n_cells - 1, 0))
    keys = binned[:, features].astype(key_type)
    keys += np.arange(0, n_cells, max(stride, 1), dtype=key_type)
    return _SplitTables(
        binned=binned,
        features=features,
        stride=stride,
        keys=keys,
        candidate=np.arange(stride)[None, :] < (widths - 1)[:, None],
    )


def _native_addresses(
    tables: _SplitTables, grad: np.ndarray, hess: np.ndarray
) -> tuple[int, int, int, int, int, int]:
    """Where ``hist_best_split`` finds the four per-fit and two per-tree
    arrays.  For locals only: an address stored on an object would
    outlive a reallocation and survive pickle or deepcopy, and a C store
    through it is memory corruption where numpy raised."""
    return (
        tables.binned.ctypes.data, tables.features.ctypes.data,
        tables.offsets.ctypes.data, tables.scratch.ctypes.data,
        grad.ctypes.data, hess.ctypes.data,
    )


def _native_best_split(
    leaf: _LeafState,
    tables: _SplitTables,
    params: TreeGrowthParams,
    addresses: tuple[int, int, int, int, int, int],
    candidates: int = 0,
    splittable: int = 0,
) -> None:
    """:func:`_find_best_split` by ``hist_best_split``.

    ``candidates`` / ``splittable`` are the addresses (0 = none) of one
    byte per candidate feature: which to search, and where to leave the
    same flags for this leaf's children (see the routine's comment).
    :func:`_split_tables` and :func:`_grow` have checked every index the
    routine dereferences.
    """
    leaf.best_gain = params.min_gain_to_split
    leaf.best_feature = -1
    leaf.best_bin = -1
    n_features = len(tables.features)
    if n_features == 0:
        return
    binned, features, offsets, scratch, grad, hess = addresses
    idx = leaf.sample_idx
    best_gain = ctypes.c_double()
    # The parent's score is computed here, as in the numpy search: C's
    # pow() need not round x**2 the way Python's does.
    cell = tables.native.hist_best_split(
        binned, tables.binned.shape[1], idx.ctypes.data, len(idx),
        features, offsets, n_features, grad, hess,
        leaf.grad_sum, leaf.hess_sum,
        leaf.grad_sum**2 / (leaf.hess_sum + params.lambda_l2),
        params.min_data_in_leaf, params.min_sum_hessian_in_leaf,
        params.lambda_l2, params.min_gain_to_split,
        scratch, ctypes.byref(best_gain), candidates, splittable,
    )
    if cell >= 0:
        slot, leaf.best_bin = divmod(cell, 256)
        leaf.best_gain = best_gain.value
        leaf.best_feature = int(tables.features[slot])


def _find_best_split(
    leaf: _LeafState,
    grad: np.ndarray,
    hess: np.ndarray,
    tables: _SplitTables,
    params: TreeGrowthParams,
) -> None:
    """Fill ``leaf.best_*`` with the highest-gain (feature, bin) split.

    One histogram pass over all candidate features: cell ``(slot, bin)``
    of the flattened ``bincount`` accumulates its rows in row order, a
    row-wise ``cumsum`` adds bins left to right, and the first ``argmax``
    over the feature-major cells is the first feature (in subset order)
    reaching the best gain at its first best bin — the floats and the
    tie-breaks of scanning the features one by one.  Gains are evaluated
    only on the cells whose child counts allow a split.

    That numpy body is the reference, and what runs without a C
    toolchain; with one, ``hist_best_split`` in :mod:`repro._native`
    makes the same additions in the same order and returns the same
    split (:func:`_native_best_split`).
    """
    if tables.native is not None:
        _native_best_split(
            leaf, tables, params, _native_addresses(tables, grad, hess)
        )
        return
    leaf.best_gain = params.min_gain_to_split
    leaf.best_feature = -1
    leaf.best_bin = -1
    stride = tables.stride
    n_features = len(tables.features)
    if n_features == 0:
        return
    idx = leaf.sample_idx
    n_rows = len(idx)
    g = grad[idx]
    h = hess[idx]
    keys = tables.keys[idx]
    n_cells = n_features * stride
    grad_hist = np.empty(n_cells, dtype=np.float64)
    hess_hist = np.empty(n_cells, dtype=np.float64)
    count_hist = np.empty(n_cells, dtype=np.intp)
    block = max(1, _HIST_BLOCK_ELEMENTS // max(n_rows, 1))
    for start in range(0, n_features, block):
        stop = min(start + block, n_features)
        width = stop - start
        # Keys are tree-global, so the block's cells are
        # [start, stop) * stride: count up to the end, keep the tail.
        block_keys = keys[:, start:stop].ravel()
        first, end = start * stride, stop * stride
        grad_hist[first:end] = np.bincount(
            block_keys, weights=np.repeat(g, width), minlength=end
        )[first:]
        hess_hist[first:end] = np.bincount(
            block_keys, weights=np.repeat(h, width), minlength=end
        )[first:]
        count_hist[first:end] = np.bincount(block_keys, minlength=end)[first:]
    shape = (n_features, stride)

    # c_right >= min_data  <=>  c_left <= n_rows - min_data (integers).
    c_left = np.cumsum(count_hist.reshape(shape), axis=1)
    cells = np.flatnonzero(
        tables.candidate
        & (c_left >= params.min_data_in_leaf)
        & (c_left <= n_rows - params.min_data_in_leaf)
    )
    if cells.size == 0:
        return
    lam = params.lambda_l2
    parent_score = leaf.grad_sum**2 / (leaf.hess_sum + lam)
    g_left = np.cumsum(grad_hist.reshape(shape), axis=1).ravel()[cells]
    h_left = np.cumsum(hess_hist.reshape(shape), axis=1).ravel()[cells]
    g_right = leaf.grad_sum - g_left
    h_right = leaf.hess_sum - h_left
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent_score
        )
    enough_hessian = (h_left >= params.min_sum_hessian_in_leaf) & (
        h_right >= params.min_sum_hessian_in_leaf
    )
    gain = np.where(enough_hessian, gain, -np.inf)
    best = int(np.argmax(gain))
    if np.isnan(gain[best]):
        # argmax stops at the first NaN.  Scanned one by one, a feature
        # with a NaN gain loses (NaN > x is false) and the others still
        # compete.
        slots = cells // stride
        gain[np.isin(slots, slots[np.isnan(gain)])] = -np.inf
        best = int(np.argmax(gain))
    if gain[best] > params.min_gain_to_split:
        slot, leaf.best_bin = divmod(int(cells[best]), stride)
        leaf.best_gain = float(gain[best])
        leaf.best_feature = int(tables.features[slot])


def grow_tree(
    binned: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    mapper: BinMapper,
    params: TreeGrowthParams,
    sample_idx: np.ndarray | None = None,
    feature_subset: np.ndarray | None = None,
) -> Tree:
    """Grow one leaf-wise tree on the given gradients.

    Args:
        binned: uint8 bin matrix of shape (n_samples, n_features),
            C-contiguous, every bin below its feature's ``mapper.n_bins``.
        grad, hess: per-sample gradient/hessian arrays (contiguous
            float64, one entry per row of ``binned``).
        mapper: the fitted :class:`BinMapper` (for raw-value thresholds).
        params: growth parameters.
        sample_idx: optional bagging subset of row indices (int64, each
            in ``[0, n_samples)``).
        feature_subset: optional subset of feature columns to consider.

    Raises:
        ValueError: an argument is not of the stated type, shape or range.
    """
    n_bins = _bin_counts(mapper)
    if feature_subset is None:
        feature_subset = np.arange(len(n_bins), dtype=np.int64)
    tables = _split_tables(binned, n_bins, feature_subset)
    return _grow(tables, grad, hess, mapper, params, sample_idx)[0]


def _bin_counts(mapper: BinMapper) -> list[int]:
    return [mapper.n_bins(f) for f in range(len(mapper.upper_bounds))]


def _grow(
    tables: _SplitTables,
    grad: np.ndarray,
    hess: np.ndarray,
    mapper: BinMapper,
    params: TreeGrowthParams,
    sample_idx: np.ndarray | None,
) -> tuple[Tree, dict[int, np.ndarray]]:
    """:func:`grow_tree` over split tables the caller already built (one
    set serves every tree of a fit that subsamples no features).

    Also returns the partition growth ends with — leaf node -> its rows
    of ``sample_idx`` — so a caller that needs the tree's value on those
    rows does not have to walk them down the tree again.
    """
    binned = tables.binned
    n_samples = binned.shape[0]
    for name, values in (("grad", grad), ("hess", hess)):
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.shape == (n_samples,)
            and values.flags.c_contiguous
        ):
            raise ValueError(
                f"{name} must be a contiguous float64 array of length "
                f"{n_samples}"
            )
    if sample_idx is None:
        sample_idx = np.arange(n_samples, dtype=np.int64)
    if not (
        isinstance(sample_idx, np.ndarray)
        and sample_idx.dtype == np.int64
        and sample_idx.ndim == 1
        and _native.all_below(sample_idx, n_samples)
    ):
        # A negative index would wrap silently in numpy and read before
        # the matrix in C.
        raise ValueError(
            f"sample_idx must be a 1-D int64 array of rows in [0, {n_samples})"
        )
    sample_idx = np.ascontiguousarray(sample_idx)

    tree = Tree()
    root = tree._new_node()
    root_leaf = _LeafState(
        node=root,
        sample_idx=sample_idx,
        grad_sum=float(grad[sample_idx].sum()),
        hess_sum=float(hess[sample_idx].sum()),
        depth=0,
    )
    tree._set_value(
        root, _leaf_value(root_leaf.grad_sum, root_leaf.hess_sum, params.lambda_l2)
    )
    if tables.native is not None:
        # Addresses are read once per tree and live in this frame only,
        # as do the arrays behind them.
        addresses = _native_addresses(tables, grad, hess)
        # One byte per (node, candidate): a leaf's children search only
        # the features that occupied two bins or more in it.  Exact only
        # when a split needs a row on each side.
        n_candidates = len(tables.features)
        flags = np.empty(
            (max(2 * params.num_leaves - 1, 1), n_candidates), dtype=np.uint8
        )
        flags_at = flags.ctypes.data if params.min_data_in_leaf >= 1 else 0

        def search(leaf: _LeafState, parent: int) -> None:
            _native_best_split(
                leaf, tables, params, addresses,
                flags_at + parent * n_candidates if flags_at and parent >= 0 else 0,
                flags_at + leaf.node * n_candidates if flags_at else 0,
            )
    else:
        def search(leaf: _LeafState, parent: int) -> None:
            _find_best_split(leaf, grad, hess, tables, params)

    search(root_leaf, -1)
    leaves = {root: sample_idx}

    # Max-heap of splittable leaves keyed by gain; counter breaks ties
    # deterministically.
    heap: list[tuple[float, int, _LeafState]] = []
    counter = 0
    if root_leaf.best_feature >= 0:
        heapq.heappush(heap, (-root_leaf.best_gain, counter, root_leaf))
        counter += 1

    n_leaves = 1
    while heap and n_leaves < params.num_leaves:
        _, _, leaf = heapq.heappop(heap)
        if leaf.best_feature < 0:
            continue
        if params.max_depth >= 0 and leaf.depth >= params.max_depth:
            continue
        f, b = leaf.best_feature, leaf.best_bin
        idx = leaf.sample_idx
        mask = binned[:, f][idx] <= b
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            continue

        node = leaf.node
        left_node = tree._new_node()
        right_node = tree._new_node()
        tree._set_split(
            node, f, b, mapper.threshold_value(f, b),
            left_node, right_node, leaf.best_gain,
        )
        n_leaves += 1
        del leaves[node]

        for child_node, child_idx in ((left_node, left_idx), (right_node, right_idx)):
            child = _LeafState(
                node=child_node,
                sample_idx=child_idx,
                grad_sum=float(grad[child_idx].sum()),
                hess_sum=float(hess[child_idx].sum()),
                depth=leaf.depth + 1,
            )
            tree._set_value(
                child_node,
                _leaf_value(child.grad_sum, child.hess_sum, params.lambda_l2),
            )
            leaves[child_node] = child_idx
            wide = len(child_idx) >= 2 * params.min_data_in_leaf
            if wide and n_leaves < params.num_leaves:  # else never popped
                search(child, node)
                if child.best_feature >= 0:
                    heapq.heappush(heap, (-child.best_gain, counter, child))
                    counter += 1
    # Growth is over: build the node arrays once, here, for every reader
    # that follows (tree walks, the ensemble compiler).
    tree._materialise()
    return tree, leaves
