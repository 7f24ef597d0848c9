"""Leaf-wise regression tree growth over binned features.

This is the tree builder inside the boosting loop: given per-sample
gradients and hessians, it grows a tree by repeatedly splitting the leaf
with the largest gain (LightGBM's *leaf-wise* strategy, as opposed to
XGBoost's level-wise growth), using per-bin gradient histograms so each
split search is O(n_bins) per feature.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import _native
from .binning import BinMapper

if TYPE_CHECKING:
    from .boosting import GBDTParams

__all__ = ["Tree", "grow_tree"]


#: ``Tree``'s node arrays in constructor order, with their dtypes.
_NODE_ARRAYS = (
    ("feature", np.int64),
    ("bin_threshold", np.int64),
    ("threshold", np.float64),
    ("left", np.int64),
    ("right", np.int64),
    ("value", np.float64),
    ("gain", np.float64),
)


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted regression tree: seven read-only node arrays.

    Internal nodes hold ``feature``, a ``bin_threshold`` (go left when the
    sample's bin ≤ threshold), the equivalent raw-value ``threshold`` (go
    left when raw value ≤ threshold), the ``left``/``right`` child ids and
    the split's ``gain``; ``feature[i] == -1`` marks a leaf.  Every node
    holds the ``value`` it had as a leaf.  Children come after their
    parent.  The constructor copies each array and makes the copy
    read-only, and so does unpickling, so nothing compiled from a tree
    can go stale against it.
    """

    feature: np.ndarray
    bin_threshold: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _NODE_ARRAYS:
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __reduce__(self):
        return Tree, tuple(getattr(self, name) for name, _ in _NODE_ARRAYS)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self.feature < 0))

    def max_depth(self) -> int:
        """Longest root-to-leaf edge count (0 for a single-leaf tree)."""
        depth = [0] * len(self.feature)
        # Children come after their parent, so one forward pass sees
        # every parent before its children.
        nodes = zip(self.feature.tolist(), self.left.tolist(), self.right.tolist())
        for i, (f, left, right) in enumerate(nodes):
            if f >= 0:
                depth[left] = depth[right] = depth[i] + 1
        return max(depth, default=0)

    def _walk(self, X: np.ndarray, threshold: np.ndarray) -> np.ndarray:
        """Every row's leaf id, walking the levels vectorised."""
        feature, left, right = self.feature, self.left, self.right
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = X[idx, feature[cur]] <= threshold[cur]
            node[idx] = np.where(go_left, left[cur], right[cur])
            active[idx] = feature[node[idx]] >= 0
        return node

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predict from uint8 bin indices."""
        return self.value[self._walk(binned, self.bin_threshold)]

    def predict_raw_values(self, X: np.ndarray) -> np.ndarray:
        """Predict from raw float features using stored value thresholds."""
        return self.value[self._walk(X, self.threshold)]

    def split_features(self) -> list[int]:
        """Features used by internal nodes (one entry per split) — the raw
        material of the paper's Figure 8 importance measure."""
        return self.feature[self.feature >= 0].tolist()

    def to_dict(self) -> dict:
        """JSON-serialisable state."""
        state = {name: getattr(self, name).tolist() for name, _ in _NODE_ARRAYS}
        state["threshold"] = [
            t if np.isfinite(t) else "inf" for t in state["threshold"]
        ]
        return state

    @classmethod
    def from_dict(cls, state: dict) -> "Tree":
        """Inverse of :meth:`to_dict`."""
        return cls(
            feature=state["feature"],
            bin_threshold=state["bin_threshold"],
            threshold=[
                float("inf") if t == "inf" else float(t)
                for t in state["threshold"]
            ],
            left=state["left"],
            right=state["right"],
            value=state["value"],
            gain=state.get("gain", np.zeros(len(state["feature"]))),
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


def _find_best_split(
    leaf: _LeafState,
    grad: np.ndarray,
    hess: np.ndarray,
    tables: _SplitTables,
    params: GBDTParams,
) -> None:
    """Fill ``leaf.best_*`` with the highest-gain (feature, bin) split.

    One histogram pass over all candidate features: cell ``(slot, bin)``
    of the flattened ``bincount`` accumulates its rows in row order, a
    row-wise ``cumsum`` adds bins left to right, and the first ``argmax``
    over the feature-major cells is the first feature (in subset order)
    reaching the best gain at its first best bin — the floats and the
    tie-breaks of scanning the features one by one.  Gains are evaluated
    only on the cells whose child counts allow a split.

    This is the reference, and what runs without a C toolchain; with
    one, ``grow_tree`` in :mod:`repro._native` makes the same additions
    in the same order for every leaf of a tree (:func:`_native_grow`).
    """
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
    params: GBDTParams,
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
    params: GBDTParams,
    sample_idx: np.ndarray | None,
) -> tuple[Tree, dict[int, np.ndarray]]:
    """:func:`grow_tree` over split tables the caller already built (one
    set serves every tree of a fit that subsamples no features).  The
    native routine and the numpy loop make the same node tables, and
    :func:`_tree_from_nodes` builds the tree of either.

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

    if tables.native is not None:
        # The loop below, in one C call.
        nodes, sums, rows, _ = _native_grow(
            tables, grad, hess, params, sample_idx,
            inherit=params.min_data_in_leaf >= 1,
        )
        is_leaf = nodes[:, 0] < 0
        leaves = {
            node: rows[s : s + c]
            for node, s, c in zip(
                np.flatnonzero(is_leaf).tolist(), *nodes[is_leaf, 4:].T.tolist()
            )
        }
        return _tree_from_nodes(nodes, sums, mapper, params.lambda_l2), leaves

    def searchable(leaf: _LeafState) -> bool:
        return params.max_depth < 0 or leaf.depth < params.max_depth

    # One row per node in the order the nodes are made, as the native
    # routine returns them: (feature, bin, left, right) and (split gain,
    # grad sum, hess sum).
    nodes: list[list[int]] = []
    sums: list[list[float]] = []
    leaves: dict[int, np.ndarray] = {}

    def new_leaf(idx: np.ndarray, depth: int) -> _LeafState:
        leaf = _LeafState(
            node=len(nodes),
            sample_idx=idx,
            grad_sum=float(grad[idx].sum()),
            hess_sum=float(hess[idx].sum()),
            depth=depth,
        )
        nodes.append([-1, 0, -1, -1])
        sums.append([0.0, leaf.grad_sum, leaf.hess_sum])
        leaves[leaf.node] = idx
        return leaf

    root_leaf = new_leaf(sample_idx, 0)
    if searchable(root_leaf):
        _find_best_split(root_leaf, grad, hess, tables, params)

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
        f, b = leaf.best_feature, leaf.best_bin
        idx = leaf.sample_idx
        mask = binned[:, f][idx] <= b
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            continue

        nodes[leaf.node] = [f, b, len(nodes), len(nodes) + 1]
        sums[leaf.node][0] = leaf.best_gain
        n_leaves += 1
        del leaves[leaf.node]

        for child_idx in (left_idx, right_idx):
            child = new_leaf(child_idx, leaf.depth + 1)
            # A leaf at the depth cap, too narrow for two children, or
            # made by the last split would never be popped: not searched.
            wide = len(child_idx) >= 2 * params.min_data_in_leaf
            if wide and n_leaves < params.num_leaves and searchable(child):
                _find_best_split(child, grad, hess, tables, params)
                if child.best_feature >= 0:
                    heapq.heappush(heap, (-child.best_gain, counter, child))
                    counter += 1
    tree = _tree_from_nodes(
        np.array(nodes, dtype=np.int64), np.array(sums), mapper,
        params.lambda_l2,
    )
    return tree, leaves


def _native_grow(
    tables: _SplitTables,
    grad: np.ndarray,
    hess: np.ndarray,
    params: GBDTParams,
    sample_idx: np.ndarray,
    inherit: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The reference loop of :func:`_grow` as one ``grow_tree`` call.

    Returns the routine's node table ``(n_nodes, 6)`` int64 (feature,
    bin, left, right, start, count), its ``(n_nodes, 3)`` float64 sums
    (split gain, grad sum, hess sum), ``sample_idx`` grouped so that node
    ``k`` owns ``rows[start:start + count]``, and its three counts: leaves
    searched, of those given candidate flags, of those writing flags.
    ``inherit`` lets a leaf's children skip the features it held in one
    bin (exact only when ``min_data_in_leaf >= 1``).  :func:`_split_tables`
    and :func:`_grow` have checked every index the routine dereferences,
    and its wrapper checks them again; ``MemoryError`` when the routine
    cannot allocate its work space.
    """
    capacity = max(2 * params.num_leaves - 1, 1)
    nodes = np.empty((capacity, 6), dtype=np.int64)
    sums = np.empty((capacity, 3), dtype=np.float64)
    rows = sample_idx.copy()
    stats = np.empty(3, dtype=np.int64)
    n_nodes = tables.native.grow_tree(
        tables.binned, rows, tables.features, tables.offsets, grad, hess,
        params.num_leaves, params.max_depth, params.min_data_in_leaf,
        params.min_sum_hessian_in_leaf, params.lambda_l2,
        params.min_gain_to_split, inherit, tables.scratch, nodes, sums, stats,
    )
    return nodes[:n_nodes], sums[:n_nodes], rows, stats


def _tree_from_nodes(
    nodes: np.ndarray, sums: np.ndarray, mapper: BinMapper, lambda_l2: float
) -> Tree:
    """The :class:`Tree` of either backend's node tables: ``nodes`` rows
    begin (feature, bin, left, right), ``sums`` rows are (split gain,
    grad sum, hess sum).  Internal nodes take the raw-value threshold of
    their bin from ``mapper``; every node the value
    ``-grad / (hess + lambda_l2)``."""
    feature, bins, left, right = nodes[:, :4].T
    gain, grad_sums, hess_sums = sums.T
    split = np.flatnonzero(feature >= 0)
    threshold = np.zeros(len(nodes))
    threshold[split] = [
        mapper.threshold_value(f, b)
        for f, b in zip(feature[split].tolist(), bins[split].tolist())
    ]
    value = -grad_sums / (hess_sums + lambda_l2)
    return Tree(feature, bins, threshold, left, right, value, gain)
