"""Compiled ensemble inference: the scoring hot path in flat-array form.

The reference predictor (:meth:`repro.gbdt.boosting.GBDTClassifier.predict_raw`)
walks every tree's node arrays level by level per call.  That is fine for
training-time evaluation but far too slow for the paper's Figure 7 claim
that LFO inference sustains CDN line rate.  :class:`CompiledPredictor`
flattens a fitted ensemble *once* into one contiguous byte slab, and that
slab is all it holds:

* a 32-byte header (magic, tree, feature and node counts, base score),
  then per-tree root offsets and depths, then one array-of-structs node
  table (``threshold``, ``feature``, ``kid_le``/``kid_gt`` child ids,
  leaf ``value`` pre-scaled by the learning rate);
* thresholds are the *raw-value* thresholds recorded at growth time, so
  prediction skips re-binning entirely;
* leaves are self-referential (``feature=0``, ``threshold=+inf``, both
  children pointing at the leaf itself), which makes node stepping
  idempotent — a walk can run for a fixed per-tree depth with no
  leaf checks at all.

The same bytes are the wire format (:meth:`CompiledPredictor.to_bytes`
returns the slab itself) and what the native kernel is handed.

Two execution backends share that layout:

* **kernel** — the ``predict_raw`` routine of :mod:`repro._native`
  (branchless fixed-depth walk; a batch walks eight rows as interleaved
  chains, a lone row eight trees, to hide load latency).  That module is
  the repo's one native build — it also holds the min-cost-flow
  augmentation loop — compiled once per machine into a CPython extension
  whose functions take the rows and the slab, whose header they check.
  The kernel is model-independent: every predictor in the process calls
  the same module.  A batch call releases the GIL, so predictor
  *threads* scale too, not just processes; one row
  (:meth:`CompiledPredictor.predict_raw_single`) is one call that keeps
  it.
* **numpy** — a vectorised self-loop level walk over numpy views of the
  slab, used when the native module is unavailable (``cc`` missing,
  sandboxed, or ``REPRO_GBDT_NO_CC=1``).  Slower than the kernel but
  still far ahead of the reference path, and always available.

Numerical contract (pinned by ``tests/test_gbdt_compiled.py``): the
kernel accumulates ``init_score + Σ value`` in tree order, exactly like
the reference loop, and is bit-identical to it; the numpy backend sums
with numpy's pairwise reduction and agrees to well under 1e-12.  Within
one predictor, batch and single-row scoring are bit-identical to each
other, which is what lets the batched simulator replay decisions
deterministically (see :mod:`repro.core.engine`).
"""

from __future__ import annotations

import struct
from time import perf_counter

import numpy as np

from .. import _native
from ..obs import get_registry
from .binning import sorted_unique
from .losses import sigmoid
from .tree import Tree

__all__ = ["CompiledPredictor", "kernel_available"]

#: One node record: raw-value threshold, split feature (0 at leaves),
#: child ids for the ``<=`` / ``>`` outcomes (self-loop at leaves), pad
#: to keep the value 8-byte aligned, pre-scaled leaf value.
_NODE_DTYPE = np.dtype(
    [
        ("threshold", "<f8"),
        ("feature", "<i4"),
        ("kid_le", "<i4"),
        ("kid_gt", "<i4"),
        ("pad", "<i4"),
        ("value", "<f8"),
    ]
)

#: Magic prefix of the slab (see :meth:`CompiledPredictor.to_bytes`).
#: Bump the trailing digit on any layout change so bytes of the old
#: layout fail loudly; the native kernel checks it too.
_SLAB_MAGIC = b"LFOSLAB1"

#: ``<`` = little-endian, no struct padding: magic, n_trees u32,
#: n_features u32, n_nodes u64, init_score f8 — 32 bytes total, which
#: keeps every section after it 4-byte aligned and the node slab (at
#: ``32 + 8 * n_trees``) 8-byte aligned with no pad bytes.
_SLAB_HEADER = struct.Struct("<8sIIQd")


def _sigmoid_scalar(x: float) -> float:
    """Scalar logistic, bit-identical to :func:`repro.gbdt.losses.sigmoid`.

    Uses the same branch structure and ``np.exp`` (whose scalar path
    matches its vectorised path bit-for-bit), with the division done in
    IEEE double either way — so a single-row probability always equals
    the corresponding batch entry exactly.
    """
    if x >= 0.0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = float(np.exp(x))
    return ex / (1.0 + ex)


def kernel_available() -> bool:
    """True when the native module is (or can be made) loaded in this
    process — the C backend of prediction and of the min-cost-flow solver."""
    return _native.load() is not None


class CompiledPredictor:
    """Flattened, backend-accelerated inference over a fitted ensemble.

    ``CompiledPredictor(slab)`` scores with the model held in ``slab``,
    anything exposing the bytes of :meth:`to_bytes` through the buffer
    protocol — how a cluster shard rebuilds the model it received (see
    :meth:`repro.cluster.CacheCluster.publish`).  Nothing is copied: the
    node tables are numpy views of the slab, which they keep alive (a
    ``bytearray`` cannot be resized while they do), and scoring is
    bit-identical to the predictor that produced the bytes.  Build one
    from a fitted ensemble with :meth:`from_ensemble` (or, more commonly,
    via :meth:`repro.gbdt.GBDTClassifier.compiled`, which caches it on the
    model).  The predictor is immutable: refitting the model compiles a
    fresh one.

    Raises ``ValueError`` on a bad magic, a buffer that is not exactly
    the length its header promises, a misaligned node table or links
    that leave the table.

    Attributes:
        n_trees: number of flattened trees.
        n_features: feature-vector width the ensemble was fitted on.
        init_score: the ensemble's base score (pre-link).
        backend: ``"kernel"`` or ``"numpy"`` — resolved lazily on first
            prediction, and re-resolved after unpickling (the kernel
            binding never crosses process boundaries).
    """

    def __init__(self, slab) -> None:
        view = memoryview(slab).cast("B")
        if len(view) < _SLAB_HEADER.size:
            raise ValueError(
                f"model bytes truncated: {len(view)} bytes is smaller than "
                f"the {_SLAB_HEADER.size}-byte header"
            )
        magic, n_trees, n_features, n_nodes, init_score = (
            _SLAB_HEADER.unpack_from(view, 0)
        )
        if magic != _SLAB_MAGIC:
            raise ValueError(
                f"model bytes have magic {magic!r}, expected {_SLAB_MAGIC!r}"
            )
        offset = _SLAB_HEADER.size
        total = offset + 8 * n_trees + _NODE_DTYPE.itemsize * n_nodes
        if len(view) < total:
            raise ValueError(
                f"model bytes truncated: header promises {total} bytes, "
                f"buffer holds {len(view)}"
            )
        if len(view) > total:
            raise ValueError(
                f"model bytes run {len(view) - total} bytes past the "
                f"{total} their header promises"
            )
        self._slab = slab if isinstance(slab, (bytes, bytearray)) else view
        self.init_score = float(init_score)
        self.n_features = int(n_features)
        self._roots = np.frombuffer(view, dtype="<i4", count=n_trees, offset=offset)
        offset += 4 * n_trees
        self._depths = np.frombuffer(view, dtype="<i4", count=n_trees, offset=offset)
        offset += 4 * n_trees
        self._nodes = np.frombuffer(
            view, dtype=_NODE_DTYPE, count=n_nodes, offset=offset
        )
        self._kernel: _native.Native | None = None
        self._kernel_resolved = False
        # numpy-backend views, built on first fallback use.
        self._numpy_views: tuple[np.ndarray, ...] | None = None
        self._check_links()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        nodes: np.ndarray,
        roots: np.ndarray,
        depths: np.ndarray,
        init_score: float,
        n_features: int,
    ) -> "CompiledPredictor":
        """A predictor over the slab that packs these tables: a
        ``_NODE_DTYPE`` node table, one root offset and one walk depth
        per tree."""
        header = _SLAB_HEADER.pack(
            _SLAB_MAGIC, len(roots), n_features, len(nodes), init_score
        )
        return cls(
            b"".join(
                (
                    header,
                    np.ascontiguousarray(roots, dtype="<i4").tobytes(),
                    np.ascontiguousarray(depths, dtype="<i4").tobytes(),
                    np.ascontiguousarray(nodes, dtype=_NODE_DTYPE).tobytes(),
                )
            )
        )

    @classmethod
    def from_ensemble(
        cls,
        trees: list[Tree],
        init_score: float,
        learning_rate: float,
        n_features: int,
    ) -> "CompiledPredictor":
        """Flatten fitted trees into one contiguous node slab.

        Leaf values are pre-scaled by ``learning_rate`` so prediction is a
        plain sum; raw-value thresholds are copied from the trees, so no
        bin mapper is needed at scoring time.  Observed into the
        ``gbdt.compile_seconds`` histogram when a registry is active.
        """
        registry = get_registry()
        started = perf_counter() if registry.enabled else 0.0
        total_nodes = sum(len(tree.feature) for tree in trees)
        nodes = np.zeros(max(total_nodes, 1), dtype=_NODE_DTYPE)
        roots = np.zeros(len(trees), dtype=np.int32)
        depths = np.zeros(len(trees), dtype=np.int32)
        offset = 0
        for t, tree in enumerate(trees):
            size = len(tree.feature)
            block = nodes[offset:offset + size]
            is_leaf = tree.feature < 0
            node_ids = np.arange(offset, offset + size, dtype=np.int64)
            block["threshold"] = np.where(is_leaf, np.inf, tree.threshold)
            block["feature"] = np.where(is_leaf, 0, tree.feature)
            block["kid_le"] = np.where(is_leaf, node_ids, tree.left + offset)
            block["kid_gt"] = np.where(is_leaf, node_ids, tree.right + offset)
            block["value"] = tree.value * learning_rate
            roots[t] = offset
            depths[t] = tree.max_depth()
            offset += size
        predictor = cls.from_tables(nodes, roots, depths, init_score, n_features)
        if registry.enabled:
            registry.histogram("gbdt.compile_seconds").observe(
                perf_counter() - started
            )
        return predictor

    def _check_links(self) -> None:
        """Refuse a slab the kernel would refuse or whose walk would leave
        the node table: at least one node, 8-byte aligned, every child and
        root inside the table, every feature inside the row.  The kernel
        follows the links unchecked, and the table never changes after
        this, so they are checked once, here — a predictor rebuilt from
        another process's bytes included."""
        nodes, n = self._nodes, len(self._nodes)
        if n == 0 or nodes.ctypes.data % 8:
            raise ValueError("model node table empty or not 8-byte aligned")
        if not (
            _native.all_below(nodes["kid_le"], n)
            and _native.all_below(nodes["kid_gt"], n)
            and _native.all_below(nodes["feature"], self.n_features)
            and _native.all_below(self._roots, n)
        ):
            raise ValueError("model node table links outside itself")

    # -- prediction ---------------------------------------------------------

    @property
    def n_trees(self) -> int:
        """Number of flattened trees."""
        return len(self._roots)

    @property
    def backend(self) -> str:
        """The execution backend this process resolved to."""
        return "kernel" if self._resolve_kernel() is not None else "numpy"

    def _resolve_kernel(self) -> _native.Native | None:
        if not self._kernel_resolved:
            self._kernel = _native.load()
            self._kernel_resolved = True
        return self._kernel

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a C-contiguous float64 ``(n, n_features)`` matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        return np.ascontiguousarray(X)

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Pre-link scores for a ``(n, n_features)`` batch (or one row)."""
        X = self._rows(X)
        kernel = self._resolve_kernel()
        out = np.empty(X.shape[0], dtype=np.float64)
        if kernel is None:
            return self._predict_raw_numpy(X, out)
        kernel.predict_raw(X, self._slab, out, None)
        return out

    def predict_raw_single(self, x: np.ndarray) -> float:
        """Pre-link score for one feature vector (scalar fast path).

        Bit-identical to ``predict_raw(x[None, :])[0]`` on either
        backend — the batched simulator relies on that.  On the kernel a
        contiguous float64 row is one call with the slab, with no copy.
        """
        kernel = self._kernel if self._kernel_resolved else self._resolve_kernel()
        if kernel is not None:
            try:
                return kernel.predict_row(x, self._slab)
            except (TypeError, ValueError):
                pass  # not a contiguous float64 row: converted, or refused, below
        return float(self.predict_raw(x)[0])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability per row (logistic link).

        Bit-identical to :func:`repro.gbdt.losses.sigmoid` of
        :meth:`predict_raw`: on the kernel, the one ``np.exp`` that
        function makes runs over the ``-|raw|`` column the kernel writes,
        and its other expressions are made in C (``logistic``).
        """
        X = self._rows(X)
        kernel = self._resolve_kernel()
        if kernel is None:
            return sigmoid(self._predict_raw_numpy(X, np.empty(X.shape[0])))
        raw = np.empty(X.shape[0])
        p = np.empty(X.shape[0])
        kernel.predict_raw(X, self._slab, raw, p)
        np.exp(p, out=p)
        kernel.logistic(raw, p)
        return p

    def predict_proba_single(self, x: np.ndarray) -> float:
        """Positive-class probability for one feature vector."""
        return _sigmoid_scalar(self.predict_raw_single(x))

    def _numpy_arrays(self) -> tuple[np.ndarray, ...]:
        views = self._numpy_views
        if views is None:
            # Contiguous copies: structured-field views have a 32-byte
            # stride, which would slow every gather in the walk.
            kids = np.empty(2 * len(self._nodes), dtype=np.int64)
            kids[0::2] = self._nodes["kid_le"]
            kids[1::2] = self._nodes["kid_gt"]
            views = (
                np.ascontiguousarray(self._nodes["feature"], dtype=np.int64),
                np.ascontiguousarray(self._nodes["threshold"]),
                kids,
                np.ascontiguousarray(self._nodes["value"]),
                self._roots.astype(np.int64),
            )
            self._numpy_views = views
        return views

    def _predict_raw_numpy(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Every (row, tree) pair's leaf value, summed per row."""
        _, _, _, value, _ = self._numpy_arrays()
        np.sum(value[self._walk_numpy(X)], axis=1, out=out)
        out += self.init_score
        return out

    def _walk_numpy(self, X: np.ndarray) -> np.ndarray:
        """``(n, n_trees)`` node each row reaches in each tree: one
        self-loop level walk over all (row, tree) pairs at once."""
        feature, threshold, kids, _, roots = self._numpy_arrays()
        n = X.shape[0]
        node = np.repeat(roots[None, :], n, axis=0)
        x_flat = X.ravel()
        row_base = (np.arange(n, dtype=np.int64) * X.shape[1])[:, None]
        for _ in range(int(self._depths.max(initial=0))):
            gathered = x_flat[row_base + feature[node]]
            go_right = gathered > threshold[node]
            node = kids[(node << 1) + go_right]
        return node

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """``(n, n_trees)`` int64 leaf each row reaches in each tree,
        counted from the tree's root — for an ensemble compiled by
        :meth:`from_ensemble`, the index into that :class:`Tree`'s node
        arrays.  What :meth:`repro.gbdt.GBDTClassifier.refit` re-solves
        the leaf values over.

        The kernel scores one one-tree slab per tree whose leaf values
        are those ids (exact in float64), through the same
        ``predict_raw`` call as scoring; the numpy backend is the level
        walk of its scoring path.  A tree owns the nodes from its root to
        the next tree's, the layout :meth:`from_ensemble` writes.
        """
        X = self._rows(X)
        kernel = self._resolve_kernel()
        if kernel is None:
            return self._walk_numpy(X) - self._roots.astype(np.int64)
        ids = np.empty(X.shape[0])
        leaves = np.empty((self.n_trees, X.shape[0]), dtype=np.int64)
        ends = np.append(self._roots[1:], len(self._nodes)).tolist()
        for t, (start, end) in enumerate(zip(self._roots.tolist(), ends)):
            nodes = self._nodes[start:end].copy()
            nodes["kid_le"] -= start
            nodes["kid_gt"] -= start
            nodes["value"] = np.arange(end - start)
            tree = CompiledPredictor.from_tables(
                nodes, [0], self._depths[t:t + 1], 0.0, self.n_features
            )
            kernel.predict_raw(X, tree._slab, ids, None)
            leaves[t] = ids
        return leaves.T

    # -- wire serialisation -------------------------------------------------

    def to_bytes(self) -> bytes:
        """The slab: one contiguous, position-independent blob.

        Layout (all little-endian): a 32-byte header (magic, ``n_trees``
        u32, ``n_features`` u32, ``n_nodes`` u64, ``init_score`` f8),
        then ``roots`` i4, ``depths`` i4, then the ``_NODE_DTYPE`` node
        table.  Section offsets are pure functions of the header, so the
        constructor rebuilds the predictor from the same bytes in another
        process — how the cluster publishes models to its shards (see
        :meth:`repro.cluster.CacheCluster.publish`).  A predictor built
        over ``bytes`` returns that very object; over another buffer, a
        copy of it.
        """
        slab = self._slab
        return slab if isinstance(slab, bytes) else bytes(slab)

    # -- threshold introspection -------------------------------------------

    def feature_thresholds(self, feature: int) -> np.ndarray:
        """Sorted unique raw thresholds the ensemble tests on a feature.

        Two input values that fall between the same pair of consecutive
        thresholds take identical paths through every tree, hence score
        identically — the speculation invariant the batched simulator
        uses for the volatile free-bytes feature.
        """
        internal = self._nodes["kid_le"] != np.arange(
            len(self._nodes), dtype=np.int64
        )
        mask = internal & (self._nodes["feature"] == feature)
        return sorted_unique(self._nodes["threshold"][mask])

    # -- pickling -----------------------------------------------------------

    def __reduce__(self):
        # The slab alone: views, numpy arrays and the process-local kernel
        # binding are rebuilt on load.
        return (type(self), (self.to_bytes(),))
