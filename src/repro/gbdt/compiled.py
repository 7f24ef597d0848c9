"""Compiled ensemble inference: the scoring hot path in flat-array form.

The reference predictor (:meth:`repro.gbdt.boosting.GBDTClassifier.predict_raw`)
walks every tree's Python-list node tables per call.  That is fine for
training-time evaluation but far too slow for the paper's Figure 7 claim
that LFO inference sustains CDN line rate.  :class:`CompiledPredictor`
flattens a fitted ensemble *once* into contiguous node tables so scoring
never touches Python lists again:

* per-tree node records are concatenated into one array-of-structs slab
  (``threshold``, ``feature``, ``kid_le``/``kid_gt`` child ids, leaf
  ``value`` pre-scaled by the learning rate) with per-tree root offsets;
* thresholds are the *raw-value* thresholds recorded at growth time, so
  prediction skips re-binning entirely;
* leaves are self-referential (``feature=0``, ``threshold=+inf``, both
  children pointing at the leaf itself), which makes node stepping
  idempotent — a walk can run for a fixed per-tree depth with no
  leaf checks at all.

Two execution backends share that layout:

* **kernel** — the ``predict_raw`` routine of :mod:`repro._native`
  (branchless fixed-depth walk, several interleaved rows to hide load
  latency).  That module is the repo's one native build — it also holds
  the min-cost-flow augmentation loop — compiled once per process and
  bound through :mod:`ctypes`.  The kernel is model-independent: every
  predictor in the process reuses the same shared object.  ctypes
  releases the GIL for the call, so predictor *threads* scale too, not
  just processes.
* **numpy** — a vectorised self-loop level walk over the same arrays,
  used when the native module is unavailable (``cc`` missing, sandboxed,
  or ``REPRO_GBDT_NO_CC=1``).  Slower than the kernel but still far
  ahead of the reference path, and always available.

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

#: Magic prefix of the wire/shared-memory slab format (see
#: :meth:`CompiledPredictor.to_bytes`).  Bump the trailing digit on any
#: layout change so stale cross-process segments fail loudly.
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

    Build one with :meth:`from_ensemble` (or, more commonly, via
    :meth:`repro.gbdt.GBDTClassifier.compiled`, which caches it on the
    model).  The predictor is immutable: refitting the model compiles a
    fresh one.

    Attributes:
        n_trees: number of flattened trees.
        n_features: feature-vector width the ensemble was fitted on.
        init_score: the ensemble's base score (pre-link).
        backend: ``"kernel"`` or ``"numpy"`` — resolved lazily on first
            prediction, and re-resolved after unpickling (the kernel
            binding never crosses process boundaries).
    """

    def __init__(
        self,
        nodes: np.ndarray,
        roots: np.ndarray,
        depths: np.ndarray,
        init_score: float,
        n_features: int,
    ) -> None:
        self._nodes = nodes
        self._roots = roots
        self._depths = depths
        self.init_score = float(init_score)
        self.n_features = int(n_features)
        self._kernel: _native.Native | None = None
        self._kernel_resolved = False
        # numpy-backend views, built on first fallback use.
        self._numpy_views: tuple[np.ndarray, ...] | None = None
        # single-row reusable buffers + raw pointers, built on first use.
        self._fast: tuple | None = None

    # -- construction -------------------------------------------------------

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
            feature, _, threshold, left, right, value = tree._materialise()
            size = len(feature)
            block = nodes[offset:offset + size]
            is_leaf = feature < 0
            node_ids = np.arange(offset, offset + size, dtype=np.int64)
            block["threshold"] = np.where(is_leaf, np.inf, threshold)
            block["feature"] = np.where(is_leaf, 0, feature)
            block["kid_le"] = np.where(is_leaf, node_ids, left + offset)
            block["kid_gt"] = np.where(is_leaf, node_ids, right + offset)
            block["value"] = value * learning_rate
            roots[t] = offset
            depths[t] = tree.max_depth()
            offset += size
        predictor = cls(nodes, roots, depths, init_score, n_features)
        if registry.enabled:
            registry.histogram("gbdt.compile_seconds").observe(
                perf_counter() - started
            )
        return predictor

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

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Pre-link scores for a ``(n, n_features)`` batch (or one row)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        X = np.ascontiguousarray(X)
        kernel = self._resolve_kernel()
        out = np.empty(X.shape[0], dtype=np.float64)
        if kernel is not None:
            # The model-side addresses are cached: deriving one costs
            # about as much as scoring three rows.
            nodes_ptr, roots_ptr, depths_ptr, n_trees = (
                self._fast_buffers()[4:]
            )
            kernel.predict_raw(
                X.ctypes.data, X.shape[0], X.shape[1],
                nodes_ptr, roots_ptr, depths_ptr, n_trees,
                self.init_score, out.ctypes.data,
            )
            return out
        return self._predict_raw_numpy(X, out)

    def _fast_buffers(self) -> tuple:
        fast = self._fast
        if fast is None:
            row = np.empty(self.n_features, dtype=np.float64)
            out = np.empty(1, dtype=np.float64)
            fast = (
                row, out, row.ctypes.data, out.ctypes.data,
                self._nodes.ctypes.data, self._roots.ctypes.data,
                self._depths.ctypes.data, len(self._roots),
            )
            self._fast = fast
        return fast

    def predict_raw_single(self, x: np.ndarray) -> float:
        """Pre-link score for one feature vector (scalar fast path).

        Bit-identical to ``predict_raw(x[None, :])[0]`` on either
        backend — the batched simulator relies on that.  Reuses
        persistent row/output buffers, so the only per-call work is one
        52-element copy and the kernel walk itself.
        """
        fast = self._fast
        if fast is None:
            if self._resolve_kernel() is None:
                return float(self.predict_raw(x)[0])
            fast = self._fast_buffers()
        row, out, row_ptr, out_ptr, nodes_ptr, roots_ptr, depths_ptr, \
            n_trees = fast
        row[:] = x
        self._kernel.predict_raw(  # loaded, or ``_fast`` would not exist
            row_ptr, 1, self.n_features,
            nodes_ptr, roots_ptr, depths_ptr, n_trees,
            self.init_score, out_ptr,
        )
        return out.item(0)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability per row (logistic link)."""
        return sigmoid(self.predict_raw(X))

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
        """Self-loop level walk over all (row, tree) pairs at once."""
        feature, threshold, kids, value, roots = self._numpy_arrays()
        n = X.shape[0]
        node = np.repeat(roots[None, :], n, axis=0)  # (n, n_trees)
        x_flat = X.ravel()
        row_base = (np.arange(n, dtype=np.int64) * X.shape[1])[:, None]
        for _ in range(int(self._depths.max(initial=0))):
            gathered = x_flat[row_base + feature[node]]
            go_right = gathered > threshold[node]
            node = kids[(node << 1) + go_right]
        np.sum(value[node], axis=1, out=out)
        out += self.init_score
        return out

    # -- slab serialisation -------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the predictor into one contiguous, position-independent
        blob.

        Layout (all little-endian): a 32-byte header (magic, ``n_trees``
        u32, ``n_features`` u32, ``n_nodes`` u64, ``init_score`` f8),
        then ``roots`` i4, ``depths`` i4, then the ``_NODE_DTYPE`` node
        slab.  Section offsets are pure functions of the header, so
        :meth:`from_buffer` can map the same bytes zero-copy from a
        ``multiprocessing.shared_memory`` segment in another process —
        that mapping is how the cluster publishes models (see
        :mod:`repro.cluster.slab`).
        """
        header = _SLAB_HEADER.pack(
            _SLAB_MAGIC,
            self.n_trees,
            self.n_features,
            len(self._nodes),
            self.init_score,
        )
        return b"".join(
            (
                header,
                np.ascontiguousarray(self._roots, dtype="<i4").tobytes(),
                np.ascontiguousarray(self._depths, dtype="<i4").tobytes(),
                np.ascontiguousarray(self._nodes, dtype=_NODE_DTYPE).tobytes(),
            )
        )

    @classmethod
    def from_buffer(cls, buffer) -> "CompiledPredictor":
        """Rebuild a predictor as zero-copy views over ``buffer``.

        ``buffer`` is anything exposing the buffer protocol — typically a
        ``multiprocessing.shared_memory.SharedMemory.buf`` memoryview, in
        which case the node tables are never copied: every attached
        process walks the same physical pages.  The returned arrays keep
        the buffer alive, and scoring is bit-identical to the predictor
        that produced the bytes (same node records, same walk, same
        accumulation order on both backends).

        Raises ``ValueError`` on a bad magic or a truncated buffer.
        """
        view = memoryview(buffer)
        if len(view) < _SLAB_HEADER.size:
            raise ValueError(
                f"model slab truncated: {len(view)} bytes is smaller than "
                f"the {_SLAB_HEADER.size}-byte header"
            )
        magic, n_trees, n_features, n_nodes, init_score = (
            _SLAB_HEADER.unpack_from(view, 0)
        )
        if magic != _SLAB_MAGIC:
            raise ValueError(
                f"model slab has magic {magic!r}, expected {_SLAB_MAGIC!r}"
            )
        offset = _SLAB_HEADER.size
        total = offset + 8 * n_trees + _NODE_DTYPE.itemsize * n_nodes
        if len(view) < total:
            raise ValueError(
                f"model slab truncated: header promises {total} bytes, "
                f"buffer holds {len(view)}"
            )
        roots = np.frombuffer(view, dtype="<i4", count=n_trees, offset=offset)
        offset += 4 * n_trees
        depths = np.frombuffer(view, dtype="<i4", count=n_trees, offset=offset)
        offset += 4 * n_trees
        nodes = np.frombuffer(
            view, dtype=_NODE_DTYPE, count=n_nodes, offset=offset
        )
        return cls(nodes, roots, depths, init_score, n_features)

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
        return np.unique(self._nodes["threshold"][mask])

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # ctypes bindings and raw buffer addresses are process-local;
        # re-resolve/rebuild after unpickling.
        state["_kernel"] = None
        state["_kernel_resolved"] = False
        state["_fast"] = None
        return state
