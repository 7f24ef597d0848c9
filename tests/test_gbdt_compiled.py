"""Tests for the compiled (flattened) GBDT inference path.

The contract under test: the flattened predictor agrees with the
reference tree-walk to 1e-12 (bit-identical on the C kernel), single-row
and batch scoring agree bit-for-bit within a backend, and both backends
survive pickling.  These identities are what the batched simulator and
the throughput benchmarks build on.
"""

import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import _native
from repro.gbdt import (
    CompiledPredictor,
    GBDTClassifier,
    GBDTParams,
    kernel_available,
)
from repro.gbdt import compiled as compiled_module


@pytest.fixture(scope="module")
def fitted():
    """A fitted classifier plus train-like and off-manifold eval rows."""
    rng = np.random.default_rng(42)
    X = rng.normal(size=(600, 8))
    y = (X[:, 0] + 0.5 * X[:, 3] * X[:, 1] > 0).astype(np.float64)
    clf = GBDTClassifier(GBDTParams(num_iterations=12, num_leaves=15, seed=3))
    clf.fit(X, y)
    X_eval = np.vstack([X[:100], rng.normal(scale=4.0, size=(100, 8))])
    return clf, X_eval


def fresh_compiled(clf) -> CompiledPredictor:
    """A predictor built after any backend monkeypatching."""
    return CompiledPredictor.from_ensemble(
        clf.trees, clf.init_score, clf.params.learning_rate, clf.n_features
    )


class TestAgainstReference:
    def test_matches_reference_to_1e12(self, fitted):
        clf, X_eval = fitted
        reference = clf.predict_raw(X_eval)
        np.testing.assert_allclose(
            fresh_compiled(clf).predict_raw(X_eval), reference,
            rtol=0.0, atol=1e-12,
        )

    def test_kernel_backend_bit_identical(self, fitted):
        if not kernel_available():
            pytest.skip("no C toolchain in this environment")
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        assert predictor.backend == "kernel"
        # Same accumulation order as the reference loop → exact equality.
        assert np.array_equal(predictor.predict_raw(X_eval), clf.predict_raw(X_eval))

    def test_numpy_backend_matches(self, fitted, python_fallback):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        assert predictor.backend == "numpy"
        np.testing.assert_allclose(
            predictor.predict_raw(X_eval), clf.predict_raw(X_eval),
            rtol=0.0, atol=1e-12,
        )

    def test_proba_matches_reference(self, fitted):
        clf, X_eval = fitted
        np.testing.assert_allclose(
            fresh_compiled(clf).predict_proba(X_eval),
            clf.predict_proba(X_eval),
            rtol=0.0, atol=1e-12,
        )

    def test_random_unfitted_ensemble_roundtrip(self):
        """A hand-grown stump ensemble scores exactly as summed by hand."""
        from repro.gbdt.tree import Tree

        tree = Tree(
            feature=[1, -1, -1], bin_threshold=[0, 0, 0],
            threshold=[0.5, 0.0, 0.0], left=[1, -1, -1], right=[2, -1, -1],
            value=[0.0, -1.0, 2.0], gain=[1.0, 0.0, 0.0],
        )
        predictor = CompiledPredictor.from_ensemble(
            [tree], init_score=0.25, learning_rate=0.1, n_features=3
        )
        X = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(
            predictor.predict_raw(X), [0.25 - 0.1, 0.25 + 0.2],
            rtol=0.0, atol=1e-15,
        )


class TestLeaves:
    """``leaves`` is the tree's own raw-threshold walk, on both backends,
    rows lying exactly on a threshold included."""

    @staticmethod
    def _rows_on_thresholds(clf, X_eval):
        rows = [X_eval]
        for tree in clf.trees:
            for feature, threshold in zip(tree.feature, tree.threshold):
                if feature >= 0:
                    row = X_eval[:1].copy()
                    row[0, feature] = threshold
                    rows.append(row)
        return np.vstack(rows)

    def test_backends_and_the_tree_walk_agree(self, fitted, monkeypatch):
        clf, X_eval = fitted
        X = self._rows_on_thresholds(clf, X_eval)
        walked = np.column_stack([t._walk(X, t.threshold) for t in clf.trees])
        for tree, ids in zip(clf.trees, walked.T):
            assert (tree.feature[ids] < 0).all()
        found = {}
        if kernel_available():
            predictor = fresh_compiled(clf)
            assert predictor.backend == "kernel"
            found["kernel"] = predictor.leaves(X)
        monkeypatch.setattr(_native, "_state", False)
        predictor = fresh_compiled(clf)
        assert predictor.backend == "numpy"
        found["numpy"] = predictor.leaves(X)
        for backend, leaves in found.items():
            assert leaves.dtype == np.int64, backend
            assert np.array_equal(leaves, walked), backend

    def test_one_row_and_no_trees(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        assert predictor.leaves(X_eval[0]).shape == (1, clf.params.num_iterations)
        empty = CompiledPredictor.from_ensemble([], 0.0, 0.1, 8)
        assert empty.leaves(X_eval).shape == (len(X_eval), 0)


class TestSingleVsBatch:
    def test_single_equals_batch_bitwise(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        batch = predictor.predict_raw(X_eval[:32])
        for i in range(32):
            assert predictor.predict_raw_single(X_eval[i]) == batch[i]

    def test_proba_single_equals_batch_bitwise(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        batch = predictor.predict_proba(X_eval[:32])
        for i in range(32):
            assert predictor.predict_proba_single(X_eval[i]) == batch[i]

    def test_single_equals_batch_on_numpy_backend(self, fitted, python_fallback):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        batch = predictor.predict_raw(X_eval[:16])
        for i in range(16):
            assert predictor.predict_raw_single(X_eval[i]) == batch[i]

    def test_one_dim_input_promoted(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        out = predictor.predict_raw(X_eval[0])
        assert out.shape == (1,)

    def test_wrong_width_rejected(self, fitted):
        clf, _ = fitted
        with pytest.raises(ValueError, match="features"):
            fresh_compiled(clf).predict_raw(np.zeros((2, 5)))


class TestLifecycle:
    def test_classifier_caches_compiled(self, fitted):
        clf, _ = fitted
        assert clf.compiled() is clf.compiled()

    def test_refit_invalidates_cache(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(np.float64)
        clf = GBDTClassifier(GBDTParams(num_iterations=3, seed=1))
        clf.fit(X, y)
        first = clf.compiled()
        clf.fit(X, 1.0 - y)
        assert clf.compiled() is not first

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTClassifier(GBDTParams()).compiled()

    def test_pickle_roundtrip_identical(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        before = predictor.predict_raw(X_eval)
        clone = pickle.loads(pickle.dumps(predictor))
        assert np.array_equal(clone.predict_raw(X_eval), before)
        assert clone.predict_raw_single(X_eval[0]) == before[0]

    def test_pickle_carries_only_the_slab(self, fitted, python_fallback):
        """Not the numpy backend's arrays: a model scored on a host without
        a compiler pickles as small as a fresh one."""
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        predictor.predict_raw(X_eval)
        assert predictor._numpy_views is not None
        assert len(pickle.dumps(predictor)) < len(predictor.to_bytes()) + 200


class TestSlabWire:
    """``to_bytes`` / ``CompiledPredictor(bytes)`` — how the cluster ships
    a model."""

    def test_roundtrip_bit_identical_batch_and_single(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        clone = CompiledPredictor(predictor.to_bytes())
        assert np.array_equal(
            clone.predict_raw(X_eval), predictor.predict_raw(X_eval)
        )
        assert np.array_equal(
            clone.predict_proba(X_eval), predictor.predict_proba(X_eval)
        )
        for i in range(16):
            assert (
                clone.predict_raw_single(X_eval[i])
                == predictor.predict_raw_single(X_eval[i])
            )
            assert (
                clone.predict_proba_single(X_eval[i])
                == predictor.predict_proba_single(X_eval[i])
            )

    def test_roundtrip_kernel_backend(self, fitted):
        if not kernel_available():
            pytest.skip("no C toolchain in this environment")
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        assert predictor.backend == "kernel"
        clone = CompiledPredictor(predictor.to_bytes())
        assert clone.backend == "kernel"
        assert np.array_equal(
            clone.predict_raw(X_eval), predictor.predict_raw(X_eval)
        )
        batch = clone.predict_raw(X_eval[:16])
        for i in range(16):
            assert clone.predict_raw_single(X_eval[i]) == batch[i]

    def test_roundtrip_numpy_backend(self, fitted, python_fallback):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        assert predictor.backend == "numpy"
        clone = CompiledPredictor(predictor.to_bytes())
        assert clone.backend == "numpy"
        assert np.array_equal(
            clone.predict_raw(X_eval), predictor.predict_raw(X_eval)
        )
        batch = clone.predict_raw(X_eval[:16])
        for i in range(16):
            assert clone.predict_raw_single(X_eval[i]) == batch[i]

    def test_from_buffer_is_zero_copy(self, fitted):
        """Views over a writable buffer must alias it, not copy it."""
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        blob = bytearray(predictor.to_bytes())
        clone = CompiledPredictor(blob)
        before = clone.predict_raw(X_eval)
        assert np.array_equal(before, predictor.predict_raw(X_eval))
        # Mutate one node's leaf value through the backing buffer; the
        # clone's next prediction must see the edit (proof of aliasing).
        nodes = np.frombuffer(
            blob,
            dtype=compiled_module._NODE_DTYPE,
            offset=len(blob)
            - len(predictor._nodes) * compiled_module._NODE_DTYPE.itemsize,
        )
        assert np.array_equal(nodes["value"], predictor._nodes["value"])

    def test_truncated_buffer_rejected(self, fitted):
        clf, _ = fitted
        blob = fresh_compiled(clf).to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            CompiledPredictor(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            CompiledPredictor(blob[:8])

    def test_overlong_or_misaligned_buffer_rejected(self, fitted):
        clf, _ = fitted
        blob = fresh_compiled(clf).to_bytes()
        with pytest.raises(ValueError, match="past"):
            CompiledPredictor(blob + b"\0")
        room = np.zeros(len(blob) + 12, dtype=np.uint8)
        start = -room.ctypes.data % 8 + 4
        room[start:start + len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        with pytest.raises(ValueError, match="aligned"):
            CompiledPredictor(room[start:start + len(blob)])

    def test_to_bytes_is_the_slab_itself(self, fitted):
        blob = fresh_compiled(fitted[0]).to_bytes()
        assert CompiledPredictor(blob).to_bytes() is blob

    def test_bad_magic_rejected(self, fitted):
        clf, _ = fitted
        blob = bytearray(fresh_compiled(clf).to_bytes())
        blob[:8] = b"NOTASLAB"
        with pytest.raises(ValueError, match="magic"):
            CompiledPredictor(bytes(blob))

    def test_roundtrip_survives_pickle(self, fitted):
        """A clone over received bytes re-materialises its views when
        pickled."""
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        clone = CompiledPredictor(predictor.to_bytes())
        copied = pickle.loads(pickle.dumps(clone))
        assert np.array_equal(
            copied.predict_raw(X_eval), predictor.predict_raw(X_eval)
        )


#: Ensemble sizes around the kernel's lane width (8): all tail, one
#: group, a group and a tail, several groups.
LANE_TREES = (1, 7, 8, 9, 17, 30)


@pytest.fixture(scope="module")
def lane_ensembles():
    """Classifiers of each :data:`LANE_TREES` size whose trees differ in
    depth, and rows to score."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(400, 6))
    y = (X[:, 0] * X[:, 1] + X[:, 2] - 0.5 * X[:, 4] > 0).astype(np.float64)
    ensembles = [
        GBDTClassifier(GBDTParams(num_iterations=n, num_leaves=12, seed=5)).fit(X, y)
        for n in LANE_TREES
    ]
    depths = ensembles[-1].compiled()._depths
    # Some group of eight trees walks deeper than its first tree.
    assert any(depths[g:g + 8].max() > depths[g] for g in range(0, 23, 8))
    return ensembles, np.vstack([X[:40], rng.normal(scale=3.0, size=(40, 6))])


def _check_lanes(kernel, ensembles, X):
    """One row on ``kernel`` equals the reference walk bit for bit, and
    equals its entry in every batch of 1–9 and 17 rows."""
    for clf in ensembles:
        slab = clf.compiled().to_bytes()
        single = np.array([kernel.predict_row(x, slab) for x in X])
        assert single.tobytes() == clf.predict_raw(X).tobytes(), len(clf.trees)
        for n in (*range(1, 10), 17):
            out = np.empty(n)
            kernel.predict_raw(X[:n], slab, out, None)
            assert out.tobytes() == single[:n].tobytes(), (len(clf.trees), n)


class TestTreeLanes:
    """A lone row walks eight trees at a time as interleaved chains."""

    def test_one_row_is_the_reference_walk(self, native, lane_ensembles):
        assert [len(clf.trees) for clf in lane_ensembles[0]] == list(LANE_TREES)
        _check_lanes(_native.load(), *lane_ensembles)

    @pytest.mark.parametrize(
        "old, new",
        [
            pytest.param(
                "acc += nodes[cur[l]].value;",
                "acc += nodes[cur[LANES - 1 - l]].value;",
                id="leaves added out of tree order",
            ),
            pytest.param(
                "depth = depths[t + l] > depth ? depths[t + l] : depth;",
                "depth = depths[t];",
                id="lanes walked to their group's first depth",
            ),
        ],
    )
    def test_mutants_are_caught(
        self, native, lane_ensembles, monkeypatch, tmp_path, old, new
    ):
        assert _native._SOURCE.count(old) == 1
        monkeypatch.setattr(
            _native, "_SOURCE", _native._SOURCE.replace(old, new)
        )
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        mutant = _native._build()  # uncached: no mutant object outlives it
        assert isinstance(mutant, _native.Native)
        with pytest.raises(AssertionError):
            _check_lanes(mutant, *lane_ensembles)


class TestFeatureThresholds:
    def test_sorted_unique(self, fitted):
        clf, _ = fitted
        for f in range(clf.n_features):
            thr = fresh_compiled(clf).feature_thresholds(f)
            assert np.array_equal(thr, np.unique(thr))

    def test_within_bucket_values_score_identically(self, fitted):
        """The speculation invariant: two values between the same pair of
        consecutive thresholds take identical tree paths."""
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        feature = 0
        thr = predictor.feature_thresholds(feature)
        assert len(thr) > 0
        row = X_eval[0].copy()
        lo, hi = thr[0], thr[1] if len(thr) > 1 else thr[0] + 1.0
        a, b = row.copy(), row.copy()
        a[feature] = lo + 0.25 * (hi - lo)
        b[feature] = lo + 0.75 * (hi - lo)
        assert predictor.predict_raw_single(a) == predictor.predict_raw_single(b)


def test_native_build_leaves_no_temp_directory(tmp_path):
    """A process that loads the native module builds it in a fresh
    directory — a tempdir, or on a build-cache miss one inside the cache —
    and must remove it once the object is mapped: a cold cache keeps
    exactly ``<key>.so``, and a cache it may not trust (group-writable)
    leaves no trace in the tempdir."""
    if not kernel_available():
        pytest.skip("no C toolchain in this environment")
    temp, cache = tmp_path / "tmp", tmp_path / "cache"
    temp.mkdir()
    (cache / "repro-native").mkdir(parents=True)
    for mode in (0o700, 0o770):
        os.chmod(cache / "repro-native", mode)
        done = subprocess.run(
            [sys.executable, "-c",
             "from repro.gbdt import kernel_available; print(kernel_available())"],
            env={
                **os.environ,
                "TMPDIR": str(temp),
                "XDG_CACHE_HOME": str(cache),
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
            capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.strip() == "True", done.stderr
        assert list(temp.iterdir()) == []
        (entry,) = (cache / "repro-native").iterdir()
        assert re.fullmatch(r"[0-9a-f]{64}\.so", entry.name)
