"""Tests for the compiled (flattened) GBDT inference path.

The contract under test: the flattened predictor agrees with the
reference tree-walk to 1e-12 (bit-identical on the C kernel), single-row
and batch scoring agree bit-for-bit within a backend, and both backends
survive pickling.  These identities are what the batched simulator and
the throughput benchmarks build on.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
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

        tree = Tree()
        root = tree._new_node()
        left = tree._new_node()
        right = tree._new_node()
        tree._set_split(root, feature=1, bin_threshold=0, threshold=0.5,
                        left=left, right=right, gain=1.0)
        tree._set_value(left, -1.0)
        tree._set_value(right, 2.0)
        predictor = CompiledPredictor.from_ensemble(
            [tree], init_score=0.25, learning_rate=0.1, n_features=3
        )
        X = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(
            predictor.predict_raw(X), [0.25 - 0.1, 0.25 + 0.2],
            rtol=0.0, atol=1e-15,
        )


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


class TestSlabWire:
    """``to_bytes``/``from_buffer`` — the cluster's shared-memory wire."""

    def test_roundtrip_bit_identical_batch_and_single(self, fitted):
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        clone = CompiledPredictor.from_buffer(predictor.to_bytes())
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
        clone = CompiledPredictor.from_buffer(predictor.to_bytes())
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
        clone = CompiledPredictor.from_buffer(predictor.to_bytes())
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
        clone = CompiledPredictor.from_buffer(blob)
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
            CompiledPredictor.from_buffer(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            CompiledPredictor.from_buffer(blob[:8])

    def test_bad_magic_rejected(self, fitted):
        clf, _ = fitted
        blob = bytearray(fresh_compiled(clf).to_bytes())
        blob[:8] = b"NOTASLAB"
        with pytest.raises(ValueError, match="magic"):
            CompiledPredictor.from_buffer(bytes(blob))

    def test_roundtrip_survives_pickle(self, fitted):
        """A from_buffer clone re-materialises its views when pickled."""
        clf, X_eval = fitted
        predictor = fresh_compiled(clf)
        clone = CompiledPredictor.from_buffer(predictor.to_bytes())
        copied = pickle.loads(pickle.dumps(clone))
        assert np.array_equal(
            copied.predict_raw(X_eval), predictor.predict_raw(X_eval)
        )


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
    """Every process that loads the native module builds it in a fresh
    temp directory — and must remove it once the object is mapped."""
    if not kernel_available():
        pytest.skip("no C toolchain in this environment")
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.gbdt import kernel_available; print(kernel_available())"],
        env={
            **os.environ,
            "TMPDIR": str(tmp_path),
            "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
        },
        capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == "True", done.stderr
    assert list(tmp_path.iterdir()) == []
