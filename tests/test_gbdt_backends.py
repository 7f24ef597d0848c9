"""The split search has two backends and one behaviour: whole fits equal
to the byte between the C routine and the numpy reference, the same
refusals of input the C routine must never see, and a fit that survives
a compiler that never returns."""

import logging
import subprocess
from concurrent.futures import ThreadPoolExecutor
from hashlib import blake2b
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.gbdt import (
    BinMapper,
    GBDTClassifier,
    GBDTParams,
    grow_tree,
)
from repro.gbdt import tree as tree_module
from repro.gbdt.losses import LogisticLoss

from . import test_gbdt_tree


def _awkward_dataset(seed, n=240):
    """Columns that exercise the search's corners: a constant (one bin,
    never a candidate), two- and three-valued columns (a child of a
    split on one holds every row in one bin), an exact duplicate (equal
    gains on two features) and a block of identical rows (a leaf whose
    every feature is one bin)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 8))
    X[:, 2] = 3.0
    X[:, 3] = rng.integers(0, 3, size=n)
    X[:, 5] = X[:, 1]
    X[:, 6] = rng.integers(0, 2, size=n)
    X[: n // 4] = X[0]
    signal = X[:, 0] + X[:, 1] * X[:, 4] + 0.5 * X[:, 6]
    return X, signal + 0.3 * rng.normal(size=n)


_gbdt_params = st.builds(
    GBDTParams,
    num_iterations=st.integers(1, 5),
    num_leaves=st.integers(2, 12),
    min_data_in_leaf=st.sampled_from([1, 2, 5, 20]),
    min_sum_hessian_in_leaf=st.sampled_from([0.0, 1e-3, 2.0]),
    lambda_l2=st.sampled_from([0.0, 0.5, 3.0]),
    min_gain_to_split=st.sampled_from([0.0, 0.05]),
    max_depth=st.sampled_from([-1, 1, 3]),
    max_bins=st.sampled_from([2, 16, 255]),
    bagging_fraction=st.sampled_from([1.0, 0.8, 0.5]),
    feature_fraction=st.sampled_from([1.0, 0.7, 0.3]),
    seed=st.integers(0, 50),
)


class TestWholeFitIdenticalAcrossBackends:
    @given(params=_gbdt_params, data_seed=st.integers(0, 5))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_generated_params(self, native, params, data_seed):
        X, target = _awkward_dataset(data_seed)
        y = (target > 0).astype(float)
        fast = GBDTClassifier(params).fit(X, y).compiled().to_bytes()
        with mock.patch.object(_native, "_state", False):
            slow = GBDTClassifier(params).fit(X, y).compiled().to_bytes()
        assert fast == slow

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_feature_subset_and_zero_hessians(self, native, seed):
        """`grow_tree` itself, where boosting cannot reach: a feature
        subset in shuffled order, and rows of zero gradient and hessian
        with no hessian floor, so every cut that isolates them is 0/0."""
        X, target = _awkward_dataset(seed)
        rng = np.random.default_rng(seed)
        mapper = BinMapper(max_bins=16).fit(X)
        binned = mapper.transform(X)
        dead = binned[:, 0] == 0
        grad = np.where(dead, 0.0, -target)
        hess = np.where(dead, 0.0, rng.uniform(0.05, 0.25, size=len(X)))
        kwargs = dict(
            params=GBDTParams(
                num_leaves=10, min_data_in_leaf=1, min_sum_hessian_in_leaf=0.0
            ),
            sample_idx=np.sort(rng.choice(len(X), size=180, replace=False)),
            feature_subset=rng.permutation(X.shape[1])[:6],
        )
        fast = grow_tree(binned, grad, hess, mapper, **kwargs)
        with mock.patch.object(_native, "_state", False):
            slow = grow_tree(binned, grad, hess, mapper, **kwargs)
        assert fast.n_leaves > 1
        assert fast.to_dict() == slow.to_dict()


def test_concurrent_fits_do_not_share_scratch(native):
    """The routine drops the GIL, so a background trainer and a
    foreground fit really overlap: each fit owns its histogram."""
    X, target = _awkward_dataset(1, n=600)
    y = (target > 0).astype(float)
    params = GBDTParams(num_iterations=6, min_data_in_leaf=5)

    def digest(_=None):
        return GBDTClassifier(params).fit(X, y).compiled().to_bytes()

    expected = digest()
    with ThreadPoolExecutor(max_workers=4) as pool:
        found = list(pool.map(digest, range(12), timeout=120))
    assert all(blob == expected for blob in found)


@pytest.fixture(params=["native", "python_fallback"])
def backend(request):
    request.getfixturevalue(request.param)


class TestGrowTreeRefusesWhatCWouldNotSurvive:
    """An index numpy would have wrapped, grown a histogram for or
    raised on is a stray write in C: both backends refuse it up front,
    with the same error."""

    @staticmethod
    def _inputs():
        X, target = _awkward_dataset(0)
        mapper = BinMapper(max_bins=16).fit(X)
        return mapper.transform(X), -target, np.ones(len(X)), mapper

    def test_bin_beyond_its_features_count(self, backend):
        binned, grad, hess, mapper = self._inputs()
        binned[7, 3] = mapper.n_bins(3)
        with pytest.raises(ValueError, match="bin index >= its feature's n_bins"):
            grow_tree(binned, grad, hess, mapper, GBDTParams())
        # ... unless the column is no candidate
        grow_tree(
            binned, grad, hess, mapper, GBDTParams(),
            feature_subset=np.array([0, 1]),
        )

    @pytest.mark.parametrize("bad", [-1, 240])
    def test_sample_idx_out_of_range(self, backend, bad):
        binned, grad, hess, mapper = self._inputs()
        sample_idx = np.array([0, 5, bad, 9], dtype=np.int64)
        with pytest.raises(ValueError, match=r"sample_idx must be .* in \[0, 240\)"):
            grow_tree(
                binned, grad, hess, mapper, GBDTParams(),
                sample_idx=sample_idx,
            )

    def test_sample_idx_not_int64(self, backend):
        binned, grad, hess, mapper = self._inputs()
        with pytest.raises(ValueError, match="sample_idx must be a 1-D int64"):
            grow_tree(
                binned, grad, hess, mapper, GBDTParams(),
                sample_idx=np.arange(10, dtype=np.int32),
            )

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda binned: binned.astype(np.int64),
            lambda binned: np.asfortranarray(binned),
            lambda binned: binned[:, :-1],
        ],
        ids=["int64", "fortran-order", "missing-column"],
    )
    def test_binned_of_the_wrong_kind(self, backend, spoil):
        binned, grad, hess, mapper = self._inputs()
        with pytest.raises(ValueError, match="binned|n_bins"):
            grow_tree(spoil(binned), grad, hess, mapper, GBDTParams())

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda values: values.astype(np.float32),
            lambda values: values[:-1],
            lambda values: np.repeat(values, 2)[::2],
        ],
        ids=["float32", "short", "strided"],
    )
    def test_gradients_of_the_wrong_kind(self, backend, spoil):
        binned, grad, hess, mapper = self._inputs()
        with pytest.raises(ValueError, match="grad must be a contiguous float64"):
            grow_tree(binned, spoil(grad), hess, mapper, GBDTParams())
        with pytest.raises(ValueError, match="hess must be a contiguous float64"):
            grow_tree(binned, grad, spoil(hess), mapper, GBDTParams())

    def test_feature_subset_out_of_range(self, backend):
        binned, grad, hess, mapper = self._inputs()
        for subset in ([0, 8], [-1, 2]):
            with pytest.raises(ValueError, match="feature_subset"):
                grow_tree(
                    binned, grad, hess, mapper, GBDTParams(),
                    feature_subset=np.array(subset),
                )


def test_wedged_compiler_times_out_onto_the_fallbacks(
    monkeypatch, caplog, tmp_path
):
    """`cc` runs under the module's lock: it gets a deadline, and missing
    it is one more way of having no toolchain — one warning, then the
    numpy fit, which is the pinned model.  The build cache starts empty,
    so the compiler is called (a warm entry is tests/test_native_cache.py's)."""
    seen = []

    def never_returns(command, **kwargs):
        seen.append(kwargs.get("timeout"))
        raise subprocess.TimeoutExpired(command, kwargs.get("timeout"))

    monkeypatch.delenv("REPRO_GBDT_NO_CC", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_state", None)
    monkeypatch.setattr(subprocess, "run", never_returns)
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert _native.load() is None
        assert _native.load() is None
        test_gbdt_tree.test_model_digest_pinned()
    assert len(seen) == 1 and seen[0] is not None and seen[0] > 0
    warnings = [r for r in caplog.records if r.name == "repro.native"]
    assert len(warnings) == 1
    assert "TimeoutExpired" in warnings[0].getMessage()


class TestScoreUpdateThroughThePartition:
    """`fit` adds a new tree's leaf values through the row partition
    growth ends with; the oracle is the tree walk, `raw + lr *
    predict_binned(binned)`, bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_partition_update_equals_the_tree_walk(self, backend, seed):
        X, target = _awkward_dataset(seed)
        mapper = BinMapper(max_bins=16).fit(X)
        binned = mapper.transform(X)
        n_bins = [mapper.n_bins(f) for f in range(X.shape[1])]
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=len(X))
        hess = rng.uniform(0.05, 0.25, size=len(X))
        tables = tree_module._split_tables(
            binned, n_bins, np.arange(X.shape[1])
        )
        bag = np.sort(rng.choice(len(X), size=150, replace=False))
        for sample_idx in (None, bag):
            tree, leaves = tree_module._grow(
                tables, raw - target, hess, mapper,
                GBDTParams(num_leaves=9, min_data_in_leaf=3), sample_idx,
            )
            rows = np.arange(len(X)) if sample_idx is None else sample_idx
            assert sorted(leaves) == [
                node for node, f in enumerate(tree.feature) if f < 0
            ]
            assert np.array_equal(
                np.sort(np.concatenate(list(leaves.values()))), rows
            )
            updated = raw.copy()
            for node, members in leaves.items():
                updated[members] += 0.1 * tree.value[node]
            walked = raw + 0.1 * tree.predict_binned(binned)
            assert updated[rows].tobytes() == walked[rows].tobytes()

    @pytest.mark.parametrize("bagging_fraction", [1.0, 0.6])
    def test_fit_equals_the_loop_that_walks_every_tree(
        self, backend, bagging_fraction
    ):
        X, target = _awkward_dataset(4)
        y = (target > 0).astype(np.float64)
        params = GBDTParams(
            num_iterations=6, num_leaves=8, min_data_in_leaf=4,
            bagging_fraction=bagging_fraction, seed=11,
        )
        model = GBDTClassifier(params).fit(X, y)

        mapper = BinMapper(max_bins=params.max_bins)
        binned = mapper.fit_transform(X)
        raw = np.full(len(y), LogisticLoss.init_score(y))
        rng = np.random.default_rng(params.seed)
        for tree in model.trees:
            grad, hess = LogisticLoss.grad_hess(y, raw)
            sample_idx = None
            if bagging_fraction < 1.0:
                k = max(1, int(round(bagging_fraction * len(y))))
                sample_idx = np.sort(rng.choice(len(y), size=k, replace=False))
            expected = grow_tree(
                binned, grad, hess, mapper, params, sample_idx
            )
            assert tree.to_dict() == expected.to_dict()
            raw += params.learning_rate * expected.predict_binned(binned)


class TestSplittableInheritance:
    """A leaf hands its children only the features that occupied two
    bins or more in it.  Exact when a split needs a row on each side
    (`min_data_in_leaf >= 1`); otherwise the routine gets no flags."""

    @staticmethod
    def _grow(min_data_in_leaf, seed=2):
        X, target = _awkward_dataset(seed)
        mapper = BinMapper(max_bins=16).fit(X)
        return grow_tree(
            mapper.transform(X), -target, np.ones(len(X)), mapper,
            GBDTParams(num_leaves=12, min_data_in_leaf=min_data_in_leaf),
        )

    @pytest.mark.parametrize("min_data_in_leaf", [1, 5])
    def test_same_tree_with_the_inheritance_disabled(
        self, native, monkeypatch, min_data_in_leaf
    ):
        reports = test_gbdt_tree._native_reports(monkeypatch)
        inherited = self._grow(min_data_in_leaf)
        # The root is given no flags; every leaf below it is given its
        # parent's, and every searched leaf leaves its own.
        ((searched, given, written),) = reports
        assert searched > 1
        assert (given, written) == (searched - 1, searched)

        reports = test_gbdt_tree._native_reports(monkeypatch, inherit=False)
        unfiltered = self._grow(min_data_in_leaf)
        ((searched, given, written),) = reports
        assert searched > 1 and given == written == 0
        assert inherited.n_leaves > 2
        assert inherited.to_dict() == unfiltered.to_dict()

    def test_no_flags_when_a_split_may_leave_a_side_empty(
        self, native, monkeypatch
    ):
        reports = test_gbdt_tree._native_reports(monkeypatch)
        fast = self._grow(min_data_in_leaf=0)
        ((searched, given, written),) = reports
        assert searched > 0 and given == written == 0
        with mock.patch.object(_native, "_state", False):
            slow = self._grow(min_data_in_leaf=0)
        assert fast.to_dict() == slow.to_dict()


class TestDepthCappedLeavesAreNotSearched:
    """A leaf at ``max_depth`` is never split, so neither backend
    searches it.  Growth used to search it and drop it when it was
    popped; the entries left in the heap keep their order, so the models
    are the ones pinned here from before, and the search count is the
    number of leaves above the cap (4 trees, 4 + 8 + 16 + ... each)."""

    @pytest.mark.parametrize(
        "max_depth,digest,searches",
        [(2, "e6dfb6c1eb7a887b", 12), (3, "a3c1b2928d2d8697", 28)],
    )
    def test_same_models_without_searching_at_the_cap(
        self, backend, monkeypatch, max_depth, digest, searches
    ):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(1200, 6))
        X[:, 5] = np.round(X[:, 5])
        noise = 0.3 * rng.normal(size=1200)
        y = (X[:, 0] + X[:, 1] * X[:, 2] + noise > 0).astype(np.float64)
        params = GBDTParams(
            num_iterations=4, num_leaves=31, min_data_in_leaf=5,
            max_depth=max_depth,
        )
        searched = test_gbdt_tree._searched_leaves(monkeypatch)
        reports = test_gbdt_tree._native_reports(monkeypatch)
        blob = GBDTClassifier(params).fit(X, y).compiled().to_bytes()
        assert blake2b(blob, digest_size=8).hexdigest() == digest
        if _native.load() is None:
            assert max(depth for _, depth in searched) == max_depth - 1
            assert len(searched) == searches
        else:
            assert len(reports) == params.num_iterations
            assert sum(report[0] for report in reports) == searches


class TestLeafSumsArePairwise:
    """A node's sums are ``float(grad[rows].sum())`` to the bit: numpy's
    pairwise summation over the gathered values, which ``grow_tree``
    copies.  A numpy whose reduction adds in another order fails here
    before it moves a pinned model."""

    LENGTHS = [*range(10), 127, 128, 129, 4000, 8191, 8192, 8193]

    @staticmethod
    def _sums(grad, hess, idx, **params):
        binned = np.zeros((len(grad), 1), dtype=np.uint8)
        binned[::2] = 1
        tables = tree_module._split_tables(binned, [2], np.arange(1))
        nodes, sums, rows, _ = tree_module._native_grow(
            tables, grad, hess, GBDTParams(**params), idx, inherit=True
        )
        return nodes, sums, rows

    @staticmethod
    def _values(rng, n, kind):
        if kind == "signed_zero":
            return np.full(n, -0.0)
        values = rng.normal(size=n) * 10.0 ** rng.integers(-9, 9, size=n)
        if kind == "infinite" and n:
            values[rng.integers(0, n, size=2)] = [np.inf, -np.inf][: min(n, 2)]
        if kind == "nan" and n:
            values[rng.integers(0, n)] = np.nan
        return values

    @pytest.mark.parametrize("kind", ["finite", "signed_zero", "infinite", "nan"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_root_sums_equal_numpy(self, native, n, kind):
        rng = np.random.default_rng(n)
        grad = self._values(rng, n + 40, kind)
        hess = self._values(rng, n + 40, kind)
        idx = rng.choice(n + 40, size=n, replace=False).astype(np.int64)
        _, sums, _ = self._sums(grad, hess, idx, num_leaves=1)
        for found, values in ((sums[0, 1], grad), (sums[0, 2], hess)):
            with np.errstate(invalid="ignore"):  # inf - inf
                expected = np.sum(values[idx])
            assert float(found).hex() == float(expected).hex()

    def test_every_node_sums_its_rows_in_parent_order(self, native):
        rng = np.random.default_rng(5)
        n = 5000
        grad = self._values(rng, n, "finite")
        hess = rng.uniform(0.1, 1.0, size=n)
        idx = np.sort(rng.choice(n, size=4500, replace=False))
        nodes, sums, rows = self._sums(
            grad, hess, idx, num_leaves=2, min_data_in_leaf=1
        )
        assert len(nodes) == 3
        # The root was summed before its rows were split in two.
        spans = [idx] + [rows[start : start + count] for *_, start, count in nodes[1:]]
        assert np.array_equal(np.sort(np.concatenate(spans[1:])), idx)
        for members, (_, g, h) in zip(spans, sums):
            assert np.all(np.diff(members) > 0)  # the parent's order
            assert float(g).hex() == float(grad[members].sum()).hex()
            assert float(h).hex() == float(hess[members].sum()).hex()
