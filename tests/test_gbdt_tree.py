"""Tests for single-tree growth (leaf-wise, histogram-based)."""

from hashlib import blake2b

import numpy as np
import pytest

from repro.gbdt import (
    BinMapper,
    GBDTClassifier,
    GBDTParams,
    Tree,
    TreeGrowthParams,
    grow_tree,
)
from repro.gbdt import tree as tree_module
from repro.gbdt.tree import _LeafState, _find_best_split, _split_tables


def _fit_tree(X, grad, hess=None, **kwargs):
    mapper = BinMapper(max_bins=64).fit(X)
    binned = mapper.transform(X)
    if hess is None:
        hess = np.ones(len(X))
    params = TreeGrowthParams(**kwargs)
    return grow_tree(binned, grad, hess, mapper, params), mapper, binned


class TestGrowTree:
    def test_pure_gradient_single_leaf(self):
        """Uniform gradients admit no useful split: stays a stump."""
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        grad = np.ones(100)
        tree, _, _ = _fit_tree(X, grad, min_data_in_leaf=1)
        assert tree.n_leaves == 1
        # Leaf value is -sum(g)/sum(h) = -1.
        assert tree.value[0] == pytest.approx(-1.0)

    def test_perfect_step_split(self):
        """A step function in the gradient is found exactly."""
        X = np.arange(100, dtype=float).reshape(-1, 1)
        grad = np.where(X[:, 0] < 50, -1.0, 1.0)
        tree, mapper, binned = _fit_tree(
            X, grad, min_data_in_leaf=1, num_leaves=2
        )
        assert tree.n_leaves == 2
        pred = tree.predict_binned(binned)
        assert np.allclose(pred[X[:, 0] < 50], 1.0)
        assert np.allclose(pred[X[:, 0] >= 50], -1.0)

    def test_num_leaves_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        grad = rng.normal(size=500)
        tree, _, _ = _fit_tree(X, grad, num_leaves=8, min_data_in_leaf=5)
        assert tree.n_leaves <= 8

    @pytest.mark.parametrize(
        "backend,search",
        [("native", "_native_best_split"), ("python_fallback", "_find_best_split")],
    )
    def test_children_of_the_last_split_are_not_searched(
        self, request, monkeypatch, backend, search
    ):
        """The loop exits once ``num_leaves`` is reached: a split search
        for the two leaves made last could never be used."""
        request.getfixturevalue(backend)
        searched = []
        inner = getattr(tree_module, search)

        def counted(leaf, *args, **kwargs):
            searched.append(leaf.node)
            return inner(leaf, *args, **kwargs)

        monkeypatch.setattr(tree_module, search, counted)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        grad = rng.normal(size=500)
        for num_leaves in (2, 8):
            searched.clear()
            tree, _, _ = _fit_tree(
                X, grad, num_leaves=num_leaves, min_data_in_leaf=5
            )
            assert tree.n_leaves == num_leaves
            n_nodes = 2 * num_leaves - 1
            # Every node but the last two, less the leaves too small
            # to split (none at two leaves: only the root is searched).
            assert set(searched) <= set(range(n_nodes - 2))
            assert len(searched) == len(set(searched)) >= num_leaves - 1

    def test_min_data_in_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 2))
        grad = rng.normal(size=200)
        tree, _, binned = _fit_tree(X, grad, min_data_in_leaf=30)
        # Count samples per leaf by prediction path.
        leaf_of = np.zeros(len(X), dtype=int)
        pred = tree.predict_binned(binned)
        for value in np.unique(pred):
            assert (pred == value).sum() >= 30

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(1000, 4))
        grad = np.sin(X.sum(axis=1))
        tree, _, _ = _fit_tree(
            X, grad, max_depth=1, num_leaves=31, min_data_in_leaf=1
        )
        assert tree.n_leaves <= 2

    def test_binned_and_raw_prediction_agree(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(800, 5))
        grad = np.where(X[:, 2] > 0, 1.0, -1.0) + 0.1 * rng.normal(size=800)
        tree, mapper, binned = _fit_tree(X, grad, num_leaves=16)
        assert np.allclose(
            tree.predict_binned(binned), tree.predict_raw_values(X)
        )

    def test_leafwise_prefers_best_gain(self):
        """Leaf-wise growth with a 3-leaf budget spends both splits on the
        informative feature rather than balancing the tree."""
        rng = np.random.default_rng(4)
        n = 1200
        X = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
        grad = np.select(
            [X[:, 0] < -0.5, X[:, 0] < 0.5], [-2.0, 0.0], default=2.0
        )
        tree, _, _ = _fit_tree(X, grad, num_leaves=3, min_data_in_leaf=10)
        assert tree.split_features() == [0, 0]

    def test_split_features_lists_internal_nodes(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 3))
        grad = np.where(X[:, 1] > 0, 1.0, -1.0)
        tree, _, _ = _fit_tree(X, grad, num_leaves=4)
        feats = tree.split_features()
        assert len(feats) == tree.n_leaves - 1  # binary tree identity

    def test_bagging_subset_used(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(300, 2))
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)
        hess = np.ones(300)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        subset = np.arange(0, 300, 2)
        tree = grow_tree(
            binned, grad, hess, mapper, TreeGrowthParams(min_data_in_leaf=5),
            sample_idx=subset,
        )
        # Tree still learns the pattern from half the data.
        pred = tree.predict_binned(binned)
        assert np.corrcoef(pred, -grad)[0, 1] > 0.9

    def test_feature_subset_restricts_splits(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 3))
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)  # feature 0 is informative
        hess = np.ones(400)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        tree = grow_tree(
            binned, grad, hess, mapper,
            TreeGrowthParams(min_data_in_leaf=5),
            feature_subset=np.array([1, 2]),
        )
        assert 0 not in tree.split_features()

    def test_serialisation_roundtrip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 4))
        grad = np.sin(3 * X[:, 0])
        tree, mapper, binned = _fit_tree(X, grad, num_leaves=12)
        clone = Tree.from_dict(tree.to_dict())
        assert np.allclose(
            clone.predict_raw_values(X), tree.predict_raw_values(X)
        )


def _reference_best_split(leaf, binned, grad, hess, n_bins, feature_subset, params):
    """The split search as one feature at a time — the oracle the
    one-pass histogram search must reproduce to the bit."""
    idx = leaf.sample_idx
    g = grad[idx]
    h = hess[idx]
    lam = params.lambda_l2
    parent_score = leaf.grad_sum**2 / (leaf.hess_sum + lam)
    best_gain = params.min_gain_to_split
    best_feature = -1
    best_bin = -1
    for f in feature_subset:
        bins_f = binned[idx, f]
        nb = n_bins[f]
        if nb < 2:
            continue
        grad_hist = np.bincount(bins_f, weights=g, minlength=nb)
        hess_hist = np.bincount(bins_f, weights=h, minlength=nb)
        count_hist = np.bincount(bins_f, minlength=nb)
        g_left = np.cumsum(grad_hist)[:-1]
        h_left = np.cumsum(hess_hist)[:-1]
        c_left = np.cumsum(count_hist)[:-1]
        g_right = leaf.grad_sum - g_left
        h_right = leaf.hess_sum - h_left
        c_right = len(idx) - c_left
        valid = (
            (c_left >= params.min_data_in_leaf)
            & (c_right >= params.min_data_in_leaf)
            & (h_left >= params.min_sum_hessian_in_leaf)
            & (h_right >= params.min_sum_hessian_in_leaf)
        )
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (
                g_left**2 / (h_left + lam)
                + g_right**2 / (h_right + lam)
                - parent_score
            )
        gain = np.where(valid, gain, -np.inf)
        b = int(np.argmax(gain))
        if gain[b] > best_gain:
            best_gain = float(gain[b])
            best_feature = int(f)
            best_bin = b
    return best_feature, best_bin, best_gain


class TestSplitSearchMatchesPerFeatureScan:
    """`_find_best_split` against the per-feature loop it replaced:
    equal (feature, bin, gain), gain compared as a bit pattern.  This
    class holds the C routine to that oracle, the subclass below the
    numpy search."""

    backend = "native"

    @pytest.fixture(autouse=True)
    def _backend(self, request):
        request.getfixturevalue(self.backend)

    @staticmethod
    def _dataset(seed, n=600):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 7))
        X[:, 2] = 3.0  # constant: one bin, never a candidate
        X[:, 3] = rng.integers(0, 3, size=n)  # three bins
        X[:, 5] = X[:, 1]  # duplicate: equal best gain on two features
        X[:, 6] = rng.integers(0, 2, size=n)  # two bins
        mapper = BinMapper(max_bins=32).fit(X)
        binned = mapper.transform(X)
        n_bins = [mapper.n_bins(f) for f in range(X.shape[1])]
        grad = rng.normal(size=n) + np.where(X[:, 1] > 0.2, 1.5, -0.5)
        hess = rng.uniform(0.05, 0.25, size=n)
        return binned, n_bins, grad, hess, rng

    @staticmethod
    def _compare(binned, n_bins, grad, hess, idx, subset, params):
        def leaf():
            return _LeafState(
                node=0,
                sample_idx=idx,
                grad_sum=float(grad[idx].sum()),
                hess_sum=float(hess[idx].sum()),
                depth=0,
            )

        found = leaf()
        _find_best_split(
            found, grad, hess, _split_tables(binned, n_bins, subset), params
        )
        expected = _reference_best_split(
            leaf(), binned, grad, hess, n_bins, subset, params
        )
        assert (found.best_feature, found.best_bin) == expected[:2]
        assert float(found.best_gain).hex() == float(expected[2]).hex()
        return found

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"min_data_in_leaf": 1},
            {"min_data_in_leaf": 290},  # only the middle bins qualify
            {"min_data_in_leaf": 301},  # no bin qualifies at 600 rows
            {"min_sum_hessian_in_leaf": 40.0},
            {"lambda_l2": 2.5, "min_gain_to_split": 0.5},
            {"min_gain_to_split": 1e9},
        ],
    )
    def test_random_leaves(self, seed, kwargs):
        binned, n_bins, grad, hess, rng = self._dataset(seed)
        params = TreeGrowthParams(**kwargs)
        everything = np.arange(len(grad))
        all_features = np.arange(binned.shape[1])
        self._compare(binned, n_bins, grad, hess, everything, all_features, params)
        # a bagged leaf, and a shuffled feature subset
        bag = np.sort(rng.choice(len(grad), size=len(grad) // 3, replace=False))
        subset = rng.permutation(binned.shape[1])[:4]
        self._compare(binned, n_bins, grad, hess, bag, subset, params)

    def test_equal_gain_goes_to_first_feature_in_subset_order(self):
        binned, n_bins, grad, hess, _ = self._dataset(0)
        idx = np.arange(len(grad))
        params = TreeGrowthParams()
        for subset, winner in ((np.array([1, 5]), 1), (np.array([5, 1]), 5)):
            found = self._compare(binned, n_bins, grad, hess, idx, subset, params)
            assert found.best_feature == winner

    def test_only_constant_features(self):
        binned, n_bins, grad, hess, _ = self._dataset(1)
        found = self._compare(
            binned, n_bins, grad, hess, np.arange(len(grad)),
            np.array([2]), TreeGrowthParams(),
        )
        assert found.best_feature == -1

    def test_leaf_larger_than_block_budget(self, monkeypatch, python_fallback):
        """Several feature blocks (and a block of one) change nothing
        (only the numpy search works in blocks)."""
        binned, n_bins, grad, hess, _ = self._dataset(2)
        idx = np.arange(len(grad))
        all_features = np.arange(binned.shape[1])
        for budget in (2 * len(idx), len(idx) // 2):
            monkeypatch.setattr(tree_module, "_HIST_BLOCK_ELEMENTS", budget)
            self._compare(
                binned, n_bins, grad, hess, idx, all_features,
                TreeGrowthParams(),
            )

    def test_nan_gain_disqualifies_only_its_feature(self):
        """0/0 gains (zero hessians, no hessian floor): the per-feature
        scan skips a feature whose argmax lands on NaN and keeps going."""
        binned, n_bins, grad, hess, _ = self._dataset(3)
        idx = np.arange(len(grad))
        low = binned[:, 0] == 0
        grad = np.where(low, 0.0, grad)
        hess = np.where(low, 0.0, hess)
        params = TreeGrowthParams(
            min_data_in_leaf=1, min_sum_hessian_in_leaf=0.0
        )
        found = self._compare(
            binned, n_bins, grad, hess, idx, np.arange(binned.shape[1]), params
        )
        assert found.best_feature not in (-1, 0)

    def test_last_bin_is_never_a_split_point(self):
        """With no count or hessian floor only the candidate mask keeps
        the last bin out; integer sums make its right side exactly 0/0,
        which would take every feature out."""
        binned, n_bins, grad, _, _ = self._dataset(4)
        found = self._compare(
            binned, n_bins, np.sign(grad), np.ones(len(grad)),
            np.arange(len(grad)), np.arange(binned.shape[1]),
            TreeGrowthParams(min_data_in_leaf=0, min_sum_hessian_in_leaf=0.0),
        )
        assert found.best_feature != -1

    def test_hessian_floor_applies_before_the_nan_test(self):
        """The same 0/0 cell under a hessian floor is -inf, not NaN: its
        feature stays in, and here it wins."""
        binned, n_bins, grad, hess, _ = self._dataset(3)
        idx = np.arange(len(grad))
        low = binned[:, 0] == 0
        grad = np.where(low, 0.0, grad + np.where(binned[:, 0] > 16, 4.0, -4.0))
        hess = np.where(low, 0.0, hess)
        for floor, winner_is_0 in ((1e-3, True), (0.0, False)):
            found = self._compare(
                binned, n_bins, grad, hess, idx, np.arange(binned.shape[1]),
                TreeGrowthParams(
                    min_data_in_leaf=1, min_sum_hessian_in_leaf=floor
                ),
            )
            assert (found.best_feature == 0) == winner_is_0


class TestNumpySplitSearchMatchesPerFeatureScan(
    TestSplitSearchMatchesPerFeatureScan
):
    backend = "python_fallback"


def test_model_digest_pinned():
    """A float-order change in binning, split search or boosting moves
    this digest (value recorded before the one-pass split search landed);
    `benchmarks/perf/pins.json` pins the same thing at ledger scale."""
    rng = np.random.default_rng(2018)
    X = rng.normal(size=(400, 6))
    X[:, 4] = 1.0
    X[:, 5] = np.round(X[:, 5])
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.float64)
    params = GBDTParams(
        num_iterations=8, num_leaves=7, min_data_in_leaf=5,
        bagging_fraction=0.8, feature_fraction=0.8, lambda_l2=0.5, seed=5,
    )
    blob = GBDTClassifier(params).fit(X, y).compiled().to_bytes()
    assert blake2b(blob, digest_size=8).hexdigest() == "0bb3bf36ea56a533"
