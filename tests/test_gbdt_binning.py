"""Tests for quantile feature binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt import BinMapper


class TestBinMapper:
    def test_few_uniques_one_bin_each(self):
        X = np.array([[1.0], [2.0], [2.0], [3.0]])
        mapper = BinMapper(max_bins=10).fit(X)
        binned = mapper.transform(X)
        assert binned[:, 0].tolist() == [0, 1, 1, 2]
        assert mapper.n_bins(0) == 3

    def test_constant_feature_single_bin(self):
        X = np.full((20, 1), 7.0)
        mapper = BinMapper().fit(X)
        assert mapper.n_bins(0) == 1
        assert (mapper.transform(X) == 0).all()

    def test_many_uniques_capped(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10_000, 1))
        mapper = BinMapper(max_bins=16).fit(X)
        binned = mapper.transform(X)
        assert mapper.n_bins(0) <= 16
        assert binned.max() < 16

    def test_quantile_bins_roughly_balanced(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20_000, 1))
        mapper = BinMapper(max_bins=32).fit(X)
        binned = mapper.transform(X)
        counts = np.bincount(binned[:, 0], minlength=32)
        occupied = counts[counts > 0]
        assert occupied.min() > len(X) / 32 * 0.3

    def test_binning_preserves_order(self):
        """Monotone mapping: larger values never land in smaller bins."""
        rng = np.random.default_rng(2)
        X = rng.exponential(size=(5000, 1))
        mapper = BinMapper(max_bins=64).fit(X)
        order = np.argsort(X[:, 0])
        binned = mapper.transform(X)[order, 0]
        assert (np.diff(binned.astype(int)) >= 0).all()

    def test_transform_unseen_values_clamped(self):
        X = np.array([[0.0], [1.0], [2.0]])
        mapper = BinMapper().fit(X)
        out = mapper.transform(np.array([[-100.0], [100.0]]))
        assert out[0, 0] == 0
        assert out[1, 0] == mapper.n_bins(0) - 1

    def test_threshold_value_semantics(self):
        X = np.array([[1.0], [2.0], [3.0]])
        mapper = BinMapper().fit(X)
        # Splitting at bin 0 sends values <= midpoint(1,2) left.
        assert mapper.threshold_value(0, 0) == pytest.approx(1.5)
        assert mapper.threshold_value(0, mapper.n_bins(0) - 1) == np.inf

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BinMapper().fit(np.array([[np.nan], [1.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            BinMapper().fit(np.array([1.0, 2.0]))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            BinMapper().transform(np.zeros((2, 2)))

    def test_feature_count_mismatch_rejected(self):
        mapper = BinMapper().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            mapper.transform(np.zeros((5, 2)))

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1)
        with pytest.raises(ValueError):
            BinMapper(max_bins=256)

    def test_serialisation_roundtrip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1000, 4))
        mapper = BinMapper(max_bins=32).fit(X)
        clone = BinMapper.from_dict(mapper.to_dict())
        assert (clone.transform(X) == mapper.transform(X)).all()

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_bin_respects_boundaries_property(self, seed):
        """Every value lands in the bin whose boundaries bracket it."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-10, 10, size=(300, 1))
        mapper = BinMapper(max_bins=16).fit(X)
        binned = mapper.transform(X)
        bounds = mapper.upper_bounds[0]
        for value, b in zip(X[:, 0], binned[:, 0]):
            if b > 0:
                assert value > bounds[b - 1]
            if b < len(bounds):
                assert value <= bounds[b]


def _bounds_column_by_column(X, max_bins):
    """`BinMapper.fit` as one `np.unique` / `np.percentile` per column —
    the oracle of its batched percentile call."""
    bounds = []
    for f in range(X.shape[1]):
        col = X[:, f]
        uniques = np.unique(col)
        if len(uniques) == 1:
            bounds.append(np.array([], dtype=np.float64))
        elif len(uniques) <= max_bins:
            bounds.append((uniques[:-1] + uniques[1:]) / 2.0)
        else:
            qs = np.linspace(0, 100, max_bins + 1)[1:-1]
            bounds.append(np.unique(np.percentile(col, qs)))
    return bounds


@pytest.mark.parametrize("max_bins", [2, 7, 255])
@pytest.mark.parametrize("seed", range(4))
def test_batched_percentiles_equal_per_column_calls(seed, max_bins):
    """Bit for bit, on columns that tie heavily, mix the two zeros, hold
    a constant, or stay under the bin budget beside ones that do not."""
    rng = np.random.default_rng(seed)
    n = 700
    X = np.column_stack([
        rng.normal(size=n),
        rng.lognormal(sigma=2.0, size=n),
        np.round(rng.normal(size=n), 1),  # ~60 distinct values
        rng.choice([-0.0, 0.0, 1.0, 2.5], size=n),
        np.where(rng.random(n) < 0.9, 3.0, rng.normal(size=n)),
        np.full(n, 4.0),
        rng.integers(0, 300, size=n).astype(np.float64),
    ])
    found = BinMapper(max_bins=max_bins).fit(X).upper_bounds
    expected = _bounds_column_by_column(X, max_bins)
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
