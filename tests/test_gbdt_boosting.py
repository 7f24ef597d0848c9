"""Tests for the boosting loop, the logistic loss, and the classifier API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt import (
    GBDTClassifier,
    GBDTParams,
    LogisticLoss,
    sigmoid,
)


def _xor_data(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
    return X, y


class TestLosses:
    def test_sigmoid_stable(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        s = sigmoid(x)
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == 0.5
        assert s[2] == pytest.approx(1.0, abs=1e-12)

    def test_logistic_grad_sign(self):
        y = np.array([1.0, 0.0])
        raw = np.array([0.0, 0.0])
        grad, hess = LogisticLoss.grad_hess(y, raw)
        assert grad[0] < 0 < grad[1]
        assert (hess > 0).all()

    def test_logistic_init_score_is_log_odds(self):
        y = np.array([1.0, 1.0, 1.0, 0.0])
        assert LogisticLoss.init_score(y) == pytest.approx(np.log(3.0))


class TestClassifier:
    def test_learns_xor(self):
        X, y = _xor_data()
        model = GBDTClassifier(GBDTParams(num_iterations=30)).fit(X, y)
        acc = (model.predict(X) == (y > 0.5)).mean()
        assert acc > 0.95

    def test_probabilities_in_unit_interval(self):
        X, y = _xor_data(1000)
        model = GBDTClassifier().fit(X, y)
        p = model.predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()

    def test_deterministic_given_seed(self):
        X, y = _xor_data(1500)
        params = GBDTParams(num_iterations=10, bagging_fraction=0.8, seed=3)
        p1 = GBDTClassifier(params).fit(X, y).predict_proba(X)
        p2 = GBDTClassifier(params).fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_seed_changes_bagged_model(self):
        X, y = _xor_data(1500)
        p1 = GBDTClassifier(
            GBDTParams(num_iterations=10, bagging_fraction=0.7, seed=1)
        ).fit(X, y).predict_proba(X)
        p2 = GBDTClassifier(
            GBDTParams(num_iterations=10, bagging_fraction=0.7, seed=2)
        ).fit(X, y).predict_proba(X)
        assert not np.array_equal(p1, p2)

    def test_num_iterations_counted(self):
        X, y = _xor_data(800)
        model = GBDTClassifier(GBDTParams(num_iterations=7)).fit(X, y)
        assert len(model.trees) == 7

    def test_more_iterations_lower_train_loss(self):
        X, y = _xor_data(2000, seed=4)
        few = GBDTClassifier(GBDTParams(num_iterations=5)).fit(X, y)
        many = GBDTClassifier(GBDTParams(num_iterations=40)).fit(X, y)
        assert LogisticLoss.loss(y, many.predict_raw(X)) < LogisticLoss.loss(
            y, few.predict_raw(X)
        )

    def test_feature_importance_identifies_informative(self):
        X, y = _xor_data()
        model = GBDTClassifier(GBDTParams(num_iterations=15)).fit(X, y)
        importance = model.feature_importance()
        assert importance[0] + importance[1] > 3 * (
            importance[2] + importance[3]
        )

    def test_importance_fraction_sums_to_one(self):
        X, y = _xor_data(1000)
        model = GBDTClassifier(GBDTParams(num_iterations=10)).fit(X, y)
        assert model.feature_importance_fraction().sum() == pytest.approx(1.0)

    def test_single_class_degenerates_gracefully(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.ones(100)
        model = GBDTClassifier(GBDTParams(num_iterations=3)).fit(X, y)
        assert (model.predict_proba(X) > 0.9).all()

    def test_overrides_kwargs(self):
        model = GBDTClassifier(num_iterations=5, seed=7)
        assert model.params.num_iterations == 5
        assert model.params.seed == 7

    def test_serialisation_roundtrip(self):
        X, y = _xor_data(1200)
        model = GBDTClassifier(GBDTParams(num_iterations=8)).fit(X, y)
        clone = GBDTClassifier.from_dict(model.to_dict())
        assert np.allclose(clone.predict_proba(X), model.predict_proba(X))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError):
            GBDTClassifier().predict_raw(np.zeros((1, 2)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            GBDTClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GBDTClassifier().fit(np.zeros((5, 2)), np.zeros(4))


class TestRobustnessProperty:
    """Figure 5c's claim in miniature: seeds barely move accuracy."""

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_seed_insensitivity(self, seed):
        X, y = _xor_data(2000, seed=9)
        model = GBDTClassifier(
            GBDTParams(num_iterations=15, bagging_fraction=0.8, seed=seed)
        ).fit(X, y)
        acc = (model.predict(X) == (y > 0.5)).mean()
        assert acc > 0.9


class TestImportanceAndStaged:
    def test_gain_importance_identifies_informative(self):
        X, y = _xor_data()
        model = GBDTClassifier(GBDTParams(num_iterations=15)).fit(X, y)
        gains = model.feature_importance(kind="gain")
        assert gains[0] + gains[1] > 3 * (gains[2] + gains[3])

    def test_gain_nonnegative(self):
        X, y = _xor_data(1000)
        model = GBDTClassifier(GBDTParams(num_iterations=5)).fit(X, y)
        assert (model.feature_importance(kind="gain") >= 0).all()

    def test_unknown_kind_rejected(self):
        X, y = _xor_data(500)
        model = GBDTClassifier(GBDTParams(num_iterations=2)).fit(X, y)
        with pytest.raises(ValueError):
            model.feature_importance(kind="shap")

    def test_gain_survives_serialisation(self):
        X, y = _xor_data(800)
        model = GBDTClassifier(GBDTParams(num_iterations=5)).fit(X, y)
        clone = GBDTClassifier.from_dict(model.to_dict())
        assert np.allclose(
            clone.feature_importance(kind="gain"),
            model.feature_importance(kind="gain"),
        )
