import numpy as np
import pytest

import gsfa
from gsfa import (
    BinningError,
    DimensionError,
    ParameterError,
    RegularizationWarning,
    chance_rmse,
    classify,
    error_rate,
    fit_linear_regression,
    fit_linear_scaling,
    fit_nearest_centroid,
    fit_soft_gc,
    rmse,
)


def _normalized(labels):
    labels = np.asarray(labels, dtype=float)
    return (labels - labels.mean()) / labels.std()


# ---------------------------------------------------------------------------
# linear scaling

def test_scaling_inverts_exact_normalized_labels(rng):
    labels = rng.normal(2.0, 3.0, size=50)
    est = fit_linear_scaling(_normalized(labels), labels)
    assert rmse(est.predict(_normalized(labels)), labels) == pytest.approx(0.0, abs=1e-10)
    assert est.sign == 1.0


def test_scaling_finds_negative_sign(rng):
    labels = rng.normal(size=40)
    est = fit_linear_scaling(-_normalized(labels), labels)
    assert est.sign == -1.0
    assert rmse(est.predict(-_normalized(labels)), labels) == pytest.approx(0.0, abs=1e-10)


def test_scaling_clips_to_range():
    labels = np.array([0.0, 1.0, 2.0])
    est = fit_linear_scaling(_normalized(labels), labels)
    assert est.predict(np.array([100.0]))[0] == 2.0
    assert est.predict(np.array([-100.0]))[0] == 0.0


def test_scaling_rejects_constant_labels():
    with pytest.raises(gsfa.DegenerateLabelError):
        fit_linear_scaling(np.array([0.0, 1.0]), np.array([2.0, 2.0]))
    # the mean of three 0.1s rounds away from 0.1, leaving a variance of 2e-34
    with pytest.raises(gsfa.DegenerateLabelError):
        fit_linear_scaling(np.array([0.0, 0.5, 1.0]), np.full(3, 0.1))


def test_scaling_uses_first_row_of_features(rng):
    labels = rng.normal(size=30)
    feats = np.vstack([-_normalized(labels) + 0.1 * rng.normal(size=30),
                       rng.normal(size=30)])
    est = fit_linear_scaling(feats, labels)
    assert est == fit_linear_scaling(feats[0], labels)
    assert est.sign == -1.0
    np.testing.assert_array_equal(est.predict(feats), est.predict(feats[0]))


# ---------------------------------------------------------------------------
# linear regression

def test_regression_recovers_linear_target(rng):
    feats = rng.normal(size=(3, 60))
    labels = 2.0 * feats[0] - 0.5 * feats[2] + 1.5
    est = fit_linear_regression(feats, labels, clip_range=(-np.inf, np.inf))
    assert rmse(est.predict(feats), labels) == pytest.approx(0.0, abs=1e-8)


def test_regression_warns_on_constant_feature(rng):
    feats = np.vstack([np.ones(30), np.ones(30)])
    labels = rng.normal(size=30)
    with pytest.warns(RegularizationWarning):
        fit_linear_regression(feats, labels)


def test_regression_extra_feature_never_hurts_training(rng):
    feats = rng.normal(size=(4, 80))
    labels = feats[0] + 0.3 * rng.normal(size=80)
    base = fit_linear_regression(feats[:2], labels, clip_range=(-np.inf, np.inf))
    bigger = fit_linear_regression(feats[:3], labels, clip_range=(-np.inf, np.inf))
    assert (rmse(bigger.predict(feats[:3]), labels)
            <= rmse(base.predict(feats[:2]), labels) + 1e-12)


def test_regression_beats_chance_on_training(rng):
    feats = rng.normal(size=(2, 50))
    labels = feats[0] + rng.normal(size=50)
    est = fit_linear_regression(feats, labels)
    assert rmse(est.predict(feats), labels) <= chance_rmse(labels) + 1e-12


def test_regression_needs_more_samples_than_features(rng):
    with pytest.raises(ParameterError):
        fit_linear_regression(rng.normal(size=(5, 5)), rng.normal(size=5))


# ---------------------------------------------------------------------------
# soft Gaussian classifier regression

def test_soft_gc_hits_class_mean(rng):
    labels = np.concatenate([np.zeros(20), np.ones(20)])
    feats = np.concatenate([rng.normal(-5, 0.3, 20),
                            rng.normal(5, 0.3, 20)])[None, :]
    est = fit_soft_gc(feats, labels, n_classes=2)
    pred = est.predict(np.array([[est.class_means[1, 0]]]))[0]
    assert pred == pytest.approx(1.0, abs=1e-6)


def test_soft_gc_symmetric_midpoint():
    labels = np.concatenate([np.zeros(10), np.ones(10)])
    feats = np.concatenate([np.linspace(-1.1, -0.9, 10),
                            np.linspace(0.9, 1.1, 10)])[None, :]
    est = fit_soft_gc(feats, labels, n_classes=2)
    assert est.predict(np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-9)


def test_soft_gc_predictions_bounded(rng):
    labels = rng.normal(size=60)
    feats = rng.normal(size=(2, 60))
    est = fit_soft_gc(feats, labels, n_classes=5)
    preds = est.predict(rng.normal(size=(2, 200)) * 10)
    assert preds.min() >= est.class_labels.min() - 1e-12
    assert preds.max() <= est.class_labels.max() + 1e-12


def test_soft_gc_binning_gate():
    with pytest.raises(BinningError):
        fit_soft_gc(np.zeros((1, 5)), np.arange(5.0), n_classes=3)


def test_soft_gc_default_class_count():
    labels = np.repeat(np.arange(4.0), 10)
    assert gsfa.estimators.default_soft_gc_classes(labels) == 4
    many = np.arange(100.0)
    assert gsfa.estimators.default_soft_gc_classes(many) == 10


# ---------------------------------------------------------------------------
# nearest centroid

def test_centroid_recovers_centroid_queries(rng):
    feats = rng.normal(size=(3, 30))
    ids = np.repeat([0, 1, 2], 10)
    model = fit_nearest_centroid(feats, ids)
    np.testing.assert_array_equal(classify(model, model.centroids.T),
                                  model.class_ids)


def test_centroid_two_class_geometry():
    feats = np.array([[-1.0, 1.0]])
    model = fit_nearest_centroid(feats, np.array([1, 2]))
    assert classify(model, np.array([[0.2]]))[0] == 2


def test_centroid_tie_breaks_to_smallest_id():
    feats = np.array([[-1.0, 1.0]])
    model = fit_nearest_centroid(feats, np.array([3, 9]))
    assert classify(model, np.array([[0.0]]))[0] == 3


def test_centroid_separated_blobs_perfect_training(rng):
    centers = rng.normal(size=(4, 3)) * 50
    ids = np.repeat(np.arange(4), 15)
    feats = (centers[ids] + rng.normal(size=(60, 3))).T
    model = fit_nearest_centroid(feats, ids)
    assert error_rate(classify(model, feats), ids) == 0.0


def test_centroid_orthogonal_invariance(rng):
    feats = rng.normal(size=(3, 40))
    ids = np.repeat(np.arange(4), 10)
    model = fit_nearest_centroid(feats, ids)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = fit_nearest_centroid(q @ feats, ids)
    np.testing.assert_array_equal(classify(rotated, q @ feats),
                                  classify(model, feats))


# ---------------------------------------------------------------------------
# metrics

def test_rmse_zero_on_exact():
    assert rmse(np.arange(5.0), np.arange(5.0)) == 0.0


def test_chance_rmse_symmetric_binary():
    assert chance_rmse(np.array([-1.0, 1.0])) == pytest.approx(1.0)


def test_chance_rmse_predicts_the_mean():
    truth = np.array([0.0, 1.0, 1.0, 1.0])
    # mean 0.75
    expected = np.sqrt((0.75 ** 2 + 3 * 0.25 ** 2) / 4)
    assert chance_rmse(truth) == pytest.approx(expected)


def test_error_rate_all_wrong():
    assert error_rate(np.zeros(4), np.ones(4)) == 1.0


# ---------------------------------------------------------------------------
# input checks

def _fitted(rng):
    labels = np.repeat(np.arange(6.0), 5)
    feats = np.vstack([_normalized(labels), rng.normal(size=30)])
    ids = np.repeat(np.arange(3), 10)
    return {"linear_scaling": fit_linear_scaling(feats, labels),
            "linear_regression": fit_linear_regression(feats, labels),
            "soft_gc": fit_soft_gc(feats, labels),
            "nearest_centroid": fit_nearest_centroid(feats, ids)}, labels, ids


@pytest.mark.parametrize("call", [
    lambda fitted, empty, labels, ids: fit_linear_scaling(empty, labels),
    lambda fitted, empty, labels, ids: fit_linear_regression(empty, labels),
    lambda fitted, empty, labels, ids: fit_soft_gc(empty, labels),
    lambda fitted, empty, labels, ids: fit_nearest_centroid(empty, ids),
    lambda fitted, empty, labels, ids: fitted["linear_scaling"].predict(empty),
    lambda fitted, empty, labels, ids: fitted["linear_regression"].predict(empty),
    lambda fitted, empty, labels, ids: fitted["soft_gc"].predict(empty),
    lambda fitted, empty, labels, ids: classify(fitted["nearest_centroid"], empty),
], ids=["fit-linear-scaling", "fit-linear-regression", "fit-soft-gc",
        "fit-nearest-centroid", "predict-linear-scaling",
        "predict-linear-regression", "predict-soft-gc", "classify"])
def test_zero_features_rejected(rng, call):
    fitted, labels, ids = _fitted(rng)
    with pytest.raises(DimensionError, match="at least one row"):
        call(fitted, np.zeros((0, 30)), labels, ids)
