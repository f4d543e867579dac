"""Mapping slow features back to labels or classes.

Three regression post-processors (linear scaling inversion, linear
least squares, soft Gaussian-classifier averaging) plus a nearest
centroid classifier and the error metrics used to compare them.
Feature matrices are J x N (features in rows) throughout, matching the
solver's output orientation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BinningError,
    DegenerateLabelError,
    DimensionError,
    ParameterError,
    RegularizationWarning,
)


def _clip(values, clip_range):
    return np.clip(values, clip_range[0], clip_range[1])


def _features(features):
    """J x N features as floats, a 1-D feature as one row; needs J >= 1."""
    y = np.atleast_2d(np.asarray(features, dtype=float))
    if y.shape[0] < 1:
        raise DimensionError("features need at least one row, got 0")
    return y


@dataclass
class LinearScalingEstimator:
    """Inverts label normalization: l_hat = sign * y * sigma + mu."""

    sign: float
    mu: float
    sigma: float
    clip_range: tuple

    def predict(self, features):
        y = _features(features)[0]
        return _clip(self.sign * y * self.sigma + self.mu, self.clip_range)


@dataclass
class LinearRegressionEstimator:
    """Least-squares map from J features to the label."""

    weights: np.ndarray
    intercept: float
    clip_range: tuple

    def predict(self, features):
        y = _features(features)
        if y.shape[0] != self.weights.shape[0]:
            raise DimensionError(
                f"estimator fitted on {self.weights.shape[0]} features, "
                f"got {y.shape[0]}")
        return _clip(self.weights @ y + self.intercept, self.clip_range)


@dataclass
class SoftGcEstimator:
    """Posterior-weighted average of class mean labels.

    Per class: Gaussian (mean, ridged covariance) over the features and
    the class's mean label. Prediction is sum_c p(c|y) * mean_label_c,
    a convex combination bounded by the class label range.
    """

    class_means: np.ndarray
    class_covs: np.ndarray
    class_labels: np.ndarray
    priors: np.ndarray

    def predict(self, features):
        y = _features(features)
        d, n = y.shape
        if d != self.class_means.shape[1]:
            raise DimensionError(
                f"estimator fitted on {self.class_means.shape[1]} features, got {d}")
        log_post = np.empty((self.class_means.shape[0], n))
        for c, (mean, cov) in enumerate(zip(self.class_means, self.class_covs)):
            chol = np.linalg.cholesky(cov)
            centered = y - mean[:, None]
            z = np.linalg.solve(chol, centered)
            maha = np.sum(z * z, axis=0)
            logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
            log_post[c] = -0.5 * (maha + logdet) + np.log(self.priors[c])
        log_post -= log_post.max(axis=0, keepdims=True)
        post = np.exp(log_post)
        post /= post.sum(axis=0, keepdims=True)
        return self.class_labels @ post


@dataclass
class CentroidClassifier:
    """Per-class feature means; classification by nearest centroid."""

    centroids: np.ndarray
    class_ids: np.ndarray


def fit_linear_scaling(features, labels):
    """Fit the sign and the (mu, sigma) inversion of label normalization.

    Uses the first row of J x N features (a 1-D feature is one row), as
    :meth:`LinearScalingEstimator.predict` does. The sign is chosen to
    minimize training RMSE; predictions are clipped to the training
    label range.
    """
    y = _features(features)[0]
    labels = np.asarray(labels, dtype=float).ravel()
    if y.shape != labels.shape:
        raise DimensionError("feature and labels differ in length")
    v = np.ones_like(labels)
    q = v.sum()
    mu = float(v @ labels) / q
    centered = labels - mu
    var = float(centered @ (v * centered)) / q
    if var <= 0:
        raise DegenerateLabelError("labels are constant")
    sigma = float(np.sqrt(var))
    clip_range = (float(labels.min()), float(labels.max()))
    best = None
    for sign in (1.0, -1.0):
        pred = _clip(sign * y * sigma + mu, clip_range)
        err = rmse(pred, labels)
        if best is None or err < best[0]:
            best = (err, sign)
    return LinearScalingEstimator(best[1], mu, sigma, clip_range)


def fit_linear_regression(features, labels, clip_range=None):
    """Least-squares fit of labels on J x N features plus intercept.

    Singular normal equations are ridged with a warning instead of
    failing.
    """
    y = _features(features)
    labels = np.asarray(labels, dtype=float).ravel()
    n_feat, n = y.shape
    if labels.shape[0] != n:
        raise DimensionError("features and labels differ in sample count")
    if n <= n_feat:
        raise ParameterError(f"need N > J, got N={n}, J={n_feat}")
    design = np.vstack([y, np.ones(n)]).T
    gram = design.T @ design
    rhs = design.T @ labels
    try:
        cond = np.linalg.cond(gram)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn("singular normal equations; solving with a ridge term",
                      RegularizationWarning, stacklevel=2)
        gram = gram + 1e-8 * float(np.trace(gram)) / gram.shape[0] * np.eye(gram.shape[0])
    coef = np.linalg.solve(gram, rhs)
    if clip_range is None:
        clip_range = (float(labels.min()), float(labels.max()))
    return LinearRegressionEstimator(coef[:-1], float(coef[-1]), clip_range)


def bin_labels(labels, n_classes):
    """Equal-frequency binning of sorted labels into n_classes groups.

    Returns an int array of bin ids (0..n_classes-1) per sample. Ties
    are broken by original index (stable sort). Bins with fewer than 2
    samples raise :class:`BinningError`.
    """
    labels = np.asarray(labels, dtype=float).ravel()
    n = labels.shape[0]
    if n_classes < 1 or n_classes > n:
        raise BinningError(f"cannot form {n_classes} classes from {n} samples")
    order = np.argsort(labels, kind="stable")
    ids = np.empty(n, dtype=int)
    base, extra = divmod(n, n_classes)
    if base < 2:
        raise BinningError(
            f"{n_classes} classes over {n} samples leaves bins with "
            "fewer than 2 samples")
    start = 0
    for c in range(n_classes):
        size = base + (1 if c < extra else 0)
        ids[order[start:start + size]] = c
        start += size
    return ids


def default_soft_gc_classes(labels):
    """Number of distinct label values, capped at N // 10 (at least 2)."""
    labels = np.asarray(labels, dtype=float).ravel()
    distinct = np.unique(labels).size
    return max(2, min(distinct, labels.shape[0] // 10))


def fit_soft_gc(features, labels, n_classes=None):
    """Per-class Gaussians on the features; soft label estimation.

    Classes come from equal-frequency binning of the labels and get
    equal priors. Each class covariance gets a ridge of
    1e-6 * trace / dim.
    """
    y = _features(features)
    labels = np.asarray(labels, dtype=float).ravel()
    d, n = y.shape
    if labels.shape[0] != n:
        raise DimensionError("features and labels differ in sample count")
    if n_classes is None:
        n_classes = default_soft_gc_classes(labels)
    ids = bin_labels(labels, n_classes)
    means = np.empty((n_classes, d))
    covs = np.empty((n_classes, d, d))
    class_labels = np.empty(n_classes)
    for c in range(n_classes):
        members = np.flatnonzero(ids == c)
        if members.size < 2:
            raise BinningError(f"class {c} has {members.size} sample(s); need >= 2")
        block = y[:, members]
        means[c] = block.mean(axis=1)
        centered = block - means[c][:, None]
        cov = centered @ centered.T / members.size
        cov += 1e-6 * max(float(np.trace(cov)) / d, 1e-300) * np.eye(d)
        if float(np.trace(cov)) <= 0:
            cov = np.eye(d) * 1e-12
        covs[c] = cov
        class_labels[c] = labels[members].mean()
    return SoftGcEstimator(means, covs, class_labels,
                           np.full(n_classes, 1.0 / n_classes))


def fit_nearest_centroid(features, class_ids):
    """Per-class feature means over J x N features."""
    y = _features(features)
    ids = np.asarray(class_ids).ravel()
    if ids.shape[0] != y.shape[1]:
        raise DimensionError("features and class ids differ in sample count")
    classes = np.unique(ids)
    centroids = np.empty((classes.size, y.shape[0]))
    for i, c in enumerate(classes):
        members = np.flatnonzero(ids == c)
        if members.size == 0:
            raise ParameterError(f"class {c} is empty")
        centroids[i] = y[:, members].mean(axis=1)
    return CentroidClassifier(centroids, classes)


def classify(model, features):
    """Nearest-centroid class ids; ties go to the smallest class id."""
    y = _features(features)
    if y.shape[0] != model.centroids.shape[1]:
        raise DimensionError(
            f"classifier fitted on {model.centroids.shape[1]} features, "
            f"got {y.shape[0]}")
    d2 = (np.sum(y * y, axis=0)[None, :]
          - 2.0 * model.centroids @ y
          + np.sum(model.centroids ** 2, axis=1)[:, None])
    # argmin returns the first (= smallest class id, ids sorted) on ties
    return model.class_ids[np.argmin(d2, axis=0)]


# ---------------------------------------------------------------------------
# metrics

def rmse(predicted, truth):
    predicted = np.asarray(predicted, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if predicted.shape != truth.shape:
        raise DimensionError("prediction and truth differ in length")
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))


def chance_rmse(truth):
    """RMSE of the constant mean predictor."""
    truth = np.asarray(truth, dtype=float).ravel()
    mean = float(np.ones_like(truth) @ truth / truth.size)
    return rmse(np.full_like(truth, mean), truth)


def error_rate(predicted_ids, true_ids):
    predicted_ids = np.asarray(predicted_ids).ravel()
    true_ids = np.asarray(true_ids).ravel()
    if predicted_ids.shape != true_ids.shape:
        raise DimensionError("prediction and truth differ in length")
    return float(np.mean(predicted_ids != true_ids))

