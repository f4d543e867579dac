import numpy as np
import pytest

import gsfa
from gsfa import (
    ParameterError,
    SyntheticClassificationSpec,
    SyntheticRegressionSpec,
    counter_normal,
    counter_uniform,
    gen_classification,
    gen_regression,
)


# ---------------------------------------------------------------------------
# counter RNG

def test_uniform_range_and_determinism():
    a = counter_uniform(42, 1, 0, 1000)
    b = counter_uniform(42, 1, 0, 1000)
    assert a.tobytes() == b.tobytes()
    assert a.min() >= 0.0 and a.max() < 1.0


def test_uniform_streams_and_seeds_differ():
    base = counter_uniform(42, 1, 0, 100)
    assert not np.array_equal(base, counter_uniform(42, 2, 0, 100))
    assert not np.array_equal(base, counter_uniform(43, 1, 0, 100))


def test_uniform_counter_is_stateless():
    whole = counter_uniform(7, 3, 0, 50)
    parts = np.concatenate([counter_uniform(7, 3, 0, 20),
                            counter_uniform(7, 3, 20, 30)])
    assert whole.tobytes() == parts.tobytes()


def test_normal_moments_sane():
    z = counter_normal(0, 5, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_counter_is_stateless():
    whole = counter_normal(9, 2, 0, 40)
    parts = np.concatenate([counter_normal(9, 2, 0, 15),
                            counter_normal(9, 2, 15, 25)])
    assert whole.tobytes() == parts.tobytes()


# ---------------------------------------------------------------------------
# regression generator

def test_regression_fixed_seed_identical_bytes():
    spec = SyntheticRegressionSpec(n_samples=120, input_dim=4,
                                   n_label_values=12, seed=5)
    x1, l1, _ = gen_regression(spec)
    x2, l2, _ = gen_regression(spec)
    assert x1.tobytes() == x2.tobytes()
    assert l1.tobytes() == l2.tobytes()


def test_regression_noiseless_one_dim_correlates_perfectly():
    spec = SyntheticRegressionSpec(n_samples=60, input_dim=1,
                                   n_label_values=12, noise=0.0)
    data, labels, _ = gen_regression(spec)
    corr = abs(np.corrcoef(data[0], labels)[0, 1])
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_regression_reference_layout():
    spec = SyntheticRegressionSpec(n_samples=10_800, input_dim=2,
                                   n_label_values=60)
    data, labels, meta = gen_regression(spec)
    assert data.shape == (2, 10_800)
    values, counts = np.unique(labels, return_counts=True)
    assert values.size == 60
    assert set(counts) == {180}
    assert meta["per_value"] == 180


def test_regression_divisibility_gate():
    with pytest.raises(ParameterError):
        SyntheticRegressionSpec(n_samples=100, n_label_values=7)


def test_regression_nonlinearity_gate():
    with pytest.raises(ParameterError):
        SyntheticRegressionSpec(nonlinearity="sigmoid")


def test_regression_recoverable_with_cubic_warp():
    spec = SyntheticRegressionSpec(n_samples=120, input_dim=3,
                                   n_label_values=12, nonlinearity="cubic",
                                   noise=0.0, seed=2)
    data, labels, _ = gen_regression(spec)
    # injective warp: samples with different labels stay distinct
    assert np.unique(np.round(data[0], 10)).size == 12


# ---------------------------------------------------------------------------
# classification generator

def test_classification_balanced_and_deterministic():
    spec = SyntheticClassificationSpec(n_classes=8, per_class=5, input_dim=3,
                                       seed=1)
    x1, ids1, _ = gen_classification(spec)
    x2, ids2, _ = gen_classification(spec)
    assert x1.tobytes() == x2.tobytes()
    values, counts = np.unique(ids1, return_counts=True)
    assert values.size == 8 and set(counts) == {5}


def test_classification_separated_blobs_classify_perfectly():
    spec = SyntheticClassificationSpec(n_classes=4, per_class=10, input_dim=4,
                                       spread=50.0, noise=0.5, seed=3)
    data, ids, _ = gen_classification(spec)
    model = gsfa.fit_nearest_centroid(data, ids)
    assert gsfa.error_rate(gsfa.classify(model, data), ids) == 0.0


def test_classification_balances_compact_labels():
    spec = SyntheticClassificationSpec(n_classes=32, per_class=3, input_dim=2,
                                       seed=0)
    _, ids, _ = gen_classification(spec)
    compact = gsfa.compact_binary_labels(32, 31)
    per_sample = compact.per_class[:, ids]
    np.testing.assert_allclose(per_sample.mean(axis=1), 0.0, atol=1e-15)


def test_classification_gates():
    with pytest.raises(ParameterError):
        SyntheticClassificationSpec(n_classes=6)
    with pytest.raises(ParameterError):
        SyntheticClassificationSpec(per_class=1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
def test_specs_reject_bad_noise_and_spread(value):
    with pytest.raises(ParameterError, match="noise must be finite and >= 0"):
        SyntheticRegressionSpec(noise=value)
    with pytest.raises(ParameterError, match="noise must be finite and >= 0"):
        SyntheticClassificationSpec(noise=value)
    with pytest.raises(ParameterError, match="spread must be finite and >= 0"):
        SyntheticClassificationSpec(spread=value)
