import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gsfa
from gsfa import (
    ContractError,
    DegenerateLabelError,
    DependentLabelError,
    DimensionError,
    NegativeEigenvalueWarning,
    ParameterError,
    RankError,
    TruncationWarning,
    auxiliary_labels,
    build_clustered_graph,
    build_ell_graph,
    build_linear_graph,
    build_serial_graph,
    check_consistency,
    clustered_equivalence_check,
    compact_binary_labels,
    decorrelate_labels,
    deltas_from_eigenvalues,
    eliminate_negative_weights,
    normalize_labels,
    serial_groups,
)

from conftest import (
    decorrelate_labels_by_loop,
    eigenvalues_from_deltas,
    normalize_labels_by_loop,
    rounding_gamma,
)


# ---------------------------------------------------------------------------
# linear graphs

def test_linear_self_loop_extended_n3():
    graph = build_linear_graph(3, variant="self_loop_extended")
    gamma = graph.gamma_dense()
    np.testing.assert_allclose(np.diag(gamma), [1.0, 0.0, 1.0])
    np.testing.assert_allclose(graph.gamma_row_sums(), [2.0, 2.0, 2.0])
    assert graph.q_sum == 3.0 and graph.r_sum == 6.0
    assert check_consistency(graph).ok


def test_linear_endpoint_variant_consistent():
    graph = build_linear_graph(5, variant="endpoint_halved_vertex_weights")
    np.testing.assert_allclose(graph.vertex_weights, [1, 2, 2, 2, 1])
    assert check_consistency(graph).ok


def test_linear_n2_both_variants():
    for variant in ("self_loop_extended", "endpoint_halved_vertex_weights"):
        assert check_consistency(build_linear_graph(2, variant=variant)).ok


def test_linear_rejects_small_n():
    with pytest.raises(ParameterError):
        build_linear_graph(1)


def test_linear_rejects_unknown_variant():
    with pytest.raises(ParameterError):
        build_linear_graph(5, variant="bogus")


@pytest.mark.parametrize("n", [10, 20, 30])
def test_linear_slow_count_formula(n):
    graph = build_linear_graph(n, variant="self_loop_extended")
    assert gsfa.optimal_free_responses(graph).slow_count() == (n - 1) // 2


# ---------------------------------------------------------------------------
# clustered graphs

def test_clustered_two_pairs():
    graph = build_clustered_graph([2, 2])
    gamma = graph.gamma_dense()
    assert gamma[0, 1] == 1.0 and gamma[2, 3] == 1.0
    assert gamma[0, 2] == 0.0
    assert graph.q_sum == 4.0 and graph.r_sum == 4.0
    assert check_consistency(graph).ok


def test_clustered_single_class_of_three():
    graph = build_clustered_graph([3])
    gamma = graph.gamma_dense()
    offdiag = gamma[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(offdiag, 0.5)
    np.testing.assert_allclose(graph.gamma_row_sums(), [1.0, 1.0, 1.0])
    assert graph.q_sum == 3.0 and graph.r_sum == pytest.approx(3.0)


def test_clustered_leading_responses_are_class_indicators():
    sizes = [3, 4, 2]
    graph = build_clustered_graph(sizes)
    spec = gsfa.optimal_free_responses(graph)
    responses, deltas = spec.feasible_responses()
    starts = np.cumsum([0] + sizes)
    for j in range(len(sizes) - 1):
        assert deltas[j] == pytest.approx(0.0, abs=1e-12)
        for c in range(len(sizes)):
            block = responses[starts[c]:starts[c + 1], j]
            assert np.max(block) - np.min(block) < 1e-9


def test_clustered_rejects_singleton_class():
    with pytest.raises(ParameterError):
        build_clustered_graph([2, 1])


# ---------------------------------------------------------------------------
# serial graphs

def test_serial_hand_example():
    graph = build_serial_graph(np.array([3.0, 1.0, 2.0, 4.0]), 2)
    gamma = graph.gamma_dense()
    # sorted labels (1,2,3,4) -> samples (1,2) then (0,3)
    for a in (1, 2):
        for b in (0, 3):
            assert gamma[a, b] == 1.0
    assert gamma[1, 2] == 0.0 and gamma[0, 3] == 0.0
    np.testing.assert_allclose(graph.vertex_weights, np.ones(4))
    assert check_consistency(graph).ok


def test_serial_interior_weights_and_consistency():
    graph = build_serial_graph(np.arange(12.0), 4)
    v = graph.vertex_weights
    assert set(v[:3]) == {1.0} and set(v[-3:]) == {1.0}
    assert set(v[3:9]) == {2.0}
    assert check_consistency(graph).ok


@pytest.mark.parametrize("n, k", [(4, 2), (12, 3), (20, 5), (21, 7)])
def test_serial_matches_pairwise_definition(n, k, rng):
    labels = rng.permutation(n).astype(float)
    graph = build_serial_graph(labels, k)
    group_index = serial_groups(labels, k)
    expected = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if abs(group_index[a] - group_index[b]) == 1:
                expected[a, b] = 1.0
    np.testing.assert_array_equal(graph.gamma_dense(), expected)


@pytest.mark.parametrize("sizes", [[2], [3, 2], [2, 4, 3]])
def test_clustered_matches_pairwise_definition(sizes):
    graph = build_clustered_graph(sizes)
    cls = np.repeat(np.arange(len(sizes)), sizes)
    n = cls.size
    expected = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b and cls[a] == cls[b]:
                expected[a, b] = 1.0 / (sizes[cls[a]] - 1)
    np.testing.assert_array_equal(graph.gamma_dense(), expected)


def test_serial_tie_break_is_stable():
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    group_index = serial_groups(labels, 2)
    np.testing.assert_array_equal(group_index, [1, 1, 0, 0])


def test_serial_strict_rejects_remainder():
    with pytest.raises(ParameterError):
        build_serial_graph(np.arange(7.0), 3)


def test_serial_truncate_drops_largest_labels():
    with pytest.warns(TruncationWarning):
        graph = build_serial_graph(np.arange(7.0), 3, policy="truncate")
    assert graph.n_samples == 6
    assert check_consistency(graph).ok


def test_serial_parameter_gates():
    with pytest.raises(ParameterError):
        build_serial_graph(np.arange(6.0), 1)
    with pytest.raises(ParameterError):
        build_serial_graph(np.arange(6.0), 7)


# ---------------------------------------------------------------------------
# label normalization / decorrelation

def test_normalize_labels_example():
    label_set = normalize_labels(np.array([[0.0, 2.0]]), np.ones(2))
    np.testing.assert_allclose(label_set.labels, [[-1.0, 1.0]])
    np.testing.assert_allclose(label_set.eigenvalues, [1.0])


def test_normalize_labels_idempotent():
    v = np.ones(4)
    first = normalize_labels(np.array([[0.0, 1.0, 2.0, 3.0]]), v)
    second = normalize_labels(first.labels, v)
    np.testing.assert_allclose(second.labels, first.labels, atol=1e-12)


def test_normalize_labels_rejects_constant():
    with pytest.raises(DegenerateLabelError):
        normalize_labels(np.ones((1, 3)), np.ones(3))


def test_decorrelate_noop_when_already_orthogonal():
    v = np.ones(4)
    raw = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])
    label_set = decorrelate_labels(normalize_labels(raw, v), v)
    np.testing.assert_allclose(label_set.labels, raw, atol=1e-12)


def test_decorrelate_detects_dependent_labels():
    v = np.ones(4)
    raw = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0]])
    with pytest.raises(DependentLabelError):
        decorrelate_labels(normalize_labels(raw, v), v)


def test_decorrelate_output_is_orthonormal(rng):
    v = rng.uniform(0.5, 2.0, 10)
    raw = rng.normal(size=(4, 10))
    label_set = decorrelate_labels(normalize_labels(raw, v), v)
    q = v.sum()
    gram = (label_set.labels * v) @ label_set.labels.T / q
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)


def _gram_residual(labels, v):
    gram = (labels * v) @ labels.T / v.sum()
    return np.max(np.abs(gram - np.eye(labels.shape[0])))


@st.composite
def _raw_labels(draw):
    """L x N raw labels with random offsets and scales, and their weights."""
    n_labels = draw(st.integers(1, 8))
    n = draw(st.integers(n_labels + 2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = (rng.normal(size=(n_labels, n)) * 10.0 ** rng.uniform(-3, 3, (n_labels, 1))
           + rng.uniform(-100, 100, (n_labels, 1)))
    v = np.ones(n) if draw(st.booleans()) else rng.uniform(0.1, 10.0, n)
    return raw, v


@settings(max_examples=60, deadline=None)
@given(_raw_labels())
def test_label_pipeline_matches_the_loops(case):
    raw, v = case
    n_labels, n = raw.shape
    # Normalization: each weighted sum of N terms is within gamma_N of its
    # value in any summation order, so mu moves by <= gamma_{2N+1} max|x|
    # (numerator and Q), sigma by <= gamma_{2N+5} relatively, and
    # z = (x - mu) / sigma by <= that times (max|x| / sigma + max|z|),
    # on each of the two sides.
    loop = normalize_labels_by_loop(raw, v)
    new = normalize_labels(raw, v)
    mu = raw @ v / v.sum()
    sigma = np.sqrt((raw - mu[:, None]) ** 2 @ v / v.sum())
    bound = 2 * rounding_gamma(2 * n + 5) * (np.abs(raw).max(axis=1) / sigma
                                             + np.abs(loop.labels).max(axis=1))
    assert np.all(np.abs(new.labels - loop.labels).max(axis=1) <= bound)
    np.testing.assert_array_equal(new.eigenvalues, loop.eigenvalues)

    # Decorrelation of the same normalized input A (rows scaled by
    # sqrt(v/Q), unit columns): both factorizations are backward stable
    # with column errors <= gamma_{NL}; to first order that moves the
    # orthonormal factor by <= kappa(A)^2 sqrt(L) gamma_{NL} in the 2-norm
    # (kappa^2 covers Gram-Schmidt's R^-1), and dividing by sqrt(v_n/Q)
    # scales an entry by at most sqrt(Q / min v).
    scaled = (new.labels * np.sqrt(v / v.sum())).T
    kappa = np.linalg.cond(scaled)
    assume(kappa < 1e3)  # well-conditioned: the loop keeps every label
    loop = decorrelate_labels_by_loop(new, v)
    out = decorrelate_labels(new, v)
    bound = (2 * kappa ** 2 * math.sqrt(n_labels) * rounding_gamma(n * n_labels)
             * math.sqrt(v.sum() / v.min()))
    assert np.max(np.abs(out.labels - loop.labels)) <= bound
    assert _gram_residual(out.labels, v) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(n_labels=st.integers(2, 6), n=st.integers(10, 300),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_dependent_label_raises_at_the_loops_index(n_labels, n, seed, data):
    jp = data.draw(st.integers(1, n_labels - 1))
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 10.0, n)
    raw = rng.normal(size=(n_labels, n))
    raw[jp] = rng.normal(size=jp) @ raw[:jp] + rng.normal()
    match = f"label {jp} is weighted-linearly dependent"
    with pytest.raises(DependentLabelError, match=match):
        decorrelate_labels_by_loop(normalize_labels_by_loop(raw, v), v)
    with pytest.raises(DependentLabelError, match=match):
        decorrelate_labels(normalize_labels(raw, v), v)


@pytest.mark.parametrize("eps, dependent", [(1e-7, True), (1e-5, False)])
def test_dependence_threshold_matches_the_loop(eps, dependent):
    # label 1 keeps eps^2 / (1 + eps^2) of its squared norm outside label 0;
    # below 1e-12 it is dependent
    v = np.ones(4)
    first = np.array([-1.0, -1.0, 1.0, 1.0])
    raw = np.vstack([first, first + eps * np.array([-1.0, 1.0, -1.0, 1.0])])
    label_set = normalize_labels(raw, v)
    for decorrelate in (decorrelate_labels, decorrelate_labels_by_loop):
        if dependent:
            with pytest.raises(DependentLabelError, match="label 1 is"):
                decorrelate(label_set, v)
        else:
            assert _gram_residual(decorrelate(label_set, v).labels, v) <= 1e-9


def test_decorrelate_rejects_wrong_length_weights():
    for n_labels in (1, 2):
        label_set = gsfa.LabelSet(np.eye(n_labels, 5), np.ones(n_labels))
        with pytest.raises(DimensionError):
            decorrelate_labels(label_set, np.ones(4))


def test_decorrelate_rejects_nonpositive_weights():
    label_set = normalize_labels(np.arange(4.0), np.ones(4))
    with pytest.raises(ParameterError):
        decorrelate_labels(label_set, np.array([1.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("v", [[1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0, 1.0],
                               [1.0, np.nan, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0]],
                         ids=["alternating-sign", "zero", "nan", "inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_label_pipeline_rejects_bad_vertex_weights(v):
    raw = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0]])
    label_set = decorrelate_labels(normalize_labels(raw, np.ones(4)), np.ones(4))
    for step in (normalize_labels, decorrelate_labels, build_ell_graph):
        with pytest.raises(ParameterError,
                           match="vertex weights must be finite and > 0"):
            step(raw if step is normalize_labels else label_set, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalize_labels_names_a_non_finite_label(bad):
    raw = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0],
                    [2.0, 1.0, bad, 0.0]])
    with pytest.raises(ParameterError, match="label 2 is not finite"):
        normalize_labels(raw, np.ones(4))


def test_normalize_labels_rejects_wrong_length_weights():
    with pytest.raises(DimensionError):
        normalize_labels(np.arange(4.0), np.ones(5))


def test_decorrelate_rejects_zero_first_label():
    label_set = gsfa.LabelSet(np.vstack([np.zeros(5), np.arange(5.0)]), [0.5, 0.5])
    with pytest.raises(DegenerateLabelError, match="label 0"):
        decorrelate_labels(label_set, np.ones(5))


def test_decorrelate_label_past_the_sample_count_is_dependent(rng):
    label_set = gsfa.LabelSet(rng.normal(size=(5, 4)), np.full(5, 0.2))
    with pytest.raises(DependentLabelError, match="label 4 is"):
        decorrelate_labels(label_set, rng.uniform(0.5, 2.0, 4))


def test_twelve_cosine_labels_pass_the_contract():
    first = np.linspace(0.0, 1.0, 2000)
    v = np.ones(2000)
    raw = np.vstack([first, *auxiliary_labels(first, 12)])
    label_set = decorrelate_labels(normalize_labels(raw, v), v)
    assert _gram_residual(label_set.labels, v) <= 1e-13
    graph = build_ell_graph(label_set.with_eigenvalues(np.full(12, 1 / 12)), v)
    assert graph.n_samples == 2000


# ---------------------------------------------------------------------------
# exact-label graphs

def _random_label_set(rng, n, n_labels, eigenvalues=None):
    v = np.ones(n)
    raw = rng.normal(size=(n_labels, n))
    label_set = decorrelate_labels(normalize_labels(raw, v), v)
    if eigenvalues is not None:
        label_set = label_set.with_eigenvalues(eigenvalues)
    return label_set, v


def test_ell_single_label_round_trip(rng):
    n = 16
    label_set, v = _random_label_set(rng, n, 1, eigenvalues=[1.0])
    graph = build_ell_graph(label_set, v)
    assert check_consistency(graph).ok
    spec = gsfa.optimal_free_responses(graph)
    responses, deltas = spec.feasible_responses()
    err = min(np.max(np.abs(responses[:, 0] - label_set.labels[0])),
              np.max(np.abs(responses[:, 0] + label_set.labels[0])))
    assert err < 1e-9
    assert deltas[0] == pytest.approx(0.0, abs=1e-12)


def test_ell_balanced_binary_label_gives_two_components():
    v = np.ones(8)
    raw = np.array([[-1.0] * 4 + [1.0] * 4])
    label_set = normalize_labels(raw, v).with_eigenvalues([1.0])
    graph = build_ell_graph(label_set, v)
    adjacency = np.abs(graph.gamma_dense()) > 1e-12
    n_components, _ = csgraph.connected_components(adjacency, directed=False)
    assert n_components == 2


def test_ell_nonbinary_zero_delta_needs_negative_weights(rng):
    label_set, v = _random_label_set(rng, 12, 1, eigenvalues=[1.0])
    assert np.unique(np.round(label_set.labels[0], 6)).size > 2
    graph = build_ell_graph(label_set, v)
    assert graph.gamma_min() < 0


def test_ell_rejects_unnormalized_labels():
    v = np.ones(4)
    label_set = gsfa.LabelSet(np.array([[0.0, 1.0, 2.0, 3.0]]), [1.0])
    with pytest.raises(ContractError, match="not weight-normalized"):
        build_ell_graph(label_set, v)


def test_ell_rejects_nan_labels():
    labels = np.array([[-1.0] * 4 + [1.0] * 4])
    labels[0, 2] = np.nan
    with pytest.raises(ContractError, match="not weight-normalized"):
        build_ell_graph(gsfa.LabelSet(labels, [1.0]), np.ones(8))


@pytest.mark.parametrize("eigenvalues", [[np.nan, 0.5], [np.inf, 0.5]])
def test_ell_rejects_non_finite_eigenvalues(eigenvalues):
    labels = np.array([[-1.0] * 4 + [1.0] * 4, [-1.0, -1.0, 1.0, 1.0] * 2])
    with pytest.raises(ContractError, match="eigenvalues must be finite"):
        build_ell_graph(gsfa.LabelSet(labels, eigenvalues), np.ones(8))


def test_ell_rejects_too_many_labels(rng):
    label_set, v = _random_label_set(rng, 4, 3)
    with pytest.raises(RankError):
        build_ell_graph(gsfa.LabelSet(np.vstack([label_set.labels,
                                                 label_set.labels[0:1]]),
                                      np.ones(4) / 4), v)


def test_ell_negative_eigenvalue_warns_once(rng):
    label_set, v = _random_label_set(rng, 10, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_ell_graph(label_set.with_eigenvalues([1.0, -0.2]), v)
    assert [w.category for w in caught] == [NegativeEigenvalueWarning]


def test_ell_rejects_unnormalized_labels_after_decorrelation():
    # decorrelation does not check its input; the build checks the values
    v = np.ones(4)
    label_set = decorrelate_labels(
        gsfa.LabelSet(np.array([[0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 1.0, -1.0]]),
                      [0.5, 0.5]), v)
    with pytest.raises(ContractError, match="not weight-normalized"):
        build_ell_graph(label_set, v)


def test_ell_respects_target_r_sum(rng):
    label_set, v = _random_label_set(rng, 10, 2, eigenvalues=[0.6, 0.4])
    graph = build_ell_graph(label_set, v, target_r_sum=2.5)
    assert graph.r_sum == pytest.approx(2.5, rel=1e-12)
    assert check_consistency(graph).ok


def test_ell_nonnegative_option(rng):
    label_set, v = _random_label_set(rng, 12, 2, eigenvalues=[0.7, 0.3])
    graph = build_ell_graph(label_set, v, nonnegative=True)
    assert graph.gamma_min() >= -1e-15


# ---------------------------------------------------------------------------
# eigenvalue <-> delta mapping

def test_eigenvalue_delta_fixed_points():
    assert eigenvalues_from_deltas(np.array([2.0]), 5.0, 7.0)[0] == 0.0
    assert eigenvalues_from_deltas(np.array([0.0]), 3.0, 3.0)[0] == 1.0


def test_eigenvalue_delta_round_trip(rng):
    deltas = rng.uniform(0.0, 2.0, 8)
    q, r = 11.0, 4.5
    back = deltas_from_eigenvalues(eigenvalues_from_deltas(deltas, q, r), q, r)
    np.testing.assert_allclose(back, deltas, atol=1e-12)


def test_eigenvalue_warning_above_two():
    with pytest.warns(NegativeEigenvalueWarning):
        lams = eigenvalues_from_deltas(np.array([2.5]), 1.0, 1.0)
    assert lams[0] < 0


# ---------------------------------------------------------------------------
# negative weight elimination

def test_eliminate_hand_example():
    graph = gsfa.TrainingGraph(np.ones(2), np.array([[1.0, -0.5], [-0.5, 1.0]]))
    out = eliminate_negative_weights(graph)
    np.testing.assert_allclose(out.gamma_dense(), [[0.5, 0.0], [0.0, 0.5]])
    assert out.r_sum == pytest.approx(graph.r_sum)


def test_eliminate_noop_when_nonnegative():
    graph = build_clustered_graph([2, 2])
    assert eliminate_negative_weights(graph) is graph


def test_eliminate_nonnegative_graph_builds_no_dense_copy(monkeypatch):
    linear = build_linear_graph(12)
    graphs = [build_serial_graph(np.arange(12.0), 4),
              build_clustered_graph([3, 4, 5]),
              gsfa.TrainingGraph(linear.vertex_weights,
                                 sp.csr_array(linear.gamma_dense()))]

    def refuse(self):
        raise AssertionError("a dense copy of the edges was built")

    monkeypatch.setattr(gsfa.TrainingGraph, "gamma_dense", refuse)
    for graph in graphs:
        assert eliminate_negative_weights(graph) is graph


def test_eliminate_preserves_order_and_delta_two(rng):
    label_set, v = _random_label_set(rng, 14, 3, eigenvalues=[0.5, 0.3, 0.2])
    graph = build_ell_graph(label_set, v)
    out = eliminate_negative_weights(graph)
    assert check_consistency(out).ok
    spec_a = gsfa.optimal_free_responses(graph)
    spec_b = gsfa.optimal_free_responses(out)
    resp_a, delta_a = spec_a.feasible_responses()
    resp_b, delta_b = spec_b.feasible_responses()
    # leading responses stay the labels, in the same order
    for j in range(3):
        err = min(np.max(np.abs(resp_b[:, j] - label_set.labels[j])),
                  np.max(np.abs(resp_b[:, j] + label_set.labels[j])))
        assert err < 1e-8
    # delta = 2 is the fixed point of the affine map
    fixed = np.abs(delta_a - 2.0) < 1e-12
    assert fixed.any()
    np.testing.assert_allclose(delta_b[fixed], 2.0, atol=1e-9)


# ---------------------------------------------------------------------------
# auxiliary labels

def test_auxiliary_endpoints():
    ramp = np.linspace(3.0, 9.0, 13)
    aux = auxiliary_labels(ramp, 4)
    assert aux.shape == (3, 13)
    np.testing.assert_allclose(aux[:, 0], 1.0)       # cos(0) at the minimum
    assert aux[0, -1] == pytest.approx(-1.0)          # k=2: cos(pi) at the max


def test_auxiliary_k3_span():
    ramp = np.linspace(0.0, 1.0, 101)
    aux = auxiliary_labels(ramp, 3)
    # k=3 argument spans [0, 3pi/2]: cosine passes -1 and ends at 0
    assert aux[1].min() == pytest.approx(-1.0, abs=1e-3)
    assert aux[1, -1] == pytest.approx(0.0, abs=1e-12)


def test_auxiliary_rejects_constant():
    with pytest.raises(DegenerateLabelError):
        auxiliary_labels(np.ones(5), 3)


# ---------------------------------------------------------------------------
# compact binary labels

def test_compact_first_label_splits_halves():
    compact = compact_binary_labels(32, 31)
    l1 = compact.per_class[0]
    assert np.all(l1[:16] == -1.0) and np.all(l1[16:] == 1.0)


def test_compact_product_structure():
    compact = compact_binary_labels(32, 31)
    l = {j + 1: compact.per_class[j] for j in range(31)}
    np.testing.assert_array_equal(l[6], l[1] * l[2] * l[3] * l[4] * l[5])
    np.testing.assert_array_equal(l[7], -l[1] * l[2] * l[3] * l[4])
    np.testing.assert_array_equal(l[31], -l[4] * l[5])
    for j in range(1, 32):
        assert l[j][0] == -1.0


def test_compact_rows_orthonormal_under_uniform_weights():
    compact = compact_binary_labels(4, 3)
    gram = compact.per_class @ compact.per_class.T / 4
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-15)


def test_compact_eigenvalue_schedule():
    compact = compact_binary_labels(32, 31)
    lams = compact.eigenvalues
    assert lams.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(lams[:5], lams[0])
    assert lams[0] == pytest.approx(1.0 / 18.0)          # reads as 0.056
    assert lams[5] == pytest.approx(26.0 / 27.0 / 18.0)  # reads as 0.053
    assert lams[6] == pytest.approx(25.0 / 27.0 / 18.0)  # reads as 0.051
    assert lams[30] == pytest.approx(1.0 / 27.0 / 18.0)  # reads as 0.002
    diffs = np.diff(lams[5:])
    np.testing.assert_allclose(diffs, diffs[0], atol=1e-15)


def test_compact_expand_balanced_only():
    compact = compact_binary_labels(4, 3)
    with pytest.raises(ContractError):
        compact.expand([2, 2, 2, 3])
    label_set = compact.expand([2, 2, 2, 2])
    assert label_set.n_samples == 8
    build_ell_graph(label_set, np.ones(8))  # normalized and decorrelated


def test_compact_parameter_gates():
    with pytest.raises(ParameterError):
        compact_binary_labels(12)
    with pytest.raises(RankError):
        compact_binary_labels(8, 8)
    with pytest.raises(ParameterError):
        compact_binary_labels(8, 2)


# ---------------------------------------------------------------------------
# clustered equivalence

def test_equivalence_c4():
    report = clustered_equivalence_check(4, 2)
    assert report.equivalent
    assert report.max_interclass <= 1e-12


def test_equivalence_c2_hand_scale():
    report = clustered_equivalence_check(2, 2)
    assert report.equivalent
    assert report.max_abs_diff <= 1e-14


def test_equivalence_flags_unequal_eigenvalues():
    report = clustered_equivalence_check(4, 2, eigenvalues=[0.6, 0.3, 0.1])
    assert not report.equivalent


# ---------------------------------------------------------------------------
# builder consistency property

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_every_builder_output_is_consistent(seed):
    rng = np.random.default_rng(seed)
    graphs = [
        build_linear_graph(int(rng.integers(2, 20))),
        build_linear_graph(int(rng.integers(2, 20)),
                           variant="endpoint_halved_vertex_weights"),
        build_clustered_graph(rng.integers(2, 6, size=rng.integers(1, 4)).tolist()),
        build_serial_graph(rng.normal(size=12), int(rng.choice([2, 3, 4, 6]))),
    ]
    n = 10
    v = np.ones(n)
    raw = rng.normal(size=(2, n))
    label_set = decorrelate_labels(normalize_labels(raw, v), v)
    label_set = label_set.with_eigenvalues([0.7, 0.3])
    ell = build_ell_graph(label_set, v)
    graphs.append(ell)
    graphs.append(eliminate_negative_weights(ell))
    for graph in graphs:
        assert check_consistency(graph).ok


# ---------------------------------------------------------------------------
# label-set files

def test_label_file_round_trip(tmp_path, rng):
    label_set, v = _random_label_set(rng, 8, 2, eigenvalues=[0.6, 0.4])
    path = tmp_path / "labels.json"
    gsfa.save_labels(label_set, v, path)
    loaded, v2 = gsfa.load_labels(path)
    np.testing.assert_allclose(loaded.labels, label_set.labels)
    np.testing.assert_allclose(loaded.eigenvalues, label_set.eigenvalues)
    np.testing.assert_allclose(v2, v)
