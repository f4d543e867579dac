import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gsfa
from gsfa import (
    DimensionError,
    ExpansionSpec,
    FormatError,
    InconsistentGraphWarning,
    ParameterError,
    SingularityError,
    TrainingGraph,
    derivative_covariance,
    expand,
    extract_features,
    pca_reduce,
    sample_covariance,
    train_gsfa,
    weighted_delta,
    weighted_mean,
)

from conftest import (
    BUILDER_KINDS,
    chain_graph,
    dcov_by_edge_sum,
    dense_graph,
    graph_by_builder,
    normalize_feature,
    sign_fix_columns_by_loop,
)


# ---------------------------------------------------------------------------
# weighted mean / covariance

def test_weighted_mean_uniform_is_ordinary_mean(rng):
    data = rng.normal(size=(3, 7))
    np.testing.assert_allclose(weighted_mean(data, np.ones(7)),
                               data.mean(axis=1), atol=1e-12)


def test_weighted_mean_hand_example():
    data = np.array([[0.0, 2.0], [0.0, 2.0]])
    np.testing.assert_allclose(weighted_mean(data, np.array([1.0, 3.0])),
                               [1.5, 1.5])


def test_weighted_mean_fixed_point_on_repeated_column():
    col = np.array([2.0, -1.0, 0.5])
    data = np.tile(col[:, None], (1, 5))
    np.testing.assert_allclose(weighted_mean(data, np.arange(1.0, 6.0)), col)


def test_sample_covariance_one_dim():
    data = np.array([[-1.0, 1.0]])
    assert sample_covariance(data, np.ones(2))[0, 0] == pytest.approx(1.0)


def test_sample_covariance_constant_data():
    data = np.full((3, 6), 2.5)
    np.testing.assert_array_equal(sample_covariance(data, np.ones(6)),
                                  np.zeros((3, 3)))


def test_sample_covariance_symmetric_psd(rng):
    data = rng.normal(size=(5, 30))
    cov = sample_covariance(data, rng.uniform(0.5, 2.0, 30))
    assert np.max(np.abs(cov - cov.T)) <= 1e-12
    assert np.linalg.eigvalsh(cov).min() > -1e-12


# ---------------------------------------------------------------------------
# derivative covariance

def test_dcov_two_sample_chain():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 2.0])
    data = np.column_stack([a, b])
    graph = dense_graph(np.ones(2), [[0.0, 1.0], [1.0, 0.0]])
    expected = np.outer(a - b, a - b)
    np.testing.assert_allclose(derivative_covariance(data, graph), expected)


def _assert_matches_edge_sum(data, graph):
    reference = dcov_by_edge_sum(data, graph)
    diff = np.max(np.abs(derivative_covariance(data, graph) - reference))
    assert diff <= 1e-12 * np.max(np.abs(reference))


def test_dcov_structured_vs_pairwise_clustered(rng):
    graph = gsfa.build_clustered_graph([5, 3, 7, 5])
    _assert_matches_edge_sum(rng.normal(size=(4, 20)), graph)


def test_dcov_structured_vs_pairwise_serial(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=24), 6)
    _assert_matches_edge_sum(rng.normal(size=(4, 24)) - 50.0, graph)
    # the same edges without the groups: the stored-product evaluation
    _assert_matches_edge_sum(rng.normal(size=(4, 24)),
                             TrainingGraph(graph.vertex_weights,
                                           graph.edge_weights))


# ---------------------------------------------------------------------------
# training

def _one_hot(n):
    return np.eye(n)


@pytest.mark.parametrize("make_graph", [
    lambda: gsfa.build_linear_graph(12),
    lambda: gsfa.build_linear_graph(12, variant="endpoint_halved_vertex_weights"),
    lambda: gsfa.build_serial_graph(np.arange(12.0), 4),
    lambda: gsfa.build_clustered_graph([4, 4, 4]),
])
def test_one_hot_training_matches_free_response_deltas(make_graph):
    graph = make_graph()
    n = graph.n_samples
    model = train_gsfa(_one_hot(n), graph, n_features=n - 1)
    spec = gsfa.optimal_free_responses(graph)
    _, deltas = spec.feasible_responses()
    np.testing.assert_allclose(np.sort(model.deltas), np.sort(deltas),
                               atol=1e-8)


def test_one_hot_features_match_responses_up_to_sign():
    graph = gsfa.build_serial_graph(np.arange(20.0), 10)
    n = graph.n_samples
    model = train_gsfa(_one_hot(n), graph, n_features=4)
    feats = extract_features(model, _one_hot(n))
    responses, deltas = gsfa.optimal_free_responses(graph).feasible_responses()
    # the four leading group-level responses are simple for this graph
    assert np.min(np.diff(deltas[:5])) > 1e-6
    for j in range(4):
        err = min(np.max(np.abs(feats[j] - responses[:, j])),
                  np.max(np.abs(feats[j] + responses[:, j])))
        assert err < 1e-6


def test_one_dim_whitened_data_recovers_input(rng):
    graph = gsfa.build_linear_graph(16)
    x = normalize_feature(np.sort(rng.normal(size=16)), graph.vertex_weights)
    model = train_gsfa(x[None, :], graph, n_features=1)
    y = extract_features(model, x[None, :])[0]
    err = min(np.max(np.abs(y - x)), np.max(np.abs(y + x)))
    assert err < 1e-8


def test_model_deltas_match_recomputed_deltas(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=30), 6)
    data = rng.normal(size=(5, 30))
    model = train_gsfa(data, graph)
    feats = extract_features(model, data)
    for j in range(model.n_features):
        assert model.deltas[j] == pytest.approx(
            weighted_delta(graph, feats[j]), abs=1e-6)
    assert np.all(np.diff(model.deltas) >= -1e-12)


def test_training_constraints_on_outputs(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=40), 8)
    data = rng.normal(size=(6, 40))
    model = train_gsfa(data, graph)
    feats = extract_features(model, data)
    v, q = graph.vertex_weights, graph.q_sum
    means = feats @ v / q
    assert np.max(np.abs(means)) < 1e-6
    gram = (feats * v) @ feats.T / q
    np.testing.assert_allclose(gram, np.eye(model.n_features), atol=1e-6)


def test_first_delta_minimal_over_random_linear_probes(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=30), 6)
    data = rng.normal(size=(4, 30))
    model = train_gsfa(data, graph)
    centered = data - model.weighted_mean[:, None]
    best = model.deltas[0]
    for _ in range(1000):
        w = rng.normal(size=4)
        y = normalize_feature(w @ centered, graph.vertex_weights)
        assert weighted_delta(graph, y) >= best - 1e-9


def _features_and_deltas(data, graph):
    model = train_gsfa(data, graph)
    return extract_features(model, data), model.deltas


def _assert_same_training(trained, expected, vertex_weights):
    """Equal deltas; equal features, or equal spans where deltas tie.

    ``trained`` and ``expected`` are (features, deltas) pairs over the
    same sample order. Features whose deltas lie within 1e-6 of each
    other (an exact-label graph's null block, for one) are defined only
    up to a rotation of their block, so such a block is compared by the
    cosines of its principal angles under Diag(v).
    """
    (features, deltas), (want, want_deltas) = trained, expected
    np.testing.assert_allclose(deltas, want_deltas, rtol=0, atol=1e-10)
    scale = np.sqrt(vertex_weights)[:, None]
    cuts = np.flatnonzero(np.diff(want_deltas) > 1e-6) + 1
    for block in np.split(np.arange(want_deltas.size), cuts):
        if block.size == 1:
            np.testing.assert_allclose(features[block], want[block], rtol=0,
                                       atol=1e-8)
        else:
            span, want_span = (np.linalg.qr(f[block].T * scale)[0]
                               for f in (features, want))
            cosines = np.linalg.svd(span.T @ want_span, compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-8


_builder_graphs = {"kind": st.sampled_from(BUILDER_KINDS),
                   "n": st.integers(2, 15).map(lambda k: 4 * k),
                   "seed": st.integers(0, 2**32 - 1)}


@settings(max_examples=40, deadline=None)
@given(scale=st.sampled_from([1e-3, 0.37, 3.7, 1e3]), **_builder_graphs)
def test_edge_scale_invariance(scale, kind, n, seed):
    # gamma -> a gamma leaves trained features and deltas unchanged
    graph = graph_by_builder(kind, n, seed)
    data = np.random.default_rng(seed).normal(size=(4, n))
    scaled = TrainingGraph(graph.vertex_weights, scale * graph.gamma_dense())
    _assert_same_training(_features_and_deltas(data, scaled),
                          _features_and_deltas(data, graph), graph.vertex_weights)


@settings(max_examples=40, deadline=None)
@given(**_builder_graphs)
def test_permuting_samples_and_graph_permutes_trained_features(kind, n, seed):
    graph = graph_by_builder(kind, n, seed)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(4, n))
    perm = rng.permutation(n)
    permuted = TrainingGraph(graph.vertex_weights[perm],
                             graph.gamma_dense()[np.ix_(perm, perm)])
    features, deltas = _features_and_deltas(data, graph)
    _assert_same_training(_features_and_deltas(data[:, perm], permuted),
                          (features[:, perm], deltas), permuted.vertex_weights)


def test_affine_input_shift_gives_identical_features(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=24), 4)
    data = rng.normal(size=(3, 24))
    shift = rng.normal(size=3)
    m1 = train_gsfa(data, graph)
    m2 = train_gsfa(data + shift[:, None], graph)
    f1 = extract_features(m1, data)
    f2 = extract_features(m2, data + shift[:, None])
    np.testing.assert_allclose(f1, f2, atol=1e-8)


def test_centering_maps_mean_to_zero(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=16), 4)
    data = rng.normal(size=(3, 16))
    model = train_gsfa(data, graph)
    np.testing.assert_allclose(
        extract_features(model, model.weighted_mean[:, None]),
        np.zeros((model.n_features, 1)), atol=1e-12)


def test_inconsistent_graph_warns_and_uses_pairwise(rng):
    graph = chain_graph(10)
    data = rng.normal(size=(3, 10))
    with pytest.warns(InconsistentGraphWarning):
        model = train_gsfa(data, graph)
    feats = extract_features(model, data)
    for j in range(model.n_features):
        assert model.deltas[j] == pytest.approx(
            weighted_delta(graph, feats[j]), abs=1e-6)


def test_rank_deficiency_error_names_null_dim(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=12), 4)
    base = rng.normal(size=(2, 12))
    data = np.vstack([base, base.sum(axis=0, keepdims=True)])  # rank 2
    with pytest.raises(SingularityError, match="covariance rank is 2 "
                       r"\(null-space dimension 1\)") as err:
        train_gsfa(data, graph, n_features=3)
    assert err.value.null_dim == 1
    model = train_gsfa(data, graph, n_features=2)
    assert model.n_features == 2


def test_too_many_features_error_names_input_dimension(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=12), 4)
    with pytest.raises(SingularityError,
                       match="requested 6 features but the input has only 5 "
                       "dimensions") as err:
        train_gsfa(rng.normal(size=(5, 12)), graph, n_features=6)
    assert err.value.null_dim == 0


def test_dimension_gates(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=12), 4)
    with pytest.raises(DimensionError):
        train_gsfa(rng.normal(size=(2, 11)), graph)
    model = train_gsfa(rng.normal(size=(2, 12)), graph)
    with pytest.raises(DimensionError):
        extract_features(model, rng.normal(size=(3, 5)))


# ---------------------------------------------------------------------------
# sign rule

_SIGN_FIX_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-8, -1e-8, 2e-8, np.nan,
                     np.inf, -np.inf, 5e-324, -5e-324]),
    st.floats(-1e3, 1e3), st.floats())


@st.composite
def _sign_fix_matrices(draw):
    """Matrices with zero, NaN and threshold columns among drawn ones."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    w = draw(hnp.arrays(np.float64, (n, k), elements=_SIGN_FIX_FLOATS))
    for j in range(k):
        kind = draw(st.sampled_from(["drawn", "zero", "nan", "threshold"]))
        row = draw(st.integers(0, n - 1))
        if kind == "zero":
            w[:, j] = draw(hnp.arrays(np.float64, n,
                                      elements=st.sampled_from([0.0, -0.0])))
        elif kind == "nan":
            w[row, j] = np.nan
        elif kind == "threshold" and n > 1:
            # an entry exactly at 1e-8 * max |column|, ahead of the maximum
            w[0, j] = 0.0
            scale = np.max(np.abs(w[:, j]))
            w[0, j] = draw(st.sampled_from([1.0, -1.0])) * 1e-8 * scale
    return w


@settings(max_examples=400, deadline=None)
@given(_sign_fix_matrices())
def test_sign_fix_matches_the_column_loop(w):
    expected = sign_fix_columns_by_loop(w)
    fixed = w.copy()
    assert gsfa.solver._sign_fix_columns(fixed) is fixed
    assert fixed.tobytes() == expected.tobytes()


def test_sign_fix_hand_cases():
    w = np.array([[-1e-8, -0.0, 0.0, np.nan, -2.0],
                  [1.0, -3.0, 0.0, -1.0, 1.0]])
    fixed = gsfa.solver._sign_fix_columns(w.copy())
    # at the threshold is not above it: the first significant entry is 1
    assert fixed.tobytes() == np.array([[-1e-8, 0.0, 0.0, np.nan, 2.0],
                                        [1.0, 3.0, 0.0, -1.0, -1.0]]).tobytes()
    row = np.array([[-0.5, 0.0, -0.0, 2.0]])
    assert gsfa.solver._sign_fix_columns(row.copy()).tobytes() == np.array(
        [[0.5, 0.0, -0.0, 2.0]]).tobytes()
    assert gsfa.solver._sign_fix_columns(np.zeros((3, 0))).shape == (3, 0)


# ---------------------------------------------------------------------------
# expansions

def test_expand_identity(rng):
    data = rng.normal(size=(3, 5))
    np.testing.assert_array_equal(expand(data, ExpansionSpec("identity")), data)


def test_expand_zero_eight_expo_unit_magnitude():
    data = np.array([[-1.0]])
    np.testing.assert_allclose(expand(data, ExpansionSpec("zero_eight_expo")),
                               [[-1.0], [1.0]])


def test_expand_quadratic_two_dims():
    a, b = 2.0, 3.0
    out = expand(np.array([[a], [b]]), ExpansionSpec("quadratic"))
    np.testing.assert_allclose(out.ravel(), [a, b, a * a, a * b, b * b])
    assert ExpansionSpec("quadratic").output_dim(2) == 5


def test_expand_polynomial_dims(rng):
    data = rng.normal(size=(3, 4))
    for degree in (1, 2, 3, 4):
        spec = ExpansionSpec("polynomial", degree=degree)
        assert expand(data, spec).shape[0] == spec.output_dim(3)


def test_expand_degree_guard():
    with pytest.raises(ParameterError):
        ExpansionSpec("polynomial", degree=7)


def test_expand_monomial_order_deterministic(rng):
    data = rng.normal(size=(2, 6))
    out1 = expand(data, ExpansionSpec("polynomial", degree=3))
    out2 = expand(data.copy(), ExpansionSpec("polynomial", degree=3))
    np.testing.assert_array_equal(out1, out2)


# ---------------------------------------------------------------------------
# PCA

def test_pca_full_rank_lossless(rng):
    data = rng.normal(size=(4, 20))
    v = rng.uniform(0.5, 2.0, 20)
    model, reduced = pca_reduce(data, v, 4)
    np.testing.assert_allclose(model.components @ reduced + model.mean[:, None],
                               data, atol=1e-8)


def test_pca_line_in_three_dims(rng):
    t = rng.normal(size=50)
    direction = np.array([1.0, 2.0, -1.0])
    data = np.outer(direction, t) + 1e-8 * rng.normal(size=(3, 50))
    model, _ = pca_reduce(data, np.ones(50), 3)
    share = model.variances[0] / model.variances.sum()
    assert share >= 1.0 - 1e-10


def test_pca_basis_orthonormal(rng):
    data = rng.normal(size=(6, 40))
    model, _ = pca_reduce(data, np.ones(40), 4)
    gram = model.components.T @ model.components
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_pca_out_dims_gate(rng):
    with pytest.raises(ParameterError):
        pca_reduce(rng.normal(size=(3, 10)), np.ones(10), 4)


def test_pca_reconstruction_error_monotone(rng):
    data = rng.normal(size=(5, 30))
    v = np.ones(30)
    errors = []
    for d in range(1, 6):
        model, reduced = pca_reduce(data, v, d)
        restored = model.components @ reduced + model.mean[:, None]
        errors.append(float(np.linalg.norm(data - restored)))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# model files and matrix I/O

def test_model_file_round_trip(tmp_path, rng):
    graph = gsfa.build_serial_graph(rng.normal(size=16), 4)
    data = rng.normal(size=(3, 16))
    pca, reduced = pca_reduce(data, graph.vertex_weights, 2)
    expansion = ExpansionSpec("quadratic")
    model = train_gsfa(expand(reduced, expansion), graph)
    path = tmp_path / "model.json"
    gsfa.save_model(gsfa.GsfaNode(pca, expansion, model), path)
    loaded = gsfa.load_model(path)
    np.testing.assert_allclose(loaded.gsfa.projection, model.projection)
    np.testing.assert_allclose(loaded.gsfa.deltas, model.deltas)
    assert loaded.expansion == expansion
    np.testing.assert_allclose(loaded.pca.components, pca.components)
    assert loaded.gsfa.trained_on == model.trained_on


def test_train_node_features_equal_extract(rng):
    graph = gsfa.build_serial_graph(rng.normal(size=60), 6)
    data = rng.normal(size=(5, 60))
    node, features = gsfa.train_node(data, graph, ExpansionSpec("quadratic"),
                                     n_features=4, pca_dims=3)
    assert node.pca.components.shape == (5, 3)
    assert node.gsfa.projection.shape == (9, 4)
    np.testing.assert_allclose(features, node.extract(data), rtol=0, atol=1e-12)


def _layouts(data):
    """C-ordered, F-ordered and strided copies of a matrix's values."""
    strided = np.zeros((2 * data.shape[0], 3 * data.shape[1]))
    strided[::2, ::3] = data
    return {"C": np.ascontiguousarray(data), "F": np.asfortranarray(data),
            "strided": strided[::2, ::3]}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["identity", "quadratic"]),
       pca_dims=st.sampled_from([None, 4]))
def test_train_node_model_bits_follow_values_not_layout(tmp_path_factory, seed,
                                                        kind, pca_dims):
    rng = np.random.default_rng(seed)
    graph = gsfa.build_serial_graph(rng.normal(size=300), 10)
    data = rng.normal(size=(6, 300))
    directory = tmp_path_factory.mktemp("layouts")
    files = set()
    for name, copy in _layouts(data).items():
        node, _ = gsfa.train_node(copy, graph, ExpansionSpec(kind),
                                  n_features=3, pca_dims=pca_dims)
        gsfa.save_model(node, directory / f"{name}.json")
        files.add((directory / f"{name}.json").read_bytes())
    assert len(files) == 1


def test_model_file_with_null_expansion_reads_as_identity(tmp_path, rng):
    graph = gsfa.build_serial_graph(rng.normal(size=16), 4)
    data = rng.normal(size=(3, 16))
    node, features = gsfa.train_node(data, graph, ExpansionSpec())
    path = tmp_path / "model.json"
    gsfa.save_model(node, path)
    payload = json.loads(path.read_text())
    assert payload["expansion"] == {"kind": "identity", "degree": 2}
    payload["expansion"] = None
    path.write_text(json.dumps(payload))
    loaded = gsfa.load_model(path)
    assert loaded.expansion == ExpansionSpec()
    np.testing.assert_array_equal(loaded.extract(data), features)


@pytest.mark.parametrize("entry", ["pca", "expansion"])
@pytest.mark.parametrize("value", [False, 0, {}], ids=["false", "zero", "empty"])
def test_model_file_rejects_falsy_pca_or_expansion(tmp_path, rng, entry, value):
    graph = gsfa.build_serial_graph(rng.normal(size=16), 4)
    node, _ = gsfa.train_node(rng.normal(size=(5, 16)), graph, ExpansionSpec(),
                              pca_dims=3)
    path = tmp_path / "model.json"
    gsfa.save_model(node, path)
    payload = json.loads(path.read_text())
    payload[entry] = value
    path.write_text(json.dumps(payload))
    # only null or an absent entry means none
    with pytest.raises(FormatError, match="malformed entry") as exc:
        gsfa.load_model(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("degree", [2.5, 2.0, True, "2"])
def test_expansion_degree_must_be_an_integer(degree):
    with pytest.raises(ParameterError, match="degree must be an integer"):
        ExpansionSpec("polynomial", degree)


def test_model_file_rejects_unknown_version(tmp_path, rng):
    graph = gsfa.build_serial_graph(rng.normal(size=8), 4)
    model = train_gsfa(rng.normal(size=(2, 8)), graph)
    path = tmp_path / "model.json"
    gsfa.save_model(gsfa.GsfaNode(None, ExpansionSpec(), model), path)
    path.write_text(path.read_text().replace('"format_version": 1',
                                             '"format_version": 3'))
    with pytest.raises(FormatError):
        gsfa.load_model(path)


def test_matrix_csv_round_trip(tmp_path, rng):
    data = rng.normal(size=(3, 7))
    gsfa.save_matrix_csv(data, tmp_path / "m.csv", feature_names=["a", "b", "c"])
    loaded, names = gsfa.load_matrix_csv(tmp_path / "m.csv")
    np.testing.assert_array_equal(loaded, data)  # repr round-trips exactly
    assert names == ["a", "b", "c"]


def test_matrix_binary_round_trip(tmp_path, rng):
    data = rng.normal(size=(4, 9))
    gsfa.save_matrix_binary(data, tmp_path / "m.bin")
    np.testing.assert_array_equal(gsfa.load_matrix_binary(tmp_path / "m.bin"),
                                  data)


def test_matrix_binary_reads_float32(tmp_path):
    data = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.75]], dtype="<f4")
    (tmp_path / "m.bin").write_bytes(
        b"GSFAMAT1" + bytes([2]) + struct.pack("<QQ", 2, 3) + data.tobytes())
    loaded = gsfa.load_matrix_binary(tmp_path / "m.bin")
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, data)


def test_matrix_binary_rejects_bad_magic(tmp_path):
    (tmp_path / "m.bin").write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(FormatError):
        gsfa.load_matrix_binary(tmp_path / "m.bin")
