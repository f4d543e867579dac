import csv

import numpy as np
import pytest

import gsfa
from gsfa import (
    ContractError,
    ParameterError,
    build_m_matrix,
    expected_noise_delta,
    optimal_free_responses,
    weighted_delta,
)

from conftest import (
    chain_graph,
    dense_graph,
    ell_graph_from_seed,
    m_matrix_by_expression,
    normalize_feature,
    symmetrize,
    two_group_cross_graph,
)


# ---------------------------------------------------------------------------
# M matrix

def test_m_matrix_identity_weights():
    graph = two_group_cross_graph()
    np.testing.assert_array_equal(build_m_matrix(graph), graph.gamma_dense())


def test_m_matrix_hand_example():
    graph = dense_graph([4.0, 4.0], [[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(build_m_matrix(graph), [[0.0, 0.5], [0.5, 0.0]])


def test_m_matrix_keeps_the_expression_bits(monkeypatch):
    monkeypatch.setattr(gsfa.graph, "DENSE_BLOCK_ROWS", 4)
    rng = np.random.default_rng(5)
    for graph in (ell_graph_from_seed(3, 11, 2, nonnegative=True, uniform=False),
                  gsfa.build_serial_graph(np.arange(10.0), 5),
                  dense_graph(rng.uniform(0.5, 2.0, 9),
                              symmetrize(rng.uniform(-0.5, 1.0, (9, 9))))):
        m = build_m_matrix(graph)
        assert m.tobytes() == m_matrix_by_expression(graph).tobytes()
        assert m.tobytes() == np.ascontiguousarray(m.T).tobytes()


def test_m_matrix_symmetric_for_builders():
    for graph in (gsfa.build_linear_graph(9),
                  gsfa.build_clustered_graph([3, 4]),
                  gsfa.build_serial_graph(np.arange(12.0), 4)):
        m = build_m_matrix(graph)
        assert np.max(np.abs(m - m.T)) <= 1e-12


# ---------------------------------------------------------------------------
# free responses

def test_two_cluster_response():
    graph = gsfa.build_clustered_graph([2, 2])
    spec = optimal_free_responses(graph)
    responses, deltas = spec.feasible_responses()
    assert deltas[0] == pytest.approx(0.0, abs=1e-12)
    target = np.array([1.0, 1.0, -1.0, -1.0])
    err = min(np.max(np.abs(responses[:, 0] - target)),
              np.max(np.abs(responses[:, 0] + target)))
    assert err < 1e-12


def test_sign_rule_first_sample_negative():
    spec = optimal_free_responses(gsfa.build_linear_graph(10))
    responses, _ = spec.feasible_responses()
    for j in range(responses.shape[1]):
        col = responses[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))
        assert col[nz[0]] < 0


def test_infeasible_pseudo_response_is_constant_direction():
    graph = gsfa.build_serial_graph(np.arange(12.0), 4)
    spec = optimal_free_responses(graph)
    idx = np.flatnonzero(~spec.feasible)
    assert idx.size == 1
    pseudo = spec.responses[:, idx[0]]
    assert np.max(np.abs(np.abs(pseudo) - 1.0)) < 1e-9  # y0 = +-1 vector
    assert spec.deltas[idx[0]] == pytest.approx(0.0, abs=1e-12)


def test_feasible_responses_satisfy_constraints():
    graph = gsfa.build_serial_graph(np.arange(20.0), 5)
    spec = optimal_free_responses(graph)
    v, q = graph.vertex_weights, graph.q_sum
    feas = np.flatnonzero(spec.feasible)
    y = spec.responses[:, feas]
    means = (v @ y) / q
    assert np.max(np.abs(means)) < 1e-8
    gram = (y.T * v) @ y / q
    np.testing.assert_allclose(gram, np.eye(feas.size), atol=1e-8)


def test_delta_eigenvalue_identity():
    graph = gsfa.build_linear_graph(15)
    spec = optimal_free_responses(graph)
    recomputed = 2.0 - (2.0 * spec.q_sum / spec.r_sum) * spec.eigenvalues
    np.testing.assert_allclose(spec.deltas, recomputed, atol=1e-10)


def test_deltas_match_direct_evaluation():
    graph = gsfa.build_serial_graph(np.arange(12.0), 3)
    spec = optimal_free_responses(graph)
    responses, deltas = spec.feasible_responses()
    for j in range(5):
        assert deltas[j] == pytest.approx(
            weighted_delta(graph, responses[:, j]), abs=1e-9)


def test_free_responses_are_optimal_over_random_probes(rng):
    graph = gsfa.build_serial_graph(np.arange(20.0), 5)
    spec = optimal_free_responses(graph)
    _, deltas = spec.feasible_responses()
    best = deltas[0]
    for _ in range(1000):
        y = normalize_feature(rng.normal(size=20), graph.vertex_weights)
        assert weighted_delta(graph, y) >= best - 1e-9


def test_degenerate_blocks_reported():
    graph = gsfa.build_clustered_graph([3, 3, 3])
    spec = optimal_free_responses(graph)
    sizes = sorted(e - s for s, e in spec.blocks)
    # eigenvalue 1 has multiplicity C=3; eigenvalue -1/2 multiplicity 6
    assert sizes == [3, 6]


def test_inconsistent_graph_rejected():
    with pytest.raises(ContractError, match="consistent"):
        optimal_free_responses(chain_graph(4))


def test_dense_cap(monkeypatch):
    monkeypatch.setattr(gsfa.spectrum, "MAX_DENSE_N", 30)
    with pytest.raises(ParameterError, match="capped at N=30"):
        optimal_free_responses(gsfa.build_linear_graph(40))


def test_slow_count_threshold_excludes_exact_two():
    # the exact-label graph puts all unused directions exactly at 2
    rng = np.random.default_rng(3)
    v = np.ones(12)
    raw = rng.normal(size=(2, 12))
    label_set = gsfa.decorrelate_labels(gsfa.normalize_labels(raw, v), v)
    label_set = label_set.with_eigenvalues([0.6, 0.4])
    spec = optimal_free_responses(gsfa.build_ell_graph(label_set, v))
    assert spec.slow_count() == 2


# ---------------------------------------------------------------------------
# noise delta

def test_noise_delta_exactly_two_without_self_loops():
    for graph in (gsfa.build_clustered_graph([3, 3]),
                  gsfa.build_serial_graph(np.arange(12.0), 4)):
        assert expected_noise_delta(graph) == 2.0


def test_noise_delta_hand_example():
    graph = dense_graph([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    assert expected_noise_delta(graph) == pytest.approx(1.0)


def test_noise_delta_monte_carlo_quick(rng):
    graph = gsfa.build_serial_graph(np.arange(20.0), 5)
    draws = rng.standard_normal(size=(2000, 20))
    mean = np.mean([weighted_delta(graph, y) for y in draws])
    assert mean == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------------------
# exports

def test_export_spectrum_csv(tmp_path):
    graph = gsfa.build_linear_graph(8)
    spec = optimal_free_responses(graph)
    gsfa.export_spectrum(spec, tmp_path / "spec.csv", tmp_path / "resp.csv")
    with open(tmp_path / "spec.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    deltas = np.array([float(r["delta"]) for r in rows])
    np.testing.assert_allclose(deltas, spec.deltas)
    feasible = np.array([int(r["feasible"]) for r in rows])
    assert feasible.sum() == 7
    resp, names = gsfa.load_matrix_csv(tmp_path / "resp.csv")
    np.testing.assert_allclose(resp.T, spec.responses, atol=1e-15)


def test_export_edges_percentile(tmp_path):
    rng = np.random.default_rng(0)
    v = np.ones(10)
    raw = rng.normal(size=(1, 10))
    label_set = gsfa.normalize_labels(raw, v)
    graph = gsfa.build_ell_graph(label_set, v)
    gsfa.export_edges(graph, tmp_path / "all.csv")
    gsfa.export_edges(graph, tmp_path / "strong.csv", percentile=30.0)
    with open(tmp_path / "all.csv") as fh:
        all_rows = list(csv.DictReader(fh))
    with open(tmp_path / "strong.csv") as fh:
        strong = list(csv.DictReader(fh))
    assert 0 < len(strong) < len(all_rows)
    assert len(strong) <= 0.35 * len(all_rows)
