import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gsfa
from gsfa import (
    ContractError,
    EllFactors,
    ExpansionSpec,
    NegativeEigenvalueWarning,
    ParameterError,
    TrainingGraph,
    build_m_matrix,
    expand,
    expected_noise_delta,
    optimal_free_responses,
    sample_covariance,
    train_node,
    weighted_delta,
)

from conftest import (
    BUILDER_KINDS,
    chain_graph,
    degenerate_blocks_by_loop,
    dense_graph,
    ell_graph_from_seed,
    graph_by_builder,
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


_TIE = gsfa.spectrum.TIE_RTOL


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.one_of(
    st.sampled_from([0.0, -0.0, _TIE, -_TIE, 1.0, 1.0 + _TIE, 1.0 + 2 * _TIE,
                     1.0 - _TIE, -0.5, -0.5 + 0.5 * _TIE, 4.0, 4.0 + 4 * _TIE]),
    st.floats(-10, 10))))
def test_degenerate_blocks_match_the_loop(values):
    eigenvalues = np.sort(values)[::-1]
    assert gsfa.spectrum._degenerate_blocks(eigenvalues) == \
        degenerate_blocks_by_loop(eigenvalues)


@pytest.mark.parametrize("eigenvalues, blocks", [
    ([0.25], [(0, 1)]),
    ([0.0, -_TIE], [(0, 2)]),  # a gap of exactly the threshold is a tie
    ([2.0, 2.0, 2.0], [(0, 3)]),
    ([1.0, 1.0 - 0.5 * _TIE, 0.5, 0.5, 0.0], [(0, 2), (2, 4), (4, 5)]),
    ([3.0, 1.0, -1.0], [(0, 1), (1, 2), (2, 3)]),
])
def test_degenerate_blocks_on_ties(eigenvalues, blocks):
    eigenvalues = np.array(eigenvalues)
    assert gsfa.spectrum._degenerate_blocks(eigenvalues) == blocks
    assert degenerate_blocks_by_loop(eigenvalues) == blocks


@pytest.mark.parametrize("n, k, rank", [
    (40, 4, 4), (40, 6, 3), (5, 9, 5), (1, 1, 1), (1, 3, 1), (300, 6, 6),
    (600, 200, 200), (90, 80, 40)])  # blocked LAPACK code at 200 columns
def test_pivoted_qr_equals_scipy_bit_for_bit(n, k, rank):
    import scipy.linalg

    rng = np.random.default_rng(n + k)
    columns = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, k))
    columns /= np.linalg.norm(columns, axis=0)
    basis, diagonal = gsfa.spectrum._pivoted_householder_qr(columns)
    q, r, _ = scipy.linalg.qr(columns, mode="full", pivoting=True)
    assert basis.shape == (n, n)
    assert basis.tobytes() == q.tobytes()
    assert diagonal.tobytes() == np.abs(np.diagonal(r)).tobytes()


def test_pivoted_qr_holds_one_n_by_n_buffer():
    n = 400
    columns = np.random.default_rng(3).normal(size=(n, 6))
    gsfa.spectrum._pivoted_householder_qr(columns)  # load LAPACK first
    tracemalloc.start()
    try:
        gsfa.spectrum._pivoted_householder_qr(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # scipy.linalg.qr(mode="full") peaks at about three n x n arrays
    assert peak < 1.25 * n * n * 8


def test_inconsistent_graph_rejected():
    with pytest.raises(ContractError, match="consistent"):
        optimal_free_responses(chain_graph(4))


def test_dense_cap(monkeypatch):
    monkeypatch.setattr(gsfa.spectrum, "MAX_DENSE_N", 30)
    with pytest.raises(ParameterError, match="response matrix, capped at N=30"):
        optimal_free_responses(gsfa.build_linear_graph(40))
    with pytest.raises(ParameterError, match="capped at N=30"):
        optimal_free_responses(ell_graph_from_seed(1, 40, 2, nonnegative=False))


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
# exact-label graphs: the factor span against the dense eigh oracle

def _factor_span_problems(graph):
    """Checks of a graph's factor-span spectrum against dense ``eigh``.

    The oracle is the same edge matrix as a plain dense graph, which
    takes the dense path. Returns the names of the checks that fail.
    """
    assert graph.ell is not None
    spec = optimal_free_responses(graph)
    oracle = optimal_free_responses(
        TrainingGraph(graph.vertex_weights, graph.gamma_dense()))
    v, q = graph.vertex_weights, graph.q_sum
    problems = []
    if not np.max(np.abs(spec.deltas - oracle.deltas)) <= 1e-10:
        problems.append("deltas")
    for start, stop in oracle.blocks:
        cross = (spec.responses[:, start:stop].T * v) @ oracle.responses[:, start:stop]
        if not np.linalg.svd(cross / q, compute_uv=False).min() >= 1.0 - 1e-8:
            problems.append(f"canonical correlations in block {start}:{stop}")
    if not np.array_equal(np.flatnonzero(~spec.feasible),
                          np.flatnonzero(~oracle.feasible)):
        problems.append("infeasible index")
    if spec.slow_count() != oracle.slow_count():
        problems.append("slow_count")
    gram = (spec.responses.T * v) @ spec.responses / q
    if not np.max(np.abs(gram - np.eye(graph.n_samples))) <= 1e-12:
        problems.append("orthonormal basis")
    return problems


@st.composite
def _label_graph_cases(draw):
    """An exact-label graph: L 1-5 labels over N 8-200 samples.

    Eigenvalues come from a small set, so ties, a label at 0 (in the
    null block) and negative labels occur; with ``u0_tied`` the
    consistency eigenvalue R/Q equals the first label's.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(8, 200))
    n_labels = draw(st.integers(1, 5))
    values = st.one_of(st.sampled_from([-0.25, 0.0, 0.25, 0.5, 1.0]),
                       st.floats(0.05, 1.0))
    lams = draw(st.lists(values, min_size=n_labels, max_size=n_labels)
                .filter(lambda lams: sum(lams) > 0))
    uniform = draw(st.booleans())
    nonnegative = draw(st.booleans())
    u0_tied = lams[0] > 0 and draw(st.booleans())
    r_scale = draw(st.one_of(st.none(), st.floats(0.2, 5.0)))
    rng = np.random.default_rng(seed)
    v = np.ones(n) if uniform else rng.uniform(0.5, 2.0, n)
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(rng.normal(size=(n_labels, n)), v), v)
    q = float(v.sum())
    target = q * lams[0] if u0_tied else None if r_scale is None else q * r_scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeEigenvalueWarning)
        return gsfa.build_ell_graph(label_set.with_eigenvalues(lams), v,
                                    nonnegative=nonnegative, target_r_sum=target)


@settings(max_examples=60, deadline=None)
@given(graph=_label_graph_cases())
def test_factor_span_spectrum_matches_dense_eigh(graph):
    problems = _factor_span_problems(graph)
    assert not problems, problems


def test_factor_span_u0_shares_its_block():
    # R/Q = 1 = lambda_1 on a graph without elimination: u0 in a tied block
    rng = np.random.default_rng(8)
    v = rng.uniform(0.5, 2.0, 30)
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(rng.normal(size=(3, 30)), v), v)
    graph = gsfa.build_ell_graph(label_set.with_eigenvalues([1.0, 0.5, 0.5]), v,
                                 target_r_sum=float(v.sum()))
    spec = optimal_free_responses(graph)
    assert spec.blocks[0] == (0, 2) and spec.blocks[1] == (2, 4)
    problems = _factor_span_problems(graph)
    assert not problems, problems


def _file_factors(graph, layout, rng):
    """(U, weights) a version-2 graph file may hold for the same edges.

    "dependent" splits each label column into two equal halves and adds
    a weightless combination of labels; "wide" appends N random
    weightless columns (k >= N); "reversed" puts u_0 last and negated;
    "scaled" multiplies the columns by 1e-8 and 1e8 in turn, and divides
    their weights by the squares.
    """
    u, w = np.array(graph.ell.u), np.array(graph.ell.weights)
    n, k = u.shape
    if layout == "dependent":
        u = np.column_stack([u[:, :1], u[:, 1:], u[:, 1:], u[:, 1:].sum(axis=1)])
        w = np.concatenate([w[:1], w[1:] / 2, w[1:] / 2, [0.0]])
    elif layout == "wide":
        u = np.column_stack([u, rng.normal(size=(n, n))])
        w = np.concatenate([w, np.zeros(n)])
    elif layout == "reversed":
        u = np.column_stack([u[:, 1:][:, ::-1], -u[:, 0]])
        w = np.concatenate([w[1:][::-1], w[:1]])
    else:
        scales = np.where(np.arange(k) % 2 == 0, 1e-8, 1e8)
        u, w = u * scales, w / scales**2
    return u, w


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60),
       n_labels=st.integers(1, 5), nonnegative=st.booleans(),
       layout=st.sampled_from(["dependent", "wide", "reversed", "scaled"]))
def test_factor_span_spectrum_of_file_factors(seed, n, n_labels, nonnegative,
                                              layout):
    built = ell_graph_from_seed(seed, n, n_labels, nonnegative=False,
                                uniform=seed % 2 == 0)
    u, w = _file_factors(built, layout, np.random.default_rng(seed))
    graph = TrainingGraph(built.vertex_weights,
                          ell=EllFactors(u, w, nonnegative))
    problems = _factor_span_problems(graph)
    assert not problems, problems


def test_factor_span_null_block_is_exactly_two():
    graph = ell_graph_from_seed(4, 40, 3, nonnegative=True, uniform=False)
    spec = optimal_free_responses(graph)
    assert np.sum(spec.deltas == 2.0) == 40 - 3 - 1
    assert np.all(spec.eigenvalues[4:] == 0.0)


def test_factor_span_never_builds_the_m_matrix(monkeypatch):
    def refuse(graph):
        raise AssertionError("dense M built for an exact-label graph")

    monkeypatch.setattr(gsfa.spectrum, "build_m_matrix", refuse)
    spec = optimal_free_responses(ell_graph_from_seed(2, 30, 2, nonnegative=True))
    assert spec.slow_count() == 2


# ---------------------------------------------------------------------------
# the free-response bound on trained features

@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(BUILDER_KINDS), n=st.integers(2, 15).map(lambda k: 4 * k),
       seed=st.integers(0, 2**32 - 1),
       expansion=st.sampled_from(["identity", "quadratic"]),
       noise=st.sampled_from([0.0, 1e-3, 1.0]))
def test_trained_deltas_respect_the_free_response_bound(kind, n, seed, expansion,
                                                        noise):
    """Trained delta_j >= feasible free-response delta_j - tol_j.

    Trained features are feasible responses in the span of the expanded
    inputs, so by Poincare separation the j-th delta of the unridged
    problem is at least the j-th free-response delta. The tolerance is
    derived from the solver's ridge eps = 1e-10 trace(C)/I, with sigma
    the smallest covariance eigenvalue the solver keeps, less eps:
    - the ridge scales the sphered difference covariance by a diagonal
      congruence with factors in [sigma/(sigma + eps), 1], so by
      Ostrowski's theorem it lowers delta_j by at most
      max(delta_j, 0) eps/sigma;
    - rounding in the sphered problem is at most N u times its
      condition number trace(C)/sigma, on the scale of the largest
      free-response |delta| (u the unit roundoff).
    One input is the slowest free response plus noise, so the first
    trained delta comes close to its bound.
    """
    graph = graph_by_builder(kind, n, seed)
    spec = optimal_free_responses(graph)
    responses, bound = spec.feasible_responses()
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(3, n))
    data[0] = responses[:, 0] + noise * data[0]
    spec_e = ExpansionSpec(expansion)
    node, _ = train_node(data, graph, spec_e)
    deltas = node.gsfa.deltas
    cov = sample_covariance(expand(data, spec_e), graph.vertex_weights)
    trace = float(np.trace(cov))
    ridge = 1e-10 * trace / cov.shape[0]
    eigval = np.linalg.eigvalsh(cov + ridge * np.eye(cov.shape[0]))
    floor = max(2.0 * ridge, 1e-12 * float(max(eigval[-1], 0.0)))
    sigma = float(eigval[eigval > floor].min()) - ridge
    rounding = n * np.finfo(float).eps * trace * float(np.max(np.abs(spec.deltas)))
    tol = (np.maximum(deltas, 0.0) * ridge + rounding) / sigma
    m = min(deltas.size, bound.size)
    assert np.all(deltas[:m] >= bound[:m] - tol[:m])


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
