import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gsfa
from gsfa import (
    ContractError,
    DegenerateGraphError,
    DimensionError,
    FormatError,
    GraphStructure,
    TrainingGraph,
    TruncationWarning,
    check_consistency,
    weighted_delta,
)
from gsfa.graph import (
    elimination_constant,
    ell_elimination_constant,
    group_weights,
)

from conftest import (
    chain_graph,
    checksum_by_one_buffer,
    delta_by_loop,
    dense_graph,
    eliminated_ell_gamma_by_expression,
    ell_gamma_by_expression,
    ell_graph_from_seed,
    fingerprint_by_description,
    fingerprint_by_loop,
    fingerprint_oracle,
    group_sums_by_loop,
    normalize_feature,
    remove_self_loops,
    rounding_gamma,
    shift_by_expression,
    structure_edges,
    symmetrize,
    triplets_by_matrix,
    two_group_cross_graph,
    weighted_delta_by_matrix,
    weighted_delta_fast,
)


# ---------------------------------------------------------------------------
# construction

def test_graph_rejects_nonpositive_vertex_weights():
    with pytest.raises(DegenerateGraphError):
        dense_graph([1.0, 0.0], [[0, 1], [1, 0]])


@pytest.mark.parametrize("storage", [np.array, sp.csr_array],
                         ids=["dense", "csr"])
def test_graph_rejects_asymmetric_edges(storage):
    with pytest.raises(ContractError, match="exactly symmetric"):
        TrainingGraph(np.ones(2), storage(np.array([[0.0, 2.0], [0.0, 0.0]])))


def test_dense_symmetry_check_reads_every_tile(monkeypatch, rng):
    # 3-row tiles over N=8: diagonal, off-diagonal and short edge tiles
    monkeypatch.setattr(gsfa.graph, "DENSE_BLOCK_ROWS", 3)
    n = 8
    gamma = symmetrize(rng.uniform(0.1, 1.0, (n, n)))
    gamma[0, 5] = 0.0
    gamma[5, 0] = -0.0  # equal as numbers, as (g != g.T) compares
    TrainingGraph(np.ones(n), gamma)
    for i, j in zip(*np.triu_indices(n, 1)):
        broken = gamma.copy()
        broken[i, j] = np.nextafter(broken[i, j], 2.0)
        with pytest.raises(ContractError, match="exactly symmetric"):
            TrainingGraph(np.ones(n), broken)


def test_graph_takes_exactly_one_edge_description():
    structure = GraphStructure("clustered", (np.arange(2), np.arange(2, 4)))
    factors = gsfa.EllFactors(np.full((4, 1), 0.5), [1.0])
    gamma = structure_edges(structure, 4)
    for kwargs in ({}, {"edge_weights": gamma, "structure": structure},
                   {"edge_weights": gamma, "ell": factors},
                   {"structure": structure, "ell": factors},
                   {"edge_weights": gamma, "structure": structure,
                    "ell": factors}):
        with pytest.raises(ContractError, match="exactly one"):
            TrainingGraph(np.ones(4), **kwargs)


def test_graph_derives_edges_from_its_description(rng):
    structure = GraphStructure("serial", (np.array([3, 0]), np.array([1, 5]),
                                          np.array([2, 4])))
    graph = TrainingGraph(np.ones(6), structure=structure)
    assert graph.structure is structure and graph.is_sparse
    assert (graph.edge_weights != structure_edges(structure, 6)).nnz == 0
    assert graph.edge_weights.has_canonical_format
    factors = _ell_graph(rng).ell
    graph = TrainingGraph(np.ones(14), ell=factors)
    assert not graph.is_sparse
    np.testing.assert_array_equal(graph.gamma_dense(),
                                  gsfa.ell_gamma(np.ones(14), factors))


def test_ell_description_eliminates_like_the_edges(rng):
    # the nonnegative flag eliminates in the factors, and
    # eliminate_negative_weights on the unmarked graph gives the same bits
    for v in (np.ones(14), rng.uniform(0.5, 2.0, 14)):
        label_set = gsfa.decorrelate_labels(
            gsfa.normalize_labels(rng.normal(size=(3, 14)), v), v)
        factors = gsfa.build_ell_graph(
            label_set.with_eigenvalues([0.5, 0.3, 0.2]), v).ell
        marked = TrainingGraph(v, ell=replace(factors, nonnegative=True))
        c = ell_elimination_constant(v, factors)
        assert c > 0 and marked.ell.nonnegative and marked.gamma_min() >= 0
        assert _same_bits(marked.edge_weights,
                          eliminated_ell_gamma_by_expression(v, factors, c))
        edges = gsfa.eliminate_negative_weights(TrainingGraph(v, ell=factors))
        assert _same_bits(marked.edge_weights, edges.edge_weights)
        assert marked.fingerprint() == edges.fingerprint()


def test_ell_description_without_negative_weights_stays_unmarked():
    # one constant factor column gives a uniform, nonnegative graph
    graph = TrainingGraph(np.ones(4), ell=gsfa.EllFactors(
        np.full((4, 1), 0.5), [1.0], nonnegative=True))
    assert graph.ell.nonnegative is False
    np.testing.assert_array_equal(graph.gamma_dense(), np.full((4, 4), 0.25))


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 21), k=st.integers(1, 4), rows=st.integers(1, 8),
       nonnegative=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_in_place_ell_edges_keep_the_expression_bits(n, k, rows, nonnegative,
                                                     seed):
    # small tiles and row blocks, so that N straddles their boundaries
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.2, 3.0, n)
    factors = gsfa.EllFactors(rng.normal(size=(n, k)),
                              rng.uniform(-1.0, 1.0, k), nonnegative)
    expected = ell_gamma_by_expression(v, factors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsfa.graph, "DENSE_BLOCK_ROWS", rows)
        assert _same_bits(gsfa.ell_gamma(v, factors), expected)
        c = float(np.max(-expected / np.outer(v, v)))
        found = elimination_constant(v, expected)
        assert found == c or max(found, c) <= 0  # a zero's sign may differ
        c = ell_elimination_constant(v, factors)
        shifted = nonnegative and c > 0
        try:
            edges = (eliminated_ell_gamma_by_expression(v, factors, c)
                     if shifted else expected)
            degenerate = edges[edges != 0].sum() <= 0
        except DegenerateGraphError:
            degenerate = True
        if degenerate:
            with pytest.raises(DegenerateGraphError):
                TrainingGraph(v, ell=factors)
            return
        graph = TrainingGraph(v, ell=factors)
    assert _same_bits(graph.edge_weights, edges)
    assert _same_bits(edges, edges.T)
    assert graph.ell.nonnegative == shifted


def _dense_shift_deviation_bound(v, factors, c):
    """Entrywise bound on |gamma - shift_by_expression(v, dense)| and on
    |c - dense c|, where dense = ell_gamma_by_expression(v, factors).

    Relative to A = |D U| |W| |D U|^T (D = Diag(sqrt v)), the dense
    entries carry gamma_{k+6} A of rounding and the dense c gamma_{k+8}
    A/(v v^T); the factor c gamma_{k+5} A/(v v^T). Given its c and R,
    each side's shifted entry is a sum of terms of size
    G = (A + c v v^T)/s with at most 2N + k + 20 roundings each (Q's sum
    twice, squared). The two sides' c and R differ: with
    T(c, R) = (gamma_0 + c v v^T)/(1 + cQ^2/R), |dT/dc| <=
    (v v^T + G Q^2/R)/s and |dT/dR| <= G/R, to first order. Clamping at
    0 never widens a gap to a nonnegative value.
    """
    n, k = factors.u.shape
    dense = ell_gamma_by_expression(v, factors)
    dense_c = float(np.max(-dense / np.outer(v, v)))
    sqrt_v = np.sqrt(v)
    vv = np.outer(v, v)
    au = np.abs(factors.u) * sqrt_v[:, None]
    a = (au * np.abs(factors.weights)) @ au.T / (1 - rounding_gamma(k + 6))
    c_bound = (rounding_gamma(k + 5) + rounding_gamma(k + 8)) * float(np.max(a / vv))
    old = shift_by_expression(v, dense)
    q = float(v.sum())
    r0 = float(factors.weights @ (sqrt_v @ factors.u) ** 2)
    r_dense = float(dense[dense != 0].sum())
    r_lo = min(r0, r_dense)
    new_c, old_c = max(c, 0.0), max(dense_c, 0.0)
    s_lo = 1.0 + min(new_c * q ** 2 / r0, old_c * q ** 2 / r_dense)
    size = (a + max(new_c, old_c) * vv) / s_lo
    bound = (2 * rounding_gamma(2 * n + k + 20) * size
             + (vv + size * q ** 2 / r_lo) / s_lo * abs(new_c - old_c)
             + size * abs(r0 - r_dense) / r_lo)
    return old, bound, dense_c, c_bound


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 40), n_labels=st.integers(1, 4), rows=st.integers(1, 16),
       dependent=st.booleans(), uniform=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_factor_elimination_matches_the_dense_shift(n, n_labels, rows,
                                                    dependent, uniform, seed):
    # factors as a version-2 file may hold them: u_0 not first, columns
    # scaled, a dependent column, negative weights; row blocks straddle N
    rng = np.random.default_rng(seed)
    v = np.ones(n) if uniform else rng.uniform(0.2, 3.0, n)
    q = v.sum()
    sqrt_v = np.sqrt(v)
    labels = rng.normal(size=(n_labels, n))
    labels -= (labels @ v)[:, None] / q
    cols = [sqrt_v / np.sqrt(q)] + [sqrt_v * label / np.sqrt(q) for label in labels]
    weights = [rng.uniform(0.5, 2.0)] + list(rng.uniform(-1.0, 1.0, n_labels))
    if dependent:
        a, b = rng.integers(len(cols), size=2)
        cols.append(rng.normal() * cols[a] + rng.normal() * cols[b])
        weights.append(rng.uniform(-1.0, 1.0))
    scale = 2.0 ** rng.integers(-3, 4, len(cols)) * rng.uniform(0.5, 1.0, len(cols))
    order = rng.permutation(len(cols))
    factors = gsfa.EllFactors(np.column_stack(cols)[:, order] * scale[order],
                              np.array(weights)[order] / scale[order] ** 2,
                              nonnegative=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsfa.graph, "DENSE_BLOCK_ROWS", rows)
        c = ell_elimination_constant(v, factors)
        try:
            graph = TrainingGraph(v, ell=factors)
        except DegenerateGraphError:
            r0 = float(factors.weights @ (sqrt_v @ factors.u) ** 2)
            assert r0 <= 0 if c > 0 else c <= 0
            return
    gamma = graph.edge_weights
    assert graph.ell.nonnegative == (c > 0)
    assert _same_bits(gamma, gamma.T)
    if c > 0:
        assert gamma.min() >= 0
    try:
        old, bound, dense_c, c_bound = _dense_shift_deviation_bound(v, factors, c)
    except DegenerateGraphError:
        return  # the dense R rounds to <= 0: there is no dense shift
    assert abs(c - dense_c) <= c_bound
    assert np.all(np.abs(gamma - old) <= bound)


def test_factor_elimination_matches_the_dense_shift_at_n_2000():
    # the benchmark's shape: a label and three cosines, uniform weights
    n = 2000
    y = np.random.default_rng(3).uniform(0.0, 1.0, n)
    v = np.ones(n)
    raw = np.vstack([y, gsfa.auxiliary_labels(y, 4)])
    label_set = gsfa.decorrelate_labels(gsfa.normalize_labels(raw, v), v)
    graph = gsfa.build_ell_graph(label_set.with_eigenvalues([0.4, 0.3, 0.2, 0.1]),
                                 v, nonnegative=True)
    c = ell_elimination_constant(v, graph.ell)
    factors = replace(graph.ell, nonnegative=False)
    old, bound, dense_c, c_bound = _dense_shift_deviation_bound(v, factors, c)
    assert c > 0 and abs(c - dense_c) <= c_bound
    assert np.all(np.abs(graph.edge_weights - old) <= bound)


def test_structure_index_outside_graph_rejected():
    structure = GraphStructure("clustered", (np.array([0, 1]), np.array([2, 4])))
    with pytest.raises(ContractError, match="index 4 outside"):
        TrainingGraph(np.ones(4), structure=structure)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 24), k=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_derived_edges_are_exactly_symmetric(n, k, seed):
    # the constructor does not compare derived edges with their
    # transpose; this is the property that makes skipping it safe
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    size = n // k
    groups = tuple(order[g * size:(g + 1) * size] for g in range(k))
    v = rng.uniform(0.2, 3.0, n)
    graphs = [TrainingGraph(np.ones(n), structure=GraphStructure(kind, groups))
              for kind in ("clustered", "serial")]
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(rng.normal(size=(min(k, n - 1), n)), v), v)
    for nonnegative in (False, True):
        graphs.append(gsfa.build_ell_graph(label_set, v,
                                           nonnegative=nonnegative))
    for graph in graphs:
        gamma = graph.gamma_dense()
        assert np.array_equal(gamma, gamma.T)


@pytest.mark.parametrize("storage", [np.array, sp.csr_array],
                         ids=["dense", "csr"])
def test_graph_rejects_nan_edge_as_not_finite(storage):
    # NaN != NaN, so a symmetry check run first would misreport this
    gamma = np.array([[0.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(DegenerateGraphError, match="finite"):
        TrainingGraph(np.ones(2), storage(gamma))


def test_graph_rejects_nonpositive_edge_sum():
    with pytest.raises(DegenerateGraphError):
        dense_graph([1.0, 1.0], [[0, -1], [-1, 0]])


def test_sparse_and_dense_storage_agree():
    gamma = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    v = np.array([1.0, 2.0, 1.0])
    dense = TrainingGraph(v, gamma)
    sparse = TrainingGraph(v, sp.csr_array(gamma))
    assert sparse.is_sparse and not dense.is_sparse
    assert dense.q_sum == sparse.q_sum
    assert dense.r_sum == sparse.r_sum
    np.testing.assert_array_equal(dense.gamma_row_sums(), sparse.gamma_row_sums())
    np.testing.assert_array_equal(dense.gamma_diagonal(), sparse.gamma_diagonal())
    np.testing.assert_allclose(dense.gamma_dense(), sparse.gamma_dense())
    # all stored weights are positive: the implicit zeros are the minimum
    assert dense.gamma_min() == sparse.gamma_min() == 0.0
    y = np.array([0.3, -1.0, 2.0])
    assert dense.gamma_quad(y) == pytest.approx(sparse.gamma_quad(y))
    assert dense.fingerprint() == sparse.fingerprint()
    for gamma in (np.array([[1.0, -1.0], [-1.0, 4.0]]),
                  np.array([[0.5, 2.0], [2.0, 1.0]])):
        full = TrainingGraph(np.ones(2), sp.csr_array(gamma))
        assert full.gamma_min() == TrainingGraph(np.ones(2), gamma).gamma_min()
        assert full.gamma_min() == gamma.min()


@pytest.mark.parametrize("make_graph", [
    lambda rng: gsfa.build_serial_graph(rng.normal(size=30), 6),
    lambda rng: gsfa.build_clustered_graph([4, 2, 7, 5]),
    lambda rng: gsfa.build_linear_graph(9),
    lambda rng: _ell_graph(rng),
], ids=["serial", "clustered", "linear-csr", "ell-dense"])
def test_gamma_quad_of_a_matrix_is_the_dense_product(make_graph, rng):
    graph = make_graph(rng)
    data = rng.normal(size=(3, graph.n_samples))
    expected = data @ graph.gamma_dense() @ data.T
    np.testing.assert_allclose(graph.gamma_quad(data), expected,
                               rtol=1e-13, atol=1e-13 * np.abs(expected).max())
    quad = graph.gamma_quad(data[1])
    assert type(quad) is float
    assert quad == pytest.approx(expected[1, 1], rel=1e-13)


def test_structure_edges_follow_group_weights():
    structure = GraphStructure("serial", (np.array([3, 0]), np.array([1]),
                                          np.array([4, 2])))
    membership, weights = group_weights(structure, 6)
    np.testing.assert_array_equal(membership.toarray().sum(axis=1),
                                  [1, 1, 1, 1, 1, 0])
    np.testing.assert_array_equal(weights, np.eye(3, k=1) + np.eye(3, k=-1))
    expected = np.zeros((6, 6))
    for a, b in [(3, 1), (0, 1), (1, 4), (1, 2)]:
        expected[a, b] = expected[b, a] = 1.0
    for edges in (structure_edges(structure, 6),
                  TrainingGraph(np.ones(6), structure=structure).edge_weights):
        np.testing.assert_array_equal(edges.toarray(), expected)
    clustered = GraphStructure("clustered", (np.array([0, 2, 5]),))
    expected = np.zeros((6, 6))
    expected[np.ix_([0, 2, 5], [0, 2, 5])] = 0.5
    np.fill_diagonal(expected, 0.0)
    for edges in (structure_edges(clustered, 6),
                  TrainingGraph(np.ones(6), structure=clustered).edge_weights):
        np.testing.assert_array_equal(edges.toarray(), expected)


# ---------------------------------------------------------------------------
# fingerprint and read-only storage

def _ell_graph(rng, nonnegative=False):
    v = np.ones(14)
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(rng.normal(size=(2, 14)), v), v)
    return gsfa.build_ell_graph(label_set.with_eigenvalues([0.7, 0.3]), v,
                                nonnegative=nonnegative)


def test_ell_graph_carries_its_factors(rng):
    graph = _ell_graph(rng)
    np.testing.assert_array_equal(
        graph.gamma_dense(), gsfa.ell_gamma(graph.vertex_weights, graph.ell))
    assert graph.ell.u.shape == (14, 3)
    assert graph.ell.weights[0] == 1.0  # R/Q for the default R = Q
    assert not graph.ell.nonnegative
    assert not graph.ell.u.flags.writeable
    eliminated = gsfa.eliminate_negative_weights(graph)
    assert eliminated.ell.nonnegative
    np.testing.assert_array_equal(eliminated.ell.u, graph.ell.u)
    with pytest.raises(DimensionError, match="2 rows"):
        TrainingGraph(np.ones(3), ell=gsfa.EllFactors(np.ones((2, 2)), [1.0, 0.0]))


def _fingerprint_cases(rng):
    m = rng.normal(size=(12, 12)) * (rng.random((12, 12)) < 0.3)
    gamma = m + m.T + 0.25
    v = rng.uniform(1.0, 2.0, 12)
    ell = _ell_graph(rng)
    assert ell.gamma_min() < 0
    return {
        "random-dense": TrainingGraph(v, gamma),
        "random-csr": TrainingGraph(v, sp.csr_array(gamma)),
        "linear-self-loops": gsfa.build_linear_graph(7, "self_loop_extended"),
        "ell-negative": ell,
        "ell-eliminated": gsfa.eliminate_negative_weights(ell),
        "ell-nonnegative": _ell_graph(rng, nonnegative=True),
        "serial": gsfa.build_serial_graph(rng.normal(size=15), 5),
        "clustered": gsfa.build_clustered_graph([2, 4, 3]),
    }


def _as_edges(graph):
    """The graph of the same edges (dense or CSR) without its description."""
    return TrainingGraph(graph.vertex_weights, graph.edge_weights)


def test_fingerprint_matches_loop_oracle(rng):
    # edge-only graphs hash their triplets (scheme 1), described graphs
    # their description (scheme 2); the edges of a described graph still
    # hash like the scheme-1 oracle when they are all the graph has
    cases = _fingerprint_cases(rng)
    for name, graph in cases.items():
        described = graph.ell is not None or graph.structure is not None
        assert described == name.startswith(("ell", "serial", "clustered")), name
        assert graph.fingerprint() == fingerprint_oracle(graph), name
        assert ("scheme" in graph.fingerprint()) == described, name
        edges = _as_edges(graph)
        assert edges.fingerprint() == fingerprint_by_loop(edges), name
        assert edges.r_sum == graph.r_sum, name
    assert (cases["random-dense"].fingerprint()
            == cases["random-csr"].fingerprint())


def test_fingerprint_checksum_pinned():
    # scheme 1: the per-triplet hash of earlier releases, unchanged
    assert (gsfa.build_linear_graph(7).fingerprint()
            == {"n": 7, "q_sum": 7.0, "r_sum": 14.0, "checksum": "6810bb0fecd14b90"})
    assert (gsfa.build_linear_graph(7, "endpoint_halved_vertex_weights")
            .fingerprint()["checksum"] == "a1237e3abebf7e8d")
    # scheme 2: the description of a serial and a clustered graph
    assert (gsfa.build_serial_graph(np.arange(12.0), 4).fingerprint()
            == {"n": 12, "q_sum": 18.0, "r_sum": 54.0, "scheme": 2,
                "checksum": "e03af47408aef8f2"})
    assert (gsfa.build_clustered_graph([2, 3]).fingerprint()
            == {"n": 5, "q_sum": 5.0, "r_sum": 5.0, "scheme": 2,
                "checksum": "7fbe868997d4c1ba"})


def test_fingerprint_copies_are_independent():
    graph = gsfa.build_serial_graph(np.arange(12.0), 4)
    first = graph.fingerprint()
    first["checksum"] = "tampered"
    first["n"] = -1
    first["scheme"] = 1
    assert graph.fingerprint() == fingerprint_by_description(graph)
    model = gsfa.train_gsfa(np.random.default_rng(0).normal(size=(3, 12)),
                            graph, n_features=2)
    model.trained_on["checksum"] = "tampered"
    assert graph.fingerprint() == fingerprint_by_description(graph)


def test_dense_checksum_hashes_rows_with_zeros():
    holes = np.full((6, 6), 0.5)
    holes[0, 0] = holes[5, 5] = 0.0           # zero diagonal entries
    holes[4, :] = holes[:, 4] = 0.0           # an all-zero row
    negative = np.full((5, 5), 0.5)
    negative[1, 2] = negative[2, 1] = -0.5    # c = 0.5 clamps it to zero
    clamped = gsfa.eliminate_negative_weights(dense_graph(np.ones(5), negative))
    assert clamped.edge_weights[1, 2] == 0.0
    for graph in (dense_graph(np.ones(6), holes), clamped):
        assert graph.fingerprint() == fingerprint_by_loop(graph)
        assert graph.fingerprint()["checksum"] == checksum_by_one_buffer(graph)
        for part, expected in zip(graph._triplet_arrays(),
                                  triplets_by_matrix(graph)):
            np.testing.assert_array_equal(part, expected)


def test_blocked_checksum_equals_one_buffer_digest(rng, monkeypatch):
    cases = _fingerprint_cases(rng)
    monkeypatch.setattr(gsfa.graph, "_TRIPLET_BLOCK", 5)
    for name, graph in cases.items():
        n_triplets = triplets_by_matrix(graph)[2].size
        assert n_triplets > 5, name
        assert len(list(graph._triplet_blocks())) > 1, name
        for part, expected in zip(graph._triplet_arrays(),
                                  triplets_by_matrix(graph)):
            np.testing.assert_array_equal(part, expected)
        # a described graph hashes its description; its edges, as a
        # graph of their own, hash in blocks
        edges = graph if "scheme" not in graph.fingerprint() else _as_edges(graph)
        assert len(list(edges._triplet_blocks())) > 1, name
        assert edges.fingerprint()["checksum"] == checksum_by_one_buffer(graph)


def _group_structure(kind, n, k, in_groups, seed):
    """k shuffled groups over part of range(n); the rest in no group."""
    rng = np.random.default_rng(seed)
    smallest = 2 if kind == "clustered" else 1
    members = rng.permutation(n)[:max(2, round(in_groups * n))]
    k = min(k, members.size // smallest)
    sizes = smallest + rng.multinomial(members.size - smallest * k,
                                       np.full(k, 1.0 / k))
    return GraphStructure(kind, tuple(np.split(members, np.cumsum(sizes)[:-1])))


def _assert_groups_equal_csr(graph, rng):
    """The groups sum their edges like the group loop and list the CSR's.

    Row sums and R are the bits of :func:`group_sums_by_loop`. Against
    the CSR of the same edges they are the same bits for a serial graph
    (integer sums) and agree to 1e-15 relative for a clustered one.
    """
    n = graph.n_samples
    csr = TrainingGraph(graph.vertex_weights,
                        structure_edges(graph.structure, n))
    row_sums, r_sum = group_sums_by_loop(graph.structure, n)
    assert graph.r_sum == r_sum
    assert graph.gamma_row_sums().tobytes() == row_sums.tobytes()
    if graph.structure.kind == "serial":
        assert graph.r_sum == csr.r_sum
        assert graph.gamma_row_sums().tobytes() == csr.gamma_row_sums().tobytes()
    else:
        assert graph.r_sum == pytest.approx(csr.r_sum, rel=1e-15, abs=0)
        np.testing.assert_allclose(graph.gamma_row_sums(), csr.gamma_row_sums(),
                                   rtol=1e-15, atol=0)
    assert graph.gamma_diagonal().tobytes() == csr.gamma_diagonal().tobytes()
    assert graph.gamma_min() == csr.gamma_min()
    for part, expected in zip(graph._triplet_arrays(), csr._triplet_arrays()):
        assert part.tobytes() == expected.astype(part.dtype).tobytes()
    # the same n and Q; the checksum hashes the groups (scheme 2)
    assert graph.fingerprint() == {
        **csr.fingerprint(), "r_sum": r_sum, "scheme": 2,
        "checksum": fingerprint_by_description(graph)["checksum"]}
    data = rng.normal(size=(3, n))
    expected = csr.gamma_quad(data)
    np.testing.assert_allclose(graph.gamma_quad(data), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["clustered", "serial"]), n=st.integers(2, 40),
       k=st.integers(2, 9), in_groups=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_group_storage_equals_structure_csr(kind, n, k, in_groups, seed):
    structure = _group_structure(kind, n, k, in_groups, seed)
    rng = np.random.default_rng(seed)
    graph = TrainingGraph(rng.uniform(0.5, 2.0, n), structure=structure)
    assert graph.structure is structure and graph.is_sparse
    _assert_groups_equal_csr(graph, rng)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 60), k=st.integers(2, 7),
       seed=st.integers(0, 2**32 - 1))
def test_truncated_serial_groups_equal_structure_csr(n, k, seed):
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        graph = gsfa.build_serial_graph(rng.normal(size=n), min(k, n),
                                        policy="truncate")
    _assert_groups_equal_csr(graph, rng)


def test_clustered_sums_in_closed_form(rng):
    graph = gsfa.build_clustered_graph([3, 7, 11, 5])
    assert graph.r_sum == 26.0
    assert check_consistency(graph).max_residual == 0.0
    # (1/49) * 49 rounds below 1: a row sum that is not an integer
    graph = TrainingGraph(rng.uniform(0.5, 2.0, 170), structure=GraphStructure(
        "clustered", tuple(np.split(rng.permutation(170), [50, 53, 157]))))
    assert graph.gamma_row_sums().min() < 1.0
    _assert_groups_equal_csr(graph, rng)
    # R is the correctly rounded sum; a left-to-right sum gives 3600.0
    graph = gsfa.build_clustered_graph([50, 98, 104, 108] * 10)
    row_sums, r_sum = group_sums_by_loop(graph.structure, graph.n_samples)
    assert graph.gamma_row_sums().tobytes() == row_sums.tobytes()
    assert graph.r_sum == r_sum == 3599.9999999999995


def test_clustered_graph_builds_without_its_edges():
    tracemalloc.start()
    try:
        graph = gsfa.build_clustered_graph([2000] * 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.r_sum == group_sums_by_loop(graph.structure, 20_000)[1]
    # one float per edge, 10 x 2000 x 1999 of them, would take 320 MB
    assert peak < 16 * 2**20


def _random_ell_factors(rng, n, k):
    """Random factors with a positive u_0 and weights: R > 0."""
    u = rng.normal(size=(n, k))
    u[:, 0] = rng.uniform(0.5, 1.5, n)
    return gsfa.EllFactors(u, rng.uniform(0.1, 1.0, k))


def _checksum(graph):
    checksum = graph.fingerprint()["checksum"]
    assert graph.fingerprint() == fingerprint_by_description(graph)
    return checksum


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["clustered", "serial"]), n=st.integers(3, 40),
       k=st.integers(2, 9), in_groups=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_structure_checksum_is_its_description(kind, n, k, in_groups, seed):
    rng = np.random.default_rng(seed)
    structure = _group_structure(kind, n, k, in_groups, seed)
    groups = [grp.copy() for grp in structure.groups]
    v = rng.uniform(0.5, 2.0, n)

    def graph_of(v, groups, kind=kind):
        return TrainingGraph(v, structure=GraphStructure(kind, tuple(groups)))

    checksum = _checksum(graph_of(v, groups))
    # the same description from other arrays: int32 members, copied v
    assert _checksum(graph_of(v.copy(), [grp.astype(np.int32)
                                         for grp in groups])) == checksum
    changed = []
    heavier = v.copy()
    heavier[rng.integers(n)] *= 1.5
    changed.append(graph_of(heavier, groups))
    if len(groups) > 1:
        swapped = [grp.copy() for grp in groups]
        swapped[0][0], swapped[1][0] = groups[1][0], groups[0][0]
        changed.append(graph_of(v, swapped))
        if kind == "serial":
            changed.append(graph_of(v, groups[::-1]))
        else:
            changed.append(graph_of(v, groups, kind="serial"))
    outside = np.setdiff1d(np.arange(n), np.concatenate(groups))
    if outside.size:
        moved = [grp.copy() for grp in groups]
        moved[-1][-1] = outside[0]
        changed.append(graph_of(v, moved))
    for graph in changed:
        assert _checksum(graph) != checksum


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 30), k=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_ell_checksum_is_its_description(n, k, seed):
    rng = np.random.default_rng(seed)
    factors = _random_ell_factors(rng, n, k)
    v = rng.uniform(0.5, 2.0, n)
    graph = TrainingGraph(v, ell=factors)
    checksum = _checksum(graph)
    # equal factors held in Fortran order hash alike
    fortran = gsfa.EllFactors(np.asfortranarray(factors.u), factors.weights.copy())
    assert not fortran.u.flags.c_contiguous or k == 1
    assert _checksum(TrainingGraph(v.copy(), ell=fortran)) == checksum
    heavier = v.copy()
    heavier[rng.integers(n)] *= 1.5
    u = factors.u.copy()
    u[rng.integers(n), rng.integers(k)] += 0.25
    weights = factors.weights.copy()
    weights[rng.integers(k)] *= 1.5
    changed = [TrainingGraph(heavier, ell=factors),
               TrainingGraph(v, ell=replace(factors, u=u)),
               TrainingGraph(v, ell=replace(factors, weights=weights))]
    flipped = TrainingGraph(v, ell=replace(factors, nonnegative=True))
    # the flag is kept only where a weight was negative
    assert flipped.ell.nonnegative == (graph.gamma_min() < 0)
    if flipped.ell.nonnegative:
        changed.append(flipped)
    for other in changed:
        assert _checksum(other) != checksum


def test_fingerprint_never_expands_a_description(rng, monkeypatch):
    def refuse(self):
        raise AssertionError("the fingerprint listed the edges")

    for backend in (gsfa.graph._DenseEdges, gsfa.graph._CsrEdges,
                    gsfa.graph._GroupEdges):
        monkeypatch.setattr(backend, "triplet_blocks", refuse)
    ell = _ell_graph(rng)
    for graph in (gsfa.build_serial_graph(rng.normal(size=30), 6),
                  gsfa.build_clustered_graph([4, 2, 7, 5]),
                  ell, gsfa.eliminate_negative_weights(ell),
                  gsfa.build_serial_graph(np.arange(100_000.0), 1000)):
        assert graph.fingerprint() == fingerprint_by_description(graph)
    with pytest.raises(AssertionError, match="listed the edges"):
        gsfa.build_linear_graph(5).fingerprint()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["clustered", "serial", "serial-truncated"]),
       n=st.integers(2, 40), k=st.integers(2, 9), in_groups=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_structure_graph_file_round_trip(tmp_path_factory, kind, n, k,
                                         in_groups, seed):
    rng = np.random.default_rng(seed)
    if kind == "serial-truncated":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            graph = gsfa.build_serial_graph(rng.normal(size=n), min(k, n),
                                            policy="truncate")
    else:
        graph = TrainingGraph(rng.uniform(0.5, 2.0, n), structure=_group_structure(
            kind, n, k, in_groups, seed))
    path = tmp_path_factory.mktemp("structure") / "graph.json"
    gsfa.save_graph(graph, path)
    data = json.loads(path.read_text())
    assert data["format_version"] == 2 and "edges" not in data
    with pytest.MonkeyPatch.context() as patch:
        _refuse_structure_matrix(patch)
        loaded = gsfa.load_graph(path)
        assert loaded.structure.kind == graph.structure.kind
        assert [grp.tolist() for grp in loaded.structure.groups] == [
            grp.tolist() for grp in graph.structure.groups]
        assert loaded.vertex_weights.tobytes() == graph.vertex_weights.tobytes()
        assert loaded.gamma_row_sums().tobytes() == graph.gamma_row_sums().tobytes()
        assert loaded.fingerprint() == graph.fingerprint()
    again = path.with_name("again.json")
    gsfa.save_graph(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _refuse_structure_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the N x N structure matrix was built")

    monkeypatch.setattr(gsfa.graph._GroupEdges, "view", refuse)


def test_training_never_builds_the_structure_matrix(rng, monkeypatch):
    _refuse_structure_matrix(monkeypatch)
    images = rng.normal(size=(48, 4, 4))
    for graph in (gsfa.build_serial_graph(rng.normal(size=48), 6),
                  gsfa.build_clustered_graph([8] * 6)):
        with pytest.raises(AssertionError, match="structure matrix"):
            graph.edge_weights
        model = gsfa.train_gsfa(images.reshape(48, -1).T, graph, n_features=3)
        assert model.trained_on == graph.fingerprint()
        network = gsfa.train_hgsfa(images, graph, [
            gsfa.LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                           expansion=gsfa.ExpansionSpec("quadratic")),
            gsfa.LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2),
        ])
        assert network.layers[-1][(0, 0)].gsfa.n_features == 2


@pytest.mark.parametrize("part", ["data", "indices", "indptr"])
def test_sparse_storage_is_read_only(part):
    gamma = sp.csr_array(two_group_cross_graph().gamma_dense())
    graph = TrainingGraph(np.ones(4), gamma)
    with pytest.raises(ValueError):
        getattr(graph.edge_weights, part)[0] = 3
    getattr(gamma, part)[0] = 3  # the caller's matrix stays its own
    assert graph.r_sum == 8.0
    assert graph.fingerprint() == two_group_cross_graph().fingerprint()


def test_dense_storage_is_read_only(rng):
    gamma = two_group_cross_graph().gamma_dense()
    graph = TrainingGraph(np.ones(4), gamma)
    with pytest.raises(ValueError):
        graph.edge_weights[0, 2] = 5.0
    gamma[0, 2] = gamma[2, 0] = 5.0  # the caller's matrix stays its own
    assert graph.edge_weights[0, 2] == 1.0
    assert graph.fingerprint() == two_group_cross_graph().fingerprint()
    derived = _ell_graph(rng, nonnegative=True)
    assert not derived.edge_weights.flags.writeable
    with pytest.raises(ValueError):
        derived.edge_weights[0, 0] = 1.0


def test_sparse_duplicates_are_summed():
    # Row 0 stores (0, 1) twice; row 1 stores (1, 0) twice and (1, 1).
    raw = sp.csr_array((np.array([1.0, 2.0, 1.0, 2.0, 1.0]),
                        np.array([1, 1, 0, 0, 1]), np.array([0, 2, 5])),
                       shape=(2, 2))
    v = np.array([1.0, 2.0])
    summed = TrainingGraph(v, raw)
    dense = TrainingGraph(v, [[0.0, 3.0], [3.0, 1.0]])
    assert summed.edge_weights.nnz == 3
    assert summed.fingerprint() == dense.fingerprint()


@pytest.mark.parametrize("transform", [gsfa.eliminate_negative_weights])
def test_dense_transforms_own_their_copy(transform, rng):
    # the transformed copy is kept, not copied and compared again: the
    # result equals the graph of the same matrix passed by a caller
    m = rng.normal(size=(9, 9))
    graph = TrainingGraph(rng.uniform(0.5, 2.0, 9), m + m.T + 1.0)
    out = transform(graph)
    assert out is not graph and not out.is_sparse
    gamma = out.edge_weights
    assert not gamma.flags.writeable
    assert not np.shares_memory(gamma, graph.edge_weights)
    same = TrainingGraph(graph.vertex_weights, gamma)
    assert _same_bits(same.edge_weights, gamma)
    assert out.fingerprint() == same.fingerprint()
    np.testing.assert_array_equal(out.gamma_row_sums(), same.gamma_row_sums())


# ---------------------------------------------------------------------------
# symmetrize: the conftest helper other tests build random edges with

def test_symmetrize_definition():
    np.testing.assert_allclose(symmetrize([[0, 2], [0, 0]]), [[0, 1], [1, 0]])
    np.testing.assert_allclose(symmetrize([[1, 3], [1, 1]]), [[1, 2], [2, 1]])


def test_symmetrize_fixed_point():
    m = np.array([[1.0, 0.25], [0.25, 2.0]])
    np.testing.assert_array_equal(symmetrize(m), m)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(DimensionError):
        symmetrize(np.zeros((2, 3)))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_symmetrize_idempotent(n, seed):
    raw = np.random.default_rng(seed).normal(size=(n, n))
    once = symmetrize(raw)
    np.testing.assert_allclose(symmetrize(once), once, atol=1e-15)


# ---------------------------------------------------------------------------
# consistency

def test_consistency_two_group_cross():
    report = check_consistency(two_group_cross_graph())
    assert report.ok
    assert report.max_residual == 0.0


def test_consistency_uniform_chain_fails():
    graph = chain_graph(3)
    report = check_consistency(graph)
    assert not report.ok
    # gamma*1 = (1,2,1), Q/R = 3/4 -> residual (1/4, -1/2, 1/4)
    np.testing.assert_allclose(report.residual, [0.25, -0.5, 0.25])


def test_consistency_tolerance_is_relative_to_max_weight():
    # v = (Q/R) gamma 1 holds for the cross graph; scaling v keeps it, and
    # a residual of a quarter of the tolerance passes, four times fails
    graph = two_group_cross_graph()
    for scale in (1e-6, 1.0, 1e6):
        tol = gsfa.graph.DEFAULT_CONSISTENCY_RTOL * scale
        for off, ok in ((0.25 * tol, True), (4.0 * tol, False)):
            v = scale * np.ones(4)
            v[0] += off
            report = check_consistency(dense_graph(v, graph.gamma_dense()))
            assert report.ok is ok and report.tol == pytest.approx(tol, rel=1e-6)


def test_consistency_invariant_under_edge_scaling():
    graph = two_group_cross_graph()
    scaled = dense_graph(graph.vertex_weights, 7.5 * graph.gamma_dense())
    base = check_consistency(graph)
    after = check_consistency(scaled)
    assert base.ok and after.ok
    np.testing.assert_allclose(after.residual, base.residual, atol=1e-12)


# ---------------------------------------------------------------------------
# delta values

def test_weighted_delta_chain_example():
    graph = chain_graph(3)  # R = 4
    assert weighted_delta(graph, np.array([-1.0, 0.0, 1.0])) == pytest.approx(1.0)


def test_weighted_delta_constant_feature():
    assert weighted_delta(two_group_cross_graph(), np.full(4, 3.7)) == 0.0


def test_weighted_delta_constant_within_components():
    graph = gsfa.build_clustered_graph([2, 2])
    assert weighted_delta(graph, np.array([1.0, 1.0, -1.0, -1.0])) == 0.0


def test_weighted_delta_matches_loop_oracle(rng):
    for _ in range(5):
        n = 7
        gamma = symmetrize(rng.uniform(0, 1, size=(n, n)))
        graph = dense_graph(rng.uniform(0.5, 2.0, n), gamma)
        y = rng.normal(size=n)
        assert weighted_delta(graph, y) == pytest.approx(
            delta_by_loop(graph, y), rel=1e-12)


@pytest.mark.parametrize("block", [5, 13, 40, 5000, None],
                         ids=["block-5", "block-13", "block-40", "block-5000",
                              "default"])
def test_weighted_delta_equals_whole_matrix_sum(rng, monkeypatch, block):
    # each pair once, doubled: blocks below N hold one dense row, above it several
    if block is not None:
        monkeypatch.setattr(gsfa.graph, "_TRIPLET_BLOCK", block)
        monkeypatch.setattr(gsfa.graph, "DENSE_BLOCK_ROWS", block)
    cases = _fingerprint_cases(rng)
    # more rows than one dense block holds at the default block size
    cases["ell-600"] = ell_graph_from_seed(7, 600, 3, nonnegative=True,
                                           uniform=False)
    for name, graph in cases.items():
        for y in rng.normal(size=(3, graph.n_samples)):
            expected = weighted_delta_by_matrix(graph, y)
            assert weighted_delta(graph, y) == pytest.approx(
                expected, rel=1e-12, abs=1e-300), name


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["clustered", "serial"]), n=st.integers(2, 40),
       k=st.integers(2, 9), in_groups=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1), block=st.integers(2, 64))
def test_group_delta_equals_its_csr_delta(kind, n, k, in_groups, seed, block):
    # Both sides sum the same m >= nnz nonnegative terms g (y_j - y_i)^2,
    # each rounded at most 4 times, in at most m - 1 additions, and divide
    # by their own R: the groups' closed form (gamma_{K+2}) or the CSR's
    # sum (gamma_{nnz-1}). Each is within gamma_{m+nnz+K+6} of the exact
    # S/R of the same rounded weights.
    structure = _group_structure(kind, n, k, in_groups, seed)
    rng = np.random.default_rng(seed)
    graph = TrainingGraph(rng.uniform(0.5, 2.0, n), structure=structure)
    csr = TrainingGraph(graph.vertex_weights, graph.edge_weights)
    membership, weights = group_weights(structure, n)
    sizes = np.asarray(membership.sum(axis=0)).ravel()
    terms = float(sizes @ (weights != 0) @ sizes)
    bound = rounding_gamma(terms + csr.edge_weights.nnz + sizes.size + 6)
    y = rng.normal(size=n)
    # block 1 splits every group of two or more members
    for size in (1, block, None):
        with pytest.MonkeyPatch.context() as mp:
            if size is not None:
                mp.setattr(gsfa.graph, "_TRIPLET_BLOCK", size)
            expected = weighted_delta(csr, y)
            assert abs(weighted_delta(graph, y) - expected) <= (
                2 * bound / (1 - bound) * expected)


def test_weighted_delta_dimension_mismatch():
    with pytest.raises(DimensionError):
        weighted_delta(chain_graph(3), np.zeros(4))


@settings(max_examples=40, deadline=None)
@given(st.floats(-8, 8, allow_nan=False), st.integers(0, 10_000))
def test_weighted_delta_quadratic_homogeneity(a, seed):
    rng = np.random.default_rng(seed)
    gamma = symmetrize(rng.uniform(0, 1, size=(5, 5)))
    graph = dense_graph(rng.uniform(0.5, 2.0, 5), gamma)
    y = rng.normal(size=5)
    base = weighted_delta(graph, y)
    assert weighted_delta(graph, a * y) == pytest.approx(a * a * base, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_weighted_delta_nonnegative_for_nonnegative_weights(seed):
    rng = np.random.default_rng(seed)
    gamma = symmetrize(rng.uniform(0, 1, size=(6, 6)))
    graph = dense_graph(rng.uniform(0.5, 2.0, 6), gamma)
    assert weighted_delta(graph, rng.normal(size=6)) >= 0.0


# weighted_delta_fast: the conftest closed-form oracle of weighted_delta
# (2 - (2/R) y' gamma y on consistent graphs and normalized features)

def test_weighted_delta_fast_hand_example():
    graph = two_group_cross_graph()
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    assert weighted_delta_fast(graph, y) == pytest.approx(4.0)
    assert weighted_delta(graph, y) == pytest.approx(4.0)


def test_weighted_delta_fast_matches_direct_on_free_response():
    graph = two_group_cross_graph()
    spec = gsfa.optimal_free_responses(graph)
    y, _ = spec.feasible_responses()
    fast = weighted_delta_fast(graph, y[:, 0])
    direct = weighted_delta(graph, y[:, 0])
    assert fast == pytest.approx(direct, abs=1e-10)


def test_weighted_delta_fast_gates_zero_mean():
    graph = two_group_cross_graph()
    with pytest.raises(ContractError, match="zero mean"):
        weighted_delta_fast(graph, np.array([1.0, 1.0, 1.0, 2.0]))


def test_weighted_delta_fast_gates_unit_variance():
    graph = two_group_cross_graph()
    with pytest.raises(ContractError, match="variance"):
        weighted_delta_fast(graph, np.array([-2.0, -2.0, 2.0, 2.0]))


def test_weighted_delta_fast_gates_consistency():
    with pytest.raises(ContractError, match="consistency"):
        weighted_delta_fast(chain_graph(3), normalize_feature(
            np.array([-1.0, 0.0, 1.0]), np.ones(3)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["serial", "clustered", "linear", "ell"]),
       st.integers(0, 10_000))
def test_fast_equals_direct_on_consistent_graphs(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "serial":
        graph = gsfa.build_serial_graph(rng.normal(size=12), 4)
    elif kind == "clustered":
        graph = gsfa.build_clustered_graph([3, 4, 5])
    elif kind == "linear":
        graph = gsfa.build_linear_graph(12)
    else:
        v = np.ones(12)
        label_set = gsfa.normalize_labels(rng.normal(size=(1, 12)), v)
        graph = gsfa.build_ell_graph(label_set.with_eigenvalues([1.0]), v)
    y = normalize_feature(rng.normal(size=graph.n_samples),
                          graph.vertex_weights)
    direct = weighted_delta(graph, y)
    fast = weighted_delta_fast(graph, y, tol=1e-8)
    assert abs(direct - fast) <= 1e-9 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# normalize_feature: the conftest helper the delta and solver tests use

def test_normalize_feature_example():
    np.testing.assert_allclose(
        normalize_feature(np.array([0.0, 2.0]), np.ones(2)), [-1.0, 1.0])


def test_normalize_feature_idempotent():
    v = np.array([1.0, 3.0, 2.0])
    y = normalize_feature(np.array([0.0, 5.0, -2.0]), v)
    np.testing.assert_allclose(normalize_feature(y, v), y, atol=1e-12)


def test_normalize_feature_exact_moments(rng):
    v = rng.uniform(0.5, 2.0, 9)
    y = normalize_feature(rng.normal(size=9), v)
    q = v.sum()
    assert abs(v @ y) / q < 1e-14
    assert (y @ (v * y)) / q == pytest.approx(1.0, abs=1e-14)


def test_normalize_feature_rejects_constant():
    with pytest.raises(ValueError):
        normalize_feature(np.array([5.0, 5.0]), np.ones(2))


# ---------------------------------------------------------------------------
# remove_self_loops

def test_remove_self_loops_definition():
    graph = dense_graph([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])
    out = remove_self_loops(graph)
    np.testing.assert_allclose(out.gamma_dense(), [[0.0, 0.5], [0.5, 0.0]])
    assert out.q_sum == graph.q_sum
    assert out.r_sum == pytest.approx(1.0)
    assert graph.r_sum == pytest.approx(3.0)


def test_remove_self_loops_drops_ell_factors(rng):
    graph = _ell_graph(rng)
    assert graph.ell is not None
    assert remove_self_loops(graph).ell is None


def test_remove_self_loops_drops_structure():
    graph = gsfa.build_serial_graph(np.arange(8.0), 4)
    out = remove_self_loops(graph)
    assert graph.structure is not None and out.structure is None
    assert (out.edge_weights != graph.edge_weights).nnz == 0


def test_remove_self_loops_noop_on_loop_free():
    graph = two_group_cross_graph()
    out = remove_self_loops(graph)
    np.testing.assert_array_equal(out.gamma_dense(), graph.gamma_dense())


def test_remove_self_loops_rescales_objective_only():
    # self-loops never contribute to the delta sum, so every feature's
    # delta rescales by exactly R/R'
    rng = np.random.default_rng(7)
    gamma = symmetrize(rng.uniform(0.1, 1, size=(6, 6)))
    graph = dense_graph(rng.uniform(0.5, 2.0, 6), gamma)
    out = remove_self_loops(graph)
    for _ in range(5):
        y = rng.normal(size=6)
        assert weighted_delta(out, y) == pytest.approx(
            weighted_delta(graph, y) * graph.r_sum / out.r_sum, rel=1e-12)


def test_remove_self_loops_preserves_responses_when_loops_match_weights():
    # constant-magnitude labels give constant self-loops, so consistency
    # survives removal and both spectra are comparable; distinct
    # eigenvalues keep every response simple (no rotation ambiguity)
    compact = gsfa.compact_binary_labels(4, 3)
    label_set = compact.expand([3, 3, 3, 3]).with_eigenvalues([0.5, 0.3, 0.2])
    graph = gsfa.build_ell_graph(label_set, np.ones(12))
    out = remove_self_loops(graph)
    assert check_consistency(out).ok
    spec_a = gsfa.optimal_free_responses(graph)
    spec_b = gsfa.optimal_free_responses(out)
    resp_a, _ = spec_a.feasible_responses()
    resp_b, _ = spec_b.feasible_responses()
    for j in range(3):
        err = min(np.max(np.abs(resp_a[:, j] - resp_b[:, j])),
                  np.max(np.abs(resp_a[:, j] + resp_b[:, j])))
        assert err < 1e-9


# ---------------------------------------------------------------------------
# graph file format

def test_graph_file_round_trip(tmp_path):
    for graph in (two_group_cross_graph(),
                  gsfa.build_serial_graph(np.arange(8.0), 4),
                  gsfa.build_linear_graph(5)):
        path = tmp_path / "graph.json"
        gsfa.save_graph(graph, path)
        loaded = gsfa.load_graph(path)
        np.testing.assert_allclose(loaded.gamma_dense(), graph.gamma_dense())
        np.testing.assert_allclose(loaded.vertex_weights, graph.vertex_weights)
        assert loaded.fingerprint() == graph.fingerprint()


def test_graph_file_preserves_structure(tmp_path):
    graph = gsfa.build_serial_graph(np.arange(8.0), 4)
    gsfa.save_graph(graph, tmp_path / "g.json")
    loaded = gsfa.load_graph(tmp_path / "g.json")
    assert loaded.structure.kind == "serial"
    assert len(loaded.structure.groups) == 4


def test_graph_file_rejects_unknown_version(tmp_path):
    path = tmp_path / "graph.json"
    gsfa.save_graph(two_group_cross_graph(), path)
    text = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(text)
    with pytest.raises(FormatError, match="format_version"):
        gsfa.load_graph(path)


def test_graph_file_rejects_wrong_kind(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"kind": "something-else", "format_version": 1}')
    with pytest.raises(FormatError, match="kind"):
        gsfa.load_graph(path)


def test_graph_file_round_trip_keeps_checksum(tmp_path, rng):
    for name, graph in _fingerprint_cases(rng).items():
        path = tmp_path / f"{name}.json"
        gsfa.save_graph(graph, path)
        assert gsfa.load_graph(path).fingerprint() == graph.fingerprint(), name


def test_r_sum_does_not_depend_on_storage():
    for seed in range(40):
        for name, graph in _fingerprint_cases(np.random.default_rng(seed)).items():
            v, gamma = graph.vertex_weights, graph.gamma_dense()
            dense = TrainingGraph(v, gamma)
            sparse = TrainingGraph(v, sp.csr_array(gamma))
            assert dense.fingerprint() == sparse.fingerprint(), (seed, name)


@pytest.mark.parametrize("extra, match", [
    ([0, 2, 1.0], "more than once"),  # (0, 2) is already an edge
    ([0.5, 1, 1.0], "integers"),
    ([0, 1], "triplets"),
    (["0", 1, 1.0], "triplets"),
    ([0, 1, "heavy"], "triplets"),
])
def test_graph_file_rejects_bad_edge(tmp_path, extra, match):
    path = tmp_path / "graph.json"
    gsfa.save_graph(two_group_cross_graph(), path)
    data = json.loads(path.read_text())
    data["edges"].append(extra)
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=match):
        gsfa.load_graph(path)
