"""Shared oracles and tiny graph constructions for the test suite."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from gsfa import TrainingGraph


def delta_by_loop(graph, y):
    """Independent delta oracle: literal double loop over the definition."""
    gamma = graph.gamma_dense()
    n = graph.n_samples
    total = 0.0
    for a in range(n):
        for b in range(n):
            total += gamma[a, b] * (y[b] - y[a]) ** 2
    return total / graph.r_sum


def fingerprint_by_loop(graph):
    """Independent fingerprint oracle: one sha256 update per triplet value."""
    gamma = graph.edge_weights
    if graph.is_sparse:
        coo = sp.coo_array(gamma)
        mask = (coo.row <= coo.col) & (coo.data != 0)
        triplets = list(zip(coo.row[mask].tolist(), coo.col[mask].tolist(),
                            coo.data[mask].tolist()))
    else:
        i, j = np.nonzero(np.triu(gamma))
        triplets = list(zip(i.tolist(), j.tolist(), gamma[i, j].tolist()))
    h = hashlib.sha256()
    h.update(np.int64(graph.n_samples).tobytes())
    h.update(graph.vertex_weights.tobytes())
    for i, j, g in triplets:
        h.update(np.int64(i).tobytes())
        h.update(np.int64(j).tobytes())
        h.update(np.float64(g).tobytes())
    return {"n": graph.n_samples, "q_sum": graph.q_sum, "r_sum": graph.r_sum,
            "checksum": h.hexdigest()[:16]}


def dense_graph(vertex_weights, gamma):
    return TrainingGraph(np.asarray(vertex_weights, dtype=float),
                         np.asarray(gamma, dtype=float))


def chain_graph(n=3, vertex_weights=None):
    """Unit-weight chain; inconsistent for uniform vertex weights."""
    gamma = np.zeros((n, n))
    for i in range(n - 1):
        gamma[i, i + 1] = gamma[i + 1, i] = 1.0
    v = np.ones(n) if vertex_weights is None else np.asarray(vertex_weights)
    return dense_graph(v, gamma)


def two_group_cross_graph():
    """Serial graph with N=4, K=2 built by hand: all 4 cross pairs."""
    gamma = np.zeros((4, 4))
    for a in (0, 1):
        for b in (2, 3):
            gamma[a, b] = gamma[b, a] = 1.0
    return dense_graph(np.ones(4), gamma)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
