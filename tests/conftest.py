"""Shared oracles and tiny graph constructions for the test suite."""

import csv
import hashlib
import json
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import gsfa
from gsfa import (
    ContractError,
    DegenerateLabelError,
    DependentLabelError,
    DimensionError,
    FormatError,
    NegativeEigenvalueWarning,
    TrainingGraph,
)
from gsfa.serialize import Columns, read_container


def rounding_gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def symmetrize(gamma_raw):
    """(gamma + gamma^T) / 2 of a square matrix: random symmetric edges."""
    if sp.issparse(gamma_raw):
        if gamma_raw.shape[0] != gamma_raw.shape[1]:
            raise DimensionError("edge matrix must be square")
        return (sp.csr_array(gamma_raw, dtype=float) + gamma_raw.T.astype(float)) * 0.5
    g = np.asarray(gamma_raw, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError("edge matrix must be square")
    return (g + g.T) / 2.0


def structure_edges(structure, n):
    """The N x N CSR edge matrix of a structure, group pair by group pair.

    Independent of the graph's own expansion of the groups: every pair
    (a, b) of different samples of groups g and h with A[g, h] != 0
    (:func:`gsfa.graph.group_weights`) gets weight A[g, h].
    """
    _, weights = gsfa.graph.group_weights(structure, n)
    empty = np.zeros(0, dtype=int)
    rows, cols, vals = [empty], [empty], [np.zeros(0)]
    for g, h in zip(*np.nonzero(weights)):
        a, b = structure.groups[g], structure.groups[h]
        r, c = np.repeat(a, b.size), np.tile(b, a.size)
        off = r != c
        rows.append(r[off])
        cols.append(c[off])
        vals.append(np.full(np.count_nonzero(off), weights[g, h]))
    matrix = sp.csr_array(sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)))
    matrix.sum_duplicates()
    return matrix


def group_sums_by_loop(structure, n):
    """Row sums and R of a structure's edges, group by group, member by member.

    A member of group g has s_h - [g = h] neighbours in group h, each at
    A[g, h]; its row sum adds those terms over h in order. R adds, for
    each group, s_g times that row sum (a float product), exactly in
    fractions, and rounds once.
    """
    _, weights = gsfa.graph.group_weights(structure, n)
    row_sums = np.zeros(n)
    r_sum = Fraction(0)
    for g, members in enumerate(structure.groups):
        total = 0.0
        for h, others in enumerate(structure.groups):
            total += weights[g, h] * (others.size - (g == h))
        for member in members:
            row_sums[member] = total
        r_sum += Fraction(members.size * total)
    return row_sums, float(r_sum)


def normalize_feature(y, vertex_weights):
    """y rescaled to weighted zero mean and weighted unit variance."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(vertex_weights, dtype=float)
    if y.shape != v.shape:
        raise DimensionError("feature and vertex weights differ in length")
    q = v.sum()
    centered = y - (v @ y) / q
    var = float(centered @ (v * centered)) / q
    if var <= 0 or not np.isfinite(var):
        raise ValueError("feature has zero weighted variance")
    return centered / np.sqrt(var)


def weighted_delta_fast(graph, y, tol=1e-6):
    """Delta oracle via 2 - (2/R) y^T gamma y.

    Valid only for consistent graphs and features with weighted zero
    mean and weighted unit variance; violations raise
    :class:`ContractError` naming the failed constraint.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (graph.n_samples,):
        raise DimensionError(
            f"feature length {y.shape} does not match N={graph.n_samples}")
    report = gsfa.check_consistency(graph)
    if not report.ok:
        raise ContractError(
            f"graph fails the consistency restriction "
            f"(max residual {report.max_residual:.3e})")
    v, q = graph.vertex_weights, graph.q_sum
    mean = float(v @ y) / q
    if abs(mean) > tol:
        raise ContractError(f"feature violates weighted zero mean ({mean:.3e})")
    var = float(y @ (v * y)) / q
    if abs(var - 1.0) > tol:
        raise ContractError(f"feature violates weighted unit variance ({var:.6f})")
    return 2.0 - 2.0 / graph.r_sum * graph.gamma_quad(y)


def delta_by_loop(graph, y):
    """Independent delta oracle: literal double loop over the definition."""
    gamma = graph.gamma_dense()
    n = graph.n_samples
    total = 0.0
    for a in range(n):
        for b in range(n):
            total += gamma[a, b] * (y[b] - y[a]) ** 2
    return total / graph.r_sum


def dcov_by_edge_sum(data, graph):
    """Independent difference-covariance oracle: the literal edge sum.

    (1/R) * sum_{n,n'} gamma_{n,n'} (x(n') - x(n)) (x(n') - x(n))^T,
    one dense row (or all CSR triplets) at a time.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if graph.is_sparse:
        coo = sp.coo_array(graph.edge_weights)
        diffs = data[:, coo.col] - data[:, coo.row]
        dcov = (diffs * coo.data) @ diffs.T
    else:
        dcov = np.zeros((data.shape[0], data.shape[0]))
        dense = graph.edge_weights
        for n in range(graph.n_samples):
            row = dense[n]
            nz = np.flatnonzero(row)
            if nz.size == 0:
                continue
            diffs = data[:, nz] - data[:, n:n + 1]
            dcov += (diffs * row[nz]) @ diffs.T
    dcov /= graph.r_sum
    return (dcov + dcov.T) / 2.0


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


def fingerprint_by_description(graph):
    """Independent checksum-scheme-2 oracle: one sha256 update per value.

    Hashes the description of a graph with ELL factors or a structure,
    packed value by value with :mod:`struct`: the scheme tag, n, v, then
    k, U row by row, the weights and the nonnegative byte, or the kind,
    the group count, each group's size and each member.
    """
    h = hashlib.sha256()
    h.update(b"gsfa-graph-checksum-2\0")
    h.update(struct.pack("<q", graph.n_samples))
    for x in graph.vertex_weights.tolist():
        h.update(struct.pack("<d", x))
    if graph.ell is not None:
        u = graph.ell.u.tolist()
        h.update(struct.pack("<q", len(u[0])))
        for x in [x for row in u for x in row] + graph.ell.weights.tolist():
            h.update(struct.pack("<d", x))
        h.update(b"\x01" if graph.ell.nonnegative else b"\x00")
    else:
        groups = [np.asarray(grp).tolist() for grp in graph.structure.groups]
        h.update(graph.structure.kind.encode("ascii") + b"\0")
        h.update(struct.pack("<q", len(groups)))
        for i in [len(grp) for grp in groups] + [i for grp in groups for i in grp]:
            h.update(struct.pack("<q", i))
    return {"n": graph.n_samples, "q_sum": graph.q_sum, "r_sum": graph.r_sum,
            "scheme": 2, "checksum": h.hexdigest()[:16]}


def fingerprint_oracle(graph):
    """The scheme the graph's fingerprint must follow, by its own oracle."""
    if graph.ell is None and graph.structure is None:
        return fingerprint_by_loop(graph)
    return fingerprint_by_description(graph)


def remove_self_loops(graph):
    """The graph with a zero diagonal; Q stays, R is recomputed.

    Free responses are unchanged up to the rescaling of delta values
    implied by the new R; the consistency restriction may break. The
    result is the graph of its edges, dense or CSR like the input.
    """
    g = graph.gamma_dense()
    np.fill_diagonal(g, 0.0)
    return TrainingGraph(graph.vertex_weights,
                         sp.csr_array(g) if graph.is_sparse else g)


def eigenvalues_from_deltas(deltas, q_sum, r_sum):
    """lambda_j = (R / 2Q) * (2 - delta_j); delta > 2 gives lambda < 0.

    The inverse of :func:`gsfa.deltas_from_eigenvalues`.
    """
    deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas > 2):
        warnings.warn("delta targets above 2 produce negative eigenvalues",
                      NegativeEigenvalueWarning, stacklevel=2)
    return r_sum / (2.0 * q_sum) * (2.0 - deltas)


def weighted_delta_by_matrix(graph, y):
    """Delta oracle: one edge-sum expression over the whole edge matrix.

    Dense graphs form the N x N difference matrix, sparse ones the COO
    entries; the blocked :func:`gsfa.weighted_delta` must agree.
    """
    y = np.asarray(y, dtype=float)
    if graph.is_sparse:
        coo = sp.coo_array(graph.edge_weights)
        diffs = y[coo.col] - y[coo.row]
        return float(np.sum(coo.data * diffs * diffs) / graph.r_sum)
    diff = y[None, :] - y[:, None]
    return float(np.sum(graph.edge_weights * diff * diff) / graph.r_sum)


def triplets_by_matrix(graph):
    """Nonzero upper-triangle (i, j, gamma) of the whole edge matrix."""
    if graph.is_sparse:
        coo = sp.coo_array(graph.edge_weights)
        mask = (coo.row <= coo.col) & (coo.data != 0)
        return coo.row[mask], coo.col[mask], coo.data[mask]
    gamma = graph.edge_weights
    i, j = np.nonzero(np.triu(gamma))
    return i, j, gamma[i, j]


def checksum_by_one_buffer(graph):
    """Fingerprint checksum hashing all triplets packed in one buffer."""
    i, j, g = triplets_by_matrix(graph)
    packed = np.empty(g.shape[0], dtype=[("i", "<i8"), ("j", "<i8"),
                                         ("g", "<f8")])
    packed["i"], packed["j"], packed["g"] = i, j, g
    h = hashlib.sha256()
    h.update(np.int64(graph.n_samples).tobytes())
    h.update(graph.vertex_weights.tobytes())
    h.update(packed)
    return h.hexdigest()[:16]


def ell_gamma_by_expression(vertex_weights, factors):
    """Bit oracle of :func:`gsfa.ell_gamma`: whole-matrix expressions."""
    sqrt_v = np.sqrt(vertex_weights)
    m = (factors.u * factors.weights) @ factors.u.T
    gamma = sqrt_v[:, None] * m * sqrt_v[None, :]
    return (gamma + gamma.T) / 2.0


def shift_by_expression(v, gamma):
    """Bit oracle of the negative-weight elimination of a dense gamma.

    Returns the shifted edges, or ``gamma`` itself when no weight is
    negative.
    """
    c = float(np.max(-gamma / np.outer(v, v)))
    if c <= 0:
        return gamma
    r = float(gamma[gamma != 0].sum())
    if r <= 0:
        raise gsfa.DegenerateGraphError(f"sum of edge weights must be > 0, got {r}")
    scale = 1.0 + c * float(v.sum()) ** 2 / r
    shifted = np.maximum((gamma + c * np.outer(v, v)) / scale, 0.0)
    return (shifted + shifted.T) / 2.0


def eliminated_ell_gamma_by_expression(vertex_weights, factors, c):
    """Bit oracle of exact-label factors eliminated with a given c > 0.

    Whole-matrix expressions of the factor form: the edges of the factors
    [U, sqrt(v / Q)] at weights [weights, cQ] / (1 + cQ^2/R), with
    R = sum_k weights_k (sqrt(v)^T u_k)^2, clamped at 0.
    """
    sqrt_v = np.sqrt(vertex_weights)
    q = float(vertex_weights.sum())
    r = float(factors.weights @ (sqrt_v @ factors.u) ** 2)
    if r <= 0:
        raise gsfa.DegenerateGraphError(f"sum of edge weights must be > 0, got {r}")
    shifted = gsfa.EllFactors(np.column_stack([factors.u, sqrt_v / math.sqrt(q)]),
                              np.append(factors.weights, c * q) / (1.0 + c * q ** 2 / r))
    return np.maximum(ell_gamma_by_expression(vertex_weights, shifted), 0.0)


def m_matrix_by_expression(graph):
    """Bit oracle of :func:`gsfa.build_m_matrix`."""
    inv_sqrt = 1.0 / np.sqrt(graph.vertex_weights)
    m = graph.gamma_dense() * np.outer(inv_sqrt, inv_sqrt)
    return (m + m.T) / 2.0


def sign_fix_columns_by_loop(w):
    """Bit oracle of ``solver._sign_fix_columns``: the column loop, on a copy."""
    w = w.copy()
    for j in range(w.shape[1]):
        col = w[:, j]
        scale = np.max(np.abs(col))
        if scale == 0:
            continue
        idx = np.flatnonzero(np.abs(col) > 1e-8 * scale)
        if idx.size and col[idx[0]] < 0:
            w[:, j] = -col
    return w


def degenerate_blocks_by_loop(eigenvalues):
    """Oracle of ``spectrum._degenerate_blocks``: the loop over neighbours."""
    thresh = (gsfa.spectrum.TIE_RTOL
              * max(1.0, float(np.max(np.abs(eigenvalues)))))
    blocks = []
    start = 0
    for i in range(1, eigenvalues.size + 1):
        if i == eigenvalues.size or abs(eigenvalues[i] - eigenvalues[i - 1]) > thresh:
            blocks.append((start, i))
            start = i
    return blocks


def normalize_labels_by_loop(raw, vertex_weights):
    """Oracle of :func:`gsfa.normalize_labels`: one label row at a time."""
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    v = np.asarray(vertex_weights, dtype=float)
    q = v.sum()
    out = np.empty_like(raw)
    for j, row in enumerate(raw):
        mu = float(v @ row) / q
        centered = row - mu
        var = float(centered @ (v * centered)) / q
        if var <= 0 or not np.isfinite(var):
            raise DegenerateLabelError(f"label {j} has zero weighted variance")
        out[j] = centered / math.sqrt(var)
    return gsfa.LabelSet(out, np.full(raw.shape[0], 1.0 / raw.shape[0]))


def decorrelate_labels_by_loop(label_set, vertex_weights):
    """Oracle of :func:`gsfa.decorrelate_labels`: modified weighted Gram-Schmidt.

    Label 0 is taken as already normalized and kept as it is.
    """
    v = np.asarray(vertex_weights, dtype=float)
    q = v.sum()
    labels = label_set.labels.copy()
    for jp in range(1, labels.shape[0]):
        for j in range(jp):
            coeff = float(labels[jp] @ (v * labels[j])) / q
            labels[jp] -= coeff * labels[j]
        var = float(labels[jp] @ (v * labels[jp])) / q
        if var < 1e-12:
            raise DependentLabelError(
                f"label {jp} is weighted-linearly dependent on labels 0..{jp - 1}")
        labels[jp] /= math.sqrt(var)
    return gsfa.LabelSet(labels, label_set.eigenvalues)


def format_rows_by_repr(columns, prefix, sep, between, suffix):
    """Byte oracle of ``serialize.format_rows``: ``repr`` of every value.

    The writer's text before it formatted blocks with orjson, as one
    string: ``prefix``, each row's ``repr`` values joined by ``sep``, the
    rows joined by ``between``, then ``suffix``.
    """
    fields = [map(repr, np.asarray(col).tolist()) for col in columns]
    return prefix + between.join(map(sep.join, zip(*fields))) + suffix


def plain_json(obj):
    """obj with numpy arrays as nested lists and Columns as lists of rows."""
    if isinstance(obj, (Columns, np.ndarray)):
        return plain_json(obj.tolist())
    if isinstance(obj, dict):
        return {key: plain_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_json(item) for item in obj]
    return obj


def json_by_dumps(obj):
    """Byte oracle of the JSON writer: the indenting pure-Python encoder."""
    return json.dumps(plain_json(obj), sort_keys=True, indent=1) + "\n"


def write_architecture(specs, path):
    """Write layer specs as an architecture config, as one would by hand."""
    path.write_text(json.dumps({
        "kind": "hgsfa-architecture", "format_version": 1,
        "layers": [spec.to_dict() for spec in specs]}))


def graph_file_by_dumps(graph):
    """Version-1 graph file text, as the per-triplet payload and json.dumps make it.

    Also for a graph with ELL factors or a structure: the file earlier
    releases wrote for it, which its version-2 file must load like. A
    structure is listed next to the edges, as those files did.
    """
    i, j, g = graph._triplet_arrays()
    payload = {
        "n": graph.n_samples,
        "vertex_weights": graph.vertex_weights.tolist(),
        "edges": [[int(a), int(b), float(w)]
                  for a, b, w in zip(i.tolist(), j.tolist(), g.tolist())],
        "kind": "training-graph",
        "format_version": 1,
    }
    if graph.structure is not None:
        payload["structure"] = {
            "kind": graph.structure.kind,
            "groups": [np.asarray(grp).tolist() for grp in graph.structure.groups],
        }
    return json_by_dumps(payload)


def structure_file_by_dumps(graph):
    """Version-2 graph container text of a graph with a structure."""
    return json_by_dumps({
        "n": graph.n_samples,
        "vertex_weights": graph.vertex_weights.tolist(),
        "structure": {
            "kind": graph.structure.kind,
            "groups": [np.asarray(grp).tolist() for grp in graph.structure.groups],
        },
        "kind": "training-graph",
        "format_version": 2,
    })


def csv_by_writer(path, header, rows):
    """Byte oracle of the CSV writers: one csv.writer row per table row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def matrix_csv_by_writer(data, path, feature_names):
    csv_by_writer(path, feature_names,
                  ([repr(float(x)) for x in col] for col in np.asarray(data).T))


def edges_csv_by_loop(graph, path, percentile=None):
    """Edge export as a filter over per-triplet tuples."""
    i, j, g = graph._triplet_arrays()
    triplets = list(zip(i.tolist(), j.tolist(), g.tolist()))
    if percentile is not None:
        mags = np.array([abs(w) for _, _, w in triplets])
        cutoff = np.quantile(mags, 1.0 - percentile / 100.0) if mags.size else 0.0
        triplets = [t for t in triplets if abs(t[2]) >= cutoff]
    csv_by_writer(path, ["i", "j", "gamma"],
                  ([a, b, repr(float(w))] for a, b, w in triplets))


def load_graph_by_loop(path):
    """Graph file reader with one Python step per edge: the rejection oracle."""
    data = read_container(path, "training-graph", {1})
    n = data["n"]
    v = np.asarray(data["vertex_weights"], dtype=float)
    rows, cols, vals = [], [], []
    try:
        for i, j, g in data["edges"]:
            if not 0 <= i <= j < n:
                raise FormatError(f"edge ({i}, {j}) outside 0 <= i <= j < {n}")
            rows.append(i)
            cols.append(j)
            vals.append(g)
            if i != j:
                rows.append(j)
                cols.append(i)
                vals.append(g)
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.size and (rows.dtype.kind != "i" or cols.dtype.kind != "i"):
            raise FormatError("edge indices must be integers")
        gamma = sp.coo_array((vals, (rows, cols)), shape=(n, n), dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"edges must be [i, j, gamma] number triplets: {exc}") from exc
    graph = TrainingGraph(v, gamma)
    if graph.edge_weights.nnz < len(vals):
        raise FormatError("graph file lists an edge more than once")
    return graph


def ell_graph_from_seed(seed, n, n_labels, nonnegative, uniform=True,
                        target_r_sum=None):
    """Exact-label graph over random labels and (optionally) random weights."""
    rng = np.random.default_rng(seed)
    v = np.ones(n) if uniform else rng.uniform(0.5, 2.0, n)
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(rng.normal(size=(n_labels, n)), v), v)
    lams = rng.uniform(0.1, 1.0, n_labels)
    return gsfa.build_ell_graph(label_set.with_eigenvalues(lams / lams.sum()),
                                v, nonnegative=nonnegative,
                                target_r_sum=target_r_sum)


#: Every graph builder; the exact-label one with and without elimination.
BUILDER_KINDS = ("linear", "linear-halved", "clustered", "serial", "ell",
                 "ell-nonnegative")


def graph_by_builder(kind, n, seed):
    """A consistent graph over n samples (n >= 8, a multiple of 4) from one builder."""
    rng = np.random.default_rng(seed)
    if kind == "linear":
        return gsfa.build_linear_graph(n)
    if kind == "linear-halved":
        return gsfa.build_linear_graph(n, "endpoint_halved_vertex_weights")
    if kind == "clustered":
        classes = int(rng.integers(2, 5))
        sizes = [n // classes] * (classes - 1)
        return gsfa.build_clustered_graph(sizes + [n - sum(sizes)])
    if kind == "serial":
        return gsfa.build_serial_graph(rng.normal(size=n), 4)
    return ell_graph_from_seed(seed, n, 2, kind == "ell-nonnegative", uniform=False)


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
