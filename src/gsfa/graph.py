"""Weighted training graphs and their elementary operations.

A training graph holds strictly positive vertex weights ``v`` over N
samples and a symmetric edge-weight matrix ``gamma``. The normalization
sums Q = sum(v) and R = sum(gamma) and the row sums gamma 1 are cached
at construction. A graph is built from its edges, or derives them from
what it keeps: the sample groups of a clustered or serial graph
(:class:`GraphStructure`) or the factors of an exact-label graph
(:class:`EllFactors`), which its graph file stores instead. Edges are
stored dense (numpy array), as CSR, or as the groups themselves; all
three forms expose the same operations. The groups sum their edges in
closed form, so their row sums and R may differ from those of the same
edges as CSR in the last bits.

The delta value of a feature y is the edge-weighted mean squared output
difference, (1/R) * sum_{n,n'} gamma_{n,n'} (y(n') - y(n))^2. For
consistent graphs and normalized features it reduces to
2 - (2/R) * y^T gamma y.
"""

import hashlib
import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np
import scipy.sparse as sp

from .errors import (
    ContractError,
    DegenerateGraphError,
    DimensionError,
    FormatError,
)
from .serialize import Columns, read_container, write_container

#: Default consistency tolerance, relative to max(v).
DEFAULT_CONSISTENCY_RTOL = 1e-9

GRAPH_FILE_KIND = "training-graph"
#: Version 1 lists the upper-triangle edges; version 2 holds ELL factors or a structure.
GRAPH_FILE_VERSIONS = {1, 2}
STRUCTURE_KINDS = ("clustered", "serial")

#: First bytes of a checksum scheme 2 hash (:func:`_description_bytes`).
_SCHEME_2_TAG = b"gsfa-graph-checksum-2\0"
#: One hashed upper-triangle edge of checksum scheme 1: row, column, weight.
_TRIPLET_DTYPE = np.dtype([("i", "<i8"), ("j", "<i8"), ("g", "<f8")])
#: Triplets (or entries) per block of the sparse checksum, edge files
#: and literal delta sum; bounds their memory.
_TRIPLET_BLOCK = 1 << 14
#: Rows per block, and the side of a tile, of the work done in place on a
#: dense N x N edge matrix; its temporaries stay this many rows of N.
DENSE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class GraphStructure:
    """Sample groups of a clustered or serial graph.

    ``kind`` is "clustered" or "serial"; ``groups`` lists the member
    sample indices of each cluster (clustered) or of each label group in
    order (serial). The groups determine the edges
    (:func:`group_weights`).
    """

    kind: str
    groups: tuple


def group_weights(structure, n):
    """Membership B (N x K 0/1 CSR) and group weights A (K x K) of a structure.

    Two different samples of groups g and h share an edge of weight
    A[g, h]: 1/(s_g - 1) inside each clustered group of s_g >= 2
    members, 1 between consecutive serial groups. The edge matrix is
    B A B^T without its diagonal. A sample belongs to one group at most;
    samples in none have no edges.
    """
    sizes = np.array([grp.size for grp in structure.groups], dtype=int)
    members = np.concatenate([np.zeros(0, dtype=int), *structure.groups])
    outside = members[(members < 0) | (members >= n)]
    if outside.size:
        raise ContractError(f"structure index {outside[0]} outside 0 <= i < {n}")
    if np.bincount(members, minlength=1).max() > 1:
        raise ContractError("a sample belongs to more than one structure group")
    if structure.kind == "clustered" and np.any(sizes < 2):
        raise ContractError("every clustered group needs >= 2 members")
    group_of = np.repeat(np.arange(sizes.size), sizes)
    membership = sp.csr_array((np.ones(members.size), (members, group_of)),
                              shape=(n, sizes.size))
    if structure.kind == "clustered":
        return membership, np.diag(1.0 / (sizes - 1))
    return membership, np.eye(sizes.size, k=1) + np.eye(sizes.size, k=-1)


@dataclass(frozen=True)
class EllFactors:
    """Factors of an exact-label graph.

    gamma = Diag(sqrt v) U Diag(weights) U^T Diag(sqrt v), symmetrized
    (:func:`ell_gamma`); U is N x k with columns u_0, u_1..u_L and
    ``weights`` is [R/Q, lambda_1..lambda_L]. ``nonnegative`` marks a
    graph whose negative weights were then eliminated in the factors
    (:func:`eliminate_negative_weights`): c v v^T is one more column
    sqrt(v / Q) at weight cQ, all weights are divided by 1 + cQ^2/R, and
    the result is clamped at 0. Both arrays are copied and made
    read-only.
    """

    u: np.ndarray
    weights: np.ndarray
    nonnegative: bool = False

    def __post_init__(self):
        for name in ("u", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def row_slices(n):
    """Slices of :data:`DENSE_BLOCK_ROWS` rows (the last fewer) over range(n)."""
    step = DENSE_BLOCK_ROWS
    return [slice(start, start + step) for start in range(0, n, step)]


def ell_gamma(vertex_weights, factors):
    """The symmetric N x N edge matrix of exact-label factors.

    The product's array is scaled by sqrt(v) on both sides and replaced
    by (gamma + gamma^T) / 2 tile by tile, in place: no other N x N
    array is made. An entry and its mirror get (a + b) / 2 and
    (b + a) / 2, the same bits.
    """
    sqrt_v = np.sqrt(vertex_weights)
    gamma = (factors.u * factors.weights) @ factors.u.T
    gamma *= sqrt_v[:, None]
    gamma *= sqrt_v
    tiles = row_slices(gamma.shape[0])
    for at, rows in enumerate(tiles):
        for cols in tiles[at:]:
            tile = gamma[rows, cols] + gamma[cols, rows].T
            tile /= 2.0
            gamma[rows, cols] = tile
            gamma[cols, rows] = tile.T
    return gamma


def ell_elimination_constant(vertex_weights, factors):
    """c = max(-gamma_{n,n'} / (v_n v_n')) of exact-label factors.

    gamma / (v v^T) is l Diag(weights) l^T with l = U / sqrt(v), so c is
    minus its minimum, taken over row blocks (:func:`row_slices`) with
    no N x N array. c <= 0 means no weight is negative.
    """
    scaled = factors.u / np.sqrt(vertex_weights)[:, None]
    weighted = scaled * factors.weights
    return -min(float(np.min(weighted[rows] @ scaled.T))
                for rows in row_slices(scaled.shape[0]))


def _ell_edges(vertex_weights, factors):
    """The edge matrix of exact-label factors, and the factors as kept.

    Factors marked ``nonnegative`` are eliminated (:class:`EllFactors`)
    with R = sum_k weights_k (sqrt(v)^T u_k)^2 in closed form, or lose
    the mark if no weight is negative.
    """
    if factors.nonnegative:
        c = ell_elimination_constant(vertex_weights, factors)
        if c > 0:
            sqrt_v = np.sqrt(vertex_weights)
            q = float(vertex_weights.sum())
            r = float(factors.weights @ (sqrt_v @ factors.u) ** 2)
            if r <= 0:
                raise DegenerateGraphError(
                    f"sum of edge weights must be > 0, got {r}")
            shifted = EllFactors(
                np.column_stack([factors.u, sqrt_v / math.sqrt(q)]),
                np.append(factors.weights, c * q) / (1.0 + c * q ** 2 / r))
            gamma = ell_gamma(vertex_weights, shifted)
            np.maximum(gamma, 0.0, out=gamma)  # rounding at the arg min
            return gamma, factors
        factors = replace(factors, nonnegative=False)
    return ell_gamma(vertex_weights, factors), factors


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    residual: np.ndarray
    tol: float

    def __bool__(self):
        return self.ok

    @property
    def max_residual(self):
        return float(np.max(np.abs(self.residual)))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _packed(i, j, g):
    """Triplet columns as one array of hashed records."""
    packed = np.empty(g.shape[0], dtype=_TRIPLET_DTYPE)
    packed["i"], packed["j"], packed["g"] = i, j, g
    return packed


def _description_bytes(graph):
    """The bytes checksum scheme 2 hashes, in order, for ELL or structure graphs.

    The scheme tag, n and v; then the ELL factors (k, U in C order, the
    weights and the ``nonnegative`` byte) or the structure (kind, group
    count, group sizes and the concatenated members). Integers are
    ``<i8``, reals ``<f8``; the sizes keep two groupings of the same
    members apart.
    """
    def i8(values):
        return np.asarray(values, dtype="<i8").tobytes()

    def f8(values):
        return np.asarray(values, dtype="<f8").tobytes(order="C")

    yield _SCHEME_2_TAG
    yield i8(graph.n_samples)
    yield f8(graph.vertex_weights)
    ell, structure = graph.ell, graph.structure
    if ell is not None:
        yield i8(ell.u.shape[1])
        yield f8(ell.u)
        yield f8(ell.weights)
        yield bytes([ell.nonnegative])
    else:
        groups = structure.groups
        yield structure.kind.encode("ascii") + b"\0"
        yield i8(len(groups))
        yield i8([grp.size for grp in groups])
        yield i8(np.concatenate([np.zeros(0, dtype=int), *groups]))


# Edge storage of a TrainingGraph: dense, CSR or groups. A backend
# computes ``row_sums`` and ``total`` R once, at construction (a matrix:
# the bits of ``matrix.sum(axis=1)`` and :func:`_edge_sum`; the groups:
# closed forms), and offers ``view()`` (the matrix, for oracles),
# ``diagonal()``, ``min()``, ``quad(C)`` = C gamma C^T,
# ``triplet_blocks()`` (the nonzero upper-triangle triplets in
# row-major order, as :data:`_TRIPLET_DTYPE` records) and
# ``edge_blocks()`` (indices i, j and weights g that broadcast together:
# :func:`weighted_delta` sums g (y_j - y_i)^2 over them), both in blocks
# of about :data:`_TRIPLET_BLOCK` entries, or dense rows.

class _MatrixEdges:
    """Edges stored as a matrix, dense ndarray or canonical CSR."""

    def __init__(self, matrix, values):
        self.matrix = matrix
        self.row_sums = _frozen(matrix.sum(axis=1))
        self.total = _edge_sum(values)

    def view(self):
        return self.matrix

    def diagonal(self):
        return np.array(self.matrix.diagonal())

    def min(self):
        return float(self.matrix.min())

    def quad(self, c):
        return c @ (self.matrix @ c.T)


class _DenseEdges(_MatrixEdges):
    is_sparse = False
    name = "dense"

    def __init__(self, matrix):
        super().__init__(matrix, matrix.ravel())

    def triplet_blocks(self):
        """One block per row, a view of one reused record buffer.

        The ``j`` column is written once; each row writes its ``i`` and
        ``g``. A row whose upper part holds zeros gets a fresh block of
        its nonzeros.
        """
        n = self.matrix.shape[0]
        buffer = np.empty(n, dtype=_TRIPLET_DTYPE)
        buffer["j"] = np.arange(n)
        for i, row in enumerate(self.matrix):
            upper = row[i:]
            if np.count_nonzero(upper) == upper.size:
                block = buffer[i:]
                block["i"], block["g"] = i, upper
            else:
                j = np.flatnonzero(upper)
                block = _packed(i, j + i, upper[j])
            yield block

    def edge_blocks(self):
        idx = np.arange(self.matrix.shape[0])
        for rows in row_slices(idx.size):
            yield idx[rows, None], idx, self.matrix[rows]


class _CsrEdges(_MatrixEdges):
    is_sparse = True
    name = "sparse"

    def __init__(self, matrix):
        super().__init__(matrix, matrix.data)

    def edge_blocks(self):
        m = self.matrix
        size = _TRIPLET_BLOCK
        for start in range(0, m.nnz, size):
            stop = min(start + size, m.nnz)
            rows = np.searchsorted(m.indptr, np.arange(start, stop), side="right") - 1
            yield rows, m.indices[start:stop], m.data[start:stop]

    def triplet_blocks(self):
        for i, j, g in self.edge_blocks():
            keep = (i <= j) & (g != 0)
            yield _packed(i[keep], j[keep], g[keep])


class _GroupEdges:
    """The edges of a :class:`GraphStructure`, kept as its groups.

    Holds the membership B and group weights A (:func:`group_weights`),
    never the N x N matrix. A member of group g has s_h - [g = h]
    neighbours in group h, each at weight A[g, h]: its row sum is
    sum_h A[g, h] (s_h - [g = h]), and R is the correctly rounded sum
    over groups of s_g times that, both O(K^2) closed forms. Only
    :meth:`view`, :meth:`triplet_blocks` and :meth:`edge_blocks` touch
    the edges themselves.
    """

    is_sparse = True
    name = "groups"

    def __init__(self, structure, n):
        self.structure = structure
        self.n = n
        self.membership, self.weights = group_weights(structure, n)
        self.own = self.membership @ np.diagonal(self.weights)
        sizes = np.array([grp.size for grp in structure.groups], dtype=float)
        group_sums = (self.weights * (sizes - np.eye(sizes.size))).sum(axis=1)
        self.row_sums = _frozen(self.membership @ group_sums)
        self.total = math.fsum(sizes * group_sums)

    def view(self):
        """The canonical CSR of B A B^T without its diagonal, built on each call.

        Each entry is the one product 1 * A[g, h] * 1: exact.
        """
        b = self.membership
        links = (b @ sp.csr_array(self.weights) @ b.T).tocoo()
        off = links.row != links.col
        return sp.csr_array((links.data[off], (links.row[off], links.col[off])),
                            shape=(self.n, self.n))

    def diagonal(self):
        return np.zeros(self.n)

    def min(self):
        # no self-loops: the diagonal holds implicit zeros
        return min(0.0, float(self.weights.min()))

    def quad(self, c):
        """Y gamma Y^T = S A S^T - Y Diag(a_g(n),g(n)) Y^T with S = Y B."""
        sums = c @ self.membership
        quad = sums @ self.weights @ sums.T
        if np.any(self.own):
            quad -= (c * self.own) @ c.T
        return quad

    def triplet_blocks(self):
        return _CsrEdges(self.view()).triplet_blocks()

    def edge_blocks(self):
        """Rows of group g against group h at A[g, h] != 0; a self-pair adds 0."""
        groups = self.structure.groups
        for g, h in zip(*np.nonzero(self.weights)):
            rows, cols = groups[g], groups[h]
            step = max(1, _TRIPLET_BLOCK // max(cols.size, 1))
            for start in range(0, rows.size, step):
                yield rows[start:start + step, None], cols, self.weights[g, h]


class TrainingGraph:
    """Immutable weighted graph over N samples.

    Parameters
    ----------
    vertex_weights : array of N strictly positive reals.
    edge_weights, structure, ell : exactly one description of the edges.
        ``edge_weights`` is an exactly symmetric N x N matrix, dense
        ndarray or scipy sparse (symmetrize raw directed weights
        first); absent edges are zeros. A
        :class:`GraphStructure` is kept as its groups, whose edges are
        those :func:`group_weights` describes; :class:`EllFactors` give the
        dense :func:`ell_gamma`, eliminated in the factors if marked
        ``nonnegative`` (unmarked if the factors show no negative
        weight, c <= 0 by :func:`ell_elimination_constant`). Transforms
        other than elimination drop structure and factors.

    The edges live in one of three backends, dense, CSR or groups, which
    compute the row sums and R once, here. Stored matrices are read-only,
    so the cached sums and fingerprint cannot go stale: a caller's matrix
    is copied first, derived edges are fresh arrays the graph owns. Edges
    a caller passes are checked for shape, finiteness and exact symmetry;
    derived edges, symmetric by construction, for finiteness only. So is
    the dense copy that :func:`eliminate_negative_weights` makes of a
    graph without factors and hands over.
    """

    __slots__ = ("vertex_weights", "_edges", "n_samples", "q_sum", "r_sum",
                 "structure", "ell", "_fingerprint")

    def __init__(self, vertex_weights, edge_weights=None, *, structure=None,
                 ell=None):
        v = np.asarray(vertex_weights, dtype=float).copy()
        if v.ndim != 1:
            raise DimensionError("vertex_weights must be a 1-D vector")
        n = v.shape[0]
        if n < 1:
            raise DegenerateGraphError("graph needs at least one vertex")
        if not np.all(np.isfinite(v)):
            raise DegenerateGraphError("vertex weights must be finite")
        if np.any(v <= 0):
            raise DegenerateGraphError("all vertex weights must be > 0")
        if sum(d is not None for d in (edge_weights, structure, ell)) != 1:
            raise ContractError("a training graph takes exactly one of "
                                "edge_weights, structure and ell")
        if structure is not None:
            edges = _GroupEdges(structure, n)
        elif ell is not None:
            if ell.u.shape[0] != n:
                raise DimensionError(
                    f"ELL factors have {ell.u.shape[0]} rows, graph has N={n}")
            gamma, ell = _ell_edges(v, ell)
            edges = _matrix_edges(gamma, n, derived=True)
        else:
            edges = _matrix_edges(edge_weights, n, derived=False)
        self._settle(v, edges, structure, ell)

    @classmethod
    def _derived(cls, vertex_weights, gamma):
        """Graph of a fresh dense ``gamma`` that a transform made symmetric.

        Like edges the graph derives itself, ``gamma`` is kept uncopied
        and checked for finiteness only; ``vertex_weights`` are those of
        an existing graph.
        """
        graph = cls.__new__(cls)
        graph._settle(vertex_weights,
                      _matrix_edges(gamma, vertex_weights.shape[0], derived=True),
                      None, None)
        return graph

    def _settle(self, v, edges, structure, ell):
        if edges.total <= 0:
            raise DegenerateGraphError(
                f"sum of edge weights must be > 0, got {edges.total}")

        v.setflags(write=False)
        self.vertex_weights = v
        self._edges = edges
        self.n_samples = v.shape[0]
        self.q_sum = float(v.sum())
        self.r_sum = edges.total
        self.structure = structure
        self.ell = ell
        self._fingerprint = None

    # -- storage-neutral access ------------------------------------------

    @property
    def is_sparse(self):
        return self._edges.is_sparse

    @property
    def edge_weights(self):
        """Edge weights as a matrix: dense ndarray or CSR.

        A structure graph builds its CSR, B A B^T without its diagonal
        (:func:`group_weights`), on each access, for oracles; the
        training path never reads it.
        """
        return self._edges.view()

    def gamma_dense(self):
        gamma = self.edge_weights
        return gamma.toarray() if self.is_sparse else np.array(gamma)

    def gamma_row_sums(self):
        """Row sums gamma 1, computed once (read-only)."""
        return self._edges.row_sums

    def gamma_diagonal(self):
        return self._edges.diagonal()

    def gamma_quad(self, y):
        """y^T gamma y for a vector y; Y gamma Y^T for an I x N matrix Y.

        A structure graph sums by group: with S = Y B,
        Y gamma Y^T = S A S^T - Y Diag(a_g(n),g(n)) Y^T
        (:func:`group_weights`).
        """
        y = np.asarray(y, dtype=float)
        quad = self._edges.quad(np.atleast_2d(y))
        return float(quad[0, 0]) if y.ndim == 1 else quad

    def gamma_min(self):
        return self._edges.min()

    def _triplet_blocks(self):
        """Nonzero upper-triangle (i, j, gamma) records, i <= j, row-major.

        Yields :data:`_TRIPLET_DTYPE` arrays of about
        :data:`_TRIPLET_BLOCK` triplets (dense storage: one row each);
        their concatenation is the whole list. A dense block is valid
        until the next one is drawn.
        """
        return self._edges.triplet_blocks()

    def _triplet_arrays(self):
        """The triplets of :meth:`_triplet_blocks` as three whole arrays."""
        # copied as they come: dense blocks share one buffer
        parts = [[block[name].copy() for name in _TRIPLET_DTYPE.names]
                 for block in self._triplet_blocks()]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def fingerprint(self):
        """Stable identity of the graph: (n, Q, R, content checksum).

        A graph with ELL factors or a structure hashes its description
        (checksum scheme 2, :func:`_description_bytes`) in O(N k) or
        O(N), and its dict records ``"scheme": 2``. Any other graph
        hashes n, the vertex weights and the packed upper-triangle
        triplets, streamed block by block (dense storage: row by row):
        scheme 1. Computed once per graph.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            fingerprint = {"n": self.n_samples, "q_sum": self.q_sum,
                           "r_sum": self.r_sum}
            if self.ell is None and self.structure is None:
                h.update(np.int64(self.n_samples).tobytes())
                h.update(self.vertex_weights.tobytes())
                for block in self._triplet_blocks():
                    h.update(block)
            else:
                for part in _description_bytes(self):
                    h.update(part)
                fingerprint["scheme"] = 2
            fingerprint["checksum"] = h.hexdigest()[:16]
            self._fingerprint = fingerprint
        return dict(self._fingerprint)

    def __repr__(self):
        return (f"TrainingGraph(n={self.n_samples}, Q={self.q_sum:g}, "
                f"R={self.r_sum:g}, {self._edges.name})")


def _matrix_edges(edge_weights, n, derived):
    """Dense or CSR backend of an edge matrix, checked and frozen.

    A caller's matrix is copied and compared with its transpose
    (:func:`_is_symmetric`).
    ``derived`` edges, a fresh float ndarray symmetric by construction,
    are neither: the graph owns them.
    """
    sparse = sp.issparse(edge_weights)
    if sparse:
        g = sp.csr_array(edge_weights, dtype=float, copy=True)
        # Canonical form: nothing sorts the frozen arrays later, and
        # no edge is listed twice in triplets or graph files.
        g.sum_duplicates()
    elif derived:
        g = edge_weights
    else:
        g = np.array(edge_weights, dtype=float)
    if g.shape != (n, n):
        raise DimensionError(
            f"edge matrix shape {g.shape} does not match N={n}")
    values = g.data if sparse else g
    # min and max keep a NaN, and an infinity is one of them
    if values.size and not (np.isfinite(values.min())
                            and np.isfinite(values.max())):
        raise DegenerateGraphError("edge weights must be finite")
    if not derived and not _is_symmetric(g):
        raise ContractError("edge weights must be exactly symmetric")
    for part in (g.data, g.indices, g.indptr) if sparse else (g,):
        part.setflags(write=False)
    return _CsrEdges(g) if sparse else _DenseEdges(g)


def _is_symmetric(g):
    """g == g^T exactly; a dense g is compared tile by tile (:func:`row_slices`)."""
    if sp.issparse(g):
        return not (g != g.T).sum()
    tiles = row_slices(g.shape[0])
    return not any((g[rows, cols] != g[cols, rows].T).any()
                   for at, rows in enumerate(tiles) for cols in tiles[at:])


def _edge_sum(values):
    """Sum of the nonzeros in row-major order: the same bits dense and as CSR."""
    nonzero = values != 0
    return float((values if nonzero.all() else values[nonzero]).sum())


def check_consistency(graph):
    """Check v = (Q/R) * gamma * 1 and return (ok, residual).

    The restriction links vertex and edge weights; it is required by the
    fast delta form and the free-response analysis. The tolerance is
    :data:`DEFAULT_CONSISTENCY_RTOL` relative to max(v).
    """
    tol = DEFAULT_CONSISTENCY_RTOL * float(np.max(graph.vertex_weights))
    residual = graph.vertex_weights - (graph.q_sum / graph.r_sum) * graph.gamma_row_sums()
    ok = bool(np.max(np.abs(residual)) <= tol)
    return ConsistencyReport(ok, residual, float(tol))


def weighted_delta(graph, y):
    """Delta value by direct summation over all edges.

    This is the definition; it needs neither consistency nor feature
    normalization. The sum runs over the edge blocks of the graph's own
    storage (dense rows, CSR entries, or rows of one group against
    another), with no N x N temporary.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (graph.n_samples,):
        raise DimensionError(
            f"feature length {y.shape} does not match N={graph.n_samples}")
    total = 0.0
    for i, j, g in graph._edges.edge_blocks():
        diff = y[j] - y[i]
        diff *= diff
        total += float(np.vdot(np.broadcast_to(g, diff.shape), diff))
    return total / graph.r_sum


def eliminate_negative_weights(graph):
    """Shift edge weights to be non-negative without changing solutions.

    With c = max(-gamma_{n,n'} / (v_n v_n')), the new weights are
    (gamma + c v v^T) / (1 + c Q^2 / R). R and the consistency property
    are preserved; every delta value maps affinely through
    delta' = (delta + 2cQ^2/R) / (1 + cQ^2/R), keeping order and the
    fixed point delta = 2. Graphs without negative weights are returned
    unchanged, with no dense copy made. An exact-label graph is rebuilt
    from its factors marked ``nonnegative``, which eliminate in the
    factors (:class:`EllFactors`); any other graph gets a shifted dense
    copy of its edges, divided and clamped at 0 row block by row block.
    """
    if graph.gamma_min() >= 0:
        return graph
    v = graph.vertex_weights
    if graph.ell is not None:
        return TrainingGraph(v, ell=replace(graph.ell, nonnegative=True))
    gamma = graph.gamma_dense()
    c = elimination_constant(v, gamma)
    scale = 1.0 + c * graph.q_sum ** 2 / graph.r_sum
    for rows in row_slices(gamma.shape[0]):
        block = gamma[rows]
        block += c * np.outer(v[rows], v)
        block /= scale
        np.maximum(block, 0.0, out=block)  # clamp -0.0/rounding at the arg max
    return TrainingGraph._derived(v, gamma)


def elimination_constant(v, gamma):
    """c = max(-gamma_{n,n'} / (v_n v_n')) of a dense edge matrix.

    The constant of :func:`eliminate_negative_weights`, taken over row
    blocks (:func:`row_slices`); c <= 0 means no weight is negative.
    Exact-label factors give it without the matrix
    (:func:`ell_elimination_constant`).
    """
    return float(np.max([np.max(-gamma[rows] / np.outer(v[rows], v))
                         for rows in row_slices(gamma.shape[0])]))


def save_graph(graph, path):
    """Write the versioned graph container (JSON).

    A graph with ELL factors or a structure is written as that
    description (version 2), any other graph as its upper-triangle edges
    (version 1).
    """
    payload = {"n": graph.n_samples, "vertex_weights": graph.vertex_weights}
    if graph.ell is not None:
        payload["ell"] = {"u": graph.ell.u, "weights": graph.ell.weights,
                          "nonnegative": graph.ell.nonnegative}
    elif graph.structure is not None:
        payload["structure"] = {
            "kind": graph.structure.kind,
            "groups": [np.asarray(grp) for grp in graph.structure.groups],
        }
    else:
        payload["edges"] = Columns(*graph._triplet_arrays())
    version = 1 if "edges" in payload else 2
    write_container(path, GRAPH_FILE_KIND, version, payload)


def _raise_first_bad_edge(edges, n):
    """Raise the error of the first edge entry outside 0 <= i <= j < n.

    Runs only on a rejected edge list, in file order, so the message
    names the entry a reader meets first.
    """
    try:
        for i, j, _ in edges:
            if not 0 <= i <= j < n:
                raise FormatError(f"edge ({i}, {j}) outside 0 <= i <= j < {n}")
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"edges must be [i, j, gamma] number triplets: {exc}") from exc


def _edge_columns(edges, n):
    """Validated (i, j, gamma) columns of a graph file's edge list."""
    if type(edges) is not list:
        _raise_first_bad_edge(edges, n)
        raise FormatError("edges must be a list of [i, j, gamma] triplets")
    if not edges:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    try:
        if set(map(len, edges)) != {3}:
            raise ValueError("not a triplet")
        i, j = (np.asarray(list(map(itemgetter(k), edges))) for k in (0, 1))
        in_range = (i.ndim == j.ndim == 1 and i.dtype.kind in "iuf"
                    and j.dtype.kind in "iuf"
                    and bool(np.all((0 <= i) & (i <= j) & (j < n))))
    except (LookupError, TypeError, ValueError):
        in_range = False
    if not in_range:
        _raise_first_bad_edge(edges, n)
    if i.dtype.kind != "i" or j.dtype.kind != "i":
        raise FormatError("edge indices must be integers")
    try:
        g = np.fromiter(map(itemgetter(2), edges), dtype=float, count=len(edges))
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"edges must be [i, j, gamma] number triplets: {exc}") from exc
    return i, j, g


def _sorted_csr(i, j, g, n):
    """CSR of the n x n entries (i, j, g), listed in row-major order."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=n))))
    return sp.csr_array((g, j, indptr), shape=(n, n))


def _symmetric_csr(i, j, g, n):
    """Canonical CSR of the symmetric matrix whose upper triangle is (i, j, g)."""
    key = i * n + j
    if not np.all(key[1:] > key[:-1]):
        order = np.argsort(key, kind="stable")
        i, j, g, key = i[order], j[order], g[order], key[order]
        if np.any(key[1:] == key[:-1]):
            raise FormatError("graph file lists an edge more than once")
    off = i != j
    return _sorted_csr(i, j, g, n) + _sorted_csr(i[off], j[off], g[off], n).T


def _ell_factors(ell, n, path):
    """Validated factors of a version-2 graph file's ``ell`` object."""
    if type(ell) is not dict or set(ell) != {"u", "weights", "nonnegative"}:
        raise FormatError(
            f"{path}: ell must be an object of u, weights and nonnegative")
    if type(ell["nonnegative"]) is not bool:
        raise FormatError(f"{path}: ell nonnegative must be true or false, "
                          f"got {ell['nonnegative']!r}")
    try:
        u = np.asarray(ell["u"], dtype=float)
        weights = np.asarray(ell["weights"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: ell factors must be numbers: {exc}") from exc
    if u.ndim != 2 or u.shape[0] != n or u.shape[1] < 1:
        raise FormatError(
            f"{path}: ell u must be an n x k matrix with n={n}, got shape {u.shape}")
    if weights.shape != (u.shape[1],):
        raise FormatError(f"{path}: ell weights must list k={u.shape[1]} "
                          f"numbers, got shape {weights.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(weights))):
        raise FormatError(f"{path}: ell factors must be finite")
    return EllFactors(u, weights, ell["nonnegative"])


def _structure_graph(v, spec, path):
    """The graph of a version-2 graph file's ``structure`` object."""
    kind = spec.get("kind") if type(spec) is dict else None
    if kind not in STRUCTURE_KINDS:
        raise FormatError(f"{path}: structure kind must be one of "
                          f"{', '.join(STRUCTURE_KINDS)}, got {kind!r}")
    groups = spec.get("groups")
    if type(groups) is not list or not all(
            type(grp) is list and all(type(i) is int for i in grp)
            for grp in groups):
        raise FormatError(
            f"{path}: structure groups must be a list of integer index lists")
    try:
        structure = GraphStructure(kind=kind, groups=tuple(
            np.asarray(grp, dtype=int) for grp in groups))
        return TrainingGraph(v, structure=structure)
    except (ContractError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_graph(path):
    """Read a graph file: version 1 as its edges, version 2 as its description."""
    data = read_container(path, GRAPH_FILE_KIND, GRAPH_FILE_VERSIONS)
    keys = ("edges",) if data["format_version"] == 1 else ("ell", "structure")
    given = [key for key in keys if key in data]
    missing = [key for key in ("n", "vertex_weights") if key not in data]
    if not given:
        missing.append(" or ".join(keys))
    if missing:
        raise FormatError(f"{path}: graph file has no {', '.join(missing)}")
    if keys != ("edges",) and (len(given) > 1 or "edges" in data):
        others = [key for key in ("edges", *keys) if key != given[0]]
        raise FormatError(f"{path}: a version-2 graph file has {given[0]}, "
                          f"not {' or '.join(others)}")
    n = data["n"]
    if type(n) is not int or n < 1:
        raise FormatError(f"{path}: n must be a positive integer, got {n!r}")
    try:
        v = np.asarray(data["vertex_weights"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: vertex_weights must be numbers: {exc}") from exc
    if v.shape != (n,):
        raise FormatError(
            f"{path}: vertex_weights must list n={n} numbers, got shape {v.shape}")
    if given == ["ell"]:
        return TrainingGraph(v, ell=_ell_factors(data["ell"], n, path))
    if given == ["structure"]:
        return _structure_graph(v, data["structure"], path)
    return TrainingGraph(v, _symmetric_csr(*_edge_columns(data["edges"], n), n))
