"""Spectral analysis of training graphs: optimal free responses.

With an unrestricted function space, the slowest features a graph
admits are eigenvectors of M = Diag(v^{-1/2}) gamma Diag(v^{-1/2}),
rescaled to response vectors y_j = Q^{1/2} Diag(v^{-1/2}) u_j. Their
delta values follow the eigenvalues through delta = 2 - (2Q/R) lambda,
so larger eigenvalues mean slower responses. The eigenvector aligned
with v^{1/2} (eigenvalue R/Q on consistent graphs) corresponds to the
constant pseudo-response, which violates the zero-mean constraint and
is flagged infeasible.

A graph with exact-label factors is solved on their span: M is zero
outside span(v^{1/2}, U), so the eigenpairs are those of the small
matrix S^T M S on an orthonormal basis S of that span (Rayleigh-Ritz,
exact here), and the rest of R^N is a null block of eigenvalue exactly
0, spanned by the deterministic Householder completion of S. Every
other graph takes the dense eigendecomposition of M.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from . import matrixio
from .graph import check_consistency, row_slices
from .solver import _sign_fix_columns

#: Counting threshold: responses with delta < 2 - SLOW_COUNT_TOL are "slow".
SLOW_COUNT_TOL = 1e-9
#: Eigenvalues closer than this, relative to max(1, max |lambda|), are tied.
TIE_RTOL = 1e-9
#: Largest N for which :func:`optimal_free_responses` makes its N x N
#: response matrix (and, for graphs without exact-label factors, the
#: dense M it decomposes).
MAX_DENSE_N = 4096


@dataclass
class FreeResponseSpectrum:
    """Full response spectrum of a graph, sorted by descending eigenvalue.

    ``responses[:, j]`` is the j-th response vector. ``feasible`` marks
    responses satisfying the weighted zero-mean constraint (all but the
    constant pseudo-response). ``blocks`` lists (start, stop) index
    ranges of degenerate eigenvalue groups, within which any rotation
    of the responses is equivalent.
    """

    eigenvalues: np.ndarray
    deltas: np.ndarray
    responses: np.ndarray
    feasible: np.ndarray
    blocks: list
    q_sum: float
    r_sum: float

    @property
    def n_samples(self):
        return self.responses.shape[0]

    def feasible_responses(self):
        """Feasible responses ordered by ascending delta."""
        idx = np.flatnonzero(self.feasible)
        order = idx[np.argsort(self.deltas[idx], kind="stable")]
        return self.responses[:, order], self.deltas[order]

    def slow_count(self):
        """Number of feasible responses with delta < 2 - SLOW_COUNT_TOL."""
        return int(np.sum(self.feasible & (self.deltas < 2.0 - SLOW_COUNT_TOL)))


def build_m_matrix(graph):
    """M = Diag(v^{-1/2}) gamma Diag(v^{-1/2}), symmetric.

    Scales a copy of gamma in place, row block by row block; it stays
    exactly symmetric, as gamma is and v_n^{-1/2} v_n'^{-1/2} is too.
    """
    inv_sqrt = 1.0 / np.sqrt(graph.vertex_weights)
    m = graph.gamma_dense()
    for rows in row_slices(m.shape[0]):
        m[rows] *= np.outer(inv_sqrt[rows], inv_sqrt)
    return m


def _degenerate_blocks(eigenvalues):
    """(start, stop) ranges of eigenvalues closer than the tie threshold."""
    thresh = TIE_RTOL * max(1.0, float(np.max(np.abs(eigenvalues))))
    breaks = np.flatnonzero(np.abs(np.diff(eigenvalues)) > thresh) + 1
    edges = [0, *breaks.tolist(), eigenvalues.size]
    return list(zip(edges[:-1], edges[1:]))


def _rotate_u0_into_block(u_block, u0):
    """Rotate an eigenvector block so its first column is the u0 direction.

    Returns the rotated block; the remaining columns form an orthonormal
    completion of u0's projection within the block span (Householder
    construction, deterministic).
    """
    w = u_block.T @ u0
    norm = np.linalg.norm(w)
    w = w / norm
    b = w.shape[0]
    e1 = np.zeros(b)
    e1[0] = 1.0
    p = w - e1
    pn = p @ p
    if pn < 1e-30:
        rot = np.eye(b)
    else:
        rot = np.eye(b) - 2.0 * np.outer(p, p) / pn
        rot[:, 0] = w  # exact alignment of the first column
    return u_block @ rot


def _pivoted_householder_qr(columns):
    """Q and |diag R| of the complete column-pivoted QR of an N x k matrix.

    LAPACK ``geqp3`` then ``orgqr``, in place on one Fortran-ordered
    N x max(N, k) buffer whose first N columns end up holding Q: the
    routines and workspace sizes of ``scipy.linalg.qr(mode="full",
    pivoting=True)``, so the same bits, without its copies of the input
    and of Q.
    """
    # imported on use: scipy.linalg adds ~0.1 s to every `import gsfa`
    from scipy.linalg import lapack

    n, k = columns.shape
    buffer = np.empty((n, max(n, k)), order="F")
    factored = buffer[:, :k]
    factored[...] = columns
    basis = buffer[:, :n]
    geqp3, orgqr = lapack.get_lapack_funcs(("geqp3", "orgqr"), (buffer,))
    # overwrite_a on the workspace queries too, or f2py copies the buffer
    lwork = int(geqp3(factored, lwork=-1, overwrite_a=1)[-2][0])
    tau = geqp3(factored, lwork=lwork, overwrite_a=1)[2]
    diagonal = np.abs(np.diagonal(factored))
    lwork = int(orgqr(basis, tau, lwork=-1, overwrite_a=1)[-2][0])
    orgqr(basis, tau, lwork=lwork, overwrite_a=1)
    return basis, diagonal


def _factor_span_eigenpairs(graph):
    """Eigenpairs of M for a graph with exact-label factors, unsorted.

    M = (U W U^T + c Q u0 u0^T) / scale lies in span(u0, U), with
    u0 = v^{1/2} / Q^{1/2}, whether or not the graph was eliminated
    (c = 0 if not). A complete Householder QR with column pivoting of
    the unit-scaled columns [u0, U] gives an orthonormal basis S of
    that span (its rank r counts the diagonal entries of R above
    max(N, k+1) eps |R_00|) and, in its other N - r columns, a
    deterministic basis of the complement. S^T M S is formed through
    the graph's own edges, so elimination and its clamp at 0 need no
    special case; its eigenpairs are those of M on the span, and the
    complement gets eigenvalue exactly 0.
    """
    v = graph.vertex_weights
    sqrt_v = np.sqrt(v)
    columns = np.column_stack([sqrt_v / np.sqrt(graph.q_sum), graph.ell.u])
    norms = np.linalg.norm(columns, axis=0)
    columns /= np.where(norms > 0, norms, 1.0)
    basis, diagonal = _pivoted_householder_qr(columns)
    tol = max(columns.shape) * np.finfo(float).eps * diagonal[0]
    rank = int(np.count_nonzero(diagonal > tol))
    span = basis[:, :rank]
    small = graph.gamma_quad((span / sqrt_v[:, None]).T)
    theta, rotation = np.linalg.eigh((small + small.T) / 2.0)
    basis[:, :rank] = span @ rotation
    eigenvalues = np.concatenate([theta, np.zeros(graph.n_samples - rank)])
    return eigenvalues, basis


def optimal_free_responses(graph):
    """Full eigendecomposition of M, rescaled to response vectors.

    Requires a consistent graph (the analysis relies on v^{1/2} being an
    eigenvector of M). A graph with exact-label factors is solved on
    their span, its null block completed by Householder reflections
    (:func:`_factor_span_eigenpairs`); any other graph by the dense
    ``eigh`` of M. Eigenpairs are sorted by descending eigenvalue, the
    reverse of a stable ascending sort. Within the degenerate block
    containing the v^{1/2} direction, the basis is rotated so exactly
    one response is the constant pseudo-response; it is flagged
    infeasible, everything else feasible. Responses are sign-adjusted
    to be negative at their first significantly nonzero sample.
    """
    n = graph.n_samples
    if n > MAX_DENSE_N:
        raise ParameterError(
            f"free responses make an N x N response matrix, capped at "
            f"N={MAX_DENSE_N}; got N={n}")
    report = check_consistency(graph)
    if not report.ok:
        raise ContractError(
            "free responses need a consistent graph "
            f"(max residual {report.max_residual:.3e})")
    if graph.ell is not None:
        eigenvalues, u = _factor_span_eigenpairs(graph)
    else:
        eigenvalues, u = np.linalg.eigh(build_m_matrix(graph))
    order = np.argsort(eigenvalues, kind="stable")[::-1]
    eigenvalues = eigenvalues[order]
    # the one N x N buffer the responses are made in, in place
    u = u.take(order, axis=1)

    sqrt_v = np.sqrt(graph.vertex_weights)
    q = graph.q_sum
    u0 = sqrt_v / np.sqrt(q)
    blocks = _degenerate_blocks(eigenvalues)

    # locate the block holding the u0 direction and canonicalize it
    proj = [float(np.linalg.norm(u[:, s:e].T @ u0)) for s, e in blocks]
    k0 = int(np.argmax(proj))
    if proj[k0] < 1.0 - 1e-6:
        raise ContractError(
            "could not identify the constant-direction eigenvector; "
            f"best block alignment {proj[k0]:.6f}")
    s, e = blocks[k0]
    if e - s > 1:
        u[:, s:e] = _rotate_u0_into_block(u[:, s:e], u0)
    feasible = np.ones(n, dtype=bool)
    feasible[s] = False

    deltas = 2.0 - (2.0 * q / graph.r_sum) * eigenvalues
    # negative at the first significantly nonzero sample
    u /= sqrt_v[:, None]
    u *= -np.sqrt(q)
    responses = np.negative(_sign_fix_columns(u), out=u)
    return FreeResponseSpectrum(eigenvalues, deltas, responses, feasible,
                                blocks, q, graph.r_sum)


def expected_noise_delta(graph):
    """Expected delta of i.i.d. zero-mean unit-variance noise.

    Closed form 2 (R - trace(gamma)) / R: exactly 2 whenever the graph
    has no self-loops.
    """
    return 2.0 * (graph.r_sum - float(np.sum(graph.gamma_diagonal()))) / graph.r_sum


def export_spectrum(spectrum, csv_path, responses_path=None):
    """Write the spectrum table (j, lambda, delta, feasible) as CSV.

    Optionally writes the response matrix as a companion CSV with one
    column per response (header resp_0, resp_1, ...).
    """
    matrixio.write_csv(csv_path, ["j", "lambda", "delta", "feasible"],
                       [np.arange(spectrum.eigenvalues.size),
                        spectrum.eigenvalues, spectrum.deltas,
                        spectrum.feasible.astype(int)])
    if responses_path is not None:
        names = [f"resp_{j}" for j in range(spectrum.responses.shape[1])]
        matrixio.save_matrix_csv(spectrum.responses.T, responses_path,
                                 feature_names=names)


def export_edges(graph, path, percentile=None):
    """Write edge triplets (i, j, gamma) as CSV for plotting.

    ``percentile`` keeps only the strongest edges by |gamma|: e.g. 30.0
    keeps the top 30 percent. All edges are written by default.
    """
    if percentile is not None and not 0 < percentile <= 100:
        raise ParameterError("percentile must be in (0, 100]")
    i, j, g = graph._triplet_arrays()
    if percentile is not None:
        mags = np.abs(g)
        cutoff = np.quantile(mags, 1.0 - percentile / 100.0) if mags.size else 0.0
        keep = mags >= cutoff
        i, j, g = i[keep], j[keep], g[keep]
    matrixio.write_csv(path, ["i", "j", "gamma"], [i, j, g])
