"""Spectral analysis of training graphs: optimal free responses.

With an unrestricted function space, the slowest features a graph
admits are eigenvectors of M = Diag(v^{-1/2}) gamma Diag(v^{-1/2}),
rescaled to response vectors y_j = Q^{1/2} Diag(v^{-1/2}) u_j. Their
delta values follow the eigenvalues through delta = 2 - (2Q/R) lambda,
so larger eigenvalues mean slower responses. On a consistent graph
u0 = (v/Q)^{1/2} is an eigenvector, of eigenvalue R/Q: the constant
pseudo-response, which violates the zero-mean constraint and is flagged
infeasible. The feasible responses are those orthogonal to u0, so u0 is
deflated exactly: one Householder reflector H with H e_1 = -u0 maps
them onto the last N - 1 coordinates, where the rest of M is solved.

A graph with exact-label factors is solved on their span: M is zero
outside span(u0, U), so its feasible eigenpairs are those of the small
matrix S^T M S on an orthonormal basis S of the span's part orthogonal
to u0 (Rayleigh-Ritz, exact here). The other feasible responses form a
null block of eigenvalue exactly 0 (delta exactly 2), which the
spectrum counts but does not hold: its size and cost do not grow with
N^2. Every other graph takes the dense eigendecomposition of
(H M H)[1:, 1:] and holds all N responses.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ContractError, ParameterError
from . import matrixio
from .graph import check_consistency, row_slices
from .solver import _sign_fix_columns

#: Counting threshold: responses with delta < 2 - SLOW_COUNT_TOL are "slow".
SLOW_COUNT_TOL = 1e-9
#: Eigenvalues closer than this, relative to max(1, max |lambda|), are tied.
TIE_RTOL = 1e-9
#: Largest N for which an N x N matrix is made: the dense M of a graph
#: without exact-label factors, and the completed null block of one with
#: them (:meth:`FreeResponseSpectrum.feasible_responses`).
MAX_DENSE_N = 4096


@dataclass
class FreeResponseSpectrum:
    """Resolved response spectrum of a graph, sorted by descending eigenvalue.

    ``responses[:, j]`` is the j-th response vector, the column
    ``resp_j`` of :func:`export_spectrum`'s response file. ``feasible``
    marks responses satisfying the weighted zero-mean constraint: all
    but the constant pseudo-response. ``blocks`` lists (start, stop)
    index ranges of degenerate eigenvalue groups, within which any
    rotation of the responses is equivalent. ``null_dim`` counts the
    feasible responses of eigenvalue exactly 0 (delta exactly 2) that
    the spectrum does not hold: N - 1 - r for a graph with exact-label
    factors whose span, less u0, has rank r, and 0 for any other graph,
    which holds all N responses. ``null_block``, None for those, makes
    the null block's responses (:meth:`feasible_responses`).
    """

    eigenvalues: np.ndarray
    deltas: np.ndarray
    responses: np.ndarray
    feasible: np.ndarray
    blocks: list
    q_sum: float
    r_sum: float
    null_dim: int
    null_block: object = field(repr=False, compare=False)

    @property
    def n_samples(self):
        return self.responses.shape[0]

    def feasible_responses(self):
        """All N - 1 feasible responses, ordered by ascending delta (stable).

        The held feasible responses come first among equal deltas, then
        the ``null_dim`` responses of the null block at delta 2: the
        deterministic Householder completion of the resolved span, made
        here as one N x N matrix and so capped at N = MAX_DENSE_N.
        """
        idx = np.flatnonzero(self.feasible)
        responses, deltas = self.responses[:, idx], self.deltas[idx]
        if self.null_dim:
            if self.n_samples > MAX_DENSE_N:
                raise ParameterError(
                    f"the null block is completed as an N x N matrix, capped "
                    f"at N={MAX_DENSE_N}; got N={self.n_samples}")
            responses = np.column_stack([responses, self.null_block()])
            deltas = np.concatenate([deltas, np.full(self.null_dim, 2.0)])
        order = np.argsort(deltas, kind="stable")
        return responses[:, order], deltas[order]

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


def _tie_threshold(eigenvalues):
    """Eigenvalues closer than this are tied: TIE_RTOL max(1, max |lambda|)."""
    return TIE_RTOL * max(1.0, float(np.max(np.abs(eigenvalues))))


def _degenerate_blocks(eigenvalues):
    """(start, stop) ranges of eigenvalues closer than the tie threshold."""
    thresh = _tie_threshold(eigenvalues)
    breaks = np.flatnonzero(np.abs(np.diff(eigenvalues)) > thresh) + 1
    edges = [0, *breaks.tolist(), eigenvalues.size]
    return list(zip(edges[:-1], edges[1:]))


def _reflector(u0):
    """w and beta of the Householder reflector H = I - beta w w^T, H e_1 = -u0.

    w = e_1 + u0 cancels nothing, as u0 > 0; beta = 2 / (w^T w) makes H
    orthogonal whatever the rounding of u0's norm.
    """
    w = u0.copy()
    w[0] += 1.0
    return w, 2.0 / float(w @ w)


def _lift(w, beta, vectors):
    """H [0; V]: vectors of the last N - 1 coordinates mapped back by H.

    The rank-1 correction is applied row block by row block, with no
    second N x m temporary.
    """
    lifted = np.zeros((w.size, vectors.shape[1]))
    lifted[1:] = vectors
    coefficients = w[1:] @ vectors
    for rows in row_slices(w.size):
        lifted[rows] -= np.outer(beta * w[rows], coefficients)
    return lifted


def _pivoted_householder_qr(columns, n_basis):
    """The first n_basis columns of Q, and |diag R|, of the column-pivoted QR.

    ``columns`` is N x k and min(N, k) <= n_basis <= N: n_basis =
    min(N, k) is the economy Q, n_basis = N the complete one. LAPACK
    ``geqp3`` then ``orgqr``, in place on one Fortran-ordered
    N x max(n_basis, k) buffer whose first n_basis columns end up
    holding Q: the routines and workspace sizes of
    ``scipy.linalg.qr(pivoting=True)``, so the same bits, without its
    copies of the input and of Q.
    """
    # imported on use: scipy.linalg adds ~0.1 s to every `import gsfa`
    from scipy.linalg import lapack

    n, k = columns.shape
    buffer = np.empty((n, max(n_basis, k)), order="F")
    factored = buffer[:, :k]
    factored[...] = columns
    basis = buffer[:, :n_basis]
    geqp3, orgqr = lapack.get_lapack_funcs(("geqp3", "orgqr"), (buffer,))
    # overwrite_a on the workspace queries too, or f2py copies the buffer
    lwork = int(geqp3(factored, lwork=-1, overwrite_a=1)[-2][0])
    tau = geqp3(factored, lwork=lwork, overwrite_a=1)[2]
    diagonal = np.abs(np.diagonal(factored))
    lwork = int(orgqr(basis, tau, lwork=-1, overwrite_a=1)[-2][0])
    orgqr(basis, tau, lwork=lwork, overwrite_a=1)
    return basis, diagonal


def _as_responses(u, sqrt_v, q):
    """Response vectors -Q^{1/2} Diag(v^{-1/2}) u, in u's buffer.

    Each is negative at its first significantly nonzero sample.
    """
    u /= sqrt_v[:, None]
    u *= -np.sqrt(q)
    return np.negative(_sign_fix_columns(u), out=u)


def _null_block(w, beta, rest, rank, sqrt_v, q):
    """Responses of the null block: the completion of the resolved span.

    The columns rank: of the complete pivoted QR of ``rest``, the factor
    columns in the last N - 1 coordinates, mapped back by H.
    """
    basis, _ = _pivoted_householder_qr(rest, rest.shape[0])
    return _as_responses(_lift(w, beta, basis[:, rank:]), sqrt_v, q)


def _factor_span_eigenpairs(graph, u0, w, beta):
    """u0's eigenvalue, the span's feasible eigenpairs, and its null block.

    M = (U W U^T + c Q u0 u0^T) / scale lies in span(u0, U), whether
    or not the graph was eliminated (c = 0 if not). The unit-scaled
    columns of U, reflected by H, lose their u0 part in the first
    coordinate; an economy Householder QR with column pivoting of the
    other N - 1 coordinates gives an orthonormal basis of the rest of
    the span, of rank r: the diagonal entries of R above
    max(N, k + 1) eps, the columns having had norm 1. Lifted back by H,
    it is S. [u0, S]^T M [u0, S] is formed through the graph's own
    edges, so elimination and its clamp at 0 need no special case. Its
    first entry is u0's eigenvalue; the eigenpairs of the rest are the
    feasible ones of M on the span; the other N - 1 - r feasible
    responses have eigenvalue exactly 0 (:func:`_null_block`).
    """
    sqrt_v = np.sqrt(graph.vertex_weights)
    columns = np.array(graph.ell.u)
    norms = np.linalg.norm(columns, axis=0)
    columns /= np.where(norms > 0, norms, 1.0)
    columns -= np.outer(beta * w, w @ columns)
    rest = columns[1:]
    n, k = columns.shape
    if rest.size:
        basis, diagonal = _pivoted_householder_qr(rest, min(rest.shape))
    else:
        basis, diagonal = rest[:, :0], np.zeros(0)
    rank = int(np.count_nonzero(diagonal > max(n, k + 1) * np.finfo(float).eps))
    span = _lift(w, beta, basis[:, :rank])
    small = graph.gamma_quad((np.column_stack([u0, span]) / sqrt_v[:, None]).T)
    small = (small + small.T) / 2.0
    theta, rotation = np.linalg.eigh(small[1:, 1:])
    null = partial(_null_block, w, beta, rest, rank, sqrt_v, graph.q_sum)
    return small[0, 0], theta, span @ rotation, n - 1 - rank, null


def _dense_eigenpairs(graph, w, beta):
    """u0's eigenvalue, and every feasible eigenpair of the dense M.

    H M H is M less the symmetric rank-2 update w z^T + z w^T, with
    p = M w and z = beta p - (beta^2 / 2)(w^T p) w, applied in place row
    block by row block (it stays exactly symmetric). Its first entry is
    u0^T M u0; ``eigh`` of its trailing (N - 1) x (N - 1) block gives
    the feasible eigenpairs, lifted back by H. There is no null block.
    """
    m = build_m_matrix(graph)
    p = m @ w
    z = beta * p - (beta * beta / 2.0 * float(w @ p)) * w
    for rows in row_slices(m.shape[0]):
        m[rows] -= np.outer(w[rows], z) + np.outer(z[rows], w)
    theta, vectors = np.linalg.eigh(m[1:, 1:])
    return m[0, 0], theta, _lift(w, beta, vectors), 0, None


def optimal_free_responses(graph):
    """Resolved eigendecomposition of M, rescaled to response vectors.

    Requires a consistent graph (the analysis relies on v^{1/2} being an
    eigenvector of M). u0 = (v/Q)^{1/2} is deflated exactly, with one
    Householder reflector H (H e_1 = -u0): it is the one infeasible
    response, with eigenvalue u0^T M u0 (R/Q on a consistent graph), and
    the feasible responses are eigenvectors of H M H restricted to the
    last N - 1 coordinates, mapped back by H. A graph with exact-label
    factors solves this on their span (:func:`_factor_span_eigenpairs`)
    and counts its null block in ``null_dim``; any other graph takes
    the dense ``eigh``, capped at N = MAX_DENSE_N.

    The deflation drops the coupling b = (H M H)[1:, 0], which is
    (R/Q) Q^{-1/2} H Diag(v^{-1/2}) r without its first entry, r the
    consistency residual v - (Q/R) gamma 1 that :func:`check_consistency`
    bounds by 1e-9 max(v) per entry. Dropping it moves each eigenvalue
    by at most ||b|| (Weyl), and by O(||b||^2 / g) where g separates
    R/Q from the feasible eigenvalues: second order on the deltas. The
    responses turn by O(||b|| / g) (Davis-Kahan): first order.

    Eigenpairs are sorted by descending eigenvalue, the reverse of
    ``eigh``'s ascending order, with u0 first among the eigenvalues tied
    with its own. Responses are sign-adjusted to be negative at
    their first significantly nonzero sample.
    """
    n = graph.n_samples
    if graph.ell is None and n > MAX_DENSE_N:
        raise ParameterError(
            f"free responses of a graph without exact-label factors "
            f"decompose the dense N x N M, capped at N={MAX_DENSE_N}; got N={n}")
    report = check_consistency(graph)
    if not report.ok:
        raise ContractError(
            "free responses need a consistent graph "
            f"(max residual {report.max_residual:.3e})")
    sqrt_v = np.sqrt(graph.vertex_weights)
    q = graph.q_sum
    u0 = sqrt_v / np.sqrt(q)
    w, beta = _reflector(u0)
    if graph.ell is None:
        top, theta, vectors, null_dim, null = _dense_eigenpairs(graph, w, beta)
    else:
        top, theta, vectors, null_dim, null = _factor_span_eigenpairs(
            graph, u0, w, beta)
    at = int(np.count_nonzero(theta > top + _tie_threshold(np.append(theta, top))))
    descending = vectors[:, ::-1]
    u = np.column_stack([descending[:, :at], u0, descending[:, at:]])
    eigenvalues = np.concatenate([theta[::-1][:at], [top], theta[::-1][at:]])
    feasible = np.ones(eigenvalues.size, dtype=bool)
    feasible[at] = False
    deltas = 2.0 - (2.0 * q / graph.r_sum) * eigenvalues
    return FreeResponseSpectrum(eigenvalues, deltas, _as_responses(u, sqrt_v, q),
                                feasible, _degenerate_blocks(eigenvalues), q,
                                graph.r_sum, null_dim, null)


def expected_noise_delta(graph):
    """Expected delta of i.i.d. zero-mean unit-variance noise.

    Closed form 2 (R - trace(gamma)) / R: exactly 2 whenever the graph
    has no self-loops.
    """
    return 2.0 * (graph.r_sum - float(np.sum(graph.gamma_diagonal()))) / graph.r_sum


def export_spectrum(spectrum, csv_path, responses_path=None):
    """Write the spectrum table (j, lambda, delta, feasible) as CSV.

    One row per held eigenpair; a null block (``null_dim``) is not
    written. Optionally writes the held responses as a companion CSV,
    one column per response (header resp_0, resp_1, ...): ``j`` is the
    column index into it.
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
