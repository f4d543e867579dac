"""Linear graph-based SFA: moment matrices, training, extraction.

Training solves the two-step problem: find a sphering matrix S with
S^T C S = I for the weighted sample covariance C, then a rotation
diagonalizing the sphered edge-difference second-moment matrix. The
projection W = S * rotation yields features y(n) = W^T (x(n) - mean)
with weighted zero mean, unit variance, mutual decorrelation, and
minimal delta values in the linear span of the inputs.

Also houses the nonlinear expansions, weighted PCA, and the node that
every flat model and every network node is: optional PCA, then an
expansion, then linear GSFA (:class:`GsfaNode`, :func:`train_node`).
"""

import math
import re
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from numbers import Integral

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    InconsistentGraphWarning,
    ParameterError,
    SingularityError,
)
from .graph import check_consistency
from .serialize import entries_of, read_container, write_container

MODEL_FILE_KIND = "gsfa-model"
MODEL_FILE_VERSION = 1

MAX_EXPANSION_DEGREE = 6


def _as_matrix(data):
    """``data`` as a 2-D float matrix in C order.

    Every solver function reads its input through this, so a model's
    bits follow the input values alone, not their memory layout.
    """
    return np.ascontiguousarray(np.atleast_2d(np.asarray(data, dtype=float)))


# ---------------------------------------------------------------------------
# expansions

@dataclass(frozen=True)
class ExpansionSpec:
    """Nonlinear expansion applied sample-wise before linear training.

    kinds: "identity"; "zero_eight_expo" appends |x_i|^0.8 terms,
    doubling the dimensionality; "quadratic" appends all monomials
    x_i x_j with i <= j; "polynomial" appends all monomials of total
    degree 2..degree. Monomial order is fixed (degree-major, then
    lexicographic index tuples) so models are reproducible.
    """

    kind: str = "identity"
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("identity", "zero_eight_expo", "quadratic",
                             "polynomial"):
            raise ParameterError(f"unknown expansion kind {self.kind!r}")
        if isinstance(self.degree, bool) or not isinstance(self.degree, Integral):
            raise ParameterError(
                f"expansion degree must be an integer, got {self.degree!r}")
        if self.kind == "polynomial":
            if self.degree < 1:
                raise ParameterError("polynomial degree must be >= 1")
            if self.degree > MAX_EXPANSION_DEGREE:
                raise ParameterError(
                    f"polynomial degree capped at {MAX_EXPANSION_DEGREE}")

    def output_dim(self, input_dim):
        if self.kind == "identity":
            return input_dim
        if self.kind == "zero_eight_expo":
            return 2 * input_dim
        degree = 2 if self.kind == "quadratic" else self.degree
        return sum(math.comb(input_dim + d - 1, d) for d in range(1, degree + 1))

    def to_dict(self):
        return {"kind": self.kind, "degree": self.degree}

    @classmethod
    def from_dict(cls, data):
        return cls(kind=data["kind"], degree=data.get("degree", 2))


def expand(data, spec):
    """Apply an expansion to an I x N matrix; returns I' x N."""
    data = _as_matrix(data)
    if spec.kind == "identity":
        return data.copy()
    if spec.kind == "zero_eight_expo":
        return np.vstack([data, np.abs(data) ** 0.8])
    degree = 2 if spec.kind == "quadratic" else spec.degree
    n_in = data.shape[0]
    parts = [data]
    for d in range(2, degree + 1):
        for combo in combinations_with_replacement(range(n_in), d):
            mono = data[combo[0]].copy()
            for i in combo[1:]:
                mono = mono * data[i]
            parts.append(mono[None, :])
    return np.vstack(parts)


# ---------------------------------------------------------------------------
# moment matrices

def weighted_mean(data, vertex_weights):
    """(1/Q) * sum_n v_n x(n)."""
    data = _as_matrix(data)
    v = np.asarray(vertex_weights, dtype=float)
    if data.shape[1] != v.shape[0]:
        raise DimensionError("data columns and vertex weights differ in length")
    return data @ v / v.sum()


def sample_covariance(data, vertex_weights):
    """Weighted sample covariance around the weighted mean."""
    data = _as_matrix(data)
    v = np.asarray(vertex_weights, dtype=float)
    if data.shape[1] != v.shape[0]:
        raise DimensionError("data columns and vertex weights differ in length")
    centered = data - weighted_mean(data, v)[:, None]
    cov = (centered * v) @ centered.T / v.sum()
    return (cov + cov.T) / 2.0


def derivative_covariance(data, graph):
    """Edge-weighted second moment of sample differences.

    (1/R) * sum_{n,n'} gamma_{n,n'} (x(n') - x(n)) (x(n') - x(n))^T,
    evaluated for every symmetric gamma, consistent or not, as
    (2/R) (C Diag(gamma 1) C^T - C gamma C^T) on the data C centered by
    the weighted mean (the sum does not depend on the shift; centering
    keeps the subtraction accurate).
    """
    data = _as_matrix(data)
    if data.shape[1] != graph.n_samples:
        raise DimensionError("data columns and graph size differ")
    centered = data - weighted_mean(data, graph.vertex_weights)[:, None]
    dcov = (centered * graph.gamma_row_sums()) @ centered.T
    dcov -= graph.gamma_quad(centered)
    dcov *= 2.0 / graph.r_sum
    return (dcov + dcov.T) / 2.0


# ---------------------------------------------------------------------------
# training

@dataclass
class GsfaModel:
    """Trained linear extractor: centering mean, projection, deltas."""

    weighted_mean: np.ndarray
    projection: np.ndarray
    deltas: np.ndarray
    trained_on: dict = field(default_factory=dict)

    @property
    def input_dim(self):
        return self.projection.shape[0]

    @property
    def n_features(self):
        return self.projection.shape[1]


def _sign_fix_columns(w):
    """Negate, in place, each column of w whose first entry above
    1e-8 * max |column| is negative; returns w.

    A column with no such entry (all zeros, or a NaN or infinite
    maximum) is left as it is.
    """
    size = np.abs(w)
    above = size > 1e-8 * np.max(size, axis=0)
    first = np.argmax(above, axis=0)
    columns = np.arange(w.shape[1])
    flip = above[first, columns] & (w[first, columns] < 0)
    return np.negative(w, out=w, where=flip)


def train_gsfa(data, graph, n_features=None):
    """Train linear GSFA on an I x N matrix with a training graph.

    The covariance gets a ridge of 1e-10 * trace / I. Sphering
    directions whose eigenvalues do not clear twice the ridge are
    dropped (their count capping the number of extractable features);
    requesting more raises :class:`SingularityError`. Inconsistent
    graphs are allowed with a warning: the deltas keep their edge-sum
    meaning, but the fast delta form and the free-response analysis do
    not apply to them.

    Returns a :class:`GsfaModel` with features ordered by ascending
    delta; the model deltas are the diagonal of the rotated sphered
    difference covariance.
    """
    data = _as_matrix(data)
    n_in, n_samples = data.shape
    if n_samples != graph.n_samples:
        raise DimensionError(
            f"data has {n_samples} samples but graph has {graph.n_samples}")
    if n_features is not None and n_features < 1:
        raise ParameterError(f"n_features must be >= 1, got {n_features}")

    if not check_consistency(graph):
        warnings.warn("training on an inconsistent graph; the deltas are edge "
                      "sums, but the fast delta form and the free-response "
                      "spectrum do not apply", InconsistentGraphWarning,
                      stacklevel=2)

    mean = weighted_mean(data, graph.vertex_weights)
    cov = sample_covariance(data, graph.vertex_weights)
    dcov = derivative_covariance(data, graph)

    regularization = 1e-10 * float(np.trace(cov)) / n_in
    cov = cov + regularization * np.eye(n_in)

    eigval, eigvec = np.linalg.eigh(cov)
    # ridge-only directions sit at ~regularization; genuinely informative
    # ones must clear both that level and the relative fp floor
    floor = max(2.0 * regularization, 1e-12 * float(max(eigval[-1], 0.0)))
    keep = eigval > floor
    rank = int(np.sum(keep))
    if rank == 0:
        raise SingularityError("covariance has no usable directions",
                               null_dim=n_in)
    if n_features is None:
        n_features = rank
    if n_features > n_in:
        raise SingularityError(
            f"requested {n_features} features but the input has only {n_in} "
            f"dimensions", null_dim=n_in - rank)
    if n_features > rank:
        raise SingularityError(
            f"requested {n_features} features but covariance rank is {rank} "
            f"(null-space dimension {n_in - rank})", null_dim=n_in - rank)
    sphering = eigvec[:, keep][:, ::-1] / np.sqrt(eigval[keep][::-1])
    reduced = sphering.T @ dcov @ sphering
    reduced = (reduced + reduced.T) / 2.0
    lam, rotation = np.linalg.eigh(reduced)  # ascending = slowest first
    projection = _sign_fix_columns(sphering @ rotation[:, :n_features])
    deltas = lam[:n_features].copy()
    return GsfaModel(mean, projection, deltas, trained_on=graph.fingerprint())


def extract_features(model, data):
    """y(n) = W^T (x(n) - mean); returns J x N."""
    data = _as_matrix(data)
    if data.shape[0] != model.input_dim:
        raise DimensionError(
            f"data has {data.shape[0]} rows, model expects {model.input_dim}")
    return model.projection.T @ (data - model.weighted_mean[:, None])


# ---------------------------------------------------------------------------
# weighted PCA

@dataclass
class PcaModel:
    """Weighted-mean-centered principal directions (columns, orthonormal)."""

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray

    def transform(self, data):
        data = _as_matrix(data)
        if data.shape[0] != self.mean.shape[0]:
            raise DimensionError(f"data has {data.shape[0]} rows, PCA "
                                 f"expects {self.mean.shape[0]}")
        return self.components.T @ (data - self.mean[:, None])

    def to_dict(self):
        return {"mean": self.mean.tolist(),
                "components": self.components.tolist(),
                "variances": self.variances.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(np.asarray(data["mean"], dtype=float),
                   np.asarray(data["components"], dtype=float),
                   np.asarray(data["variances"], dtype=float))


def pca_reduce(data, vertex_weights, out_dims):
    """Weighted PCA; returns (PcaModel, reduced out_dims x N matrix)."""
    data = _as_matrix(data)
    n_in, n_samples = data.shape
    if not 1 <= out_dims <= min(n_in, n_samples - 1):
        raise ParameterError(
            f"out_dims must be in [1, min(I, N-1)] = "
            f"[1, {min(n_in, n_samples - 1)}], got {out_dims}")
    cov = sample_covariance(data, vertex_weights)
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval, kind="stable")[::-1][:out_dims]
    # take: a fresh C-ordered copy, which the sign fix negates in place
    components = _sign_fix_columns(eigvec.take(order, axis=1))
    model = PcaModel(weighted_mean(data, vertex_weights), components,
                     np.maximum(eigval[order], 0.0))
    return model, model.transform(data)


# ---------------------------------------------------------------------------
# nodes: PCA -> expansion -> GSFA

@dataclass
class GsfaNode:
    """A trained node: optional PCA, then an expansion, then linear GSFA."""

    pca: PcaModel
    expansion: ExpansionSpec
    gsfa: GsfaModel

    def extract(self, data):
        """Features of an I x N matrix; returns J x N."""
        if self.pca is not None:
            data = self.pca.transform(data)
        return extract_features(self.gsfa, expand(data, self.expansion))


def train_node(data, graph, expansion, n_features=None, pca_dims=None):
    """Train a node on an I x N matrix; returns (GsfaNode, J x N features).

    ``pca_dims`` (None: no PCA) reduces the data by weighted PCA before
    the expansion. The features are those of the training data, the
    same as ``node.extract(data)``.
    """
    pca = None
    if pca_dims is not None:
        pca, data = pca_reduce(data, graph.vertex_weights, pca_dims)
    expanded = expand(data, expansion)
    model = train_gsfa(expanded, graph, n_features=n_features)
    return GsfaNode(pca, expansion, model), extract_features(model, expanded)


# ---------------------------------------------------------------------------
# model files

def save_model(node, path):
    payload = {
        "weighted_mean": node.gsfa.weighted_mean,
        "projection": node.gsfa.projection,
        "deltas": node.gsfa.deltas,
        "trained_on": node.gsfa.trained_on,
        "expansion": node.expansion.to_dict(),
        "pca": None if node.pca is None else node.pca.to_dict(),
    }
    write_container(path, MODEL_FILE_KIND, MODEL_FILE_VERSION, payload)


def _is_finite_number(x):
    return type(x) in (int, float) and math.isfinite(x)


#: What each entry of a model's ``trained_on`` fingerprint must be;
#: ``scheme`` is given for checksum scheme 2 only.
_FINGERPRINT_ENTRIES = {
    "n": ("a positive integer", lambda n: type(n) is int and n >= 1),
    "q_sum": ("a finite number", _is_finite_number),
    "r_sum": ("a finite number", _is_finite_number),
    "checksum": ("16 hex digits", lambda c: type(c) is str
                 and re.fullmatch("[0-9a-f]{16}", c) is not None),
    "scheme": ("2", lambda s: type(s) is int and s == 2),
}


def _trained_on(value, path):
    """A model file's ``trained_on``: empty, or a checked graph fingerprint."""
    if type(value) is not dict:
        raise FormatError(f"{path}: trained_on must be an object, "
                          f"got {type(value).__name__}")
    if value and set(value) - {"scheme"} != set(_FINGERPRINT_ENTRIES) - {"scheme"}:
        raise FormatError(f"{path}: trained_on must hold n, q_sum, r_sum, "
                          f"checksum and optionally scheme, got {sorted(value)}")
    for key, (need, ok) in _FINGERPRINT_ENTRIES.items():
        if key in value and not ok(value[key]):
            raise FormatError(
                f"{path}: trained_on {key} must be {need}, got {value[key]!r}")
    return value


def load_model(path):
    """Read a model container; returns a :class:`GsfaNode`.

    A null or absent ``expansion`` reads as identity, a null or absent
    ``pca`` as none; any other value must be that entry's object. The
    node chain is checked: the PCA block's mean and variances fit its
    components, and the expansion of its output dimension gives the
    projection's rows.
    ``trained_on`` must be absent, empty or a graph fingerprint.
    """
    data = read_container(path, MODEL_FILE_KIND, {MODEL_FILE_VERSION})
    with entries_of(path):
        model = GsfaModel(
            np.asarray(data["weighted_mean"], dtype=float),
            np.asarray(data["projection"], dtype=float),
            np.asarray(data["deltas"], dtype=float),
            trained_on=_trained_on(data.get("trained_on", {}), path),
        )
        if (model.projection.ndim != 2
                or model.weighted_mean.shape != (model.input_dim,)
                or model.deltas.shape != (model.n_features,)):
            raise ValueError("projection must be an I x J matrix, "
                             "weighted_mean list I and deltas J numbers")
        expansion = (ExpansionSpec() if data.get("expansion") is None
                     else ExpansionSpec.from_dict(data["expansion"]))
        pca = None if data.get("pca") is None else PcaModel.from_dict(data["pca"])
        if pca is not None:
            if (pca.components.ndim != 2
                    or pca.mean.shape != pca.components.shape[:1]
                    or pca.variances.shape != pca.components.shape[1:]):
                raise ValueError("pca.components must be an I x P matrix, "
                                 "pca.mean list I and pca.variances P numbers")
            expanded_dim = expansion.output_dim(pca.components.shape[1])
            if expanded_dim != model.input_dim:
                raise ValueError(
                    f"expansion of the {pca.components.shape[1]} PCA outputs "
                    f"gives {expanded_dim} dimensions but projection has "
                    f"{model.input_dim} rows")
    return GsfaNode(pca, expansion, model)
