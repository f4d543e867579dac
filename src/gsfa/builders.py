"""Constructors for training graphs.

Pre-defined graphs (linear/reordering, clustered, serial) plus the
exact-label pipeline: normalize labels, decorrelate them, synthesize an
edge matrix whose leading free responses equal the labels, eliminate
negative edge weights, derive auxiliary cosine labels, and generate
compact binary per-class labels.

The exact-label construction places each normalized, decorrelated label
l_j as an eigenvector u_j = Q^{-1/2} Diag(v^{1/2}) l_j of the scaled
edge matrix, with a chosen eigenvalue lambda_j, alongside the
consistency eigenvector u_0 = Q^{-1/2} v^{1/2} with eigenvalue R/Q.
Eigenvalues translate to delta values via delta = 2 - (2Q/R) * lambda.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import (
    ContractError,
    DegenerateLabelError,
    DependentLabelError,
    DimensionError,
    NegativeEigenvalueWarning,
    ParameterError,
    RankError,
    TruncationWarning,
)
from .graph import (
    EllFactors,
    GraphStructure,
    TrainingGraph,
    check_consistency,
    eliminate_negative_weights,
)
from .serialize import entries_of, read_container, write_container
from .solver import sample_covariance, weighted_mean

LABELSET_FILE_KIND = "label-set"
LABELSET_FILE_VERSION = 1

#: Tolerance used to verify normalization/decorrelation contracts.
LABEL_CONTRACT_TOL = 1e-9
#: Largest unit-sum edge difference :func:`clustered_equivalence_check` accepts.
EQUIVALENCE_TOL = 1e-10


@dataclass(frozen=True)
class LabelSet:
    """L target labels over N samples plus their eigenvalue weights."""

    labels: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        labels = np.atleast_2d(np.asarray(self.labels, dtype=float))
        lams = np.asarray(self.eigenvalues, dtype=float).ravel()
        if lams.shape[0] != labels.shape[0]:
            raise DimensionError("need one eigenvalue per label")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "eigenvalues", lams)

    @property
    def n_labels(self):
        return self.labels.shape[0]

    @property
    def n_samples(self):
        return self.labels.shape[1]

    def with_eigenvalues(self, eigenvalues):
        return replace(self, eigenvalues=np.asarray(eigenvalues, dtype=float))


# ---------------------------------------------------------------------------
# pre-defined graphs

def build_linear_graph(n, variant="self_loop_extended"):
    """Chain graph over n samples with unit edge weights.

    variant "endpoint_halved_vertex_weights": interior vertices get
    weight 2, the two endpoints weight 1. variant "self_loop_extended":
    all vertex weights 1 and unit self-loops on both endpoints. Both
    satisfy the consistency restriction.
    """
    if n < 2:
        raise ParameterError(f"linear graph needs n >= 2, got {n}")
    if variant not in ("endpoint_halved_vertex_weights", "self_loop_extended"):
        raise ParameterError(f"unknown linear-graph variant {variant!r}")
    idx = np.arange(n - 1)
    rows = np.concatenate([idx, idx + 1])
    cols = np.concatenate([idx + 1, idx])
    vals = np.ones(2 * (n - 1))
    if variant == "self_loop_extended":
        rows = np.concatenate([rows, [0, n - 1]])
        cols = np.concatenate([cols, [0, n - 1]])
        vals = np.concatenate([vals, [1.0, 1.0]])
        v = np.ones(n)
    else:
        v = np.full(n, 2.0)
        v[0] = v[-1] = 1.0
    gamma = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))
    return TrainingGraph(v, gamma)


def build_clustered_graph(class_sizes):
    """Per-class fully connected graph with weights 1/(N_c - 1).

    Vertex weights are 1; there are no inter-class edges. Solving on
    this graph is the discriminant-analysis setting: the first C-1 free
    responses are constant within classes with delta 0.
    """
    sizes = [int(s) for s in class_sizes]
    if not sizes:
        raise ParameterError("need at least one class")
    if any(s < 2 for s in sizes):
        raise ParameterError(f"every class needs >= 2 samples, got {sizes}")
    n = sum(sizes)
    starts = np.cumsum([0] + sizes[:-1])
    structure = GraphStructure("clustered", tuple(
        np.arange(start, start + size) for start, size in zip(starts, sizes)))
    return TrainingGraph(np.ones(n), structure=structure)


def serial_groups(labels, k, policy="strict"):
    """Group assignment for the serial graph.

    Samples are stable-sorted by (label, original index) and split into
    k equal groups. Returns the group index of each original sample (-1
    if dropped).

    policy "strict" errors when k does not divide N; "truncate" drops
    the N mod k largest-label samples with a warning.
    """
    labels = np.asarray(labels, dtype=float).ravel()
    n = labels.shape[0]
    if k < 2 or k > n:
        raise ParameterError(f"need 2 <= k <= N, got k={k}, N={n}")
    remainder = n % k
    if remainder and policy == "strict":
        raise ParameterError(
            f"N={n} not divisible by k={k}; use policy='truncate' to drop samples")
    if remainder and policy != "truncate":
        raise ParameterError(f"unknown remainder policy {policy!r}")
    order = np.argsort(labels, kind="stable")
    kept = order[:n - remainder]
    if remainder:
        warnings.warn(f"dropped {remainder} largest-label samples to make "
                      f"N divisible by k={k}", TruncationWarning, stacklevel=2)
    group_index = np.full(n, -1, dtype=int)
    size = (n - remainder) // k
    for g in range(k):
        group_index[kept[g * size:(g + 1) * size]] = g
    return group_index


def build_serial_graph(labels, k, policy="strict"):
    """Label-sorted group graph: consecutive groups fully interconnected.

    All edge weights are 1; vertices of the two extreme groups weigh 1,
    interior vertices weigh 2, which makes the graph consistent. Under
    policy "truncate" the returned graph covers only the kept samples
    (N - N mod k of them, in original order).
    """
    group_index = serial_groups(labels, k, policy=policy)
    group_index = group_index[group_index >= 0]  # kept samples, original order
    n = group_index.shape[0]
    groups = tuple(np.flatnonzero(group_index == g) for g in range(k))
    v = np.full(n, 2.0)
    v[groups[0]] = 1.0
    v[groups[-1]] = 1.0
    structure = GraphStructure("serial", groups)
    return TrainingGraph(v, structure=structure)


# ---------------------------------------------------------------------------
# label pipeline

def _label_weights(vertex_weights, n):
    v = np.asarray(vertex_weights, dtype=float)
    if v.shape != (n,):
        raise DimensionError("labels and vertex weights differ in length")
    if not (np.all(v > 0) and np.all(np.isfinite(v))):
        raise ParameterError("vertex weights must be finite and > 0")
    return v


def normalize_labels(raw, vertex_weights):
    """Scale each label row to weighted zero mean and unit variance.

    Eigenvalues default to the uniform schedule 1/L. Labels must be
    finite and vertex weights finite and > 0 (:class:`ParameterError`).
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    v = _label_weights(vertex_weights, raw.shape[1])
    bad = np.flatnonzero(~np.all(np.isfinite(raw), axis=1))
    if bad.size:
        raise ParameterError(f"label {bad[0]} is not finite")
    centered = raw - weighted_mean(raw, v)[:, None]
    var = weighted_mean(centered ** 2, v)
    bad = np.flatnonzero(~((var > 0) & np.isfinite(var)))
    if bad.size:
        raise DegenerateLabelError(f"label {bad[0]} has zero weighted variance")
    return LabelSet(centered / np.sqrt(var)[:, None],
                    np.full(raw.shape[0], 1.0 / raw.shape[0]))


def decorrelate_labels(label_set, vertex_weights):
    """Orthonormalize the labels in order under (1/Q) Diag(v).

    One Householder QR of the rows scaled by sqrt(v/Q); each label keeps
    its sign. Means stay: :func:`normalize_labels` removes them first.
    A label whose remainder has squared norm below 1e-12, or one past
    the N-th, raises :class:`DependentLabelError`; label 0 raises
    :class:`DegenerateLabelError`.
    """
    labels = label_set.labels
    v = _label_weights(vertex_weights, labels.shape[1])
    scale = np.sqrt(v / v.sum())
    basis, r = np.linalg.qr((labels * scale).T)
    diag = np.diagonal(r)
    small = np.flatnonzero(diag ** 2 < 1e-12)
    # past N labels, R has no diagonal entry: label N is dependent
    jp = small[0] if small.size else diag.size
    if jp == 0:
        raise DegenerateLabelError("label 0 has zero weighted norm")
    if jp < labels.shape[0]:
        raise DependentLabelError(
            f"label {jp} is weighted-linearly dependent on labels 0..{jp - 1}")
    return replace(label_set, labels=(basis * np.sign(diag)).T / scale)


def _check_label_contracts(label_set, v):
    labels = label_set.labels
    worst_mean = np.max(np.abs(weighted_mean(labels, v)))
    if not worst_mean <= LABEL_CONTRACT_TOL:
        raise ContractError(
            f"labels are not weight-normalized (max mean {worst_mean:.2e})")
    gram = sample_covariance(labels, v)
    if not np.max(np.abs(gram - np.eye(labels.shape[0]))) <= LABEL_CONTRACT_TOL:
        raise ContractError("labels are not weighted-decorrelated/unit-variance")


def build_ell_graph(label_set, vertex_weights, nonnegative=False,
                    target_r_sum=None):
    """Edge matrix whose leading free responses are the given labels.

    Eigenvalue lambda_j of label j sets its delta value through
    delta_j = 2 - (2Q/R) lambda_j; all unused directions get eigenvalue
    0 (delta exactly 2). R defaults to Q so that the consistency
    eigenvalue R/Q is 1; pass ``target_r_sum`` to choose another scale.
    With ``nonnegative=True`` the negative-weight elimination step is
    applied to the result.
    """
    v = _label_weights(vertex_weights, label_set.n_samples)
    n = v.shape[0]
    if label_set.n_labels > n - 1:
        raise RankError(f"at most N-1={n - 1} labels fit, got {label_set.n_labels}")
    lams = label_set.eigenvalues
    if not np.all(np.isfinite(lams)):
        raise ContractError("eigenvalues must be finite")
    if np.sum(lams) <= 0:
        raise ContractError("eigenvalues must have positive sum")
    if np.any(lams < 0):
        warnings.warn("building with negative eigenvalues (delta > 2 targets)",
                      NegativeEigenvalueWarning, stacklevel=2)
    q = float(v.sum())
    _check_label_contracts(label_set, v)
    r = q if target_r_sum is None else float(target_r_sum)
    if r <= 0:
        raise ParameterError("target edge-weight sum must be > 0")
    sqrt_v = np.sqrt(v)
    # columns: u_0 then one u_j per label; M = sum lambda_j u_j u_j^T
    u = np.column_stack([sqrt_v] + [sqrt_v * row for row in label_set.labels])
    u /= math.sqrt(q)
    factors = EllFactors(u, np.concatenate([[r / q], lams]), bool(nonnegative))
    return TrainingGraph(v, ell=factors)


def deltas_from_eigenvalues(eigenvalues, q_sum, r_sum):
    """delta_j = 2 - (2Q / R) * lambda_j: the delta each eigenvalue targets."""
    return 2.0 - (2.0 * q_sum / r_sum) * np.asarray(eigenvalues, dtype=float)


def auxiliary_labels(first_label, k):
    """Cosine harmonics of the span of the first label.

    Row k-2 holds cos((l1 - min) / (max - min) * pi * k / 2) for
    k = 2..K, so the cosine argument spans [0, pi] at k=2, [0, 3pi/2]
    at k=3, and so on: progressively higher-frequency companions of the
    original label. Rows are raw; normalize and decorrelate afterwards.
    """
    l1 = np.asarray(first_label, dtype=float).ravel()
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    lo, hi = float(np.min(l1)), float(np.max(l1))
    if hi <= lo:
        raise DegenerateLabelError("constant label has no harmonics")
    t = (l1 - lo) / (hi - lo)
    return np.array([np.cos(t * math.pi * kk / 2.0) for kk in range(2, k + 1)])


# ---------------------------------------------------------------------------
# compact binary class labels

@dataclass(frozen=True)
class CompactLabels:
    """Per-class binary (+-1) codes and their default eigenvalues."""

    per_class: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_labels(self):
        return self.per_class.shape[0]

    @property
    def n_classes(self):
        return self.per_class.shape[1]

    def expand(self, class_sizes):
        """Per-sample LabelSet for samples grouped by class.

        Classes must be balanced: the codes are exactly normalized and
        decorrelated only under equal class sizes.
        """
        sizes = np.asarray(class_sizes, dtype=int)
        if sizes.shape[0] != self.n_classes:
            raise DimensionError("need one class size per class")
        if np.any(sizes < 1):
            raise ParameterError("class sizes must be >= 1")
        if np.unique(sizes).size != 1:
            raise ContractError("compact binary labels require balanced classes")
        labels = np.repeat(self.per_class, sizes[0], axis=1)
        return LabelSet(labels, self.eigenvalues)


def compact_binary_labels(n_classes, n_labels=None):
    """Binary class codes packing discrimination into few labels.

    For C = 2^B classes, label j <= B is the j-th bit of the class
    index mapped to {-1, +1}; the remaining labels are signed products
    of two or more of the first B (the full B-fold product first, then
    all (B-1)-fold products, ..., down to the 2-fold products, each
    flipped if needed so class 1 receives -1). Over balanced classes
    the rows are exactly zero-mean, unit-variance, and decorrelated.

    Default eigenvalues: equal for the first B labels, then linearly
    decreasing toward 0 for the product labels, scaled to sum 1.
    """
    c = int(n_classes)
    b = c.bit_length() - 1
    if c < 2 or 2 ** b != c:
        raise ParameterError(f"number of classes must be a power of two, got {c}")
    if n_labels is None:
        n_labels = c - 1
    if n_labels > c - 1:
        raise RankError(f"at most C-1={c - 1} decorrelated labels exist, got {n_labels}")
    if n_labels < b:
        raise ParameterError(
            f"need at least log2(C)={b} labels to separate {c} classes")
    cls = np.arange(1, c + 1)
    base = [2.0 * (((cls - 1) // 2 ** (b - j)) % 2) - 1.0 for j in range(1, b + 1)]
    labels = list(base)
    for size in range(b, 1, -1):
        for combo in itertools.combinations(range(b), size):
            if len(labels) >= n_labels:
                break
            prod = np.ones(c)
            for i in combo:
                prod = prod * base[i]
            if prod[0] > 0:
                prod = -prod
            labels.append(prod)
        if len(labels) >= n_labels:
            break
    labels = np.array(labels[:n_labels])

    n_aux = n_labels - b
    pre = np.ones(n_labels)
    if n_aux:
        pre[b:] = (np.arange(n_aux, 0, -1)) / (n_aux + 1)
    return CompactLabels(labels, pre / pre.sum())


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of a compact+(C-1) graph against the clustered graph."""

    n_classes: int
    per_class: int
    max_abs_diff: float
    max_interclass: float
    equivalent: bool
    tol: float


def clustered_equivalence_check(n_classes, per_class, eigenvalues=None):
    """Test that compact+(C-1) with equal eigenvalues is the clustered graph.

    Builds the exact-label graph from all C-1 binary codes with
    eigenvalues 1/(C-1) each (and the matching consistency eigenvalue,
    i.e. edge-weight sum Q/(C-1)), removes self-loops, rescales both
    edge matrices to unit sum, and reports the maximum absolute
    difference plus the largest surviving inter-class entry. Unequal
    eigenvalues leave inter-class transitions uncancelled and are
    reported as non-equivalent.
    """
    if per_class < 2:
        raise ParameterError("need per_class >= 2")
    compact = compact_binary_labels(n_classes, n_classes - 1)
    if eigenvalues is None:
        eigenvalues = np.full(n_classes - 1, 1.0 / (n_classes - 1))
    else:
        eigenvalues = np.asarray(eigenvalues, dtype=float)
    label_set = compact.expand([per_class] * n_classes).with_eigenvalues(eigenvalues)
    n = n_classes * per_class
    v = np.ones(n)
    # lambda_0 must match the common label eigenvalue for inter-class
    # transitions to cancel; R = Q * lambda is that choice.
    common = float(np.mean(eigenvalues))
    ell = build_ell_graph(label_set, v, target_r_sum=n * common)
    gamma = ell.gamma_dense()
    np.fill_diagonal(gamma, 0.0)

    clustered = build_clustered_graph([per_class] * n_classes).gamma_dense()
    gamma_n = gamma / np.abs(gamma).sum()
    clustered_n = clustered / clustered.sum()
    inter = gamma.copy()
    for cidx in range(n_classes):
        sl = slice(cidx * per_class, (cidx + 1) * per_class)
        inter[sl, sl] = 0.0
    max_diff = float(np.max(np.abs(gamma_n - clustered_n)))
    max_inter = float(np.max(np.abs(inter)))
    return EquivalenceReport(n_classes, per_class, max_diff, max_inter,
                             equivalent=max_diff <= EQUIVALENCE_TOL,
                             tol=EQUIVALENCE_TOL)


# ---------------------------------------------------------------------------
# label-set file format

def save_labels(label_set, vertex_weights, path):
    write_container(path, LABELSET_FILE_KIND, LABELSET_FILE_VERSION, {
        "labels": np.asarray(label_set.labels),
        "eigenvalues": np.asarray(label_set.eigenvalues),
        "vertex_weights": np.asarray(vertex_weights, dtype=float),
    })


def load_labels(path):
    """Read a label-set container; returns (LabelSet, vertex_weights).

    Only ``labels``, ``eigenvalues`` and ``vertex_weights`` are read,
    and all three must be finite, with one vertex weight > 0 per sample;
    :func:`build_ell_graph` checks that the labels are normalized and
    decorrelated.
    """
    data = read_container(path, LABELSET_FILE_KIND, {LABELSET_FILE_VERSION})
    with entries_of(path):
        label_set = LabelSet(np.asarray(data["labels"], dtype=float),
                             np.asarray(data["eigenvalues"], dtype=float))
        v = np.asarray(data["vertex_weights"], dtype=float)
        if v.shape != (label_set.n_samples,):
            raise ParameterError(f"vertex_weights must list one number per "
                                 f"sample ({label_set.n_samples}), got shape {v.shape}")
        for name, values in (("labels", label_set.labels),
                             ("eigenvalues", label_set.eigenvalues),
                             ("vertex_weights", v)):
            if not np.all(np.isfinite(values)):
                raise ParameterError(f"{name} must be finite")
        if not np.all(v > 0):
            raise ParameterError("vertex_weights must be > 0")
        return label_set, v


def graph_consistency_report(graph):
    """Consistency summary dict for reports written next to graph files."""
    report = check_consistency(graph)
    return {
        "consistent": report.ok,
        "max_residual": report.max_residual,
        "tol": report.tol,
        "q_sum": graph.q_sum,
        "r_sum": graph.r_sum,
        "n": graph.n_samples,
        "min_edge_weight": graph.gamma_min(),
    }
