"""Deterministic synthetic datasets for desk-scale experiments.

All randomness comes from a counter-based generator so regeneration is
exactly reproducible from (seed, stream, index) alone, independent of
call order and process state:

    key      = mix64(seed + stream * STREAM_SALT)      (uint64 wraparound)
    raw_i    = mix64(key + (i + 1) * GOLDEN)
    uniform  = (raw_i >> 11) * 2**-53                  in [0, 1)

mix64 is the splitmix64 finalizer (xor-shift-multiply chain with the
constants below). Standard normals use the Box-Muller transform on
uniform pairs (2i, 2i+1) of the same stream, taking the cosine branch.
Stream ids are fixed per field (embedding, noise, centroids, ...).
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
MIX_2 = np.uint64(0x94D049BB133111EB)
STREAM_SALT = np.uint64(0xD1B54A32D192ED03)

STREAM_EMBEDDING = 1
STREAM_NOISE = 2
STREAM_CENTROIDS = 3
STREAM_CLASS_NOISE = 4


def _check_scale(name, value):
    """A noise or spread scale must be a finite number >= 0."""
    if not 0 <= value < np.inf:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


def _mix64(x):
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * MIX_1
    x = (x ^ (x >> np.uint64(27))) * MIX_2
    return x ^ (x >> np.uint64(31))


def counter_uniform(seed, stream, start, count):
    """count uniforms in [0, 1) at indices start..start+count-1."""
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed) + np.uint64(stream) * STREAM_SALT)
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        raw = _mix64(key + idx * GOLDEN)
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def counter_normal(seed, stream, start, count):
    """count standard normals; normal i consumes uniforms 2i and 2i+1."""
    u = counter_uniform(seed, stream, 2 * start, 2 * count).reshape(count, 2)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1-u in (0, 1], log finite
    return radius * np.cos(2.0 * np.pi * u[:, 1])


@dataclass(frozen=True)
class SyntheticRegressionSpec:
    """Latent scalar label embedded linearly into I dimensions plus noise.

    Labels take ``n_label_values`` evenly spaced values over
    ``label_range``, each repeated n_samples / n_label_values times
    (at least once; must divide). ``nonlinearity`` warps the latent
    before embedding: "identity", "cubic", or "tanh" (all injective, so
    the label stays recoverable).
    """

    n_samples: int = 600
    input_dim: int = 8
    n_label_values: int = 60
    label_range: tuple = (-1.0, 1.0)
    nonlinearity: str = "identity"
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        if self.n_label_values < 2:
            raise ParameterError("need at least 2 distinct label values")
        if self.n_samples < self.n_label_values:
            raise ParameterError(
                f"n_samples={self.n_samples} is fewer than "
                f"n_label_values={self.n_label_values}")
        if self.n_samples % self.n_label_values:
            raise ParameterError(
                f"n_samples={self.n_samples} not divisible by "
                f"n_label_values={self.n_label_values}")
        if self.nonlinearity not in ("identity", "cubic", "tanh"):
            raise ParameterError(f"unknown nonlinearity {self.nonlinearity!r}")
        _check_scale("noise", self.noise)


def _warp(values, nonlinearity):
    if nonlinearity == "identity":
        return values
    if nonlinearity == "cubic":
        return values ** 3
    return np.tanh(values)


def gen_regression(spec):
    """Generate (I x N data, labels, metadata) from a regression spec.

    x(n) = a * phi(l(n)) + noise * eps(n) with a the unit-norm random
    embedding direction. Metadata echoes the spec fields and the
    ground-truth embedding.
    """
    per_value = spec.n_samples // spec.n_label_values
    values = np.linspace(spec.label_range[0], spec.label_range[1],
                         spec.n_label_values)
    labels = np.repeat(values, per_value)
    latent = _warp(labels, spec.nonlinearity)

    direction = counter_normal(spec.seed, STREAM_EMBEDDING, 0, spec.input_dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ParameterError("degenerate embedding draw; use another seed")
    direction = direction / norm
    noise = counter_normal(spec.seed, STREAM_NOISE, 0,
                           spec.input_dim * spec.n_samples)
    data = (np.outer(direction, latent)
            + spec.noise * noise.reshape(spec.input_dim, spec.n_samples))
    meta = {"spec": asdict(spec), "embedding": direction.tolist(),
            "per_value": per_value}
    return data, labels, meta


@dataclass(frozen=True)
class SyntheticClassificationSpec:
    """Balanced Gaussian blobs; class count a power of two."""

    n_classes: int = 8
    per_class: int = 20
    input_dim: int = 8
    spread: float = 5.0
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        c = self.n_classes
        if c < 2 or 2 ** (c.bit_length() - 1) != c:
            raise ParameterError(f"n_classes must be a power of two, got {c}")
        if self.per_class < 2:
            raise ParameterError("per_class must be >= 2")
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        _check_scale("spread", self.spread)
        _check_scale("noise", self.noise)


def gen_classification(spec):
    """Generate (I x N data, class ids, metadata) from a classification spec."""
    n = spec.n_classes * spec.per_class
    centroids = spec.spread * counter_normal(
        spec.seed, STREAM_CENTROIDS, 0,
        spec.n_classes * spec.input_dim).reshape(spec.n_classes, spec.input_dim)
    noise = spec.noise * counter_normal(
        spec.seed, STREAM_CLASS_NOISE, 0,
        n * spec.input_dim).reshape(spec.input_dim, n)
    class_ids = np.repeat(np.arange(spec.n_classes), spec.per_class)
    data = centroids[class_ids].T + noise
    meta = {"spec": asdict(spec), "centroids": centroids.tolist()}
    return data, class_ids, meta
