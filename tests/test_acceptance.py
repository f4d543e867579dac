"""Acceptance suite: one pass/fail line per criterion (run with -s).

Criteria A1..A11 pin the package's quantitative contracts at fixed
tolerances. A2's serial-graph part asserts the count law
floor((K-2)/2) for the number of feasible responses with delta < 2,
together with the closed-form spectrum it follows from: the groups of
the serial graph form an equitable partition whose quotient is the
random walk on a K-node path, so the feasible deltas below 2 are
2(1 - cos(pi j/(K-1))). At K=15 the law gives 6, the count A1 pins
for the same graph.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import gsfa
from gsfa import cli

from conftest import (
    chain_graph,
    dcov_by_edge_sum,
    ell_graph_from_seed,
    remove_self_loops,
)


def _verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    return ok


def _ell4_graph(n=30):
    label = np.arange(n, dtype=float) + 2.0 * np.sin(np.arange(n) / 3.0)
    assert np.all(np.diff(label) > 0)  # strictly increasing
    v = np.ones(n)
    raw = np.vstack([label, gsfa.auxiliary_labels(label, 4)])
    label_set = gsfa.decorrelate_labels(gsfa.normalize_labels(raw, v), v)
    return gsfa.build_ell_graph(
        label_set.with_eigenvalues([0.4, 0.3, 0.2, 0.1]), v)


# ---------------------------------------------------------------------------
# A1: slow-response counts of the three reference graphs (exact, < 5 s)

def test_a1_reference_spectrum_counts():
    start = time.monotonic()
    counts = {
        "reordering": gsfa.optimal_free_responses(
            gsfa.build_linear_graph(30, variant="self_loop_extended")).slow_count(),
        "serial": gsfa.optimal_free_responses(
            gsfa.build_serial_graph(np.arange(30.0), 15)).slow_count(),
        "ell4": gsfa.optimal_free_responses(_ell4_graph(30)).slow_count(),
    }
    elapsed = time.monotonic() - start
    expected = {"reordering": 14, "serial": 6, "ell4": 4}
    ok = counts == expected and elapsed < 5.0
    assert _verdict("A1 reference-spectrum-counts", ok,
                    f"counts={counts}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# A2: count formulas (exact)

@pytest.mark.parametrize("n", [10, 20, 30])
def test_a2_count_formula_reordering(n):
    count = gsfa.optimal_free_responses(
        gsfa.build_linear_graph(n, variant="self_loop_extended")).slow_count()
    ok = count == (n - 1) // 2
    assert _verdict(f"A2 reordering-count-formula[N={n}]", ok,
                    f"count={count}, target={(n - 1) // 2}")


@pytest.mark.parametrize("k", [5, 10, 15])
def test_a2_count_formula_serial(k):
    """Asserts the count law floor((K-2)/2) and the spectrum behind it.

    The serial graph joins consecutive label groups completely, with
    edge weight 1, end-group vertex weight 1 and interior vertex weight
    2. Its groups form an equitable partition; the quotient is the
    random walk on a K-node path, with eigenvalues cos(pi j/(K-1)) for
    j = 0..K-1, so by delta = 2 - (2Q/R) lambda the feasible deltas are
    Delta_j = 2(1 - cos(pi j/(K-1))) for j = 1..K-1 and every other
    feasible response sits at delta = 2. The path is bipartite, so
    Delta_j < 2 exactly when j < (K-1)/2: the count is floor((K-2)/2).
    For odd K the middle response j = (K-1)/2 sits at delta = 2 and is
    not counted.
    """
    n = 2 * k
    spec = gsfa.optimal_free_responses(
        gsfa.build_serial_graph(np.arange(float(n)), k))
    count = spec.slow_count()
    _, deltas = spec.feasible_responses()  # ascending
    at_two = np.abs(deltas - 2.0) <= 1e-9
    j = np.array([j for j in range(1, k) if 2 * j != k - 1])
    expected = 2.0 * (1.0 - np.cos(np.pi * j / (k - 1)))  # ascending in j
    off_two = deltas[~at_two]
    spectrum_ok = (off_two.shape == expected.shape
                   and np.allclose(off_two, expected, rtol=0.0, atol=1e-10))
    n_at_two = int(at_two.sum())
    ok = (count == (k - 2) // 2 and spectrum_ok
          and n_at_two == n - k + k % 2)
    assert _verdict(f"A2 serial-count-formula[K={k}]", ok,
                    f"count={count}, law={(k - 2) // 2}, "
                    f"closed-form={'ok' if spectrum_ok else 'MISMATCH'}, "
                    f"at-2={n_at_two}/{n - k + k % 2}")


# ---------------------------------------------------------------------------
# A3: exact-label round trip + negative-weight elimination (20 random sets)

def test_a3_exact_label_round_trip():
    rng = np.random.default_rng(2024)
    ok = True
    worst = {"label": 0.0, "delta": 0.0, "affine": 0.0}
    for trial in range(20):
        n = int(rng.integers(8, 65))
        n_labels = int(rng.integers(1, 6))
        v = np.ones(n)
        raw = rng.normal(size=(n_labels, n))
        label_set = gsfa.decorrelate_labels(gsfa.normalize_labels(raw, v), v)
        lams = np.linspace(1.0, 0.4, n_labels) * rng.uniform(0.5, 1.0)
        label_set = label_set.with_eigenvalues(lams)
        graph = gsfa.build_ell_graph(label_set, v)
        responses, deltas = gsfa.optimal_free_responses(graph).feasible_responses()
        targets = gsfa.deltas_from_eigenvalues(lams, graph.q_sum, graph.r_sum)
        for j in range(n_labels):
            err = min(np.max(np.abs(responses[:, j] - label_set.labels[j])),
                      np.max(np.abs(responses[:, j] + label_set.labels[j])))
            worst["label"] = max(worst["label"], err)
            worst["delta"] = max(worst["delta"], abs(deltas[j] - targets[j]))
            ok = ok and err <= 1e-8 and abs(deltas[j] - targets[j]) <= 1e-10

        shifted = gsfa.eliminate_negative_weights(graph)
        ok = ok and shifted.gamma_min() >= -1e-12
        ok = ok and abs(shifted.r_sum - graph.r_sum) <= 1e-9 * graph.r_sum
        resp2, deltas2 = gsfa.optimal_free_responses(shifted).feasible_responses()
        c = max(0.0, float(np.max(-graph.gamma_dense() / np.outer(v, v))))
        shift_factor = c * graph.q_sum ** 2 / graph.r_sum
        for j in range(n_labels):
            err = min(np.max(np.abs(resp2[:, j] - label_set.labels[j])),
                      np.max(np.abs(resp2[:, j] + label_set.labels[j])))
            ok = ok and err <= 1e-6  # ordering preserved: label j stays at rank j
            affine = abs(deltas2[j] - (deltas[j] + 2 * shift_factor)
                         / (1 + shift_factor))
            worst["affine"] = max(worst["affine"], affine)
            ok = ok and affine <= 1e-9
    assert _verdict(
        "A3 exact-label-round-trip", ok,
        f"worst label err {worst['label']:.2e}, delta err {worst['delta']:.2e}, "
        f"affine err {worst['affine']:.2e}")


# ---------------------------------------------------------------------------
# A4: noise-delta theorem (exact closed form + Monte Carlo)

def test_a4_noise_delta():
    rng = np.random.default_rng(7)
    n = 30
    raw = rng.normal(size=(2, n))
    v = np.ones(n)
    label_set = gsfa.decorrelate_labels(gsfa.normalize_labels(raw, v), v)
    ell = gsfa.build_ell_graph(label_set.with_eigenvalues([0.6, 0.4]), v,
                               nonnegative=True)
    graphs = {
        "clustered": gsfa.build_clustered_graph([5, 5, 5, 5, 5, 5]),
        "serial": gsfa.build_serial_graph(np.arange(30.0), 10),
        # the elimination step introduces self-loops; the theorem covers
        # loop-free graphs, so they are removed before sampling
        "nonneg-ell": remove_self_loops(ell),
    }
    ok = True
    details = []
    draws = rng.standard_normal(size=(10_000, n))
    for name, graph in graphs.items():
        exact = gsfa.expected_noise_delta(graph)
        ok = ok and exact == 2.0
        mean = float(np.mean([gsfa.weighted_delta(graph, y) for y in draws]))
        details.append(f"{name}: exact={exact}, mc={mean:.4f}")
        ok = ok and abs(mean - 2.0) <= 0.05
    assert _verdict("A4 noise-delta", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# A5: solver equals the unrestricted optimum on one-hot inputs

def _block_partition(deltas, tol=1e-6):
    blocks = []
    start = 0
    for i in range(1, deltas.size + 1):
        if i == deltas.size or deltas[i] - deltas[i - 1] > tol:
            blocks.append((start, i))
            start = i
    return blocks


def _features_match_responses(features, responses, deltas, tol=1e-6):
    """Sign match on simple responses; subspace match inside tied blocks."""
    for s, e in _block_partition(deltas, tol):
        if e - s == 1:
            err = min(np.max(np.abs(features[s] - responses[:, s])),
                      np.max(np.abs(features[s] + responses[:, s])))
            if err > tol:
                return False
        else:
            angles = scipy.linalg.subspace_angles(features[s:e].T,
                                                  responses[:, s:e])
            if np.max(angles) > tol:
                return False
    return True


def test_a5_solver_matches_free_responses():
    rng = np.random.default_rng(11)
    n = 24
    v = np.ones(n)
    raw = rng.normal(size=(3, n))
    label_set = gsfa.decorrelate_labels(gsfa.normalize_labels(raw, v), v)
    label_set = label_set.with_eigenvalues([0.5, 0.3, 0.2])
    ell = gsfa.build_ell_graph(label_set, v)
    graphs = {
        "reordering": gsfa.build_linear_graph(16),
        "endpoint-linear": gsfa.build_linear_graph(
            16, variant="endpoint_halved_vertex_weights"),
        "serial": gsfa.build_serial_graph(rng.normal(size=24), 6),
        "clustered": gsfa.build_clustered_graph([4, 5, 6]),
        "ell": ell,
        "nonneg-ell": gsfa.eliminate_negative_weights(ell),
    }
    ok = True
    details = []
    for name, graph in graphs.items():
        one_hot = np.eye(graph.n_samples)
        model = gsfa.train_gsfa(one_hot, graph,
                                n_features=graph.n_samples - 1)
        responses, deltas = gsfa.optimal_free_responses(graph).feasible_responses()
        delta_err = float(np.max(np.abs(np.sort(model.deltas) - np.sort(deltas))))
        features = gsfa.extract_features(model, one_hot)
        matched = _features_match_responses(features, responses, deltas)
        details.append(f"{name}: ddelta={delta_err:.1e}")
        ok = ok and delta_err <= 1e-6 and matched
    assert _verdict("A5 solver-free-response-equivalence", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# A6: clustered graph yields C-1 zero-delta class indicators

@pytest.mark.parametrize("sizes", [[2, 2], [3, 4, 2], [4, 4, 4, 4],
                                   [6, 5, 4, 3, 2, 6, 5, 4]])
def test_a6_clustered_discriminant_structure(sizes):
    graph = gsfa.build_clustered_graph(sizes)
    spec = gsfa.optimal_free_responses(graph)
    zero = spec.feasible & (np.abs(spec.deltas) <= 1e-10)
    n_classes = len(sizes)
    ok = int(zero.sum()) == n_classes - 1
    starts = np.cumsum([0] + sizes)
    spread = 0.0
    for j in np.flatnonzero(zero):
        y = spec.responses[:, j]
        for c in range(n_classes):
            block = y[starts[c]:starts[c + 1]]
            spread = max(spread, float(np.max(block) - np.min(block)))
    ok = ok and spread <= 1e-8
    assert _verdict(f"A6 clustered-structure[C={n_classes}]", ok,
                    f"zero-delta={int(zero.sum())}, spread={spread:.1e}")


# ---------------------------------------------------------------------------
# A7: compact+(C-1) with equal eigenvalues equals the clustered graph

@pytest.mark.parametrize("n_classes", [2, 4, 8])
def test_a7_compact_equals_clustered(n_classes):
    report = gsfa.clustered_equivalence_check(n_classes, per_class=4)
    ok = report.max_abs_diff <= 1e-10 and report.max_interclass <= 1e-12
    assert _verdict(f"A7 compact-clustered-equivalence[C={n_classes}]", ok,
                    f"maxdiff={report.max_abs_diff:.1e}, "
                    f"interclass={report.max_interclass:.1e}")


# ---------------------------------------------------------------------------
# A8: identical feature subspaces on one-hot inputs

def test_a8_same_subspace():
    spec = gsfa.SyntheticClassificationSpec(n_classes=8, per_class=5,
                                            input_dim=6, seed=0)
    _, class_ids, _ = gsfa.gen_classification(spec)
    sizes = [int(np.sum(class_ids == c)) for c in range(8)]
    clustered = gsfa.build_clustered_graph(sizes)
    compact = gsfa.compact_binary_labels(8, 7)
    ell = gsfa.build_ell_graph(compact.expand(sizes), np.ones(sum(sizes)))
    one_hot = np.eye(sum(sizes))
    feats_clustered = gsfa.extract_features(
        gsfa.train_gsfa(one_hot, clustered, n_features=7), one_hot)
    feats_compact = gsfa.extract_features(
        gsfa.train_gsfa(one_hot, ell, n_features=7), one_hot)
    correlations = np.cos(scipy.linalg.subspace_angles(feats_clustered.T,
                                                       feats_compact.T))
    ok = bool(np.all(correlations >= 1.0 - 1e-8))
    assert _verdict("A8 same-subspace", ok,
                    f"min canonical correlation={correlations.min():.12f}")


# ---------------------------------------------------------------------------
# A9: the difference-covariance formula equals the literal edge sum

def _a9_cases():
    """One graph per builder and storage form, negative and inconsistent too."""
    rng = np.random.default_rng(5)
    m = rng.normal(size=(60, 60)) * (rng.random((60, 60)) < 0.2)
    gamma = m + m.T  # negative weights, inconsistent for these v
    v = rng.uniform(0.5, 2.0, 60)
    ell = ell_graph_from_seed(9, 120, 3, nonnegative=False, uniform=False)
    assert ell.gamma_min() < 0
    return {
        "linear-self-loops": gsfa.build_linear_graph(150),
        "linear-halved": gsfa.build_linear_graph(
            150, variant="endpoint_halved_vertex_weights"),
        "serial": gsfa.build_serial_graph(rng.normal(size=200), 10),
        "clustered": gsfa.build_clustered_graph([25, 30, 20, 25, 35, 25, 15, 25]),
        "ell-negative": ell,
        "ell-eliminated": gsfa.eliminate_negative_weights(ell),
        "random-dense": gsfa.TrainingGraph(v, gamma),
        "random-csr": gsfa.TrainingGraph(v, scipy.sparse.csr_array(gamma)),
        "chain-inconsistent": chain_graph(80),
    }


def test_a9_dcov_formula_matches_edge_sum():
    rng = np.random.default_rng(6)
    worst, worst_case = 0.0, None
    for name, graph in _a9_cases().items():
        data = rng.normal(size=(16, graph.n_samples))
        for offset in (0.0, 1e3):
            reference = dcov_by_edge_sum(data + offset, graph)
            diff = float(np.max(np.abs(
                gsfa.derivative_covariance(data + offset, graph) - reference)))
            rel = diff / float(np.max(np.abs(reference)))
            if rel >= worst:
                worst, worst_case = rel, f"{name}, offset {offset:g}"
    ok = worst <= 1e-12
    assert _verdict("A9 dcov-formula-equals-edge-sum", ok,
                    f"worst rel diff={worst:.1e} on {worst_case}")


# ---------------------------------------------------------------------------
# A10: end-to-end synthetic regression

def test_a10_end_to_end_regression():
    start = time.monotonic()
    spec = gsfa.SyntheticRegressionSpec(n_samples=720, input_dim=8,
                                        n_label_values=60, noise=0.05, seed=1)
    data, labels, _ = gsfa.gen_regression(spec)
    per_value = 12
    idx = np.arange(720).reshape(60, per_value)
    train_idx = idx[:, :10].ravel()   # N=600 training samples
    test_idx = idx[:, 10:].ravel()
    x_train, y_train = data[:, train_idx], labels[train_idx]
    x_test, y_test = data[:, test_idx], labels[test_idx]

    v = np.ones(x_train.shape[1])
    label_set = gsfa.normalize_labels(y_train[None, :], v).with_eigenvalues([1.0])
    graph = gsfa.build_ell_graph(label_set, v, nonnegative=True)
    model = gsfa.train_gsfa(x_train, graph, n_features=3)
    est = gsfa.fit_linear_scaling(
        gsfa.extract_features(model, x_train)[0], y_train)
    pred = est.predict(gsfa.extract_features(model, x_test)[0])
    test_rmse = gsfa.rmse(pred, y_test)
    chance = gsfa.chance_rmse(y_test)
    elapsed = time.monotonic() - start
    ok = test_rmse <= 0.25 * chance and elapsed < 30.0
    assert _verdict("A10 end-to-end-regression", ok,
                    f"test rmse={test_rmse:.4f}, chance={chance:.4f}, "
                    f"ratio={test_rmse / chance:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A11: reproduce bundles are byte-identical

@pytest.mark.parametrize("name", ["fig6-spectra", "ell-roundtrip",
                                  "compact-vs-clustered"])
def test_a11_reproduce_determinism(name, tmp_path):
    out_dir = tmp_path / "bundle"

    def run_and_snapshot():
        code = cli.main(["reproduce", name, "--out-dir", str(out_dir),
                         "--seed", "0"])
        assert code == 0
        return {p.relative_to(out_dir): p.read_bytes()
                for p in sorted(Path(out_dir).rglob("*")) if p.is_file()
                and p.name != "run_meta.json"}

    first = run_and_snapshot()
    second = run_and_snapshot()
    ok = first == second
    assert _verdict(f"A11 reproduce-determinism[{name}]", ok,
                    f"{len(first)} files compared")
