"""The benchmark's three workloads.

Each workload is a closed loop with one client: the runner calls
``prepare`` (untimed), ``iterate`` (timed: one whole pipeline), then
``check`` and ``quality`` (untimed) before it starts the next
iteration. Inputs come from ``gsfa.datagen`` with the run's seed;
``generate`` makes them and is what set-up times. Every iteration
rebuilds its graph from the generated arrays, so nothing the library
computes is reused across iterations.

Regression data use one generated set split by sample index: every
sixth sample is a test sample, so train and test cover the same label
values.
"""

import contextlib
import hashlib
import io
import json
import shutil

import numpy as np

from gsfa import builders, cli, datagen, estimators, graph, hierarchy, solver

#: Model deltas must equal the literal edge-sum delta to this tolerance.
DELTA_TOL = 1e-8
#: Minimum canonical correlation of responses and labels (A3/A8 rule).
SPAN_TOL = 1e-8
N_LABELS = 4          # the label plus 3 cosine auxiliaries
LABEL_VALUES = 60     # gen_regression default; sample counts divide by it
FOLDS = 6             # cross-validation folds of the CLI workload's quality


def _split(data, labels):
    test = np.arange(labels.shape[0]) % 6 == 5
    return data[:, ~test], labels[~test], data[:, test], labels[test]


def _eigenvalue_schedule(n_labels):
    """Full weight for the label, decreasing for the auxiliaries.

    The same schedule ``gsfa build-graph --kind ell`` uses, so the
    label's eigenvalue is not degenerate with the auxiliaries'.
    """
    lams = np.ones(n_labels)
    lams[1:] = np.arange(n_labels - 1, 0, -1) / n_labels
    return lams / lams.sum()


def _delta_problems(training_graph, features, deltas):
    problems = []
    for j, (y, delta) in enumerate(zip(features, deltas)):
        literal = graph.weighted_delta(training_graph, y)
        if not abs(literal - delta) <= DELTA_TOL:
            problems.append(f"feature {j}: model delta {delta!r} but edge sum "
                            f"gives {literal!r}")
    return problems


def _test_rmse_ratio(predicted, truth):
    return estimators.rmse(predicted, truth) / estimators.chance_rmse(truth)


def canonical_correlations(a, b):
    """Cosines of the principal angles between the column spans."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.svd(qa.T @ qb, compute_uv=False)


class EllRegression:
    """Library pipeline on a dense exact-label (ELL) graph."""

    name = "ell-regression"
    sizes = {"full": {"n_train": 2000, "n_test": 400},
             "tiny": {"n_train": 300, "n_test": 60}}
    input_dim = 20
    n_features = 5
    n_used = 3

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.n_train = self.sizes[size]["n_train"]
        self.n_test = self.sizes[size]["n_test"]
        self.samples = self.n_train

    def generate(self):
        spec = datagen.SyntheticRegressionSpec(
            n_samples=self.n_train + self.n_test, input_dim=self.input_dim,
            n_label_values=LABEL_VALUES, seed=self.seed)
        data, labels, _ = datagen.gen_regression(spec)
        self.x_train, self.y_train, self.x_test, self.y_test = _split(data, labels)

    def prepare(self):
        pass

    def iterate(self):
        x, y = self.x_train, self.y_train
        v = np.ones(y.shape[0])
        raw = np.vstack([y, builders.auxiliary_labels(y, N_LABELS)])
        label_set = builders.decorrelate_labels(
            builders.normalize_labels(raw, v), v)
        label_set = label_set.with_eigenvalues(_eigenvalue_schedule(N_LABELS))
        training_graph = builders.build_ell_graph(label_set, v, nonnegative=True)
        model = solver.train_gsfa(x, training_graph, n_features=self.n_features)
        train_features = solver.extract_features(model, x)
        test_features = solver.extract_features(model, self.x_test)[:self.n_used]
        used = train_features[:self.n_used]
        linear = estimators.fit_linear_regression(used, y)
        soft_gc = estimators.fit_soft_gc(used, y)
        return {"graph": training_graph, "model": model,
                "train_features": train_features,
                "linear": linear.predict(test_features),
                "soft_gc": soft_gc.predict(test_features)}

    def check(self, out):
        problems = _delta_problems(out["graph"], out["train_features"],
                                   out["model"].deltas)
        for name in ("linear", "soft_gc"):
            if not np.all(np.isfinite(out[name])):
                problems.append(f"{name} test predictions are not finite")
        return problems

    def quality(self, out):
        return _test_rmse_ratio(out["linear"], self.y_test)


class SerialHgsfa:
    """Two-layer hierarchical GSFA on 8x8 images with a serial graph."""

    name = "serial-hgsfa"
    sizes = {"full": {"n_train": 3000, "n_test": 600},
             "tiny": {"n_train": 300, "n_test": 60}}
    image_shape = (8, 8)
    k_groups = 30
    architecture = (
        hierarchy.LayerSpec(grid=(4, 4), receptive_field=(2, 2),
                            expansion=solver.ExpansionSpec(kind="quadratic"),
                            out_dims=4),
        hierarchy.LayerSpec(grid=(1, 1), receptive_field=(4, 4),
                            expansion=solver.ExpansionSpec(kind="quadratic"),
                            out_dims=3, pca_dims=16),
    )

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.n_train = self.sizes[size]["n_train"]
        self.n_test = self.sizes[size]["n_test"]
        self.samples = self.n_train

    def generate(self):
        spec = datagen.SyntheticRegressionSpec(
            n_samples=self.n_train + self.n_test,
            input_dim=self.image_shape[0] * self.image_shape[1],
            n_label_values=LABEL_VALUES, nonlinearity="tanh", seed=self.seed)
        data, labels, _ = datagen.gen_regression(spec)
        x_train, self.y_train, x_test, self.y_test = _split(data, labels)
        self.images_train = x_train.T.reshape(-1, *self.image_shape)
        self.images_test = x_test.T.reshape(-1, *self.image_shape)

    def prepare(self):
        pass

    def iterate(self):
        training_graph = builders.build_serial_graph(self.y_train, self.k_groups)
        network = hierarchy.train_hgsfa(self.images_train, training_graph,
                                        self.architecture)
        train_features = hierarchy.network_extract(network, self.images_train)
        test_features = hierarchy.network_extract(network, self.images_test)
        linear = estimators.fit_linear_regression(train_features, self.y_train)
        return {"graph": training_graph, "network": network,
                "train_features": train_features,
                "linear": linear.predict(test_features)}

    def check(self, out):
        top = out["network"].layers[-1][(0, 0)].gsfa
        problems = _delta_problems(out["graph"], out["train_features"],
                                   top.deltas)
        if not np.all(np.isfinite(out["linear"])):
            problems.append("linear test predictions are not finite")
        return problems

    def quality(self, out):
        return _test_rmse_ratio(out["linear"], self.y_test)


class CliEllSpectrum:
    """``gsfa build-graph --kind ell`` then ``gsfa spectrum``, in-process.

    Outputs go to the same paths every iteration (the echoed configs
    hold the paths), and are deleted before each iteration so a file
    left over from the previous one cannot pass the checks.

    ``quality`` has no estimator to score, so test_rmse_ratio here is
    the held-out error of a linear regression from the generated data to
    the slowest feasible free response the iteration exported, pooled
    over FOLDS folds (every sample is a test sample once): it stays low
    only when the exported response is the label direction.
    """

    name = "cli-ell-spectrum"
    sizes = {"full": {"n": 1500}, "tiny": {"n": 120}}
    input_dim = 20
    volatile = "run_meta.json"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.n = self.samples = self.sizes[size]["n"]
        self.data_dir = workdir / "data"
        self.graph_dir = workdir / "graph"
        self.spectrum_dir = workdir / "spectrum"
        self.graph_path = self.graph_dir / "graph.json"
        self.reference = None     # output digests of the first iteration
        self.responses = {}       # responses.csv digest -> slowest responses
        self.slowest = None       # slowest responses of the last check
        self.generated = None     # (data, labels) read back from gen-data

    def generate(self):
        argv = ["gen-data", "--kind", "regression", "--n", str(self.n),
                "--input-dim", str(self.input_dim), "--seed", str(self.seed),
                "--out-dir", str(self.data_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gsfa gen-data exited with {code}")

    def _load_generated(self):
        if self.generated is None:
            data = np.loadtxt(self.data_dir / "data.csv", delimiter=",",
                              skiprows=1, ndmin=2).T
            labels = np.loadtxt(self.data_dir / "labels.txt", ndmin=1)
            self.generated = data, labels
        return self.generated

    def prepare(self):
        for directory in (self.graph_dir, self.spectrum_dir):
            shutil.rmtree(directory, ignore_errors=True)

    def iterate(self):
        build = ["build-graph", "--kind", "ell",
                 "--labels", str(self.data_dir / "labels.txt"),
                 "--auxiliary", str(N_LABELS), "--nonnegative",
                 "--out", str(self.graph_path)]
        spectrum = ["spectrum", "--graph", str(self.graph_path),
                    "--out-dir", str(self.spectrum_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(build)]
            if codes[0] == 0:
                codes.append(cli.main(spectrum))
        return {"codes": codes}

    def _digests(self):
        digests = {}
        for directory in (self.graph_dir, self.spectrum_dir):
            for path in sorted(directory.iterdir()):
                if path.name != self.volatile:
                    digests[f"{directory.name}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        return digests

    def _slowest_responses(self):
        table = np.loadtxt(self.spectrum_dir / "spectrum.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        feasible = table[table[:, 3] == 1]
        order = np.argsort(feasible[:, 2], kind="stable")[:N_LABELS]
        columns = feasible[order, 0].astype(int)
        return np.loadtxt(self.spectrum_dir / "responses.csv", delimiter=",",
                          skiprows=1, usecols=columns, ndmin=2)

    def check(self, out):
        if out["codes"] != [0, 0]:
            return [f"CLI exit codes {out['codes']}"]
        problems = []
        summary = json.loads((self.spectrum_dir / "summary.json").read_text())
        if summary["slow_count"] != N_LABELS:
            problems.append(f"slow_count {summary['slow_count']}, "
                            f"expected {N_LABELS}")
        digests = self._digests()
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the first iteration: {changed}")
        key = digests["spectrum/responses.csv"]
        if key not in self.responses:
            self.responses[key] = self._slowest_responses()
        self.slowest = self.responses[key]
        _, labels = self._load_generated()
        raw = np.vstack([labels, builders.auxiliary_labels(labels, N_LABELS)])
        centered = raw - raw.mean(axis=1, keepdims=True)
        correlation = float(canonical_correlations(self.slowest, centered.T).min())
        if not correlation >= 1.0 - SPAN_TOL:
            problems.append(f"slowest responses do not span the labels "
                            f"(min canonical correlation {correlation!r})")
        return problems

    def quality(self, out):
        data, _ = self._load_generated()
        target = self.slowest[:, 0]
        fold = np.arange(target.shape[0]) % FOLDS
        predicted = np.empty_like(target)
        for k in range(FOLDS):
            test = fold == k
            linear = estimators.fit_linear_regression(data[:, ~test], target[~test])
            predicted[test] = linear.predict(data[:, test])
        return _test_rmse_ratio(predicted, target)


WORKLOADS = {cls.name: cls for cls in (EllRegression, SerialHgsfa, CliEllSpectrum)}
