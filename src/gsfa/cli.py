"""Command-line front end: reproducible experiment commands.

Subcommands build graphs, export spectra, train and evaluate models,
generate synthetic data, and run named end-to-end pipelines. Every
command is deterministic given its flags and seed; for a fixed BLAS
thread count, reruns overwrite outputs byte-identically. The only
volatile file is ``run_meta.json``
(wall-clock timestamp), written separately so artifact directories stay
diffable.

Exit codes: 0 success, 1 numerical or contract failure, 2 usage error or
an operating-system error on a file (``error: <path>: <reason>``).
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import builders, datagen, estimators, hierarchy, matrixio, solver, spectrum
from .errors import GsfaError, ParameterError
from .graph import ell_elimination_constant, load_graph, save_graph
from .serialize import write_json

# ---------------------------------------------------------------------------
# small deterministic I/O helpers

def _echo_config(out_dir, command, params):
    write_json(Path(out_dir) / "config.json",
               {"command": command, "params": params})


def _write_run_meta(out_dir, command):
    write_json(Path(out_dir) / "run_meta.json",
               {"command": command, "timestamp": time.time()})


def _read_label_file(path):
    """One finite float per line; '#' lines are comments."""
    values = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                value = float(line)
            except ValueError:
                raise ParameterError(
                    f"{path}: line {number}: {line!r} is not a number") from None
            if not np.isfinite(value):
                raise ParameterError(
                    f"{path}: line {number}: {line!r} is not a finite number")
            values.append(value)
    if not values:
        raise ParameterError(f"{path}: no label values found")
    return np.asarray(values)


def _write_label_file(path, values):
    Path(path).write_text(
        "\n".join(repr(float(x)) for x in np.asarray(values).ravel()) + "\n")


def _csv_writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _reject_unread(args, defaults, context):
    """ParameterError naming each flag of ``defaults`` set away from its default."""
    flags = [f"--{name.replace('_', '-')}" for name, default in defaults.items()
             if getattr(args, name) != default]
    if flags:
        raise ParameterError(f"not used {context}: {', '.join(flags)}")


# ---------------------------------------------------------------------------
# build-graph

def _parse_float_list(text, flag):
    try:
        values = [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise ParameterError(
            f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{flag} must be finite numbers, got {text!r}")
    return values


#: build-graph flags past --kind and --out, and their defaults
_GRAPH_DEFAULTS = {"n": 30, "variant": "self_loop_extended", "class_sizes": "",
                   "labels": None, "k": 10, "policy": "strict", "auxiliary": 1,
                   "eigenvalues": None, "nonnegative": False, "label_set": None,
                   "save_label_set": None}
#: the flags each --kind reads; ell with --label-set takes its labels there
_GRAPH_KIND_FLAGS = {
    "linear": {"n", "variant"},
    "clustered": {"class_sizes"},
    "serial": {"labels", "k", "policy"},
    "ell": {"labels", "auxiliary", "eigenvalues", "nonnegative", "label_set",
            "save_label_set"},
    "ell --label-set": {"label_set", "nonnegative", "save_label_set"},
}


def _ell_label_set_from_flags(args):
    """The label set and vertex weights of an ell graph's flags."""
    if args.label_set:
        label_set, v = builders.load_labels(args.label_set)
    else:
        if not args.labels:
            raise ParameterError("ell graphs need --labels or --label-set")
        labels = _read_label_file(args.labels)
        n = labels.shape[0]
        rows = [labels]
        if args.auxiliary > 1:
            rows.extend(builders.auxiliary_labels(labels, args.auxiliary))
        raw = np.vstack(rows)
        v = np.ones(n)
        label_set = builders.decorrelate_labels(
            builders.normalize_labels(raw, v), v)
        if args.eigenvalues:
            lams = np.asarray(_parse_float_list(args.eigenvalues, "--eigenvalues"))
            if lams.shape[0] != label_set.n_labels:
                raise ParameterError(
                    f"{label_set.n_labels} labels but {lams.shape[0]} eigenvalues")
        else:
            # full weight for the original label, linearly decreasing for
            # the cosine auxiliaries, scaled to unit sum
            n_labels = label_set.n_labels
            lams = np.ones(n_labels)
            if n_labels > 1:
                lams[1:] = np.arange(n_labels - 1, 0, -1) / n_labels
            lams = lams / lams.sum()
        label_set = label_set.with_eigenvalues(lams)
    return label_set, v


def cmd_build_graph(args):
    if args.kind == "linear":
        graph = builders.build_linear_graph(args.n, variant=args.variant)
    elif args.kind == "clustered":
        sizes = _parse_float_list(args.class_sizes, "--class-sizes")
        if not all(size.is_integer() for size in sizes):
            raise ParameterError(
                f"--class-sizes must be whole numbers, got {args.class_sizes!r}")
        graph = builders.build_clustered_graph([int(size) for size in sizes])
    elif args.kind == "serial":
        if not args.labels:
            raise ParameterError("serial graphs need --labels")
        labels = _read_label_file(args.labels)
        graph = builders.build_serial_graph(labels, args.k, policy=args.policy)
    else:
        label_set, v = _ell_label_set_from_flags(args)
        graph = builders.build_ell_graph(label_set, v, nonnegative=args.nonnegative)
    # after the kind's own flags, so a malformed value of those is named first
    kind = "ell --label-set" if args.kind == "ell" and args.label_set else args.kind
    _reject_unread(args, {name: default for name, default in _GRAPH_DEFAULTS.items()
                          if name not in _GRAPH_KIND_FLAGS[kind]},
                   f"with --kind {kind}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.save_label_set:  # ell's alone
        Path(args.save_label_set).parent.mkdir(parents=True, exist_ok=True)
        builders.save_labels(label_set, v, args.save_label_set)
    save_graph(graph, out)
    report = builders.graph_consistency_report(graph)
    write_json(out.with_suffix(out.suffix + ".report.json"), report)
    write_json(out.with_suffix(out.suffix + ".config.json"),
               {"command": "build-graph", "params": _public_args(args)})
    print(f"wrote {out} (n={graph.n_samples}, consistent={report['consistent']}, "
          f"min edge weight={report['min_edge_weight']:.3g})")
    return 0


# ---------------------------------------------------------------------------
# spectrum

def _edge_percentile(text):
    """Value of --edge-percentile: a number in (0, 100]."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 < value <= 100:
        raise argparse.ArgumentTypeError(
            f"must be a number in (0, 100], got {text!r}")
    return value


def cmd_spectrum(args):
    graph = load_graph(args.graph)
    spec = spectrum.optimal_free_responses(graph)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spectrum.export_spectrum(spec, out_dir / "spectrum.csv",
                             out_dir / "responses.csv")
    if args.edge_percentile is not None:
        spectrum.export_edges(graph, out_dir / "edges.csv",
                              percentile=args.edge_percentile)
    summary = {
        "n": graph.n_samples,
        "q_sum": graph.q_sum,
        "r_sum": graph.r_sum,
        "slow_count": spec.slow_count(),
        "expected_noise_delta": spectrum.expected_noise_delta(graph),
    }
    write_json(out_dir / "summary.json", summary)
    _echo_config(out_dir, "spectrum", _public_args(args))
    _write_run_meta(out_dir, "spectrum")
    print(f"responses with delta < 2: {summary['slow_count']}")
    return 0


# ---------------------------------------------------------------------------
# train / evaluate

#: train flags that only a flat model reads, and their defaults
_FLAT_TRAIN_DEFAULTS = {"expansion": "identity", "degree": 2, "pca": None,
                        "features": None}


def cmd_train(args):
    data = matrixio.load_matrix(args.data)
    graph = load_graph(args.graph)
    out = Path(args.out)

    if args.hierarchy:
        _reject_unread(args, _FLAT_TRAIN_DEFAULTS, "with --hierarchy, whose "
                       "architecture file sets the nodes")
        specs = hierarchy.load_architecture(args.hierarchy)
        model = hierarchy.train_hgsfa(hierarchy.as_images(data, specs), graph,
                                      specs)
        hierarchy.save_network(model, out)
        report_path = out / "report.json"
        config_path = out / "config.json"
    else:
        expansion = solver.ExpansionSpec(kind=args.expansion, degree=args.degree)
        model, _ = solver.train_node(data, graph, expansion,
                                     n_features=args.features, pca_dims=args.pca)
        out.parent.mkdir(parents=True, exist_ok=True)
        solver.save_model(model, out)
        report_path = out.with_suffix(out.suffix + ".report.json")
        config_path = out.with_suffix(out.suffix + ".config.json")

    deltas = model.gsfa.deltas.tolist()
    write_json(report_path, {"deltas": deltas, "graph": graph.fingerprint()})
    write_json(config_path, {"command": "train", "params": _public_args(args)})
    print(f"wrote {out}; first deltas: "
          + ", ".join(f"{d:.4f}" for d in deltas[:5]))
    return 0


_REGRESSION_ESTIMATORS = {
    "linear_scaling": estimators.fit_linear_scaling,
    "linear_regression": estimators.fit_linear_regression,
    "soft_gc": estimators.fit_soft_gc,
}
_ESTIMATOR_NAMES = (*_REGRESSION_ESTIMATORS, "nearest_centroid")
#: metrics.csv columns after graph, estimator and d; each row fills those
#: of its estimator, and metrics_long.csv lists them in this order
_METRICS = ("rmse_train", "rmse_test", "chance_rmse_train", "chance_rmse_test",
            "error_rate_train", "error_rate_test")


def _features_and_labels(model, data_path, labels_path):
    """The model's features of a data file and the labels of its samples."""
    data = matrixio.load_matrix(data_path)
    labels = _read_label_file(labels_path)
    if labels.shape[0] != data.shape[1]:
        raise ParameterError(f"{labels_path}: {labels.shape[0]} labels for the "
                             f"{data.shape[1]} samples of {data_path}")
    return model.extract(data), labels


def _scores(name, feats_train, feats_test, labels_train, labels_test, chance):
    """{metric: value} of estimator ``name`` fit on the training features.

    ``chance`` holds the chance RMSEs a regression row reports too.
    """
    if name == "nearest_centroid":
        clf = estimators.fit_nearest_centroid(feats_train, labels_train)
        return {"error_rate_train": estimators.error_rate(
                    estimators.classify(clf, feats_train), labels_train),
                "error_rate_test": estimators.error_rate(
                    estimators.classify(clf, feats_test), labels_test)}
    est = _REGRESSION_ESTIMATORS[name](feats_train, labels_train)
    return {"rmse_train": estimators.rmse(est.predict(feats_train), labels_train),
            "rmse_test": estimators.rmse(est.predict(feats_test), labels_test),
            **chance}


def cmd_evaluate(args):
    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    for name in names:
        if name not in _ESTIMATOR_NAMES:
            raise ParameterError(f"unknown estimator {name!r}; choose from "
                                 f"{', '.join(_ESTIMATOR_NAMES)}")
    if not names:
        raise ParameterError(f"--estimators names no estimator: {args.estimators!r}")
    if args.d_min < 1:
        raise ParameterError(f"--d-min must be at least 1, got {args.d_min}")
    if args.d_max < args.d_min:
        raise ParameterError(
            f"--d-max {args.d_max} is below --d-min {args.d_min}")
    model = (hierarchy.load_network if Path(args.model).is_dir()
             else solver.load_model)(args.model)
    if args.d_min > model.gsfa.n_features:
        raise ParameterError(f"--d-min {args.d_min} is above the "
                             f"{model.gsfa.n_features} features of {args.model}")
    feats_train, labels_train = _features_and_labels(model, args.train_data,
                                                     args.train_labels)
    feats_test, labels_test = _features_and_labels(model, args.test_data,
                                                   args.test_labels)

    d_max = min(args.d_max, model.gsfa.n_features)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph_id = model.gsfa.trained_on.get("checksum", "unknown")
    chance = {"chance_rmse_train": estimators.chance_rmse(labels_train),
              "chance_rmse_test": estimators.chance_rmse(labels_test)}

    rows = []
    long_rows = []
    for name in names:
        for d in range(args.d_min, d_max + 1):
            scores = _scores(name, feats_train[:d], feats_test[:d],
                             labels_train, labels_test, chance)
            rows.append([graph_id, name, d, *(repr(scores[m]) if m in scores
                                              else "" for m in _METRICS)])
            long_rows.extend([name, d, m, repr(scores[m])]
                             for m in _METRICS if m in scores)
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["graph", "estimator", "d", *_METRICS])
        writer.writerows(rows)
    with open(out_dir / "metrics_long.csv", "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["estimator", "features_used", "metric", "value"])
        writer.writerows(long_rows)
    _echo_config(out_dir, "evaluate", _public_args(args))
    _write_run_meta(out_dir, "evaluate")
    print(f"wrote {out_dir / 'metrics.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# gen-data

def cmd_gen_data(args):
    if args.kind == "regression":
        spec = datagen.SyntheticRegressionSpec(
            n_samples=args.n, input_dim=args.input_dim,
            n_label_values=args.label_values,
            nonlinearity=args.nonlinearity, noise=args.noise, seed=args.seed)
        data, labels, meta = datagen.gen_regression(spec)
    else:
        spec = datagen.SyntheticClassificationSpec(
            n_classes=args.classes, per_class=args.per_class,
            input_dim=args.input_dim, noise=args.noise, seed=args.seed)
        data, labels, meta = datagen.gen_classification(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrixio.save_matrix_csv(data, out_dir / "data.csv")
    matrixio.save_matrix_binary(data, out_dir / "data.bin")
    _write_label_file(out_dir / "labels.txt", labels)
    write_json(out_dir / "meta.json", meta)
    _echo_config(out_dir, "gen-data", _public_args(args))
    _write_run_meta(out_dir, "gen-data")
    print(f"wrote {out_dir} (I={data.shape[0]}, N={data.shape[1]})")
    return 0


# ---------------------------------------------------------------------------
# reproduce pipelines

def _fig6_label(n):
    """Strictly increasing reference label with a non-uniform shape."""
    idx = np.arange(n, dtype=float)
    return idx + 2.0 * np.sin(idx / 3.0)


def _reproduce_fig6(out_dir, seed):
    label = _fig6_label(30)
    v = np.ones(30)
    graphs = {
        "reordering": builders.build_linear_graph(30, variant="self_loop_extended"),
        "serial": builders.build_serial_graph(label, 15),
    }
    raw = np.vstack([label, builders.auxiliary_labels(label, 4)])
    label_set = builders.decorrelate_labels(builders.normalize_labels(raw, v), v)
    label_set = label_set.with_eigenvalues([0.4, 0.3, 0.2, 0.1])
    graphs["ell4"] = builders.build_ell_graph(label_set, v)

    expected = {"reordering": 14, "serial": 6, "ell4": 4}
    counts = {}
    for name, graph in graphs.items():
        sub = out_dir / name
        sub.mkdir(parents=True, exist_ok=True)
        save_graph(graph, sub / "graph.json")
        spec = spectrum.optimal_free_responses(graph)
        spectrum.export_spectrum(spec, sub / "spectrum.csv", sub / "responses.csv")
        spectrum.export_edges(graph, sub / "edges.csv")
        counts[name] = spec.slow_count()
    checks = {name: counts[name] == expected[name] for name in expected}
    return {"counts": counts, "expected": expected, "checks": checks,
            "passed": all(checks.values())}


def _random_label_set(seed, trial, n, n_labels):
    raw = datagen.counter_normal(seed, 100 + trial, 0, n_labels * n)
    raw = raw.reshape(n_labels, n)
    v = np.ones(n)
    label_set = builders.decorrelate_labels(builders.normalize_labels(raw, v), v)
    lams = np.linspace(1.0, 0.3, n_labels)  # distinct, positive
    return label_set.with_eigenvalues(lams / lams.sum()), v


def _roundtrip_trial(label_set, v):
    graph = builders.build_ell_graph(label_set, v)
    spec = spectrum.optimal_free_responses(graph)
    responses, deltas = spec.feasible_responses()
    n_labels = label_set.n_labels
    label_err = 0.0
    delta_err = 0.0
    targets = builders.deltas_from_eigenvalues(
        label_set.eigenvalues, graph.q_sum, graph.r_sum)
    for j in range(n_labels):
        err = min(float(np.max(np.abs(responses[:, j] - label_set.labels[j]))),
                  float(np.max(np.abs(responses[:, j] + label_set.labels[j]))))
        label_err = max(label_err, err)
        delta_err = max(delta_err, abs(deltas[j] - targets[j]))

    shifted = builders.eliminate_negative_weights(graph)
    min_weight = shifted.gamma_min()
    r_change = abs(shifted.r_sum - graph.r_sum) / graph.r_sum
    spec2 = spectrum.optimal_free_responses(shifted)
    responses2, deltas2 = spec2.feasible_responses()
    # ordering: response j of the shifted graph must match label j
    order_ok = True
    affine_err = 0.0
    c = max(0.0, ell_elimination_constant(v, graph.ell))
    k = c * graph.q_sum ** 2 / graph.r_sum
    for j in range(n_labels):
        err = min(float(np.max(np.abs(responses2[:, j] - label_set.labels[j]))),
                  float(np.max(np.abs(responses2[:, j] + label_set.labels[j]))))
        if err > 1e-6:
            order_ok = False
        affine_err = max(affine_err,
                         abs(deltas2[j] - (deltas[j] + 2 * k) / (1 + k)))
    return {"max_label_err": label_err, "max_delta_err": float(delta_err),
            "min_weight_after": min_weight, "r_rel_change": r_change,
            "order_preserved": order_ok, "max_affine_err": float(affine_err)}


def _reproduce_roundtrip(out_dir, seed):
    n_trials = 20
    rows = []
    passed = True
    for trial in range(n_trials):
        n = 8 + int(datagen.counter_uniform(seed, 90, trial, 1)[0] * 57)  # 8..64
        n_labels = 1 + int(datagen.counter_uniform(seed, 91, trial, 1)[0] * 5)
        n_labels = min(n_labels, 5, n - 2)
        label_set, v = _random_label_set(seed, trial, n, n_labels)
        result = _roundtrip_trial(label_set, v)
        ok = (result["max_label_err"] <= 1e-8
              and result["max_delta_err"] <= 1e-10
              and result["min_weight_after"] >= -1e-12
              and result["r_rel_change"] <= 1e-9
              and result["order_preserved"]
              and result["max_affine_err"] <= 1e-9)
        passed = passed and ok
        rows.append([trial, n, n_labels, repr(result["max_label_err"]),
                     repr(result["max_delta_err"]),
                     repr(result["min_weight_after"]),
                     repr(result["r_rel_change"]),
                     int(result["order_preserved"]),
                     repr(result["max_affine_err"]), int(ok)])
    with open(out_dir / "roundtrip.csv", "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["trial", "n", "n_labels", "max_label_err",
                         "max_delta_err", "min_weight_after", "r_rel_change",
                         "order_preserved", "max_affine_err", "ok"])
        writer.writerows(rows)
    return {"trials": n_trials, "passed": passed}


def _canonical_correlations(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.svd(qa.T @ qb, compute_uv=False)


def _reproduce_compact(out_dir, seed):
    rows = []
    passed = True
    for n_classes in (2, 4, 8):
        report = builders.clustered_equivalence_check(n_classes, per_class=3)
        ok = report.equivalent and report.max_interclass <= 1e-12
        passed = passed and ok
        rows.append([n_classes, 3, repr(report.max_abs_diff),
                     repr(report.max_interclass), int(ok)])
    with open(out_dir / "equivalence.csv", "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["classes", "per_class", "max_abs_diff",
                         "max_interclass", "ok"])
        writer.writerows(rows)

    # subspace agreement of the two feature families on one-hot inputs
    n_classes, per_class = 8, 4
    n = n_classes * per_class
    clustered = builders.build_clustered_graph([per_class] * n_classes)
    compact = builders.compact_binary_labels(n_classes, n_classes - 1)
    label_set = compact.expand([per_class] * n_classes)
    ell = builders.build_ell_graph(label_set, np.ones(n))
    one_hot = np.eye(n)
    feats_c = solver.extract_features(
        solver.train_gsfa(one_hot, clustered, n_features=n_classes - 1), one_hot)
    feats_e = solver.extract_features(
        solver.train_gsfa(one_hot, ell, n_features=n_classes - 1), one_hot)
    correlations = _canonical_correlations(feats_c.T, feats_e.T)
    min_corr = float(correlations.min())
    subspace_ok = min_corr >= 1.0 - 1e-8
    passed = passed and subspace_ok
    return {"passed": passed, "min_canonical_correlation": min_corr,
            "subspace_ok": subspace_ok}


_REPRODUCE_PIPELINES = {"fig6-spectra": _reproduce_fig6,
                        "ell-roundtrip": _reproduce_roundtrip,
                        "compact-vs-clustered": _reproduce_compact}
_REPRODUCE_NAMES = tuple(_REPRODUCE_PIPELINES)


def cmd_reproduce(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = _REPRODUCE_PIPELINES[args.name](out_dir, args.seed)
    summary["pipeline"] = args.name
    summary["seed"] = args.seed
    write_json(out_dir / "summary.json", summary)
    _echo_config(out_dir, "reproduce", _public_args(args))
    _write_run_meta(out_dir, "reproduce")
    status = "pass" if summary["passed"] else "FAIL"
    print(f"{args.name}: {status}")
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# parser

def _public_args(args):
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsfa",
        description="Graph-based slow feature analysis experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build a training graph file")
    p.add_argument("--kind", required=True,
                   choices=["linear", "clustered", "serial", "ell"])
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, help="linear graph size")
    p.add_argument("--variant",
                   choices=["self_loop_extended", "endpoint_halved_vertex_weights"])
    p.add_argument("--class-sizes", help="clustered: e.g. '4,4,4'")
    p.add_argument("--labels",
                   help="label file (one value per line) for serial/ell")
    p.add_argument("--k", type=int, help="serial group count")
    p.add_argument("--policy", choices=["strict", "truncate"])
    p.add_argument("--auxiliary", type=int,
                   help="ell: total labels incl. cosine auxiliaries")
    p.add_argument("--eigenvalues", help="ell: comma-separated eigenvalue list")
    p.add_argument("--nonnegative", action="store_true",
                   help="ell: eliminate negative edge weights")
    p.add_argument("--label-set",
                   help="ell: load a prepared label-set container instead")
    p.add_argument("--save-label-set",
                   help="ell: also write the prepared label-set container")
    p.set_defaults(func=cmd_build_graph, **_GRAPH_DEFAULTS)

    p = sub.add_parser("spectrum", help="free responses of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--edge-percentile", type=_edge_percentile, default=None,
                   help="also export the strongest X%% of edges")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("train", help="train a model on data + graph")
    p.add_argument("--data", required=True, help="matrix file (.csv or binary)")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expansion", default=_FLAT_TRAIN_DEFAULTS["expansion"],
                   choices=["identity", "zero_eight_expo", "quadratic",
                            "polynomial"])
    p.add_argument("--degree", type=int, default=_FLAT_TRAIN_DEFAULTS["degree"])
    p.add_argument("--pca", type=int, default=_FLAT_TRAIN_DEFAULTS["pca"],
                   help="PCA dimensions before expansion")
    p.add_argument("--features", type=int,
                   default=_FLAT_TRAIN_DEFAULTS["features"])
    p.add_argument("--hierarchy", default=None,
                   help="architecture config file; trains a network directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="sweep estimators over features")
    p.add_argument("--model", required=True)
    p.add_argument("--train-data", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--estimators", default="linear_scaling,linear_regression")
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--kind", required=True, choices=["regression", "classification"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--input-dim", type=int, default=8)
    p.add_argument("--label-values", type=int, default=60)
    p.add_argument("--nonlinearity", default="identity")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("reproduce", help="run a named end-to-end pipeline")
    p.add_argument("name", choices=_REPRODUCE_NAMES)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GsfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
