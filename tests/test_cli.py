import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsfa
from gsfa.cli import main

from conftest import write_architecture


def _run(*argv):
    return main([str(a) for a in argv])


def _write_labels(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


# ---------------------------------------------------------------------------
# build-graph

def test_build_graph_serial(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.arange(30.0))
    out = tmp_path / "serial.json"
    assert _run("build-graph", "--kind", "serial", "--labels", labels,
                "--k", "15", "--out", out) == 0
    graph = gsfa.load_graph(out)
    assert gsfa.check_consistency(graph).ok
    report = json.loads((tmp_path / "serial.json.report.json").read_text())
    assert report["consistent"] is True


def test_build_graph_ell_nonnegative(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-2, 2, 24))
    out = tmp_path / "ell.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--auxiliary", "4", "--nonnegative", "--out", out) == 0
    graph = gsfa.load_graph(out)
    assert graph.gamma_min() >= -1e-15


def test_build_graph_ell_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the elimination constant's row blocks, the factor product and the
    # row sums at N=2000 give the same graph file and report under one
    # and two OpenBLAS threads
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.random.default_rng(7).uniform(-1.0, 1.0, 2000))
    src = Path(gsfa.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"ell-{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-m", "gsfa.cli", "build-graph",
                        "--kind", "ell", "--labels", str(labels),
                        "--auxiliary", "4", "--nonnegative", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        report = out.with_suffix(".json.report.json")
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["min_edge_weight"] >= 0


def test_build_graph_ell_label_set_round_trip(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 16))
    out1 = tmp_path / "ell1.json"
    ls_path = tmp_path / "prepared.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--auxiliary", "3", "--save-label-set", ls_path,
                "--out", out1) == 0
    out2 = tmp_path / "ell2.json"
    assert _run("build-graph", "--kind", "ell", "--label-set", ls_path,
                "--out", out2) == 0
    g1, g2 = gsfa.load_graph(out1), gsfa.load_graph(out2)
    np.testing.assert_allclose(g2.gamma_dense(), g1.gamma_dense(), atol=1e-15)


def test_build_graph_save_label_set_creates_its_directory(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 12))
    ls_path = tmp_path / "new" / "deeper" / "ls.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--save-label-set", ls_path, "--out", tmp_path / "g.json") == 0
    label_set, v = gsfa.load_labels(ls_path)
    assert label_set.n_samples == 12 and v.shape == (12,)


def test_build_graph_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("build-graph", "--kind", "bogus", "--out", "x.json")
    assert exc.value.code == 2


def test_build_graph_domain_error_exit_1(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.arange(7.0))
    assert _run("build-graph", "--kind", "serial", "--labels", labels,
                "--k", "3", "--out", tmp_path / "g.json") == 1


@pytest.mark.parametrize("flags, match", [
    (["--kind", "clustered", "--class-sizes", "3,x"],
     "--class-sizes must be comma-separated numbers, got '3,x'"),
    (["--kind", "clustered", "--class-sizes", "2.5,3"],
     "--class-sizes must be whole numbers, got '2.5,3'"),
    (["--kind", "ell", "--auxiliary", "2", "--eigenvalues", "0.5,x"],
     "--eigenvalues must be comma-separated numbers, got '0.5,x'"),
    (["--kind", "ell", "--auxiliary", "2", "--eigenvalues", "nan,1"],
     "--eigenvalues must be finite numbers, got 'nan,1'"),
    (["--kind", "ell", "--auxiliary", "2", "--eigenvalues", "inf,1"],
     "--eigenvalues must be finite numbers, got 'inf,1'"),
], ids=["size-not-a-number", "size-not-whole", "eigenvalue-not-a-number",
        "eigenvalue-nan", "eigenvalue-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_build_graph_malformed_number_list_exit_1(tmp_path, capsys, flags, match):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 12))
    out = tmp_path / "g.json"
    assert _run("build-graph", "--labels", labels, "--out", out, *flags) == 1
    _assert_error_line(capsys, match)
    assert not out.exists()


@pytest.mark.parametrize("flags, unread", [
    (["--kind", "ell", "--label-set", "{ls}", "--labels", "/nonexistent",
      "--eigenvalues", "0.9,0.1", "--auxiliary", "7"],
     "with --kind ell --label-set: --labels, --auxiliary, --eigenvalues"),
    (["--kind", "serial", "--labels", "{labels}", "--k", "4", "--n", "5",
      "--variant", "endpoint_halved_vertex_weights", "--class-sizes", "1,2",
      "--auxiliary", "9", "--nonnegative"],
     "with --kind serial: --n, --variant, --class-sizes, --auxiliary, "
     "--nonnegative"),
    (["--kind", "linear", "--save-label-set", "{ls}"],
     "with --kind linear: --save-label-set"),
    (["--kind", "clustered", "--class-sizes", "3,3", "--k", "2",
      "--policy", "truncate"], "with --kind clustered: --k, --policy"),
], ids=["ell-label-set", "serial", "linear", "clustered"])
def test_build_graph_flag_its_kind_does_not_read_exit_1(tmp_path, capsys,
                                                       flags, unread):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 12))
    ls_path = tmp_path / "ls.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--save-label-set", ls_path, "--out", tmp_path / "g0.json") == 0
    before = ls_path.read_bytes()
    capsys.readouterr()
    out = tmp_path / "g.json"
    flags = [flag.format(ls=ls_path, labels=labels) for flag in flags]
    assert _run("build-graph", *flags, "--out", out) == 1
    _assert_error_line(capsys, f"error: not used {unread}\n")
    assert not out.exists() and ls_path.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "g0.json", "g0.json.config.json", "g0.json.report.json", "labels.txt",
        "ls.json"]


def test_build_graph_ell_accepts_every_flag_it_reads(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 12))
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--auxiliary", 4, "--nonnegative", "--eigenvalues",
                "0.4,0.3,0.2,0.1", "--save-label-set", tmp_path / "ls.json",
                "--out", tmp_path / "g.json") == 0
    assert _run("build-graph", "--kind", "ell", "--label-set",
                tmp_path / "ls.json", "--nonnegative",
                "--out", tmp_path / "g2.json") == 0
    assert ((tmp_path / "g.json").read_bytes()
            == (tmp_path / "g2.json").read_bytes())


# ---------------------------------------------------------------------------
# spectrum

@pytest.mark.parametrize("kind,flags,expected", [
    ("linear", ["--n", "30"], 14),
])
def test_spectrum_counts(tmp_path, kind, flags, expected):
    out = tmp_path / "graph.json"
    assert _run("build-graph", "--kind", kind, *flags, "--out", out) == 0
    assert _run("spectrum", "--graph", out, "--out-dir", tmp_path / "spec") == 0
    summary = json.loads((tmp_path / "spec" / "summary.json").read_text())
    assert summary["slow_count"] == expected
    assert (tmp_path / "spec" / "spectrum.csv").exists()
    assert (tmp_path / "spec" / "responses.csv").exists()


# ---------------------------------------------------------------------------
# gen-data / train / evaluate

def _make_dataset(tmp_path, n=240, values=12, noise=0.05):
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--kind", "regression", "--out-dir", data_dir,
                "--n", n, "--label-values", values, "--input-dim", 4,
                "--noise", noise) == 0
    return data_dir


def test_train_and_evaluate_flow(tmp_path):
    data_dir = _make_dataset(tmp_path)
    graph_path = tmp_path / "ell.json"
    assert _run("build-graph", "--kind", "ell", "--labels",
                data_dir / "labels.txt", "--auxiliary", "3",
                "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", model_path) == 0
    report = json.loads((tmp_path / "model.json.report.json").read_text())
    deltas = report["deltas"]
    assert deltas == sorted(deltas)

    eval_dir = tmp_path / "eval"
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--estimators", "linear_scaling,linear_regression",
                "--d-min", "1", "--d-max", "3",
                "--out-dir", eval_dir) == 0
    with open(eval_dir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 estimators x 3 d values
    for row in rows:
        assert float(row["rmse_train"]) <= float(row["chance_rmse_train"]) + 1e-9
    with open(eval_dir / "metrics_long.csv") as fh:
        long_rows = list(csv.DictReader(fh))
    assert len(long_rows) == 24  # 4 metrics per (estimator, d) pair
    assert {r["metric"] for r in long_rows} == {
        "rmse_train", "rmse_test", "chance_rmse_train", "chance_rmse_test"}


def test_train_on_csv_and_binary_data_writes_identical_models(tmp_path):
    # the CSV reader returns the samples' rows transposed (F order)
    data_dir = _make_dataset(tmp_path)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "serial", "--labels",
                data_dir / "labels.txt", "--k", "12", "--out", graph_path) == 0
    for name in ("data.csv", "data.bin"):
        assert _run("train", "--data", data_dir / name, "--graph", graph_path,
                    "--expansion", "quadratic", "--out",
                    tmp_path / f"{name}.model.json") == 0
    assert ((tmp_path / "data.csv.model.json").read_bytes()
            == (tmp_path / "data.bin.model.json").read_bytes())


def test_train_mismatched_sizes_exit_1(tmp_path):
    data_dir = _make_dataset(tmp_path)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "10",
                "--out", graph_path) == 0
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", tmp_path / "m.json") == 1


@pytest.mark.parametrize("flags, match", [
    (["--features", "-1"], "n_features must be >= 1, got -1"),
    (["--features", "0"], "n_features must be >= 1, got 0"),
    (["--pca", "0"], "out_dims must be in [1, "),
    (["--pca", "-2", "--expansion", "quadratic"], "out_dims must be in [1, "),
], ids=["negative-features", "zero-features", "zero-pca", "negative-pca"])
def test_train_count_below_one_exit_1(tmp_path, capsys, flags, match):
    data_dir = _make_dataset(tmp_path, n=48, values=6)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "48",
                "--out", graph_path) == 0
    capsys.readouterr()
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", model_path, *flags) == 1
    _assert_error_line(capsys, match)
    assert not model_path.exists()


def test_evaluate_rows_per_estimator(tmp_path):
    data_dir = _make_dataset(tmp_path)
    graph_path = tmp_path / "serial.json"
    assert _run("build-graph", "--kind", "serial", "--labels",
                data_dir / "labels.txt", "--k", "12", "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", model_path, "--features", "4") == 0
    eval_dir = tmp_path / "eval"
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--estimators", "linear_regression",
                "--d-min", "1", "--d-max", "4",
                "--out-dir", eval_dir) == 0
    with open(eval_dir / "metrics.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 4


def test_train_with_pca_and_expansion_then_evaluate(tmp_path):
    data_dir = _make_dataset(tmp_path)
    graph_path = tmp_path / "serial.json"
    assert _run("build-graph", "--kind", "serial", "--labels",
                data_dir / "labels.txt", "--k", "12", "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", model_path, "--pca", "3", "--expansion", "quadratic",
                "--features", "2") == 0
    eval_dir = tmp_path / "eval"
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--estimators", "linear_scaling",
                "--d-min", "1", "--d-max", "1",
                "--out-dir", eval_dir) == 0
    with open(eval_dir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["rmse_train"]) <= float(rows[0]["chance_rmse_train"])


def test_train_hierarchy_network_dir(tmp_path, rng=np.random.default_rng(0)):
    n = 60
    labels = np.repeat(np.linspace(-1, 1, 10), 6)
    images = (np.outer(np.linspace(0.2, 1.0, 16), labels)
              + 0.05 * rng.normal(size=(16, n)))
    data_path = tmp_path / "data.csv"
    gsfa.save_matrix_csv(images, data_path)
    labels_path = tmp_path / "labels.txt"
    _write_labels(labels_path, labels)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "serial", "--labels", labels_path,
                "--k", "10", "--out", graph_path) == 0
    arch_path = tmp_path / "arch.json"
    write_architecture([
        gsfa.LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3),
        gsfa.LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3),
    ], arch_path)
    net_dir = tmp_path / "net"
    assert _run("train", "--data", data_path, "--graph", graph_path,
                "--hierarchy", arch_path, "--out", net_dir) == 0
    network = gsfa.load_network(net_dir)
    feats = gsfa.network_extract(network, images.T.reshape(n, 4, 4))
    assert feats.shape == (3, n)


def _flat_model_and_network(tmp_path):
    """A 16-dim dataset, its serial graph, and a model and network of 3 features.

    The network reads the 16 rows as 4x4 images: four 2x2-pixel nodes,
    then one top node over them.
    """
    data_dir = tmp_path / "data"
    assert _run("gen-data", "--kind", "regression", "--out-dir", data_dir,
                "--n", 60, "--label-values", 10, "--input-dim", 16) == 0
    graph_path = tmp_path / "serial.json"
    assert _run("build-graph", "--kind", "serial", "--labels",
                data_dir / "labels.txt", "--k", 10, "--out", graph_path) == 0
    arch_path = tmp_path / "arch.json"
    write_architecture([
        gsfa.LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                       expansion=gsfa.ExpansionSpec("quadratic")),
        gsfa.LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=3),
    ], arch_path)
    models = {"flat": tmp_path / "model.json", "network": tmp_path / "net"}
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--features", 3, "--out", models["flat"]) == 0
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--hierarchy", arch_path, "--out", models["network"]) == 0
    return data_dir, graph_path, models


def _evaluate(model, data_dir, out_dir, *flags):
    return _run("evaluate", "--model", model,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--out-dir", out_dir, *flags)


def test_evaluate_network_dir_scores_network_extract_features(tmp_path):
    data_dir, graph_path, models = _flat_model_and_network(tmp_path)
    assert _evaluate(models["network"], data_dir, tmp_path / "eval",
                     "--estimators", "linear_scaling,linear_regression") == 0
    data = gsfa.load_matrix(data_dir / "data.csv")
    labels = np.loadtxt(data_dir / "labels.txt")
    network = gsfa.load_network(models["network"])
    feats = gsfa.network_extract(network, data.T.reshape(-1, 4, 4))
    assert network.extract(data).tobytes() == feats.tobytes()
    checksum = gsfa.load_graph(graph_path).fingerprint()["checksum"]
    chance = repr(gsfa.chance_rmse(labels))
    expected = []
    for name, fit in [("linear_scaling", gsfa.fit_linear_scaling),
                      ("linear_regression", gsfa.fit_linear_regression)]:
        for d in (1, 2, 3):
            error = repr(gsfa.rmse(fit(feats[:d], labels).predict(feats[:d]),
                                   labels))
            expected.append([checksum, name, str(d), error, error,
                             chance, chance, "", ""])
    with open(tmp_path / "eval" / "metrics.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == expected


def test_train_hierarchy_from_a_network_manifest_retrains_its_nodes(tmp_path):
    data_dir, graph_path, models = _flat_model_and_network(tmp_path)
    retrained = tmp_path / "net2"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--hierarchy", models["network"] / "manifest.json",
                "--out", retrained) == 0
    files = {path.name: path.read_bytes()
             for path in models["network"].iterdir() if path.name != "config.json"}
    assert len(files) == 7  # manifest, report and five nodes
    assert {path.name: path.read_bytes() for path in retrained.iterdir()
            if path.name != "config.json"} == files


@pytest.mark.parametrize("kind", ["flat", "network"])
@pytest.mark.parametrize("which", ["train", "test"])
def test_evaluate_label_count_other_than_samples_exit_1(tmp_path, capsys, kind,
                                                        which):
    data_dir, _, models = _flat_model_and_network(tmp_path)
    short = tmp_path / "short.txt"
    _write_labels(short, np.arange(5.0))
    labels = {"train": data_dir / "labels.txt", "test": data_dir / "labels.txt"}
    labels[which] = short
    capsys.readouterr()
    assert _run("evaluate", "--model", models[kind],
                "--train-data", data_dir / "data.csv",
                "--train-labels", labels["train"],
                "--test-data", data_dir / "data.csv",
                "--test-labels", labels["test"],
                "--estimators", "linear_scaling,nearest_centroid",
                "--out-dir", tmp_path / "eval") == 1
    _assert_error_line(capsys, f"error: {short}: 5 labels for the 60 samples "
                       f"of {data_dir / 'data.csv'}\n")
    assert not (tmp_path / "eval").exists()


def test_evaluate_network_with_a_missing_node_file_exit_2(tmp_path, capsys):
    data_dir, _, models = _flat_model_and_network(tmp_path)
    missing = models["network"] / "node_L0_r0_c1.json"
    missing.unlink()
    capsys.readouterr()
    assert _evaluate(models["network"], data_dir, tmp_path / "eval") == 2
    _assert_error_line(capsys, f"error: {missing}: No such file or directory")
    assert not (tmp_path / "eval").exists()


def test_evaluate_network_with_an_old_manifest_exit_1(tmp_path, capsys):
    data_dir, _, models = _flat_model_and_network(tmp_path)
    manifest = models["network"] / "manifest.json"
    _rewrite_json(manifest, lambda d: d.update(kind="hgsfa-network"))
    capsys.readouterr()
    assert _evaluate(models["network"], data_dir, tmp_path / "eval") == 1
    _assert_error_line(capsys, f"error: {manifest}: expected kind "
                       "'hgsfa-architecture', got 'hgsfa-network'")
    assert not (tmp_path / "eval").exists()


def test_evaluate_metric_columns_of_each_estimator(tmp_path):
    # train and test split differ, so a train and a test column cannot swap
    data_dir, _, models = _flat_model_and_network(tmp_path)
    test_dir = tmp_path / "test"
    assert _run("gen-data", "--kind", "regression", "--out-dir", test_dir,
                "--n", 60, "--label-values", 10, "--input-dim", 16,
                "--seed", 1) == 0
    names = ["linear_scaling", "linear_regression", "soft_gc", "nearest_centroid"]
    assert _run("evaluate", "--model", models["flat"],
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", test_dir / "data.csv",
                "--test-labels", test_dir / "labels.txt",
                "--estimators", ",".join(names), "--d-min", 2, "--d-max", 3,
                "--out-dir", tmp_path / "eval") == 0
    model = gsfa.load_model(models["flat"])
    feats, labels = {}, {}
    for split, directory in [("train", data_dir), ("test", test_dir)]:
        feats[split] = model.extract(gsfa.load_matrix(directory / "data.csv"))
        labels[split] = np.loadtxt(directory / "labels.txt")
    expected = {}
    for d in (2, 3):
        clf = gsfa.fit_nearest_centroid(feats["train"][:d], labels["train"])
        for split in ("train", "test"):
            expected["nearest_centroid", d, f"error_rate_{split}"] = gsfa.error_rate(
                gsfa.classify(clf, feats[split][:d]), labels[split])
        for name in names[:3]:
            fit = getattr(gsfa, f"fit_{name}")(feats["train"][:d], labels["train"])
            for split in ("train", "test"):
                expected[name, d, f"rmse_{split}"] = gsfa.rmse(
                    fit.predict(feats[split][:d]), labels[split])
                expected[name, d, f"chance_rmse_{split}"] = gsfa.chance_rmse(
                    labels[split])
    with open(tmp_path / "eval" / "metrics_long.csv", newline="") as fh:
        long_rows = list(csv.DictReader(fh))
    assert {(r["estimator"], int(r["features_used"]), r["metric"]): float(r["value"])
            for r in long_rows} == pytest.approx(expected, rel=1e-12)
    with open(tmp_path / "eval" / "metrics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    metrics = ["rmse_train", "rmse_test", "chance_rmse_train",
               "chance_rmse_test", "error_rate_train", "error_rate_test"]
    assert header == ["graph", "estimator", "d", *metrics]
    assert [r["metric"] for r in long_rows] == 6 * metrics[:4] + 2 * metrics[4:]
    assert len(rows) == 8
    for row in rows:
        cells = dict(zip(header[3:], row[3:]))
        assert {metric: float(value) for metric, value in cells.items() if value} \
            == {metric: value for (name, d, metric), value in expected.items()
                if (name, str(d)) == (row[1], row[2])}


@pytest.mark.parametrize("flags", [
    ["--pca", "3"], ["--features", "7"], ["--expansion", "polynomial"],
    ["--degree", "5"],
], ids=["pca", "features", "expansion", "degree"])
def test_train_hierarchy_with_flat_model_flag_exit_1(tmp_path, capsys, flags):
    data_dir, graph_path, _ = _flat_model_and_network(tmp_path)
    capsys.readouterr()
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--hierarchy", tmp_path / "arch.json", *flags,
                "--out", tmp_path / "net2") == 1
    _assert_error_line(capsys, "not used with --hierarchy, whose architecture "
                       f"file sets the nodes: {flags[0]}\n")
    assert not (tmp_path / "net2").exists()


def test_train_hierarchy_top_layer_of_several_nodes_exit_1(tmp_path, capsys):
    data_dir, graph_path, _ = _flat_model_and_network(tmp_path)
    arch_path = tmp_path / "arch4.json"
    write_architecture(
        [gsfa.LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=2)],
        arch_path)
    capsys.readouterr()
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--hierarchy", arch_path, "--out", tmp_path / "net2") == 1
    _assert_error_line(capsys, "layer 0: a network's top layer must be one node")
    assert not (tmp_path / "net2").exists()


@pytest.mark.parametrize("kind", ["flat", "network"])
@pytest.mark.parametrize("flags, match", [
    (["--d-max", "0"], "--d-max 0 is below --d-min 1"),
    (["--d-max", "-5"], "--d-max -5 is below --d-min 1"),
    (["--d-min", "3", "--d-max", "1"], "--d-max 1 is below --d-min 3"),
    (["--estimators", ","], "--estimators names no estimator: ','"),
    (["--d-min", "4", "--d-max", "5"], "--d-min 4 is above the 3 features of"),
], ids=["zero-d-max", "negative-d-max", "d-max-below-d-min", "no-estimator",
        "d-min-above-features"])
def test_evaluate_empty_sweep_exit_1(tmp_path, capsys, kind, flags, match):
    data_dir, _, models = _flat_model_and_network(tmp_path)
    capsys.readouterr()
    assert _evaluate(models[kind], data_dir, tmp_path / "eval", *flags) == 1
    _assert_error_line(capsys, match)
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("text, match", [
    ("{not json", "not valid JSON"),
    ('{"kind": "hgsfa-architecture", "format_version": 1}',
     "malformed entry (KeyError: 'layers')"),
    ('{"kind": "hgsfa-architecture", "format_version": 1, "layers": 3}',
     "malformed entry (TypeError"),
    ('{"kind": "hgsfa-architecture", "format_version": 1, "layers": [{}]}',
     "malformed entry (KeyError: 'grid')"),
    ('{"kind": "hgsfa-architecture", "format_version": 1, "layers": [{"grid": '
     '"22", "receptive_field": [4, 4], "expansion": {"kind": "identity"}, '
     '"out_dims": 1}]}', "malformed entry (TypeError"),
    ('{"kind": "hgsfa-architecture", "format_version": 1, "layers": [{"grid": '
     '[1, 1, 1], "receptive_field": [4, 4], "expansion": {"kind": '
     '"identity"}, "out_dims": 1}]}', "malformed entry (ValueError"),
    ('{"kind": "hgsfa-architecture", "format_version": 1, "layers": [{"grid": '
     '[1, 1], "receptive_field": [4, 4], "expansion": {"kind": "polynomial", '
     '"degree": 2.5}, "out_dims": 1}]}',
     "expansion degree must be an integer, got 2.5"),
    ('{"kind": "hgsfa-network", "format_version": 1, "layers": []}',
     "expected kind 'hgsfa-architecture'"),
], ids=["bad-json", "no-layers", "layers-not-list", "empty-layer",
        "text-grid", "three-grid", "fractional-degree", "wrong-kind"])
def test_train_hierarchy_malformed_architecture_exit_1(tmp_path, capsys, text,
                                                       match):
    data_path = tmp_path / "data.csv"
    gsfa.save_matrix_csv(np.random.default_rng(0).normal(size=(16, 8)),
                         data_path)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "8",
                "--out", graph_path) == 0
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(text)
    capsys.readouterr()
    assert _run("train", "--data", data_path, "--graph", graph_path,
                "--hierarchy", arch_path, "--out", tmp_path / "net") == 1
    _assert_error_line(capsys, str(arch_path), match)
    assert not (tmp_path / "net").exists()


def _rewrite_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("flags, match", [
    ([], "data has 5 rows, model expects 4"),
    (["--pca", "3"], "data has 5 rows, PCA expects 4"),
], ids=["plain", "pca"])
def test_evaluate_on_data_of_other_dimension_exit_1(tmp_path, capsys, flags,
                                                    match):
    data_dir = _make_dataset(tmp_path, n=48, values=6)
    other = tmp_path / "other"
    assert _run("gen-data", "--kind", "regression", "--out-dir", other,
                "--n", 48, "--label-values", 6, "--input-dim", 5) == 0
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "48",
                "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", model_path, *flags) == 0
    capsys.readouterr()
    assert _run("evaluate", "--model", model_path,
                "--train-data", other / "data.csv",
                "--train-labels", other / "labels.txt",
                "--test-data", other / "data.csv",
                "--test-labels", other / "labels.txt",
                "--out-dir", tmp_path / "eval") == 1
    _assert_error_line(capsys, match)
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("flags, match", [
    (["--d-min", "0"], "--d-min must be at least 1, got 0"),
    (["--d-min", "-2", "--estimators", "soft_gc"],
     "--d-min must be at least 1, got -2"),
    (["--d-min", "0", "--estimators", "nearest_centroid"],
     "--d-min must be at least 1, got 0"),
    (["--estimators", "linear_regression,median", "--d-min", "5"],
     "unknown estimator 'median'; choose from linear_scaling, "
     "linear_regression, soft_gc, nearest_centroid"),
], ids=["zero-d-min", "negative-d-min", "zero-d-min-centroid",
        "unknown-estimator-empty-range"])
def test_evaluate_bad_flags_exit_1(tmp_path, capsys, flags, match):
    data_dir = _make_dataset(tmp_path, n=48, values=6)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "48",
                "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--out", model_path, "--features", "3") == 0
    capsys.readouterr()
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--out-dir", tmp_path / "eval", *flags) == 1
    _assert_error_line(capsys, match)
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_gen_data_bad_noise_exit_1(tmp_path, capsys, kind, noise):
    out_dir = tmp_path / "data"
    assert _run("gen-data", "--kind", kind, "--out-dir", out_dir,
                f"--noise={noise}") == 1
    _assert_error_line(capsys, f"noise must be finite and >= 0, got {float(noise)!r}")
    assert not out_dir.exists()


@pytest.mark.parametrize("n", [0, -60])
def test_gen_data_fewer_samples_than_label_values_exit_1(tmp_path, capsys, n):
    out_dir = tmp_path / "data"
    assert _run("gen-data", "--kind", "regression", "--out-dir", out_dir,
                "--n", n) == 1
    _assert_error_line(capsys, f"n_samples={n} is fewer than n_label_values=60")
    assert not out_dir.exists()


def _pca_block(components, mean_dims=None, variance_dims=None):
    """A model file's pca entry, its mean and variances sized to fit."""
    shape = np.shape(components)
    return {"components": np.asarray(components).tolist(),
            "mean": [0.0] * (mean_dims or shape[0]),
            "variances": [1.0] * (variance_dims or shape[-1])}


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("projection"), "(KeyError: 'projection')"),
    (lambda d: d.update(projection="x"), "(ValueError"),
    (lambda d: d.update(projection=[1.0, 2.0]), "I x J matrix"),
    (lambda d: d.update(deltas=[0.1, 0.2, 0.3]), "I x J matrix"),
    (lambda d: d.update(expansion={"degree": 2}), "(KeyError: 'kind')"),
    (lambda d: d.update(expansion={"kind": "polynomial", "degree": 2.5}),
     "expansion degree must be an integer, got 2.5"),
    (lambda d: d.update(pca=_pca_block([[1.0, 0.0]], mean_dims=4)),
     "pca.mean list I"),
    (lambda d: d.update(pca=_pca_block(np.eye(4)[:, :3], variance_dims=2)),
     "pca.variances P"),
    (lambda d: d.update(pca=_pca_block([1.0, 0.0, 0.0, 0.0])),
     "I x P matrix"),
    (lambda d: d.update(pca={"components": 1.0, "mean": 0.0, "variances": 1.0}),
     "I x P matrix"),
    (lambda d: d.update(pca=_pca_block(np.eye(4)[:, :3])),
     "3 PCA outputs gives 3 dimensions but projection has 4 rows"),
    (lambda d: d.update(pca=_pca_block(np.eye(4)[:, :2]),
                        expansion={"kind": "quadratic"}),
     "2 PCA outputs gives 5 dimensions but projection has 4 rows"),
], ids=["no-projection", "text-projection", "vector-projection",
        "extra-delta", "expansion-without-kind", "fractional-degree",
        "pca-mean-per-row",
        "pca-variance-per-column", "pca-vector-components",
        "pca-scalar-components",
        "pca-output-not-projection-rows", "expanded-pca-not-projection-rows"])
def test_evaluate_malformed_model_exit_1(tmp_path, capsys, edit, match):
    data_dir = _make_dataset(tmp_path, n=48, values=6)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "48",
                "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--features", "2", "--out", model_path) == 0
    _rewrite_json(model_path, edit)
    capsys.readouterr()
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--out-dir", tmp_path / "eval") == 1
    _assert_error_line(capsys, str(model_path), "malformed entry", match)
    assert not (tmp_path / "eval").exists()


def _set_trained_on(**entries):
    return lambda d: d["trained_on"].update(entries)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(trained_on=[1, 2]), "trained_on must be an object, got list"),
    (lambda d: d.update(trained_on="serial"), "trained_on must be an object, got str"),
    (lambda d: d.update(trained_on={"checksum": [1]}), "must hold n, q_sum, r_sum"),
    (lambda d: d["trained_on"].pop("r_sum"), "must hold n, q_sum, r_sum"),
    (_set_trained_on(graph="serial"), "must hold n, q_sum, r_sum"),
    (_set_trained_on(checksum=[1]), "trained_on checksum must be 16 hex digits"),
    (_set_trained_on(checksum="0123456789abcdeg"), "checksum must be 16 hex digits"),
    (_set_trained_on(checksum="0123456789abcdef0"), "checksum must be 16 hex digits"),
    (_set_trained_on(n="48"), "trained_on n must be a positive integer"),
    (_set_trained_on(n=True), "trained_on n must be a positive integer"),
    (_set_trained_on(n=0), "trained_on n must be a positive integer"),
    (_set_trained_on(q_sum="48"), "trained_on q_sum must be a finite number"),
    (_set_trained_on(r_sum=float("nan")), "trained_on r_sum must be a finite number"),
    (_set_trained_on(scheme=1), "trained_on scheme must be 2, got 1"),
    (_set_trained_on(scheme="2"), "trained_on scheme must be 2, got '2'"),
], ids=["list", "text", "checksum-only", "no-r-sum", "extra-entry",
        "list-checksum", "non-hex-checksum", "long-checksum", "text-n", "bool-n",
        "zero-n", "text-q-sum", "nan-r-sum", "scheme-1", "text-scheme"])
def test_evaluate_malformed_trained_on_exit_1(tmp_path, capsys, edit, match):
    data_dir = _make_dataset(tmp_path, n=48, values=6)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "48",
                "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--features", "2", "--out", model_path) == 0
    _rewrite_json(model_path, edit)
    capsys.readouterr()
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--out-dir", tmp_path / "eval") == 1
    _assert_error_line(capsys, str(model_path), match)
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("kind, edit, graph_column", [
    ("linear", None, None),
    ("serial", None, None),
    ("linear", lambda d: d.pop("trained_on"), "unknown"),
    ("linear", lambda d: d.update(trained_on={}), "unknown"),
], ids=["scheme-1", "scheme-2", "no-trained-on", "empty-trained-on"])
def test_evaluate_reads_trained_on(tmp_path, kind, edit, graph_column):
    data_dir = _make_dataset(tmp_path, n=48, values=6)
    graph_path = tmp_path / "g.json"
    flags = (["--n", "48"] if kind == "linear"
             else ["--labels", data_dir / "labels.txt", "--k", "6"])
    assert _run("build-graph", "--kind", kind, *flags, "--out", graph_path) == 0
    model_path = tmp_path / "model.json"
    assert _run("train", "--data", data_dir / "data.csv", "--graph", graph_path,
                "--features", "2", "--out", model_path) == 0
    trained_on = json.loads(model_path.read_text())["trained_on"]
    assert ("scheme" in trained_on) == (kind == "serial")
    if edit is not None:
        _rewrite_json(model_path, edit)
    assert _run("evaluate", "--model", model_path,
                "--train-data", data_dir / "data.csv",
                "--train-labels", data_dir / "labels.txt",
                "--test-data", data_dir / "data.csv",
                "--test-labels", data_dir / "labels.txt",
                "--out-dir", tmp_path / "eval") == 0
    with open(tmp_path / "eval" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["graph"] for row in rows} == {
        graph_column or trained_on["checksum"]}


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("labels"), "(KeyError: 'labels')"),
    (lambda d: d.update(vertex_weights="ones"), "(ValueError"),
    (lambda d: d["labels"][0].__setitem__(3, float("nan")),
     "(ParameterError: labels must be finite)"),
    (lambda d: d.update(eigenvalues=[float("inf")]),
     "(ParameterError: eigenvalues must be finite)"),
    (lambda d: d.update(vertex_weights=[1.0, -1.0] * 6),
     "(ParameterError: vertex_weights must be > 0)"),
    (lambda d: d["vertex_weights"].__setitem__(0, float("-inf")),
     "(ParameterError: vertex_weights must be finite)"),
    (lambda d: d["vertex_weights"].pop(),
     "(ParameterError: vertex_weights must list one number per sample (12), "
     "got shape (11,))"),
], ids=["no-labels", "text-vertex-weights", "nan-label", "inf-eigenvalue",
        "negative-vertex-weights", "infinite-vertex-weight",
        "short-vertex-weights"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_build_graph_malformed_label_set_exit_1(tmp_path, capsys, edit, match):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 12))
    ls_path = tmp_path / "ls.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--save-label-set", ls_path, "--out", tmp_path / "g1.json") == 0
    _rewrite_json(ls_path, edit)
    capsys.readouterr()
    out = tmp_path / "g2.json"
    assert _run("build-graph", "--kind", "ell", "--label-set", ls_path,
                "--out", out) == 1
    _assert_error_line(capsys, str(ls_path), "malformed entry", match)
    assert not out.exists()


def _write_label_set(path, labels, eigenvalues):
    """A label-set file as one writes it by hand: its three entries."""
    path.write_text(json.dumps({
        "kind": "label-set", "format_version": 1, "labels": labels.tolist(),
        "eigenvalues": eigenvalues, "vertex_weights": [1.0] * labels.shape[1]}))


def test_build_graph_hand_written_label_set(tmp_path):
    # two +-1 labels over 8 samples, exactly normalized and decorrelated
    labels = np.array([[-1.0] * 4 + [1.0] * 4, [-1.0, -1.0, 1.0, 1.0] * 2])
    ls_path = tmp_path / "ls.json"
    _write_label_set(ls_path, labels, [0.6, 0.4])
    out = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "ell", "--label-set", ls_path,
                "--out", out) == 0
    gsfa.save_graph(gsfa.build_ell_graph(gsfa.LabelSet(labels, [0.6, 0.4]),
                                         np.ones(8)), tmp_path / "lib.json")
    assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()


def test_build_graph_unnormalized_label_set_exit_1(tmp_path, capsys):
    ls_path = tmp_path / "ls.json"
    _write_label_set(ls_path, np.arange(8.0)[None, :], [1.0])
    out = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "ell", "--label-set", ls_path,
                "--out", out) == 1
    _assert_error_line(capsys, "labels are not weight-normalized")
    assert not out.exists()


def test_build_graph_label_set_with_older_entries(tmp_path):
    # earlier releases also wrote mu_sigma, normalized, decorrelated and
    # mixing; the graph built from such a file is the same
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(-1, 1, 12))
    ls_path = tmp_path / "ls.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--auxiliary", "2", "--save-label-set", ls_path,
                "--out", tmp_path / "g1.json") == 0
    _rewrite_json(ls_path, lambda d: d.update(
        mu_sigma=[[0.0, 1.0], [0.0, 1.0]], normalized=True, decorrelated=True,
        mixing=np.eye(2).tolist()))
    assert _run("build-graph", "--kind", "ell", "--label-set", ls_path,
                "--out", tmp_path / "g2.json") == 0
    assert ((tmp_path / "g1.json").read_bytes()
            == (tmp_path / "g2.json").read_bytes())


def test_spectrum_edge_percentile(tmp_path):
    labels = tmp_path / "labels.txt"
    _write_labels(labels, np.linspace(0, 1, 20))
    out = tmp_path / "ell.json"
    assert _run("build-graph", "--kind", "ell", "--labels", labels,
                "--out", out) == 0
    assert _run("spectrum", "--graph", out, "--out-dir", tmp_path / "s",
                "--edge-percentile", "30") == 0
    assert (tmp_path / "s" / "edges.csv").exists()


@pytest.mark.parametrize("percentile", ["0", "150"])
def test_spectrum_edge_percentile_out_of_range_exit_2(tmp_path, capsys,
                                                      percentile):
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "8",
                "--out", graph_path) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _run("spectrum", "--graph", graph_path, "--out-dir", tmp_path / "s",
             "--edge-percentile", percentile)
    assert exc.value.code == 2
    assert "--edge-percentile: must be a number in (0, 100]" in (
        capsys.readouterr().err)
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------------------
# bad input files end as "error: ..." with exit code 1

def _assert_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_label_file_with_text_line_exit_1(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("# labels\n1.0\nseven\n3.0\n")
    assert _run("build-graph", "--kind", "serial", "--labels", labels,
                "--k", "2", "--out", tmp_path / "g.json") == 1
    _assert_error_line(capsys, str(labels), "line 3", "'seven'")


@pytest.mark.parametrize("kind, value", [
    ("serial", "nan"), ("serial", "-inf"), ("ell", "inf"), ("ell", "1e999"),
])
def test_label_file_with_non_finite_value_exit_1(tmp_path, capsys, kind, value):
    labels = tmp_path / "labels.txt"
    labels.write_text("# labels\n1.0\n2.0\n" + value + "\n3.0\n")
    out = tmp_path / "g.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("build-graph", "--kind", kind, "--labels", labels,
                    "--k", "2", "--out", out) == 1
    _assert_error_line(capsys, str(labels), "line 4", repr(value), "finite")
    assert not out.exists()


@pytest.mark.parametrize("field, pixels", [((3, 3), 9), ((2, 2), 4)],
                         ids=["3x3", "2x2"])
def test_train_hierarchy_data_rows_other_than_layer_0_pixels_exit_1(
        tmp_path, capsys, field, pixels):
    # layer 0 of one node sets the image shape; the data has 8 rows
    data_path = tmp_path / "data.csv"
    gsfa.save_matrix_csv(np.random.default_rng(0).normal(size=(8, 10)),
                         data_path)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "10",
                "--out", graph_path) == 0
    arch_path = tmp_path / "arch.json"
    write_architecture(
        [gsfa.LayerSpec(grid=(1, 1), receptive_field=field, out_dims=2)],
        arch_path)
    capsys.readouterr()
    assert _run("train", "--data", data_path, "--graph", graph_path,
                "--hierarchy", arch_path, "--out", tmp_path / "net") == 1
    _assert_error_line(capsys, f"layer 0 tiles {field[0]}x{field[1]} images",
                       f"needs {pixels} rows; got shape (8, 10)")
    assert not (tmp_path / "net").exists()


def test_train_hierarchy_grid_of_zero_exit_1(tmp_path, capsys):
    # the layer is named before the data's shape is read from it
    data_path = tmp_path / "data.csv"
    gsfa.save_matrix_csv(np.random.default_rng(0).normal(size=(8, 20)),
                         data_path)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "20",
                "--out", graph_path) == 0
    arch_path = tmp_path / "arch.json"
    write_architecture(
        [gsfa.LayerSpec(grid=(0, 1), receptive_field=(2, 2), out_dims=1)],
        arch_path)
    capsys.readouterr()
    assert _run("train", "--data", data_path, "--graph", graph_path,
                "--hierarchy", arch_path, "--out", tmp_path / "net") == 1
    _assert_error_line(capsys, "layer 0: grid and field must be >= 1")
    assert not (tmp_path / "net").exists()


def test_train_hierarchy_images_other_than_graph_exit_1(tmp_path, capsys):
    # the data's columns set the image count, so 10 samples for a
    # 20-vertex graph end in the graph's size check, not a reshape
    data_path = tmp_path / "data.csv"
    gsfa.save_matrix_csv(np.random.default_rng(0).normal(size=(8, 10)),
                         data_path)
    graph_path = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "20",
                "--out", graph_path) == 0
    arch_path = tmp_path / "arch.json"
    write_architecture(
        [gsfa.LayerSpec(grid=(1, 1), receptive_field=(2, 4), out_dims=2)],
        arch_path)
    capsys.readouterr()
    assert _run("train", "--data", data_path, "--graph", graph_path,
                "--hierarchy", arch_path, "--out", tmp_path / "net") == 1
    _assert_error_line(capsys, "10 images but graph has 20 vertices")
    assert not (tmp_path / "net").exists()


@pytest.mark.parametrize("rows, fragment", [
    ("1.0,2.0\n3.0\n", "row 3"),
    ("1.0,2.0\n3.0,x\n", "row 3"),
])
def test_train_on_malformed_data_csv_exit_1(tmp_path, capsys, rows, fragment):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n" + rows)
    graph = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "2", "--out", graph) == 0
    capsys.readouterr()
    assert _run("train", "--data", data, "--graph", graph,
                "--out", tmp_path / "m.json") == 1
    _assert_error_line(capsys, str(data), fragment)


def test_train_on_non_finite_data_exit_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1.0,2.0\n3.0,nan\n0.5,1.5\n")
    graph = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "3", "--out", graph) == 0
    capsys.readouterr()
    assert _run("train", "--data", data, "--graph", graph,
                "--out", tmp_path / "m.json") == 1
    _assert_error_line(capsys, str(data), "finite", "sample 1 feature 1 is nan")


def test_train_on_graph_with_mismatched_structure_exit_1(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "clustered", "--class-sizes", "3,3",
                "--out", graph) == 0
    data = json.loads(graph.read_text())
    data["structure"]["groups"] = [[0, 1, 2], [2, 3, 4, 5]]
    graph.write_text(json.dumps(data))
    matrix = tmp_path / "data.csv"
    gsfa.save_matrix_csv(np.random.default_rng(0).normal(size=(2, 6)), matrix)
    capsys.readouterr()
    assert _run("train", "--data", matrix, "--graph", graph,
                "--out", tmp_path / "m.json") == 1
    _assert_error_line(capsys, str(graph), "more than one structure group")
    assert not (tmp_path / "m.json").exists()


def test_spectrum_on_graph_file_without_n_exit_1(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "6", "--out", graph) == 0
    data = json.loads(graph.read_text())
    del data["n"]
    graph.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("spectrum", "--graph", graph, "--out-dir", tmp_path / "s") == 1
    _assert_error_line(capsys, str(graph), "no n")


def test_spectrum_on_graph_file_with_null_weight_exit_1(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "6", "--out", graph) == 0
    data = json.loads(graph.read_text())
    data["edges"][0][2] = None
    graph.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run("spectrum", "--graph", graph, "--out-dir", tmp_path / "s") == 1
    _assert_error_line(capsys, "finite")


def test_spectrum_on_missing_graph_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert _run("spectrum", "--graph", missing, "--out-dir", tmp_path / "s") == 2
    _assert_error_line(capsys, f"error: {missing}: No such file or directory")


def test_train_on_missing_data_file_exit_2(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert _run("build-graph", "--kind", "linear", "--n", "6", "--out", graph) == 0
    capsys.readouterr()
    missing = tmp_path / "missing.csv"
    assert _run("train", "--data", missing, "--graph", graph,
                "--out", tmp_path / "m.json") == 2
    _assert_error_line(capsys, f"error: {missing}: No such file or directory")


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_unknown_name_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run("reproduce", "no-such-pipeline", "--out-dir", tmp_path / "r")
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-pipeline'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_reproduce_fig6_passes(tmp_path):
    assert _run("reproduce", "fig6-spectra", "--out-dir", tmp_path / "r") == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["counts"] == {"reordering": 14, "serial": 6, "ell4": 4}
    versions = {name: json.loads((tmp_path / "r" / name / "graph.json")
                                 .read_text())["format_version"]
                for name in summary["counts"]}
    assert versions == {"reordering": 1, "serial": 2, "ell4": 2}


def test_reproduce_roundtrip_fields_are_numbers(tmp_path):
    assert _run("reproduce", "ell-roundtrip", "--out-dir", tmp_path / "r") == 0
    with open(tmp_path / "r" / "roundtrip.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 20 and all(len(row) == len(header) for row in rows)
    for row in rows:
        for value in row:
            float(value)


def test_rerun_overwrites_byte_identical(tmp_path):
    data_dir = tmp_path / "d1"
    assert _run("gen-data", "--kind", "classification", "--out-dir", data_dir,
                "--classes", "4", "--per-class", "5") == 0
    first = {p.name: p.read_bytes() for p in data_dir.iterdir()
             if p.name != "run_meta.json"}
    assert _run("gen-data", "--kind", "classification", "--out-dir", data_dir,
                "--classes", "4", "--per-class", "5") == 0
    second = {p.name: p.read_bytes() for p in data_dir.iterdir()
              if p.name != "run_meta.json"}
    assert first == second


def _every_command(out, monkeypatch):
    """Run each subcommand but gen-data and reproduce into ``out``."""
    data = out / "data"
    assert _run("gen-data", "--kind", "regression", "--out-dir", data,
                "--n", 60, "--label-values", 10, "--input-dim", 16) == 0
    labels = data / "labels.txt"
    for kind, flags in [("linear", ["--n", 60]),
                        ("clustered", ["--class-sizes", "20,20,20"]),
                        ("serial", ["--labels", labels, "--k", 10]),
                        ("ell", ["--labels", labels, "--auxiliary", 3,
                                 "--nonnegative"])]:
        graph = out / f"{kind}.json"
        assert _run("build-graph", "--kind", kind, *flags, "--out", graph) == 0
        assert _run("spectrum", "--graph", graph, "--edge-percentile", 30,
                    "--out-dir", out / f"spectrum-{kind}") == 0
    arch = out / "arch.json"
    write_architecture([
        gsfa.LayerSpec(grid=(2, 2), receptive_field=(2, 2), out_dims=3,
                       expansion=gsfa.ExpansionSpec("quadratic")),
        gsfa.LayerSpec(grid=(1, 1), receptive_field=(2, 2), out_dims=2),
    ], arch)
    with monkeypatch.context() as patch:
        # a serial graph file loads and trains as its groups alone
        patch.setattr(gsfa.graph._GroupEdges, "view", _refuse_edge_matrix)
        assert gsfa.load_graph(out / "serial.json").structure.kind == "serial"
        assert _run("train", "--data", data / "data.csv", "--graph",
                    out / "serial.json", "--features", 3,
                    "--out", out / "model.json") == 0
        assert _run("train", "--data", data / "data.csv", "--graph",
                    out / "serial.json", "--hierarchy", arch,
                    "--out", out / "net") == 0
        # a network's manifest is an architecture file
        assert _run("train", "--data", data / "data.csv", "--graph",
                    out / "serial.json", "--hierarchy", out / "net/manifest.json",
                    "--out", out / "net-again") == 0
    for model, eval_dir in [("model.json", "eval"), ("net", "eval-net")]:
        assert _run("evaluate", "--model", out / model,
                    "--train-data", data / "data.csv", "--train-labels", labels,
                    "--test-data", data / "data.csv", "--test-labels", labels,
                    "--estimators", "linear_scaling,linear_regression,soft_gc",
                    "--out-dir", out / eval_dir) == 0


def _refuse_edge_matrix(*args):
    raise AssertionError("the edge matrix of the groups was built")


def _outputs(root):
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*")
            if path.is_file() and path.name != "run_meta.json"}


def test_every_command_reruns_byte_identical(tmp_path, monkeypatch):
    out = tmp_path / "out"
    _every_command(out, monkeypatch)
    first = _outputs(out)
    _every_command(out, monkeypatch)
    assert _outputs(out) == first
    assert {name: data for name, data in _outputs(out / "net-again").items()
            if name.name != "config.json"} == {
        name: data for name, data in _outputs(out / "net").items()
        if name.name != "config.json"}
    assert {path.name for path in first} >= {
        "serial.json", "edges.csv", "responses.csv", "model.json",
        "manifest.json", "metrics.csv"}
    serial = json.loads((out / "serial.json").read_text())
    assert serial["format_version"] == 2
    assert "structure" in serial and "edges" not in serial
