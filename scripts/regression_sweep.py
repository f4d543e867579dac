#!/usr/bin/env python3
"""Synthetic regression benchmark: serial vs exact-label graphs.

Generates a deterministic regression dataset, trains linear GSFA with a
serial graph and with exact-label graphs carrying a varying number of
cosine auxiliary labels, then sweeps estimators over the leading d
features. Writes one metrics row per (graph, estimator, d).
"""

import argparse
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gsfa


@dataclass
class Config:
    n_train_per_value: int = 10
    n_test_per_value: int = 2
    n_label_values: int = 60
    input_dim: int = 10
    noise: float = 0.1
    seed: int = 0
    aux_counts: tuple = (1, 4, 10)
    d_max: int = 3
    out_dir: Path = Path("regression_out")


def make_split(cfg):
    per_value = cfg.n_train_per_value + cfg.n_test_per_value
    spec = gsfa.SyntheticRegressionSpec(
        n_samples=cfg.n_label_values * per_value, input_dim=cfg.input_dim,
        n_label_values=cfg.n_label_values, noise=cfg.noise, seed=cfg.seed)
    data, labels, _ = gsfa.gen_regression(spec)
    idx = np.arange(labels.size).reshape(cfg.n_label_values, per_value)
    train = idx[:, :cfg.n_train_per_value].ravel()
    test = idx[:, cfg.n_train_per_value:].ravel()
    return (data[:, train], labels[train]), (data[:, test], labels[test])


def ell_graph(labels, n_labels):
    v = np.ones(labels.size)
    rows = [labels] if n_labels == 1 else [labels,
                                           *gsfa.auxiliary_labels(labels, n_labels)]
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(np.vstack(rows), v), v)
    lams = np.linspace(1.0, 0.4, label_set.n_labels)
    return gsfa.build_ell_graph(label_set.with_eigenvalues(lams / lams.sum()), v)


def evaluate(graph_name, graph, train, test, cfg, writer):
    (x_train, y_train), (x_test, y_test) = train, test
    model = gsfa.train_gsfa(x_train, graph, n_features=max(cfg.d_max, 3))
    feats_train = gsfa.extract_features(model, x_train)
    feats_test = gsfa.extract_features(model, x_test)
    chance = gsfa.chance_rmse(y_test)
    for d in range(1, cfg.d_max + 1):
        used_train, used_test = feats_train[:d], feats_test[:d]
        fits = {
            "linear_scaling": gsfa.fit_linear_scaling(used_train, y_train),
            "linear_regression": gsfa.fit_linear_regression(used_train, y_train),
            "soft_gc": gsfa.fit_soft_gc(used_train, y_train,
                                        n_classes=min(20, cfg.n_label_values)),
        }
        for est_name, est in fits.items():
            writer.writerow([graph_name, est_name, d,
                             repr(gsfa.rmse(est.predict(used_train), y_train)),
                             repr(gsfa.rmse(est.predict(used_test), y_test)),
                             repr(chance)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("regression_out"))
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cfg = Config(noise=args.noise, seed=args.seed, out_dir=args.out_dir)

    train, test = make_split(cfg)
    graphs = {"serial": gsfa.build_serial_graph(train[1], cfg.n_label_values)}
    for n_labels in cfg.aux_counts:
        graphs[f"ell{n_labels}"] = ell_graph(train[1], n_labels)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "metrics.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["graph", "estimator", "d", "rmse_train", "rmse_test",
                         "chance_rmse_test"])
        for name, graph in graphs.items():
            evaluate(name, graph, train, test, cfg, writer)
            print(f"evaluated {name}")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
