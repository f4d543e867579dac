#!/usr/bin/env python3
"""Compact discriminative features vs the clustered graph.

On balanced synthetic blobs with C classes (a power of two), trains
GSFA with the clustered graph, with compact+log2(C) binary labels, and
with compact+(C-1) labels, then reports nearest-centroid error rates as
a function of the number of features d kept. With few features the
compact codes should dominate; at d = C-1 the clustered and
compact+(C-1) graphs carry the same information.
"""

import argparse
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gsfa


@dataclass
class Config:
    n_classes: int = 16
    per_class: int = 30
    input_dim: int = 16
    spread: float = 3.0
    noise: float = 1.5
    seed: int = 0
    out_dir: Path = Path("compact_out")


def split(data, ids, per_class, n_test):
    idx = np.arange(ids.size).reshape(-1, per_class)
    train = idx[:, :-n_test].ravel()
    test = idx[:, -n_test:].ravel()
    return (data[:, train], ids[train]), (data[:, test], ids[test])


def graphs_for(ids, n_classes):
    sizes = [int(np.sum(ids == c)) for c in range(n_classes)]
    bits = n_classes.bit_length() - 1
    out = {"clustered": gsfa.build_clustered_graph(sizes)}
    for n_labels in (bits, n_classes - 1):
        compact = gsfa.compact_binary_labels(n_classes, n_labels)
        label_set = compact.expand(sizes)
        out[f"compact+{n_labels}"] = gsfa.build_ell_graph(
            label_set, np.ones(sum(sizes)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=16)
    parser.add_argument("--per-class", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("compact_out"))
    args = parser.parse_args()
    cfg = Config(n_classes=args.classes, per_class=args.per_class,
                 seed=args.seed, out_dir=args.out_dir)

    spec = gsfa.SyntheticClassificationSpec(
        n_classes=cfg.n_classes, per_class=cfg.per_class,
        input_dim=cfg.input_dim, spread=cfg.spread, noise=cfg.noise,
        seed=cfg.seed)
    data, ids, _ = gsfa.gen_classification(spec)
    n_test = max(2, cfg.per_class // 5)
    (x_train, id_train), (x_test, id_test) = split(data, ids, cfg.per_class,
                                                   n_test)

    d_top = cfg.n_classes - 1
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "error_rates.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["graph", "d", "error_rate_train", "error_rate_test"])
        for name, graph in graphs_for(id_train, cfg.n_classes).items():
            model = gsfa.train_gsfa(x_train, graph, n_features=d_top)
            feats_train = gsfa.extract_features(model, x_train)
            feats_test = gsfa.extract_features(model, x_test)
            for d in range(2, d_top + 1):
                clf = gsfa.fit_nearest_centroid(feats_train[:d], id_train)
                err_train = gsfa.error_rate(
                    gsfa.classify(clf, feats_train[:d]), id_train)
                err_test = gsfa.error_rate(
                    gsfa.classify(clf, feats_test[:d]), id_test)
                writer.writerow([name, d, repr(err_train), repr(err_test)])
            print(f"{name}: done")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
