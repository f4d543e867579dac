#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny N.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it makes one short untraced and one short traced
measurement at the ``tiny`` sizes and asserts that

- every end-to-end and per-layer metric is present with its unit, and
  the names and units are the ones ``BENCHMARK.json`` lists;
- no iteration failed (fail_ratio is 0);
- in every traced iteration the self times of all spans, the
  benchmark's glue included, add up to the iteration's wall time to
  within SUM_TOL_S, and the glue is at most GLUE_SHARE of it, so the
  per-layer self times sum to the wall time within that margin.

It also copies ``BENCHMARK.json`` and this directory into an empty
directory and checks that the benchmark exits non-zero there without
printing a result. Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys

import run

SUM_TOL_S = 1e-6      # float rounding over a few hundred spans
GLUE_SHARE = 0.05     # benchmark code outside every traced gsfa call
SECONDS = 0.5
SEED = 1


def _check_metrics(result, expected, label):
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{label}: {name} = {value!r}")
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    assert result["failed"] == 0, f"{label}: failures {result['failures']}"
    assert result["correct"], f"{label}: not correct"


def _check_self_times(result, label):
    from tracing import ROOT, iteration_walls, self_times

    spans = result["spans"]
    walls = iteration_walls(spans)
    assert walls, f"{label}: no traced iteration"
    for iteration, selfs in self_times(spans).items():
        wall = walls[iteration]
        total = sum(selfs.values())
        assert abs(total - wall) <= SUM_TOL_S, (
            f"{label}: iteration {iteration} self times sum to {total!r}, "
            f"wall time {wall!r}")
        glue = selfs[ROOT]
        assert glue <= GLUE_SHARE * wall, (
            f"{label}: glue {glue:.6f} s of {wall:.6f} s")
        assert all(value >= -SUM_TOL_S for value in selfs.values()), (
            f"{label}: negative self time in {dict(selfs)}")
    layer_sum = sum(metric["value"] for name, metric in result["metrics"].items()
                    if name.endswith(".self_s"))
    mean_wall = sum(walls.values()) / len(walls)
    assert abs(layer_sum - mean_wall) <= SUM_TOL_S * len(spans), (
        f"{label}: reported self times sum to {layer_sum!r}, "
        f"mean wall {mean_wall!r}")


def _check_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        assert listed == table, f"BENCHMARK.json {key} differs from run.py"
    names = [w["name"] for w in declared["workloads"]]
    from workloads import WORKLOADS
    assert names == list(WORKLOADS), "BENCHMARK.json workloads differ"


def _check_refuses_without_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ell-regression",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the gsfa sources"
    assert "correct" not in proc.stdout, "printed a result without sources"


def main():
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    _check_benchmark_json()
    _check_refuses_without_sources()
    for name in WORKLOADS:
        plain = run.measure(name, SEED, SECONDS, trace=False, size="tiny")
        _check_metrics(plain, run.END_TO_END, f"{name} trace 0")
        traced = run.measure(name, SEED, SECONDS, trace=True, size="tiny")
        _check_metrics(traced, run.PER_LAYER, f"{name} trace 1")
        _check_self_times(traced, f"{name} trace 1")
        glue = traced["metrics"]["bench.glue.self_s"]["value"]
        print(f"{name}: ok ({plain['attempted']} untraced and "
              f"{traced['attempted']} traced-run iterations, glue "
              f"{glue * 1e3:.3f} ms per iteration)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
