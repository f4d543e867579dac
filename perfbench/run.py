#!/usr/bin/env python3
"""Run one gsfa benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ell-regression --seed 1 \\
        --seconds 30 --trace 0

The workload runs as a closed loop with one client in this one
process: each pipeline iteration starts after the previous one and its
correctness checks have ended. Iterations run until their timed wall
time reaches ``--seconds``. Set-up (the ``gsfa`` import, timed in
fresh interpreters, plus input generation) is repeated
``SETUP_REPEATS`` times and reported as the median.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends
half the time untraced and half traced (see ``tracing.py``) and
reports per-layer self times per iteration, exact call counts and
sizes, and the tracing overhead (traced minus untraced median
iteration time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable
lines above it repeat every metric with its unit, the failure ratio,
which percentile the tail is, and the machine record. The full result,
with per-iteration times and, for traced runs, every span, goes to
``.perfbench_out/`` in the repository root.

BLAS threads are capped at the number of CPUs this process may use,
before numpy is imported.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10      # iterations that must lie beyond the tail percentile
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gsfa; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "setup_s": "s",
    "iter_s.p50": "s",
    "iter_s.tail": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "test_rmse_ratio": "ratio",
}

_LAYER_SPANS = (
    "graph.fingerprint", "graph.consistency", "graph.save", "graph.load",
    "builders.labels", "builders.build", "builders.eliminate",
    "solver.train", "solver.moments", "solver.dcov", "solver.expand",
    "solver.pca", "solver.extract", "hierarchy.train", "hierarchy.extract",
    "spectrum.free_responses", "spectrum.m_matrix", "spectrum.export",
    "matrixio.save_csv", "serialize.write", "serialize.read",
    "estimators.fit", "estimators.predict", "cli.build_graph",
    "cli.spectrum", "bench.glue",
)
_COUNTS = (
    "graph.fingerprint.calls", "graph.consistency.calls", "solver.train.calls",
    "solver.dcov.calls.pairwise", "solver.dcov.calls.consistent_form",
    "solver.dcov.calls.structured", "hierarchy.nodes", "graph.nnz",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _LAYER_SPANS},
    **{name: "count" for name in _COUNTS},
    "graph.file_bytes": "bytes",
    "matrixio.bytes_written": "bytes",
    "datagen.gen_s": "s",
    "trace.overhead_s": "s",
}


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(usable_cpus())


# ---------------------------------------------------------------------------
# machine record

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gsfa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(workload, seed):
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads_cap"] = int(os.environ[BLAS_THREAD_VARS[0]])
    return {
        "workload": workload,
        "seed": seed,
        "nproc": usable_cpus(),
        "cpu": _cpu_model(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement

def reference_loop_s(repeats=3, count=5_000_000):
    """Median seconds of a fixed pure-Python loop: this CPU's speed now.

    Recorded before set-up and after the last iteration so that a
    reader can tell a slower machine from a slower program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(count):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_import():
    """Seconds to import gsfa in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(cls, seed, size, workdir):
    """Set the workload up SETUP_REPEATS times.

    Returns the last workload and the medians of set-up time and of
    input-generation time.
    """
    totals, gens = [], []
    for repeat in range(SETUP_REPEATS):
        import_s = time_import()
        workload = cls(seed, size, workdir / f"setup-{repeat}")
        start = time.perf_counter()
        workload.generate()
        gen_s = time.perf_counter() - start
        totals.append(import_s + gen_s)
        gens.append(gen_s)
    return workload, statistics.median(totals), statistics.median(gens)


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND beyond.

    With fewer than 2 * TAIL_BEYOND iterations that order statistic
    would sit below the median, so the tail is the maximum (percentile
    100) instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


class Loop:
    """Closed-loop iterations of one workload, with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.traced_times = []
        self.qualities = []
        self.failed = 0
        self.problems = []

    def run(self, seconds, tracer=None):
        spent = 0.0
        while True:
            self.workload.prepare()
            gc.collect()
            index = len(self.times) + len(self.traced_times)
            problems = []
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = self.workload.iterate()
                else:
                    out = tracer.run_iteration(index, self.workload.iterate)
            except Exception:
                out = None
                problems.append(traceback.format_exc())
            elapsed = time.perf_counter() - start
            (self.times if tracer is None else self.traced_times).append(elapsed)
            if tracer is not None:
                tracer.measure_sizes()
            if out is not None:
                try:
                    problems.extend(self.workload.check(out))
                    if not problems:
                        self.qualities.append(self.workload.quality(out))
                except Exception:
                    problems.append(traceback.format_exc())
            if problems:
                self.failed += 1
                self.problems.append({"iteration": index, "problems": problems})
                for problem in problems:
                    print(f"iteration {index} failed: {problem}", file=sys.stderr)
            out = None        # freed here, not inside the next timing
            spent += elapsed
            if spent >= seconds:
                return

    @property
    def attempted(self):
        return len(self.times) + len(self.traced_times)


def end_to_end(loop, setup_s):
    times = loop.times
    tail_s, tail_pct = tail(times)
    quality = statistics.median(loop.qualities) if loop.qualities else None
    values = {
        "setup_s": setup_s,
        "iter_s.p50": statistics.median(times),
        "iter_s.tail": tail_s,
        "samples_per_s": loop.workload.samples * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_rmse_ratio": quality,
    }
    details = {"iterations": len(times), "tail_percentile": tail_pct,
               "iteration_s": times}
    return values, details


def per_layer(loop, tracer, gen_s):
    from tracing import ROOT, iteration_walls, self_times

    selfs = self_times(tracer.spans)
    iterations = sorted(iteration_walls(tracer.spans))
    n = len(iterations)
    values = {}
    for name in _LAYER_SPANS:
        span = ROOT if name == "bench.glue" else name
        values[f"{name}.self_s"] = sum(selfs[it].get(span, 0.0)
                                       for it in iterations) / n
    position = {it: i for i, it in enumerate(iterations)}
    for name, start, end, parent, it in tracer.spans:
        if (name == "solver.train" and parent is not None
                and tracer.spans[parent][0] == "hierarchy.train"):
            tracer.counters[position[it]]["hierarchy.nodes"] += 1
    exact = []
    for name in _COUNTS + ("graph.file_bytes", "matrixio.bytes_written"):
        per_iteration = [c.get(name, 0) for c in tracer.counters]
        if len(set(per_iteration)) == 1:
            exact.append(name)
            values[name] = per_iteration[0]
        else:
            values[name] = sum(per_iteration) / n
    values["datagen.gen_s"] = gen_s
    values["trace.overhead_s"] = (statistics.median(loop.traced_times)
                                  - statistics.median(loop.times))
    details = {"traced_iterations": n, "untraced_iterations": len(loop.times),
               "traced_iteration_s": loop.traced_times,
               "untraced_iteration_s": loop.times,
               "counts_equal_every_iteration": sorted(exact)}
    return values, details


def measure(workload_name, seed, seconds, trace, size="full"):
    """Run one workload; returns the full result as a dict."""
    from tracing import Tracer, layer_table
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    reference_before = reference_loop_s()
    try:
        workload, setup_s, gen_s = set_up(cls, seed, size, workdir)
        loop = Loop(workload)
        if not trace:
            loop.run(seconds)
            values, details = end_to_end(loop, setup_s)
            units = END_TO_END
        else:
            loop.run(seconds / 2.0)
            tracer = Tracer()
            tracer.install(layer_table())
            try:
                loop.run(seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            values, details = per_layer(loop, tracer, gen_s)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()      # only when no other run is using it
    machine = machine_record(workload_name, seed)
    machine["reference_loop_s"] = {"before": reference_before,
                                   "after": reference_loop_s()}
    return {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "details": details,
        "failures": loop.problems,
        "spans": tracer.spans if tracer is not None else None,
        "machine": machine,
        "settings": {"seconds": seconds, "trace": trace, "size": size,
                     "samples_per_iteration": workload.samples,
                     "setup_repeats": SETUP_REPEATS},
    }


def report(result):
    """Human-readable lines; the caller prints the JSON line after them."""
    machine = result["machine"]
    blas = machine["blas"]
    lines = [
        f"workload={machine['workload']} seed={machine['seed']} "
        f"seconds={result['settings']['seconds']} "
        f"trace={int(result['settings']['trace'])}",
        f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"threads_cap={blas['threads_cap']} python={machine['python']} "
        f"numpy={machine['numpy']} scipy={machine['scipy']} "
        f"commit={machine['git_commit']} source={machine['source_sha256']}",
        f"reference loop: {machine['reference_loop_s']['before']:.4f} s "
        f"before, {machine['reference_loop_s']['after']:.4f} s after",
        f"attempted={result['attempted']} failed={result['failed']} "
        f"fail_ratio={result['failed'] / max(result['attempted'], 1):g}",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"{name} = {metric['value']!r} {metric['unit']}")
    details = result["details"]
    if "tail_percentile" in details:
        lines.append(f"iter_s.tail is p{details['tail_percentile']:g} of "
                     f"{details['iterations']} iterations")
    else:
        lines.append(f"traced iterations={details['traced_iterations']} "
                     f"untraced iterations={details['untraced_iterations']}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ell-regression", "serial-hgsfa",
                                 "cli-ell-spectrum"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gsfa" / "__init__.py").is_file():
        print(f"error: gsfa sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result) + "\n")
    for line in report(result):
        print(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
