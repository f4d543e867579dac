"""Per-layer spans recorded from outside the gsfa package.

The tracer replaces public functions of gsfa in the namespace where
their callers look them up (``gsfa.solver.train_gsfa`` for the
benchmark, ``gsfa.hierarchy.train_gsfa`` for the hierarchy, ...) with
wrappers that record a span per call: name, start, end, parent span and
iteration id. Spans stay in memory; the runner writes them out when the
run ends. Outside a traced iteration the wrappers only call through, so
set-up and correctness checks add no spans. ``uninstall`` puts every
original back.

A layer's self time is its span's duration minus the time its child
spans cover. The root span of an iteration is ``bench.iteration``; its
self time is the benchmark's own glue code, reported as
``bench.glue.self_s``.
"""

import functools
import os
import time
from collections import defaultdict

import numpy as np

ROOT = "bench.iteration"


def _note_dcov_path(counters, args, kwargs, result):
    path = kwargs.get("path", args[2] if len(args) > 2 else "pairwise")
    counters[f"solver.dcov.calls.{path}"] += 1


def _note_file_bytes(key):
    def note(counters, args, kwargs, result):
        counters[key] += os.path.getsize(args[1])
    return note


def _note_built_graph(counters, args, kwargs, result):
    counters.graphs.append(result)


def _cli_span(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    command = argv[0] if argv else "main"
    return "cli." + command.replace("-", "_")


def layer_table():
    """(owner, attribute, span name, note) for every traced function.

    The span name of ``gsfa.cli.main`` is ``cli.<subcommand>``, so the
    argument parsing counts towards the command it runs.
    ``note`` runs after the span closes and adds computed sizes to the
    iteration's counters. Attributes a module no longer has are skipped
    by :meth:`Tracer.install`, so a namespace whose callers went away
    simply records no calls.
    """
    from gsfa import (builders, cli, estimators, graph, hierarchy, matrixio,
                      serialize, solver, spectrum)

    def each(owners, attr, name, note=None):
        return [(owner, attr, name, note) for owner in owners]

    return [
        (graph.TrainingGraph, "fingerprint", "graph.fingerprint", None),
        *each((graph, solver, builders, spectrum), "check_consistency",
              "graph.consistency"),
        *each((graph, cli), "save_graph", "graph.save",
              _note_file_bytes("graph.file_bytes")),
        *each((graph, cli), "load_graph", "graph.load"),
        *each((builders,), "normalize_labels", "builders.labels"),
        *each((builders,), "decorrelate_labels", "builders.labels"),
        *each((builders,), "auxiliary_labels", "builders.labels"),
        *each((builders,), "build_ell_graph", "builders.build",
              _note_built_graph),
        *each((builders,), "build_serial_graph", "builders.build",
              _note_built_graph),
        *each((builders,), "eliminate_negative_weights", "builders.eliminate"),
        *each((solver, hierarchy), "train_gsfa", "solver.train"),
        *each((solver,), "weighted_mean", "solver.moments"),
        *each((solver,), "sample_covariance", "solver.moments"),
        *each((solver,), "derivative_covariance", "solver.dcov",
              _note_dcov_path),
        *each((solver, hierarchy), "expand", "solver.expand"),
        *each((solver, hierarchy), "pca_reduce", "solver.pca"),
        (solver.PcaModel, "transform", "solver.pca", None),
        *each((solver, hierarchy), "extract_features", "solver.extract"),
        *each((hierarchy,), "train_hgsfa", "hierarchy.train"),
        *each((hierarchy,), "network_extract", "hierarchy.extract"),
        *each((spectrum,), "optimal_free_responses", "spectrum.free_responses"),
        *each((spectrum,), "build_m_matrix", "spectrum.m_matrix"),
        *each((spectrum,), "export_spectrum", "spectrum.export"),
        *each((matrixio,), "save_matrix_csv", "matrixio.save_csv",
              _note_file_bytes("matrixio.bytes_written")),
        *each((serialize, graph, builders, solver, estimators),
              "write_container", "serialize.write"),
        *each((serialize, graph, builders, solver, estimators),
              "read_container", "serialize.read"),
        *each((estimators,), "fit_linear_regression", "estimators.fit"),
        *each((estimators,), "fit_soft_gc", "estimators.fit"),
        (estimators.LinearRegressionEstimator, "predict",
         "estimators.predict", None),
        (estimators.SoftGcEstimator, "predict", "estimators.predict", None),
        *each((cli,), "main", _cli_span),
    ]


class _Counters(defaultdict):
    """Per-iteration counts and sizes, plus the graphs the builders made."""

    def __init__(self):
        super().__init__(int)
        self.graphs = []


def stored_nonzeros(training_graph):
    """Nonzero edge entries the graph stores (both triangles)."""
    gamma = training_graph.edge_weights
    if training_graph.is_sparse:
        return int(np.count_nonzero(gamma.data))
    return int(np.count_nonzero(gamma))


class Tracer:
    """Span recorder installed around gsfa's public functions."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, iteration]
        self.counters = []    # one _Counters per traced iteration
        self.iteration = None
        self._open = []
        self._saved = []

    def install(self, table):
        for owner, attr, name, note in table:
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open_span(self, name):
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.iteration]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close_span(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.iteration is None:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            span = tracer._open_span(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(span)
            counters = tracer.counters[-1]
            counters[f"{span_name}.calls"] += 1
            if note is not None:
                note(counters, args, kwargs, result)
            return result

        return traced

    def run_iteration(self, index, fn):
        """Call fn() as traced iteration ``index``; returns its result."""
        self.counters.append(_Counters())
        self.iteration = index
        span = self._open_span(ROOT)
        try:
            return fn()
        finally:
            self._close_span(span)
            self.iteration = None

    def measure_sizes(self):
        """Count the last iteration's graph entries, outside its timing."""
        counters = self.counters[-1]
        for built in counters.graphs:
            counters["graph.nnz"] += stored_nonzeros(built)
        counters.graphs.clear()


def self_times(spans):
    """{iteration: {span name: self seconds}} for a list of spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, iteration in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, parent, iteration) in enumerate(spans):
        totals[iteration][name] += end - start - covered[index]
    return totals


def iteration_walls(spans):
    """{iteration: wall seconds of its root span}."""
    return {it: end - start for name, start, end, parent, it in spans
            if name == ROOT}
