"""File writers and readers against their byte and rejection oracles.

The JSON writer must equal ``json.dumps(..., sort_keys=True, indent=1)``
byte for byte, the CSV writers the ``csv.writer`` row loop, the number
formatter behind both the ``repr`` of every value, and the graph
reader must reject exactly what the per-edge loop rejected, with the same
message (oracles in ``conftest.py``). A graph file of ELL factors
(version 2) must load to exactly the edges its version-1 file gives,
each keeping the checksum of its own scheme.
"""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gsfa
from gsfa import FormatError, TrainingGraph
from gsfa import serialize
from gsfa.serialize import Columns, format_rows, iter_json, write_json

from conftest import (
    csv_by_writer,
    edges_csv_by_loop,
    ell_graph_from_seed,
    fingerprint_by_description,
    fingerprint_by_loop,
    fingerprint_oracle,
    format_rows_by_repr,
    graph_file_by_dumps,
    json_by_dumps,
    load_graph_by_loop,
    matrix_csv_by_writer,
    structure_file_by_dumps,
    two_group_cross_graph,
)

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e-7, 2.5]


# ---------------------------------------------------------------------------
# number formatter

#: (prefix, sep, between, suffix) of a CSV body, a JSON table at level 1
#: (serialize._json_table) and a 1-D JSON array at level 1 (iter_json).
LAYOUTS = {
    "csv": ("", ",", "\n", "\n"),
    "json-table": ("[\n  [\n   ", ",\n   ", "\n  ],\n  [\n   ", "\n  ]\n ]"),
    "json-1d": ("[\n  ", "", ",\n  ", "\n ]"),
}


def _near(x, ulps=3):
    """x and the floats up to ``ulps`` steps either side of it."""
    out = [x]
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, toward)
            out.append(y)
    return out


BOUNDARY_FLOATS = sorted({
    float(y) for x in (1e-4, 1e-5, 1e16, 1.001e-4, 9.99e15)
    for y in _near(x) + [-z for z in _near(x)]
} | {5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
     0.0, 1.0, 123456789012345.6})


def _assert_formats_as_repr(columns):
    for name, layout in LAYOUTS.items():
        cols = columns[:1] if name == "json-1d" else columns
        assert b"".join(format_rows(cols, *layout)).decode() == format_rows_by_repr(
            cols, *layout), name


def test_formatter_matches_repr_at_exponent_bounds():
    values = np.array(BOUNDARY_FLOATS + [-0.0, np.nan, np.inf, -np.inf])
    _assert_formats_as_repr([values])
    with np.errstate(over="ignore"):  # the largest floats round to inf
        _assert_formats_as_repr([values.astype(np.float32)])
    # one row of every kind of column, and the same values as a table
    _assert_formats_as_repr([np.array([v]) for v in values])
    _assert_formats_as_repr([np.arange(values.size), values, values[::-1],
                             np.arange(values.size, dtype=np.uint64)])


def test_formatter_keeps_integers_exact():
    big = np.array([0, 1, 2**53 + 1, 2**63 - 1], dtype=np.int64)
    _assert_formats_as_repr([big, -big, np.array([0, 1, 2**63, 2**64 - 1],
                                                 dtype=np.uint64)])
    _assert_formats_as_repr([np.array([0, 3], dtype=">i8"),
                             np.array([0.5, 1e-7], dtype=">f8")])


def test_formatter_rejects_columns_that_are_not_numbers():
    with pytest.raises(TypeError):
        b"".join(format_rows([np.array([True, False])], *LAYOUTS["csv"]))


def _wide_table(n_rows, width, seed):
    """A width x n_rows float table (rows of the array are its columns)
    whose rows mix plain values with ones ``repr`` must write."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(width, n_rows))
    specials = [1e-5, -3e-7, 1e17, np.nan, np.inf, -np.inf, 5e-324, -0.0]
    for row in range(0, n_rows, 3):  # every third row, the others plain
        cols = rng.choice(width, size=min(width, 4), replace=False)
        table[cols, row] = rng.choice(specials, size=cols.size)
    return table


@pytest.mark.parametrize("n_rows, width", [
    (100, 1500),  # 43 rows a block: 43 + 43 + 14
    (7, serialize._ROW_CALL_WIDTH), (50, serialize._ROW_CALL_WIDTH - 1),
    (1, 1500), (1500, 1), (1, 1)])
def test_formatter_matches_repr_on_wide_tables(n_rows, width):
    table = _wide_table(n_rows, width, seed=n_rows + width)
    for name in ("csv", "json-table"):
        for columns in (table, list(table), table.astype(np.float32)):
            assert b"".join(format_rows(columns, *LAYOUTS[name])).decode() \
                == format_rows_by_repr(columns, *LAYOUTS[name]), name


_FLOAT64 = st.one_of(st.sampled_from(BOUNDARY_FLOATS + EDGE_FLOATS),
                     st.floats())
_COLUMN_DTYPES = [np.dtype(t) for t in (
    "<f8", "<f4", ">f8", "i1", "<i2", "<i4", "<i8", ">i8",
    "u1", "<u2", "<u4", "<u8")]
#: spectrum.csv (j, lambda, delta, feasible) and graph triplets (i, j, gamma)
_TABLE_DTYPES = [[np.dtype(np.int64), np.dtype(float), np.dtype(float),
                  np.dtype(np.int64)],
                 [np.dtype(np.int64), np.dtype(np.int64), np.dtype(float)]]


def _column(dtype, n):
    if dtype.kind == "f":
        elements = _FLOAT64 if dtype.itemsize == 8 else st.floats(width=32)
        return hnp.arrays(dtype, n, elements=elements)
    return hnp.arrays(dtype, n)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 30))
    dtypes = draw(st.one_of(
        st.lists(st.sampled_from(_COLUMN_DTYPES), min_size=1, max_size=5),
        st.sampled_from(_TABLE_DTYPES)))
    return [draw(_column(dtype, n)) for dtype in dtypes]


@settings(max_examples=400, deadline=None)
@given(_tables(), st.sampled_from([None, 1, 2, 5, 7]))
def test_formatter_matches_repr_property(columns, block):
    with mock.patch.object(serialize, "_BLOCK_VALUES",
                           block or serialize._BLOCK_VALUES):
        _assert_formats_as_repr(columns)


# ---------------------------------------------------------------------------
# JSON writer

def test_json_writer_matches_dumps_on_layouts():
    cases = [
        {}, [], 1.5, "text", None,
        {"b": {}, "a": [1, 2.5, None, True, "xé\n"], "c": {"d": []}},
        {"v": np.array(EDGE_FLOATS), "i": np.arange(4), "e": np.zeros(0)},
        {"m": np.arange(12.0).reshape(3, 4), "cols0": np.zeros((2, 0)),
         "rows0": np.zeros((0, 3)), "cube": np.arange(24).reshape(2, 3, 4)},
        {"t": Columns(np.array([0, 1]), np.array([1, 3]), np.array([0.5, -0.0]))},
        {"t": Columns(np.zeros(0, dtype=int), np.zeros(0))},
        {"nan": np.array([1.0, np.nan, -np.inf]), "flags": np.array([True, False]),
         "scalar": np.array(3.5), "f32": np.array([0.1, 3.0], dtype=np.float32),
         "t": Columns(np.array([np.inf]), np.array([1]))},
        [[np.array([1, 2]), {"k": np.array([[1.5]])}], (3, 4)],
    ]
    for obj in cases:
        assert b"".join(iter_json(obj)).decode() + "\n" == json_by_dumps(obj), obj


def test_json_writer_blocks_join_seamlessly(tmp_path):
    rng = np.random.default_rng(3)
    n = 70_001  # several blocks, the last one short
    table = Columns(np.arange(n), np.arange(n) + 1, rng.normal(size=n))
    payload = {"t": table, "v": rng.normal(size=n), "m": rng.normal(size=(900, 80))}
    write_json(tmp_path / "big.json", payload)
    assert (tmp_path / "big.json").read_text() == json_by_dumps(payload)


def test_json_writer_rejects_non_string_keys():
    with pytest.raises(TypeError):
        b"".join(iter_json({1: np.zeros(2)}))


def _arrays(dtype, elements):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3,
                                              min_side=0, max_side=4),
                      elements=elements)


_finite = st.one_of(st.sampled_from(EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_leaves = st.one_of(
    _arrays(np.float64, _finite),
    _arrays(np.float64, st.floats()),
    _arrays(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(lambda i, g: Columns(np.asarray(i[:len(g)], dtype=np.int64),
                                   np.asarray(g[:len(i)], dtype=float)),
              st.lists(st.integers(0, 10**9), max_size=6),
              st.lists(_finite, max_size=6)),
    _finite, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_json_writer_matches_dumps_property(obj):
    assert b"".join(iter_json(obj)).decode() + "\n" == json_by_dumps(obj)


# ---------------------------------------------------------------------------
# containers

def _graph_cases(rng):
    m = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
    gamma = m + m.T + 0.25
    v = rng.uniform(1.0, 2.0, 9)
    return {
        "dense": TrainingGraph(v, gamma),
        "csr": TrainingGraph(v, sp.csr_array(gamma)),
        "self-loops": gsfa.build_linear_graph(7, "self_loop_extended"),
        "serial-structure": gsfa.build_serial_graph(rng.normal(size=15), 5),
        "clustered-structure": gsfa.build_clustered_graph([2, 4, 3]),
    }


def test_graph_file_matches_dumps(tmp_path, rng):
    for name, graph in _graph_cases(rng).items():
        path = tmp_path / f"{name}.json"
        gsfa.save_graph(graph, path)
        expected = (graph_file_by_dumps(graph) if graph.structure is None
                    else structure_file_by_dumps(graph))
        assert path.read_text() == expected, name


def test_model_file_matches_dumps(tmp_path, rng):
    data = rng.normal(size=(3, 40))
    graph = gsfa.build_serial_graph(np.arange(40.0), 8)
    expansion = gsfa.ExpansionSpec("quadratic")
    pca, reduced = gsfa.pca_reduce(data, graph.vertex_weights, 2)
    model = gsfa.train_gsfa(gsfa.expand(reduced, expansion), graph, n_features=3)
    gsfa.save_model(gsfa.GsfaNode(pca, expansion, model), tmp_path / "model.json")
    payload = {
        "weighted_mean": model.weighted_mean.tolist(),
        "projection": model.projection.tolist(),
        "deltas": model.deltas.tolist(),
        "trained_on": model.trained_on,
        "expansion": expansion.to_dict(),
        "pca": pca.to_dict(),
        "kind": gsfa.solver.MODEL_FILE_KIND,
        "format_version": gsfa.solver.MODEL_FILE_VERSION,
    }
    assert (tmp_path / "model.json").read_text() == json_by_dumps(payload)


def test_label_set_file_matches_dumps(tmp_path, rng):
    v = rng.uniform(0.5, 1.5, 12)
    label_set = gsfa.decorrelate_labels(
        gsfa.normalize_labels(rng.normal(size=(3, 12)), v), v)
    gsfa.save_labels(label_set, v, tmp_path / "labels.json")
    payload = {
        "labels": label_set.labels.tolist(),
        "eigenvalues": label_set.eigenvalues.tolist(),
        "vertex_weights": v.tolist(),
        "kind": "label-set",
        "format_version": 1,
    }
    assert (tmp_path / "labels.json").read_text() == json_by_dumps(payload)


# ---------------------------------------------------------------------------
# CSV writers

@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (1, 200), (70, 3), (1500, 2)])
def test_matrix_csv_matches_writer(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    data = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    data.flat[:len(EDGE_FLOATS)] = EDGE_FLOATS[:data.size]
    data.flat[-1] = np.nan if data.size > 2 else data.flat[-1]
    names = [f'f,{k}' if k % 2 else f'"q{k}"' for k in range(shape[0])]
    gsfa.save_matrix_csv(data, tmp_path / "new.csv", feature_names=names)
    matrix_csv_by_writer(data, tmp_path / "old.csv", names)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    if not np.isnan(data).any():
        loaded, loaded_names = gsfa.load_matrix_csv(tmp_path / "new.csv")
        assert loaded_names == names
        np.testing.assert_array_equal(loaded, data)


@pytest.mark.parametrize("percentile", [None, 30.0, 100.0, 0.5])
def test_edge_export_matches_loop(tmp_path, rng, percentile):
    for name, graph in _graph_cases(rng).items():
        gsfa.export_edges(graph, tmp_path / "new.csv", percentile=percentile)
        edges_csv_by_loop(graph, tmp_path / "old.csv", percentile=percentile)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes()), name


def test_spectrum_table_matches_writer(tmp_path):
    spec = gsfa.optimal_free_responses(gsfa.build_serial_graph(np.arange(12.0), 4))
    gsfa.export_spectrum(spec, tmp_path / "spectrum.csv")
    rows = ([j, repr(float(spec.eigenvalues[j])), repr(float(spec.deltas[j])),
             int(spec.feasible[j])] for j in range(spec.eigenvalues.size))
    csv_by_writer(tmp_path / "old.csv", ["j", "lambda", "delta", "feasible"], rows)
    assert ((tmp_path / "spectrum.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def test_free_responses_csv_matches_writer(tmp_path):
    graph = ell_graph_from_seed(5, 300, 3, nonnegative=True, uniform=False)
    # the completed basis: the thin held responses hold no such rows
    responses, _ = gsfa.optimal_free_responses(graph).feasible_responses()
    size = np.abs(responses)
    assert np.any((size < 1e-4) & (size > 0))  # rows that need repr
    names = [f"resp_{j}" for j in range(responses.shape[1])]
    gsfa.save_matrix_csv(responses.T, tmp_path / "new.csv", feature_names=names)
    matrix_csv_by_writer(responses.T, tmp_path / "old.csv", names)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# graph file reader

_EDGE_CASES = {
    "repeated edge": lambda e: e + [[0, 2, 1.0]],
    "repeated edge, unsorted": lambda e: [[0, 2, 1.0]] + e[::-1],
    "fractional index": lambda e: e + [[0.5, 1, 1.0]],
    "integral float index": lambda e: e + [[1.0, 2, 1.0]],
    "short entry": lambda e: e + [[0, 1]],
    "long entry": lambda e: e + [[0, 1, 2, 3]],
    "string index": lambda e: e + [["0", 1, 1.0]],
    "null index": lambda e: e + [[None, 1, 1.0]],
    "list index": lambda e: e + [[[0], 1, 1.0]],
    "string weight": lambda e: e + [[0, 1, "heavy"]],
    "index past n": lambda e: e + [[0, 7, 1.0]],
    "negative index": lambda e: e + [[-1, 2, 1.0]],
    "huge index": lambda e: e + [[0, 2**64, 1.0]],
    "i > j": lambda e: e + [[2, 1, 1.0]],
    "number entry": lambda e: e + [5],
    "string entry": lambda e: e + ["abc"],
    "object entry": lambda e: e + [{"a": 1, "b": 2, "c": 3}],
    "edges a string": lambda e: "xyz",
    "edges a number": lambda e: 5,
    "range error first": lambda e: [[0, 9, 1.0]] + e + [["0", 1, 1.0]],
    "type error first": lambda e: [["0", 1, 1.0]] + e + [[0, 9, 1.0]],
    "range before integers": lambda e: [[0.5, 1, 1.0]] + e + [[0, 9, 1.0]],
    "no edges": lambda e: [],
    "nan weight": lambda e: e + [[0, 1, float("nan")]],
}
_ACCEPTED = {
    "unsorted": lambda e: e[::-1],
    "numeric string weight": lambda e: e + [[0, 1, "1.5"]],
    "zero weight": lambda e: e + [[0, 1, 0.0]],
    "self-loops": lambda e: e + [[0, 0, 0.5], [3, 3, 2.0]],
}


def _edited_graph_file(tmp_path, edit):
    path = tmp_path / "graph.json"
    gsfa.save_graph(two_group_cross_graph(), path)
    data = json.loads(path.read_text())
    data["edges"] = edit(data["edges"])
    path.write_text(json.dumps(data))
    return path


def _outcome(load, path):
    try:
        graph = load(path)
    except gsfa.GsfaError as exc:
        return type(exc).__name__, str(exc)
    return graph.r_sum, graph.gamma_dense().tolist(), graph.fingerprint()


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_graph_file_rejections_match_loop(tmp_path, case):
    path = _edited_graph_file(tmp_path, _EDGE_CASES[case])
    expected = _outcome(load_graph_by_loop, path)
    assert isinstance(expected[0], str)
    assert _outcome(gsfa.load_graph, path) == expected


@pytest.mark.parametrize("case", sorted(_ACCEPTED))
def test_graph_file_acceptances_match_loop(tmp_path, case):
    path = _edited_graph_file(tmp_path, _ACCEPTED[case])
    assert _outcome(gsfa.load_graph, path) == _outcome(load_graph_by_loop, path)


def test_graph_file_nested_weight_rejected(tmp_path):
    path = _edited_graph_file(tmp_path, lambda e: e + [[0, 1, [1.0]]])
    with pytest.raises(FormatError, match="triplets"):
        gsfa.load_graph(path)


def test_graph_file_loads_builder_graphs_like_loop(tmp_path, rng):
    # a structure graph's file is its groups; the loop reads its edge file
    for name, graph in _graph_cases(rng).items():
        path, edge_path = tmp_path / f"{name}.json", tmp_path / f"{name}-v1.json"
        gsfa.save_graph(graph, path)
        edge_path.write_text(graph_file_by_dumps(graph))
        new, old = gsfa.load_graph(path), load_graph_by_loop(edge_path)
        _assert_same_loaded_graph(new, old, graph)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("n"), "no n"),
    (lambda d: d.pop("edges"), "no edges"),
    (lambda d: d.pop("vertex_weights"), "no vertex_weights"),
    (lambda d: d.update(vertex_weights=[1.0, "heavy", 1.0, 1.0]),
     "vertex_weights must be numbers"),
    (lambda d: d.update(vertex_weights=[1.0, 1.0, 1.0]), "n=4 numbers"),
    (lambda d: d.update(n=0), "positive integer"),
    (lambda d: d.update(n=4.0), "positive integer"),
    (lambda d: d.update(n="4"), "positive integer"),
    (lambda d: d.update(n=True), "positive integer"),
], ids=["no-n", "no-edges", "no-vertex-weights", "text-vertex-weight",
        "short-vertex-weights", "n-zero", "n-float", "n-string", "n-bool"])
def test_graph_file_input_errors(tmp_path, edit, match):
    path = tmp_path / "graph.json"
    gsfa.save_graph(two_group_cross_graph(), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=match):
        gsfa.load_graph(path)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["structure"].pop("kind"), "structure kind"),
    (lambda d: d["structure"].update(kind="chain"), "structure kind"),
    (lambda d: d.update(structure=["clustered"]), "structure kind"),
    (lambda d: d["structure"].pop("groups"), "structure groups"),
    (lambda d: d["structure"].update(groups=[0, 1, 2]), "structure groups"),
    (lambda d: d["structure"].update(groups=[[0, 1.0], [2, 3]]), "structure groups"),
    (lambda d: d["structure"].update(groups=[[0, True], [2, 3]]), "structure groups"),
    (lambda d: d["structure"].update(groups=[[0, 1], [2, 4]]), "index 4 outside"),
    (lambda d: d["structure"].update(groups=[[-1, 1], [2, 3]]), "index -1 outside"),
    (lambda d: d["structure"].update(groups=[[0, 2**70], [2, 3]]), "too large"),
    (lambda d: d["structure"].update(groups=[[0, 1], [1, 2, 3]]), "more than one"),
    (lambda d: d["structure"].update(groups=[[0, 1], [2], [3]]), ">= 2 members"),
    (lambda d: d.pop("structure"), "no ell or structure"),
    (lambda d: d.update(edges=[[0, 1, 1.0]]), "structure, not edges or ell"),
], ids=["no-kind", "unknown-kind", "not-an-object", "no-groups",
        "groups-not-lists", "float-index", "bool-index", "index-past-n",
        "negative-index", "huge-index", "groups-overlap", "singleton-cluster",
        "no-structure", "structure-and-edges"])
def test_graph_file_structure_errors(tmp_path, edit, match):
    path = tmp_path / "graph.json"
    gsfa.save_graph(gsfa.build_clustered_graph([2, 2]), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=match) as exc:
        gsfa.load_graph(path)
    assert str(path) in str(exc.value)


# ---------------------------------------------------------------------------
# graph file version 2: exact-label factors

def _assert_same_loaded_graph(new, old, built):
    """``new`` and ``old``, read from ``built``'s file and its edge file, agree.

    The same v, edge bits, Q and R. Each checksum follows its scheme: the
    edges hash as triplets, a description (kept through its file) as
    itself.
    """
    assert new.vertex_weights.tobytes() == old.vertex_weights.tobytes()
    np.testing.assert_array_equal(new.gamma_dense(), old.gamma_dense())
    assert (new.q_sum, new.r_sum) == (old.q_sum, old.r_sum)
    assert new.fingerprint() == built.fingerprint() == fingerprint_oracle(new)
    assert old.fingerprint() == fingerprint_by_loop(old)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60),
       n_labels=st.integers(1, 4), nonnegative=st.booleans(),
       uniform=st.booleans(),
       target_r_sum=st.none() | st.floats(0.01, 100.0))
def test_ell_v2_file_loads_like_v1(tmp_path_factory, seed, n, n_labels,
                                   nonnegative, uniform, target_r_sum):
    graph = ell_graph_from_seed(seed, n, n_labels, nonnegative=nonnegative,
                                uniform=uniform, target_r_sum=target_r_sum)
    tmp = tmp_path_factory.mktemp("ell")
    v2, v1 = tmp / "v2.json", tmp / "v1.json"
    gsfa.save_graph(graph, v2)
    v1.write_text(graph_file_by_dumps(graph))
    assert json.loads(v2.read_text())["format_version"] == 2
    new, old = gsfa.load_graph(v2), gsfa.load_graph(v1)
    _assert_same_loaded_graph(new, old, graph)
    assert old.ell is None
    assert new.ell.nonnegative == graph.ell.nonnegative
    np.testing.assert_array_equal(new.ell.u, graph.ell.u)
    np.testing.assert_array_equal(new.ell.weights, graph.ell.weights)


def _built_graph(kind, seed, n):
    rng = np.random.default_rng(seed)
    if kind == "linear":
        return gsfa.build_linear_graph(n, "self_loop_extended")
    if kind == "linear-halved":
        return gsfa.build_linear_graph(n, "endpoint_halved_vertex_weights")
    if kind == "clustered":
        c = int(rng.integers(1, n // 2 + 1))
        return gsfa.build_clustered_graph(
            2 + rng.multinomial(n - 2 * c, np.full(c, 1.0 / c)))
    if kind == "serial":
        k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
        return gsfa.build_serial_graph(rng.normal(size=n), int(k))
    return ell_graph_from_seed(seed, n, int(rng.integers(1, 4)),
                               nonnegative=kind == "ell-nonnegative",
                               uniform=bool(rng.integers(2)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["linear", "linear-halved", "clustered", "serial",
                             "ell", "ell-nonnegative"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(12, 60))
def test_loaded_graph_trains_the_built_graphs_model(tmp_path_factory, kind,
                                                    seed, n):
    graph = _built_graph(kind, seed, n)
    path = tmp_path_factory.mktemp("graph") / "graph.json"
    gsfa.save_graph(graph, path)
    loaded = gsfa.load_graph(path)
    data = np.random.default_rng(seed).normal(size=(4, n))
    built = gsfa.train_gsfa(data, graph, n_features=3)
    again = gsfa.train_gsfa(data, loaded, n_features=3)
    for name in ("weighted_mean", "projection", "deltas"):
        np.testing.assert_array_equal(getattr(again, name),
                                      getattr(built, name), err_msg=name)
    assert again.trained_on == built.trained_on


def test_ell_v2_file_layout(tmp_path):
    graph = ell_graph_from_seed(7, 12, 2, nonnegative=True)
    path = tmp_path / "ell.json"
    gsfa.save_graph(graph, path)
    assert path.read_text() == json_by_dumps({
        "n": 12, "vertex_weights": graph.vertex_weights,
        "ell": {"u": graph.ell.u, "weights": graph.ell.weights,
                "nonnegative": True},
        "kind": "training-graph", "format_version": 2})
    # a loaded graph keeps its factors, so saving it again is the same file
    again = tmp_path / "again.json"
    gsfa.save_graph(gsfa.load_graph(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_structure_v1_file_loads_as_its_edges(tmp_path):
    # earlier releases listed a structure graph's edges and its groups;
    # such a file loads as the edges, with the same v, Q and R. Its
    # checksum hashes those edges (scheme 1), the built graph's its
    # groups (scheme 2), so the two differ.
    for graph in (gsfa.build_serial_graph(np.arange(12.0), 4),
                  gsfa.build_clustered_graph([2, 4, 3])):
        path = tmp_path / "structure-v1.json"
        path.write_text(graph_file_by_dumps(graph))
        assert "structure" in json.loads(path.read_text())
        loaded = gsfa.load_graph(path)
        assert loaded.structure is None and loaded.is_sparse
        assert (loaded.edge_weights != graph.edge_weights).nnz == 0
        assert loaded.vertex_weights.tobytes() == graph.vertex_weights.tobytes()
        assert loaded.fingerprint() == fingerprint_by_loop(loaded)
        assert graph.fingerprint() == fingerprint_by_description(graph)
        assert loaded.fingerprint() == {
            key: value for key, value in graph.fingerprint().items()
            if key != "scheme"} | {"checksum": loaded.fingerprint()["checksum"]}
        assert loaded.fingerprint()["checksum"] != graph.fingerprint()["checksum"]


def test_ell_v1_file_still_loads(tmp_path):
    graph = ell_graph_from_seed(3, 20, 3, nonnegative=False)
    path = tmp_path / "ell-v1.json"
    path.write_text(graph_file_by_dumps(graph))
    loaded = gsfa.load_graph(path)
    assert loaded.ell is None and loaded.is_sparse
    np.testing.assert_array_equal(loaded.gamma_dense(), graph.gamma_dense())
    assert loaded.fingerprint()["checksum"] == fingerprint_by_loop(loaded)["checksum"]
    assert graph.fingerprint()["checksum"] == fingerprint_by_description(graph)["checksum"]
    # the same edges hash alike however they are stored
    assert (loaded.fingerprint()
            == TrainingGraph(graph.vertex_weights, graph.edge_weights).fingerprint())


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("ell"), "no ell"),
    (lambda d: d.update(edges=[[0, 1, 1.0]]), "ell, not edges"),
    (lambda d: d.update(structure={"kind": "clustered",
                                   "groups": [[0, 1, 2], [3, 4, 5]]}),
     "not edges or structure"),
    (lambda d: d.update(ell=[1.0]), "object of u, weights"),
    (lambda d: d["ell"].pop("weights"), "object of u, weights"),
    (lambda d: d["ell"].update(u=d["ell"]["u"][:-1]), r"n x k matrix with n=6"),
    (lambda d: d["ell"].update(u=[row[:1] for row in d["ell"]["u"]]),
     "must list k=1 numbers"),
    (lambda d: d["ell"]["u"][2].pop(), "numbers"),
    (lambda d: d["ell"].update(weights=d["ell"]["weights"][:-1]),
     "must list k=3 numbers"),
    (lambda d: d["ell"]["u"][1].__setitem__(0, float("nan")), "finite"),
    (lambda d: d["ell"]["weights"].__setitem__(1, None), "finite"),
    (lambda d: d["ell"].update(nonnegative=1), "true or false"),
    (lambda d: d["ell"].update(nonnegative="true"), "true or false"),
], ids=["no-ell", "ell-and-edges", "ell-and-structure", "ell-not-object", "no-weights",
        "u-short-rows", "u-narrow", "u-ragged", "weights-short", "u-nan",
        "weight-null", "nonnegative-int", "nonnegative-string"])
def test_ell_v2_file_errors(tmp_path, edit, match):
    path = tmp_path / "ell.json"
    gsfa.save_graph(ell_graph_from_seed(5, 6, 2, nonnegative=False), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=match) as exc:
        gsfa.load_graph(path)
    assert str(path) in str(exc.value)


# ---------------------------------------------------------------------------
# matrix CSV reader

@pytest.mark.parametrize("text, match", [
    ("a,b\n1.0,2.0\n3.0\n", r"row 3 has 1 values"),
    ("a,b\n1.0,2.0,3.0\n", r"row 2 has 3 values"),
    ("a,b\n1.0,2.0\n3.0,oops\n", r"row 3: could not convert string to float: 'oops'"),
])
def test_matrix_csv_reader_names_file_and_row(tmp_path, text, match):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=match) as exc:
        gsfa.load_matrix_csv(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("save, load, name", [
    (gsfa.save_matrix_csv, gsfa.load_matrix_csv, "m.csv"),
    (gsfa.save_matrix_binary, gsfa.load_matrix_binary, "m.bin"),
], ids=["csv", "binary"])
def test_matrix_readers_reject_non_finite_values(tmp_path, save, load, name,
                                                 value):
    data = np.arange(12.0).reshape(3, 4)
    data[1, 2] = value
    path = tmp_path / name
    save(data, path)
    with pytest.raises(FormatError,
                       match=f"finite, sample 2 feature 1 is {value}") as exc:
        load(path)
    assert str(path) in str(exc.value)
