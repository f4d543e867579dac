"""Versioned JSON containers used by the on-disk file formats.

Every file is a JSON object carrying ``kind`` and ``format_version``
fields; readers reject unknown kinds and versions. Writers emit sorted
keys and a fixed layout so identical payloads produce identical bytes.

:func:`write_json` is the one JSON writer. Its text is byte for byte
``json.dumps(obj, sort_keys=True, indent=1) + "\\n"`` of the same payload
with numpy arrays as nested lists and :class:`Columns` as a list of rows;
``tests/conftest.py`` keeps that expression as the byte oracle. CPython
uses its C encoder only without ``indent``, so numeric arrays and tables
are formatted here instead, by :func:`format_rows`, the one number
formatter behind every CSV and JSON table; every other value goes
through ``json.dumps``. Both write bytes, so no text is decoded and
encoded again on its way to the file.

:func:`format_rows` writes each block of rows with orjson, which gives
the shortest round-trip digits ``repr`` gives, and builds the row texts
from its output directly: one call per row for wide tables, one per
block split at the row brackets for narrow ones. orjson spells
non-finite values and exponents its own way, so in the rows that hold
such values just those values are written by ``repr``.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import orjson

from .errors import FormatError, ParameterError

#: Values formatted per block of rows; bounds the memory of one write.
_BLOCK_VALUES = 1 << 16
#: Runs of at least this many columns are written one orjson call per
#: row, narrower runs one call per block split into rows at "],[". Row
#: texts of 65,536 normal float64 values (2 vCPUs, orjson 3.8.3, median
#: of 15 calls, two runs): 4.8-5.0 ms per row against 5.8-7.2 ms per
#: block at 1500 columns, about even at 48-64, and 27 against 12-13 ms
#: at 4 columns.
_ROW_CALL_WIDTH = 64
_NUMPY = orjson.OPT_SERIALIZE_NUMPY
#: Magnitudes orjson and ``repr`` write alike, in positional notation;
#: ``repr`` switches to exponents below 1e-4 and from 1e16. The bounds
#: sit a little inside, so a value near one is redone, never missed.
_POSITIONAL = (1.001e-4, 9.99e15)


class Columns:
    """A table written as a JSON list of rows, held as 1-D columns."""

    __slots__ = ("columns",)

    def __init__(self, *columns):
        self.columns = [np.asarray(col) for col in columns]
        shapes = {col.shape for col in self.columns}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("Columns needs 1-D columns of one length")

    def tolist(self):
        """The rows as lists of Python numbers."""
        return [list(row) for row in zip(*(col.tolist() for col in self.columns))]


def _dtype_runs(columns):
    """(dtype, columns) of each run of consecutive columns written alike.

    Float columns are written as float64, whose ``repr`` their
    ``tolist()`` values have; integer columns keep their type, in native
    byte order. A 2-D float array, its rows the columns, is one run.
    """
    if isinstance(columns, np.ndarray):
        return [(np.dtype(np.float64), columns)]
    runs = []
    for col in columns:
        if col.dtype.kind == "f":
            dtype = np.dtype(np.float64)
        elif col.dtype.kind in "iu":
            dtype = col.dtype.newbyteorder("=")
        else:
            raise TypeError(f"cannot format a {col.dtype} column as numbers")
        if runs and runs[-1][0] == dtype:
            runs[-1][1].append(col)
        else:
            runs.append((dtype, [col]))
    return runs


def _block(cols, start, stop, dtype):
    """Rows start:stop of a run as a fresh C-ordered 2-D array of ``dtype``."""
    if isinstance(cols, np.ndarray):
        return cols[:, start:stop].T.astype(dtype, order="C")
    return np.stack([col[start:stop] for col in cols], axis=1, dtype=dtype)


def _row_texts(block):
    """``repr`` texts of a fresh 2-D block's rows, their values "," apart.

    orjson writes the shortest round-trip digits, as ``repr`` does, but
    spells non-finite values and exponents its own way; those values,
    and any whose magnitude is near an exponent bound, are written as
    NaN ("null") in the block itself, and then, in the rows that hold
    them, replaced by their ``repr``.
    """
    texts = []
    if block.dtype.kind == "f":
        size = np.abs(block)
        redo = ~((size >= _POSITIONAL[0]) & (size < _POSITIONAL[1]))
        redo &= block != 0
        texts = [repr(value).encode() for value in block[redo].tolist()]
        block[redo] = np.nan
    if block.shape[1] < _ROW_CALL_WIDTH:
        rows = orjson.dumps(block, option=_NUMPY)[2:-2].split(b"],[")
    else:
        rows = [orjson.dumps(row, option=_NUMPY)[1:-1] for row in block]
    if texts:
        # the rows that hold them as one text, "\n" apart: no number has one
        marked = np.flatnonzero(redo.any(axis=1)).tolist()
        joined = [None] * (2 * len(texts) + 1)
        joined[::2] = b"\n".join([rows[r] for r in marked]).split(b"null")
        joined[1::2] = texts
        for r, row in zip(marked, b"".join(joined).split(b"\n")):
            rows[r] = row
    return rows


def format_rows(columns, prefix, sep, between, suffix):
    """Yield the text of a table from its columns as bytes, in blocks.

    The text is ``prefix``, then every row's ``repr`` values joined by
    ``sep``, the rows joined by ``between``, then ``suffix``. Columns are
    1-D integer or float arrays of one nonzero length, or the rows of one
    2-D float array; a value is written as the ``repr`` of its
    ``tolist()`` number. Each block of rows is formatted per run of
    consecutive columns of one dtype (:func:`_dtype_runs`,
    :func:`_row_texts`), and the runs' texts of a row joined.
    """
    runs = _dtype_runs(columns)
    n = len(columns[0])
    step = max(1, _BLOCK_VALUES // len(columns))
    sep, between, suffix = sep.encode(), between.encode(), suffix.encode()
    yield prefix.encode()
    for start in range(0, n, step):
        stop = min(start + step, n)
        texts = [_row_texts(_block(cols, start, stop, dtype))
                 for dtype, cols in runs]
        rows = texts[0] if len(texts) == 1 else list(map(b",".join, zip(*texts)))
        if sep != b",":
            rows = [row.replace(b",", sep) for row in rows]
        yield between.join(rows)
        yield between if stop < n else suffix


def _plain_numbers(arr):
    """True if JSON writes every value of arr as its ``repr``."""
    kind = arr.dtype.kind
    return kind in "iu" or (kind == "f" and bool(np.isfinite(arr).all()))


def _json_table(columns, level):
    """Text of a nonempty numeric table (rows of fields) at ``level``."""
    row = "\n" + " " * (level + 1)
    field = "\n" + " " * (level + 2)
    return format_rows(columns, "[" + row + "[" + field, "," + field,
                       row + "]," + row + "[" + field,
                       row + "]\n" + " " * level + "]")


def iter_json(obj, level=0):
    """Yield the bytes of ``json.dumps(obj, sort_keys=True, indent=1)``.

    ``obj`` may also hold numpy arrays (written as nested lists) and
    :class:`Columns`; dict keys must be strings.
    """
    pad = "\n" + " " * level
    inner = pad + " "
    if isinstance(obj, Columns):
        if len(obj.columns[0]) and all(map(_plain_numbers, obj.columns)):
            yield from _json_table(obj.columns, level)
        else:
            yield from iter_json(obj.tolist(), level)
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.size and _plain_numbers(obj):
            yield from format_rows([obj], "[" + inner, ",", "," + inner,
                                   pad + "]")
        elif obj.ndim == 2 and obj.size and _plain_numbers(obj):
            yield from _json_table(list(obj.T), level)
        else:
            yield from iter_json(list(obj) if obj.ndim > 2 else obj.tolist(),
                                 level)
    elif isinstance(obj, dict):
        if not obj:
            yield b"{}"
            return
        yield b"{"
        for index, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            yield (("," if index else "") + inner + json.dumps(key) + ": ").encode()
            yield from iter_json(value, level + 1)
        yield pad.encode() + b"}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield b"[]"
            return
        yield b"["
        for index, item in enumerate(obj):
            yield (("," if index else "") + inner).encode()
            yield from iter_json(item, level + 1)
        yield pad.encode() + b"]"
    else:
        yield json.dumps(obj).encode()


def write_json(path, obj):
    """Write ``obj`` as sorted, one-space-indented JSON and a newline."""
    with open(path, "wb") as fh:
        fh.writelines(iter_json(obj))
        fh.write(b"\n")


def write_container(path, kind, version, payload):
    data = dict(payload)
    data["kind"] = kind
    data["format_version"] = version
    write_json(path, data)


@contextmanager
def entries_of(path):
    """Raise a missing or malformed entry of file ``path`` as FormatError.

    An entry whose object rejects its values (:class:`ParameterError`)
    is malformed too.
    """
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError,
            ParameterError) as exc:
        raise FormatError(f"{path}: missing or malformed entry "
                          f"({type(exc).__name__}: {exc})") from None


def read_container(path, kind, supported_versions):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    if data.get("kind") != kind:
        raise FormatError(f"{path}: expected kind {kind!r}, got {data.get('kind')!r}")
    version = data.get("format_version")
    if version not in supported_versions:
        raise FormatError(
            f"{path}: unknown format_version {version!r} for {kind!r} "
            f"(supported: {sorted(supported_versions)})"
        )
    return data
