"""Data-matrix file formats: CSV and a little-endian binary layout.

Convention everywhere in this package: a data matrix is I x N with one
column per sample (x(n) is column n).

CSV layout: a header row naming the I features, then one row per
sample (N rows of I values each). Readers transpose back to I x N.

Binary layout (all little-endian):
    bytes 0..7   magic b"GSFAMAT1"
    byte  8      dtype code: 1 = float64, 2 = float32
    bytes 9..16  uint64 I (rows / features)
    bytes 17..24 uint64 N (columns / samples)
    payload      I * N values, row-major
"""

import csv
import io
import struct

import numpy as np

from .errors import DimensionError, FormatError
from .serialize import format_rows

MAGIC = b"GSFAMAT1"
_DTYPES = {1: "<f8", 2: "<f4"}


def write_csv(path, header, columns):
    """Write a CSV table: the header row, then one row per column entry.

    Each field is the ``repr`` of a column value's Python number, the
    bytes ``csv.writer`` gives for rows of such strings. ``columns`` lists
    1-D arrays, or is a 2-D float array of them as rows.
    """
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        if len(columns) and len(columns[0]):
            fh.writelines(format_rows(columns, "", ",", "\n", "\n"))


def _finite(data, path):
    """The I x N matrix read from ``path``, unless a value is NaN or infinite."""
    bad = np.argwhere(~np.isfinite(data.T))
    if bad.size:
        n, i = bad[0]
        raise FormatError(f"{path}: values must be finite, sample {n} "
                          f"feature {i} is {data[i, n]}")
    return data


def save_matrix_csv(data, path, feature_names=None):
    """Write an I x N matrix as CSV (header = feature names, rows = samples)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n_feat = data.shape[0]
    if feature_names is None:
        feature_names = [f"x_{i}" for i in range(n_feat)]
    if len(feature_names) != n_feat:
        raise DimensionError("need one name per feature row")
    write_csv(path, feature_names, data)


def load_matrix_csv(path):
    """Read a matrix CSV; returns (I x N array, feature names)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty CSV") from None
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(names):
                raise FormatError(
                    f"{path}: row {reader.line_num} has {len(row)} values, "
                    f"the header names {len(names)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise FormatError(
                    f"{path}: row {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: CSV has a header but no data rows")
    return _finite(np.asarray(rows, dtype=float).T, path), names


def save_matrix_binary(data, path):
    """Write an I x N matrix in the binary layout, as float64."""
    data = np.atleast_2d(np.asarray(data))
    payload = np.ascontiguousarray(data, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<QQ", data.shape[0], data.shape[1]))
        fh.write(payload.tobytes())


def load_matrix_binary(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:8]!r}")
    code = blob[8]
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    n_rows, n_cols = struct.unpack("<QQ", blob[9:25])
    expect = 25 + n_rows * n_cols * np.dtype(_DTYPES[code]).itemsize
    if len(blob) != expect:
        raise FormatError(f"{path}: payload size mismatch "
                          f"({len(blob)} bytes, expected {expect})")
    data = np.frombuffer(blob[25:], dtype=_DTYPES[code]).reshape(n_rows, n_cols)
    return _finite(np.asarray(data, dtype=float), path)


def load_matrix(path):
    """Dispatch on extension: .csv -> CSV reader, anything else binary."""
    path = str(path)
    if path.endswith(".csv"):
        return load_matrix_csv(path)[0]
    return load_matrix_binary(path)
