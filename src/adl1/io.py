"""File formats and canonical config serialization.

Vector files: 16-byte header (8-byte magic ``ADL1VEC1``, little-endian u32
length, 4 reserved zero bytes) followed by interleaved little-endian float64
(re, im) pairs, the layout of numpy's ``<c16`` dtype, which writers and
readers both use. Matrix files use the magic ``ADL1MAT1`` with u32 rows and
u32 cols in the header and column-major interleaved pairs. CSV alternatives
exist for both so other tools can produce inputs without writing binary.
Readers keep every float64 bit they decode: signed zeros, infinities and NaN
come back as stored.

``adl1 solve`` writes two text files beside ``x.bin``:

- ``x.csv``: the header ``re,im`` and one ``%.17g,%.17g`` line per entry, so
  the text parses back to the same float64 values (an imaginary part of +0.0
  prints as ``0``, -0.0 as ``-0``);
- ``run.json``: a JSON object with one top-level key per line, keys sorted,
  each value compact JSON. Its ``config`` value is the ``canonical_json``
  text of the config, whose sha256 is ``config_hash``; ``input_sha256``
  holds the sha256 of each input file the config names by path.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import FileFormatError

VECTOR_MAGIC = b"ADL1VEC1"
MATRIX_MAGIC = b"ADL1MAT1"


def write_vector(path, x):
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise FileFormatError("vector files hold 1-D data, got shape %r" % (x.shape,))
    header = VECTOR_MAGIC + np.uint32(x.size).tobytes() + b"\x00" * 4
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(x.astype("<c16", copy=False).tobytes())


def read_vector(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != VECTOR_MAGIC:
        raise FileFormatError("%s: not a vector file (bad magic)" % path)
    n = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    body = raw[16:]
    if len(body) != 16 * n:
        raise FileFormatError(
            "%s: truncated payload (expected %d bytes for length %d, got %d)"
            % (path, 16 * n, n, len(body))
        )
    return np.frombuffer(body, dtype="<c16").astype(np.complex128)


def write_vector_csv(path, x):
    x = np.ascontiguousarray(np.asarray(x, dtype=np.complex128))
    if x.ndim != 1:
        raise FileFormatError("vector files hold 1-D data, got shape %r" % (x.shape,))
    # One %-format over all entries. "%.17g" % 0.0 is "0", so when every
    # imaginary part is +0.0 (all bits zero; -0.0 prints "-0") the real-only
    # form writes the same bytes without formatting the zeros.
    if x.imag.view(np.uint64).any():
        lines = ("%.17g,%.17g\n" * x.size) % tuple(x.view(np.float64).tolist())
    else:
        lines = ("%.17g,0\n" * x.size) % tuple(x.real.tolist())
    with open(path, "w") as fh:
        fh.write("re,im\n")
        fh.write(lines)


def _read_csv_rows(path, skip=0):
    """The float64 rows of a CSV file after ``skip`` header lines, as a 2-D
    array, or None when no row follows: only blank or ``#`` comment lines,
    on which loadtxt would warn and give shape (0, 1)."""
    with open(path) as fh:
        lines = fh.read().splitlines()[skip:]
    if not any(line.split("#", 1)[0].strip() for line in lines):
        return None
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FileFormatError("%s: %s" % (path, exc)) from exc


def read_vector_csv(path):
    data = _read_csv_rows(path, skip=1)  # after the re,im header
    if data is None:
        return np.zeros(0, dtype=np.complex128)
    if data.shape[1] != 2:
        raise FileFormatError("%s: expected 2 columns (re,im), got %d" % (path, data.shape[1]))
    return _complex_columns(data)[:, 0]


def write_matrix(path, a):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise FileFormatError("matrix files hold 2-D data, got shape %r" % (a.shape,))
    m, n = a.shape
    header = MATRIX_MAGIC + np.uint32(m).tobytes() + np.uint32(n).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(a.astype("<c16", copy=False).tobytes(order="F"))


def read_matrix(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != MATRIX_MAGIC:
        raise FileFormatError("%s: not a matrix file (bad magic)" % path)
    m = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    n = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    body = raw[16:]
    if len(body) != 16 * m * n:
        raise FileFormatError("%s: truncated payload for %dx%d matrix" % (path, m, n))
    flat = np.frombuffer(body, dtype="<c16")
    return flat.reshape((m, n), order="F").astype(np.complex128)


def read_matrix_csv(path):
    """CSV matrix: one row per matrix row, interleaved re,im,re,im,... columns."""
    data = _read_csv_rows(path)
    if data is None:
        raise FileFormatError("%s: holds no rows, need one line per matrix row" % path)
    if data.shape[1] % 2 != 0:
        raise FileFormatError("%s: odd column count %d, need interleaved re/im" % (path, data.shape[1]))
    return _complex_columns(data)


def _complex_columns(data):
    """Interleaved re,im float64 columns as complex128, bit for bit: ``re + 1j * im``
    would turn an infinite imaginary part into a NaN real one and -0.0 into +0.0."""
    return np.ascontiguousarray(data, dtype=np.float64).view(np.complex128)


def canonical_json(obj) -> str:
    """Stable serialization used for hashing and round-trip checks."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return text_hash(canonical_json(obj))


def text_hash(text) -> str:
    """``config_hash`` of the object whose ``canonical_json`` is ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    """sha256 of a file's bytes, as hex."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_json_lines(path, fields, **texts):
    """Write a JSON object with one top-level key per line, keys sorted.

    Each of ``fields`` is written as compact JSON (NaN allowed, as
    ``json.dump`` does), each of ``texts`` as the JSON text it already is.
    """
    values = {k: json.dumps(v, separators=(",", ":")) for k, v in fields.items()}
    values.update(texts)
    with open(path, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "  %s: %s" % (json.dumps(k), values[k]) for k in sorted(values)))


def write_csv(path, header, rows):
    """Write pre-formatted string cells as LF-ended lines; callers own all number formatting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
