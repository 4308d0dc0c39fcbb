"""Loading, validation and partitioning of benchmark classification data.

The native container is a Proben1-style ``.dt`` text file: a short
``key=value`` header declaring attribute counts and the sizes of the three
partitions, followed by one example per line (inputs first, then targets,
whitespace separated).  Partitioning is positional: the first
``training_examples`` rows form the training set, the next
``validation_examples`` rows the validation set, and the remaining rows the
test set.  Files ship pre-normalized; values are taken as-is.

A secondary path ingests a raw CSV (header row, last k columns are 0/1
targets) plus a JSON manifest with the split counts, min-max scaling the
feature columns with statistics computed on the training partition only.

In memory each partition is one ``Partition``: an input matrix and a
target matrix with one row per pattern.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import (
    CountMismatchError,
    EmptyTrainingError,
    GrowbpError,
    MalformedValueError,
    MissingKeyError,
    NonFiniteError,
    RowArityError,
)

HEADER_KEYS = (
    "bool_in",
    "real_in",
    "bool_out",
    "real_out",
    "training_examples",
    "validation_examples",
    "test_examples",
)

MANIFEST_KEYS = HEADER_KEYS[4:] + ("target_columns",)


@dataclass(frozen=True)
class Partition:
    """The patterns of one partition: input rows ``X``, 0/1 target rows ``T``.

    Both are stored as C-contiguous float64 copies of what was passed.
    ``addresses`` holds their data addresses and, as in ``Network``, a
    second reference to each array keeps numpy from resizing it.
    """

    X: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64, order="C")
        T = np.array(self.T, dtype=np.float64, order="C")
        if X.ndim != 2 or T.ndim != 2 or len(X) != len(T):
            raise MalformedValueError(
                f"a partition needs 2-D inputs and targets with equal row "
                f"counts, got {X.shape} and {T.shape}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "addresses", (X.ctypes.data, T.ctypes.data))
        object.__setattr__(self, "_pinned", (X, T))

    def __reduce__(self):
        return Partition, (self.X, self.T)

    def __len__(self):
        return len(self.X)


@dataclass(frozen=True)
class DatasetHeader:
    """Attribute counts and partition sizes declared by a dataset file."""

    n_inputs: int
    n_outputs: int
    n_train: int
    n_valid: int
    n_test: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise MalformedValueError(
                    f"{f.name} must be strictly positive"
                )

    @property
    def n_classes(self):
        """One 0/1 output encodes two classes, else one output per class."""
        return max(self.n_outputs, 2)

    @property
    def total(self):
        return self.n_train + self.n_valid + self.n_test


@dataclass(frozen=True)
class SplitDataset:
    """Train/validation/test partitions plus the header that sized them."""

    header: DatasetHeader
    train: Partition
    valid: Partition
    test: Partition

    def __post_init__(self):
        h = self.header
        declared = [(n, h.n_inputs, h.n_outputs)
                    for n in (h.n_train, h.n_valid, h.n_test)]
        actual = [(len(p), p.X.shape[1], p.T.shape[1])
                  for p in (self.train, self.valid, self.test)]
        if declared != actual:
            raise CountMismatchError(
                f"partition (rows, inputs, outputs) {actual} do not match "
                f"header {declared}"
            )


def _count(key, value, least=0):
    """A count of at least ``least``: ASCII digits or a JSON integer."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            value = int(value)
        except ValueError:  # more digits than int() converts
            pass
    if type(value) is int and value >= least:
        return value
    raise MalformedValueError(
        f"value for {key!r} is not an integer >= {least}: {value!r}"
    )


def parse_header(rows):
    """Parse ``(line_no, line)`` rows of ``key=value`` into a DatasetHeader.

    Required keys: bool_in, real_in, bool_out, real_out,
    training_examples, validation_examples, test_examples.  Unknown keys
    are ignored; values must be non-negative integers.  A bad value names
    its line, and a size that is not positive names the rows' span.
    """
    values = {}
    for line_no, line in rows:
        key, eq, raw = line.partition("=")
        key = key.strip()
        if eq and key in HEADER_KEYS:
            with naming(f"line {line_no}"):
                values[key] = _count(key, raw.strip())
    for key in HEADER_KEYS:
        if key not in values:
            raise MissingKeyError(key)
    with naming(f"lines {rows[0][0]}-{rows[-1][0]}"):
        return DatasetHeader(
            n_inputs=values["bool_in"] + values["real_in"],
            n_outputs=values["bool_out"] + values["real_out"],
            n_train=values["training_examples"],
            n_valid=values["validation_examples"],
            n_test=values["test_examples"],
        )


# Rows that _matrix converts at a time: enough to amortise the per-chunk
# work, few enough that a chunk's token strings fit in the interpreter's
# free small-object memory.  At 128 rows and more the wide-holdout sweep
# needed about 1 MB more peak memory than a row-at-a-time parse.
_CHUNK_ROWS = 64


def _matrix(body, sep, n_inputs, width):
    """Validate ``(line_no, line)`` rows and fill one float64 matrix.

    Each line is split on ``sep`` and must hold ``width`` finite numbers,
    the ones after the first ``n_inputs`` exactly 0 or 1.  Rows are
    converted with ``float`` a chunk at a time and checked over the whole
    matrix at once; on any fault :func:`_matrix_by_row` reads the rows
    again and raises the error of the first bad row.
    """
    # Rows too short to hold width values are checked before any allocation.
    if len(body) * width > sum(len(line) for _, line in body):
        return _matrix_by_row(body, sep, n_inputs, width)
    matrix = np.empty((len(body), width))
    for start in range(0, len(body), _CHUNK_ROWS):
        chunk = body[start:start + _CHUNK_ROWS]
        rows = [line.split(sep) for _, line in chunk]
        if set(map(len, rows)) != {width}:
            return _matrix_by_row(body, sep, n_inputs, width)
        try:
            values = np.fromiter(map(float, chain.from_iterable(rows)),
                                 np.float64, len(rows) * width)
        except ValueError:
            return _matrix_by_row(body, sep, n_inputs, width)
        matrix[start:start + len(rows)] = values.reshape(len(rows), width)
    T = matrix[:, n_inputs:]
    if not (np.isfinite(matrix).all() and ((T == 0.0) | (T == 1.0)).all()):
        return _matrix_by_row(body, sep, n_inputs, width)
    return matrix


def _matrix_by_row(body, sep, n_inputs, width):
    """:func:`_matrix` one row at a time, checking each row in turn."""
    rows = []
    for line_no, line in body:
        tokens = line.split(sep)
        if len(tokens) != width:
            raise RowArityError(line_no, width, len(tokens))
        try:
            nums = [float(t) for t in tokens]
        except ValueError:
            raise MalformedValueError(
                f"line {line_no}: non-numeric value"
            ) from None
        if not all(math.isfinite(v) for v in nums):
            raise NonFiniteError(line_no)
        if any(t != 0.0 and t != 1.0 for t in nums[n_inputs:]):
            raise MalformedValueError(
                f"line {line_no}: target components must be exactly 0 or 1"
            )
        rows.append(nums)
    return np.array(rows).reshape(len(body), width)


def _split(header, X, T):
    """Cut full input and target matrices into the header's partitions."""
    a, b = header.n_train, header.n_train + header.n_valid
    return SplitDataset(
        header,
        Partition(X[:a], T[:a]),
        Partition(X[a:b], T[a:b]),
        Partition(X[b:], T[b:]),
    )


def numbered_lines(text):
    """The non-blank lines of ``text``, stripped, as ``(line_no, line)``."""
    return [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
            if ln.strip()]


def parse_dataset(text):
    """Parse the full text of a ``.dt`` file into a SplitDataset."""
    body = numbered_lines(text)
    # The header is the leading run of key=value lines, cut off in place.
    start = next((i for i, (_, ln) in enumerate(body) if "=" not in ln),
                 len(body))
    header = parse_header(body[:start])
    del body[:start]
    if len(body) != header.total:
        raise CountMismatchError(
            f"expected {header.total} data rows, found {len(body)}"
        )
    n = header.n_inputs
    matrix = _matrix(body, None, n, n + header.n_outputs)
    return _split(header, matrix[:, :n], matrix[:, n:])


@contextmanager
def naming(path):
    """Prefix ``path`` to a GrowbpError raised inside, keeping its class.

    Each of growbp's loaders parses its file inside it, so a fault in any
    input file names that file, and the line where the message has one.
    """
    try:
        yield
    except GrowbpError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_text(path, encoding="ascii", error=MalformedValueError):
    """The text of ``path``; a byte that does not decode is an ``error``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise error(f"non-{encoding.upper()} byte at offset "
                    f"{exc.start}") from None


def json_object(text, error=MalformedValueError):
    """The dict a JSON text holds; anything else, an integer too long for
    ``int`` included, is an ``error``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error("not a JSON object")
    return obj


def write_text(path, text):
    """Write ``text``, which must be ASCII, to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_dataset(path):
    """Read a Proben1-style ``.dt`` file; a GrowbpError names the file."""
    with naming(path):
        return parse_dataset(read_text(path))


def format_dataset(ds):
    """Serialize a SplitDataset back to ``.dt`` text.

    Floats are written with repr precision, so re-parsing the output
    reproduces every value bit-for-bit.
    """
    header = ds.header
    lines = [
        "bool_in=0",
        f"real_in={header.n_inputs}",
        f"bool_out={header.n_outputs}",
        "real_out=0",
        f"training_examples={header.n_train}",
        f"validation_examples={header.n_valid}",
        f"test_examples={header.n_test}",
    ]
    for part in (ds.train, ds.valid, ds.test):
        for row in np.hstack([part.X, part.T]).tolist():
            lines.append(" ".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def save_dataset(ds, path):
    write_text(path, format_dataset(ds))


def normalize_raw(features, stats_source):
    """Min-max scale feature columns using training-partition statistics.

    Each column is mapped by (x - min) / (max - min) with min and max
    computed over ``stats_source`` (the training rows) only, so validation
    and test values may fall outside [0, 1]; they are not clamped.
    Constant columns map to 0.
    """
    stats = np.asarray(stats_source, dtype=np.float64)
    if stats.size == 0:
        raise EmptyTrainingError("training partition is empty")
    features = np.asarray(features, dtype=np.float64)
    lo = stats.min(axis=0)
    span = stats.max(axis=0) - lo
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (features - lo) / safe
    return np.where(span == 0.0, 0.0, scaled)


def load_raw_csv(path):
    """Ingest a raw CSV plus its split manifest into a SplitDataset.

    The CSV has a header row of column names; the last ``target_columns``
    columns hold 0/1 targets.  The manifest, ``<path>.manifest.json``,
    declares training_examples, validation_examples, test_examples and
    target_columns.  Features are min-max normalized with statistics from
    the training rows.  A DatasetError names the manifest or the CSV file.
    """
    manifest_path = f"{path}.manifest.json"
    with naming(manifest_path):
        manifest = json_object(read_text(manifest_path))
        for key in MANIFEST_KEYS:
            if key not in manifest:
                raise MissingKeyError(key, "manifest")
        counts = {key: _count(key, manifest[key], 1) for key in MANIFEST_KEYS}
    with naming(path):
        return _raw_csv_dataset(read_text(path), counts)


def _raw_csv_dataset(text, counts):
    lines = numbered_lines(text)
    if not lines:
        raise CountMismatchError("CSV file has no rows")
    n_targets = counts["target_columns"]
    n_inputs = len(lines[0][1].split(",")) - n_targets
    if n_inputs < 1:
        raise MalformedValueError("CSV must have at least one feature column")

    header = DatasetHeader(
        n_inputs=n_inputs,
        n_outputs=n_targets,
        n_train=counts["training_examples"],
        n_valid=counts["validation_examples"],
        n_test=counts["test_examples"],
    )
    body = lines[1:]
    if len(body) != header.total:
        raise CountMismatchError(
            f"expected {header.total} data rows, found {len(body)}"
        )
    matrix = _matrix(body, ",", n_inputs, n_inputs + n_targets)
    raw = matrix[:, :n_inputs]
    features = normalize_raw(raw, raw[:header.n_train])
    return _split(header, features, matrix[:, n_inputs:])
