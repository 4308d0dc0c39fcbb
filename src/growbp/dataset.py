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

Both loaders read the file's bytes, which must be ASCII, and decode only
the header lines, which they read in Python.  The data rows go from the
bytes to ``growbp_parse`` in ``kernel.c``
(:func:`growbp.kernel.parse_rows`), one compiled pass straight into the
matrices.  Where that pass doubts the rows, and on the Python backend,
:func:`_matrix_by_row` reads the rows one at a time, each line decoded
on its own, never the whole text; it is the spec, and names the first
bad row.
"""

import json
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields

from .errors import (
    CountMismatchError,
    EmptyTrainingError,
    GrowbpError,
    MalformedValueError,
    MissingKeyError,
    NonFiniteError,
    RowArityError,
)
from .kernel import Held, matrix, parse_rows, view

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
class Partition(Held):
    """The patterns of one partition: input rows ``X``, 0/1 target rows
    ``T``, held by ``growbp.kernel.Held`` as 2-D views."""

    X: memoryview
    T: memoryview

    def _check(self, X, T):
        (_, x_shape), (_, t_shape) = X, T
        if x_shape[0] != t_shape[0]:
            raise MalformedValueError(
                f"a partition needs inputs and targets with equal row "
                f"counts, got {x_shape} and {t_shape}"
            )

    def __len__(self):
        return self.X.shape[0]


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


def _matrix(header, data, start, skip, sep):
    """Validate the header's rows of data, those of the ASCII bytes
    ``data`` from offset ``start`` on, into row-major ``array('d')``
    inputs and targets, ``(X, T)``.

    Each row is a line split on ``sep`` into the header's count of finite
    numbers, the ones after its inputs the targets, exactly 0 or 1.  The
    compiled pass reads them; where it doubts them they are the non-blank
    lines of ``data`` after the first ``skip``, which must be as many as
    the header declares, and :func:`_matrix_by_row` reads them again and
    raises the error of the first bad row.
    """
    matrices = parse_rows(data, start, sep, header.total, header.n_inputs,
                          header.n_outputs)
    if matrices is not None:
        return matrices
    body = [(line_no, line) for line_no, line, _ in leading_lines(data)]
    del body[:skip]
    if len(body) != header.total:
        raise CountMismatchError(
            f"expected {header.total} data rows, found {len(body)}"
        )
    return _matrix_by_row(body, sep, header.n_inputs,
                          header.n_inputs + header.n_outputs)


def _matrix_by_row(body, sep, n_inputs, width):
    """Validate ``(line_no, line)`` rows into row-major ``array('d')``
    inputs and targets, ``(X, T)``, one row at a time: each line split on
    ``sep`` must hold ``width`` finite numbers, the ones after the first
    ``n_inputs`` exactly 0 or 1, and the first that does not raises."""
    X, T = array("d"), array("d")
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
        X.fromlist(nums[:n_inputs])
        T.fromlist(nums[n_inputs:])
    return X, T


def _split(header, X, T):
    """Cut row-major ``array('d')`` inputs and targets, at the header's
    widths, into the header's partitions."""
    a, b = header.n_train, header.n_train + header.n_valid
    parts = []
    for lo, hi in ((0, a), (a, b), (b, header.total)):
        parts.append(Partition(
            view(memoryview(X)[lo * header.n_inputs:hi * header.n_inputs],
                 (hi - lo, header.n_inputs)),
            view(memoryview(T)[lo * header.n_outputs:hi * header.n_outputs],
                 (hi - lo, header.n_outputs))))
    return SplitDataset(header, *parts)


def numbered_lines(text):
    """The non-blank lines of ``text``, stripped, as ``(line_no, line)``."""
    return [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
            if ln.strip()]


# A line and its end in ASCII bytes, where str.splitlines ends it.
_ASCII_LINE = re.compile(rb"[^\n\r\v\f\x1c-\x1e]*"
                         rb"(?:\r\n|[\n\r\v\f\x1c-\x1e]|\Z)")


def leading_lines(data):
    """:func:`numbered_lines` of the ASCII bytes ``data`` as ``(line_no,
    line, end)``, ``end`` the offset after the line's end, each line read
    and decoded only when the caller takes it."""
    for line_no, m in enumerate(_ASCII_LINE.finditer(data), 1):
        line = m.group().decode("ascii").strip()
        if line:
            yield line_no, line, m.end()


def parse_dataset(text):
    """Parse the full text of a ``.dt`` file, the file's bytes or a str,
    into a SplitDataset.  A str is encoded once, so its first character
    that is not ASCII is named by the offset its bytes give."""
    if isinstance(text, str):
        text = text.encode(errors="surrogatepass")
    _check_ascii(text)
    # The header is the leading run of key=value lines; the data rows
    # start after its last line.
    rows, start = [], 0
    for line_no, line, end in leading_lines(text):
        if "=" not in line:
            break
        rows.append((line_no, line))
        start = end
    header = parse_header(rows)
    return _split(header, *_matrix(header, text, start, len(rows), None))


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


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data, encoding="ascii", error=MalformedValueError):
    """The text of the bytes ``data``; a byte that does not decode is an
    ``error``."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise error(f"non-{encoding.upper()} byte at offset "
                    f"{exc.start}") from None


def _check_ascii(data):
    """Raise, as :func:`read_text` does, on the first non-ASCII byte."""
    if not data.isascii():
        _decode(data)


def read_text(path, encoding="ascii", error=MalformedValueError):
    """The text of ``path``; a byte that does not decode is an ``error``."""
    return _decode(_read_bytes(path), encoding, error)


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
        return parse_dataset(_read_bytes(path))


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
        for x, t in zip(part.X.tolist(), part.T.tolist()):
            lines.append(" ".join(map(repr, x + t)))
    return "\n".join(lines) + "\n"


def save_dataset(ds, path):
    write_text(path, format_dataset(ds))


def normalize_raw(features, stats_source):
    """Min-max scale feature columns using training-partition statistics.

    Each column is mapped by (x - min) / (max - min) with min and max
    computed over ``stats_source`` (the training rows) only, so validation
    and test values may fall outside [0, 1]; they are not clamped.
    Constant columns map to 0.  Both arguments are 2-D matrices with the
    same number of columns, and so is the result, a 2-D view.
    """
    stats, (_, width) = matrix(stats_source)
    if not stats:
        raise EmptyTrainingError("training partition is empty")
    flat, shape = matrix(features)
    if shape[1] != width:
        raise MalformedValueError(
            f"features have {shape[1]} columns, statistics {width}")
    lo = [min(stats[j::width]) for j in range(width)]
    span = [max(stats[j::width]) - lo[j] for j in range(width)]
    scaled = array("d", flat)
    for j in range(width):
        scaled[j::width] = array("d", [
            (x - lo[j]) / span[j] if span[j] != 0.0 else 0.0
            for x in flat[j::width]])
    return view(scaled, shape)


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
        return _raw_csv_dataset(_read_bytes(path), counts)


def _raw_csv_dataset(data, counts):
    _check_ascii(data)
    _, names, start = next(leading_lines(data), (0, "", 0))
    if not names:
        raise CountMismatchError("CSV file has no rows")
    n_targets = counts["target_columns"]
    n_inputs = len(names.split(",")) - n_targets
    if n_inputs < 1:
        raise MalformedValueError("CSV must have at least one feature column")

    header = DatasetHeader(
        n_inputs=n_inputs,
        n_outputs=n_targets,
        n_train=counts["training_examples"],
        n_valid=counts["validation_examples"],
        n_test=counts["test_examples"],
    )
    X, T = _matrix(header, data, start, 1, ",")
    features = normalize_raw(
        view(X, (header.total, n_inputs)),
        view(X[:header.n_train * n_inputs], (header.n_train, n_inputs)))
    return _split(header, features.obj, T)
