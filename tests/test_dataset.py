import itertools
import json
import random
import sys
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from growbp import dataset, kernel
from growbp.dataset import (
    DatasetHeader,
    Partition,
    SplitDataset,
    format_dataset,
    load_dataset,
    load_raw_csv,
    normalize_raw,
    numbered_lines,
    parse_dataset,
    parse_header,
    save_dataset,
)
from growbp.errors import (
    CountMismatchError,
    DatasetError,
    EmptyTrainingError,
    GrowbpError,
    MalformedValueError,
    MissingKeyError,
    NonFiniteError,
    RowArityError,
)
from growbp.profiles import BUNDLED, bundled_dataset_path

CANCER1_HEADER = [
    "bool_in=0",
    "real_in=9",
    "bool_out=2",
    "real_out=0",
    "training_examples=350",
    "validation_examples=175",
    "test_examples=174",
]

HEART_HEADER = [
    "bool_in=0",
    "real_in=13",
    "bool_out=1",
    "real_out=0",
    "training_examples=152",
    "validation_examples=76",
    "test_examples=75",
]


def tiny_dt(n_train=3, n_valid=2, n_test=2, rows=None):
    header = [
        "bool_in=0",
        "real_in=2",
        "bool_out=2",
        "real_out=0",
        f"training_examples={n_train}",
        f"validation_examples={n_valid}",
        f"test_examples={n_test}",
    ]
    if rows is None:
        rows = [
            f"0.{i} 0.{i + 1} 1 0" for i in range(n_train + n_valid + n_test)
        ]
    return "\n".join(header + rows) + "\n"


class TestParseHeader:
    def test_cancer1_header(self):
        h = parse_header(list(enumerate(CANCER1_HEADER, 1)))
        assert (h.n_inputs, h.n_outputs, h.n_classes) == (9, 2, 2)
        assert (h.n_train, h.n_valid, h.n_test) == (350, 175, 174)

    def test_heart_header_single_output_two_classes(self):
        h = parse_header(list(enumerate(HEART_HEADER, 1)))
        assert (h.n_inputs, h.n_outputs, h.n_classes) == (13, 1, 2)
        assert (h.n_train, h.n_valid, h.n_test) == (152, 76, 75)

    @pytest.mark.parametrize("n_outputs,n_classes", [(1, 2), (2, 2), (3, 3)])
    def test_classes_follow_output_width(self, n_outputs, n_classes):
        assert DatasetHeader(2, n_outputs, 1, 1, 1).n_classes == n_classes
        with pytest.raises(TypeError):  # derived, not a constructor field
            DatasetHeader(2, n_outputs, n_classes, 1, 1, 1)

    def test_missing_key(self):
        lines = [l for l in CANCER1_HEADER if "training" not in l]
        with pytest.raises(MissingKeyError):
            parse_header(list(enumerate(lines, 1)))

    def test_malformed_value(self):
        lines = CANCER1_HEADER[:-1] + ["test_examples=abc"]
        with pytest.raises(MalformedValueError):
            parse_header(list(enumerate(lines, 1)))
        lines = CANCER1_HEADER[:-1] + ["test_examples=-3"]
        with pytest.raises(MalformedValueError):
            parse_header(list(enumerate(lines, 1)))

    def test_unicode_digits_rejected(self):
        # "\u00b2" passes str.isdigit() but int() cannot convert it.
        lines = CANCER1_HEADER[:-1] + ["test_examples=\u00b2"]
        with pytest.raises(MalformedValueError):
            parse_header(list(enumerate(lines, 1)))

    def test_count_longer_than_int_converts(self):
        # str.isdigit() holds, but int() refuses this many digits.
        value = "9" * (sys.get_int_max_str_digits() + 1)
        lines = CANCER1_HEADER[:-1] + [f"test_examples={value}"]
        with pytest.raises(MalformedValueError) as exc:
            parse_header(list(enumerate(lines, 1)))
        assert str(exc.value) == (f"line 7: value for 'test_examples' is "
                                  f"not an integer >= 0: {value!r}")

    def test_unknown_keys_ignored(self):
        lines = CANCER1_HEADER + ["comment=whatever"]
        h = parse_header(list(enumerate(lines, 1)))
        assert h.n_inputs == 9


class TestParseDataset:
    def test_partitions_in_file_order(self):
        ds = parse_dataset(tiny_dt())
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (3, 2, 2)
        # first input component encodes the row index
        firsts = np.concatenate([np.asarray(ds.train.X)[:, 0],
                                 np.asarray(ds.valid.X)[:, 0],
                                 np.asarray(ds.test.X)[:, 0]])
        assert np.array_equal(firsts, np.sort(firsts))
        assert np.isclose(ds.valid.X[0, 0], 0.3)

    def test_count_mismatch(self):
        text = tiny_dt(rows=[f"0.{i} 0.{i} 1 0" for i in range(6)])
        with pytest.raises(CountMismatchError):
            parse_dataset(text)

    def test_row_arity(self):
        rows = ["0.1 0.2 1 0"] * 6 + ["0.1 0.2 1"]
        with pytest.raises(RowArityError) as exc:
            parse_dataset(tiny_dt(rows=rows))
        assert exc.value.line_no == 14

    def test_non_finite(self):
        rows = ["0.1 0.2 1 0"] * 6 + ["nan 0.2 1 0"]
        with pytest.raises(NonFiniteError):
            parse_dataset(tiny_dt(rows=rows))

    def test_target_must_be_binary(self):
        rows = ["0.1 0.2 1 0"] * 6 + ["0.1 0.2 0.7 0.3"]
        with pytest.raises(MalformedValueError):
            parse_dataset(tiny_dt(rows=rows))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_presets_take_the_compiled_pass(self, name, each_backend):
        path = bundled_dataset_path(name)
        with mock.patch.object(dataset, "_matrix_by_row",
                               wraps=dataset._matrix_by_row) as by_row:
            want = load_dataset(path)
        assert by_row.called == (kernel.BACKEND == "python")
        for _ in each_backend:
            assert_same_dataset(load_dataset(path), want)

    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "tiny.dt"
        p.write_text(tiny_dt())
        ds = load_dataset(p)
        assert ds.header.total == 7

    def test_non_ascii_file(self, tmp_path):
        p = tmp_path / "tiny.dt"
        p.write_bytes(tiny_dt().encode("ascii") + "0.\u00e9 1 1 0\n".encode())
        with pytest.raises(DatasetError) as exc:
            load_dataset(p)
        offset = len(tiny_dt()) + 2
        assert str(exc.value) == f"{p}: non-ASCII byte at offset {offset}"
        # Handed over as bytes, the same fault is named the same way.
        with pytest.raises(MalformedValueError) as exc:
            parse_dataset(p.read_bytes())
        assert str(exc.value) == f"non-ASCII byte at offset {offset}"

    # float() reads the Arabic-Indic digit 3 as 3.0, and str.splitlines
    # ends a line at U+2028; a str is held to ASCII as the bytes are.
    @pytest.mark.parametrize("char", ["\u0663", "\u2028"])
    def test_non_ascii_str_is_named_as_its_bytes(self, char):
        text = tiny_dt(rows=[f"0.1 0.{char} 1 0"] + ["0.1 0.2 1 0"] * 6)
        errors = []
        for given in (text, text.encode()):
            with pytest.raises(MalformedValueError) as exc:
                parse_dataset(given)
            errors.append(str(exc.value))
        offset = text.index(char)
        assert errors == [f"non-ASCII byte at offset {offset}"] * 2

    @pytest.mark.parametrize("kind", ["proben1", "raw-csv"])
    def test_loaders_hand_the_parse_the_files_bytes(self, tmp_path, kind):
        # The data rows are read from the bytes of the file: no decoded
        # copy of it is made where the compiled pass reads them.
        if kind == "proben1":
            p = tmp_path / "tiny.dt"
            p.write_text(tiny_dt())
            load = load_dataset
        else:
            p = tmp_path / "raw.csv"
            p.write_text("a,b,t\n" + "0.5,1,1\n0.25,2,0\n" * 3)
            (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(
                {"training_examples": 2, "validation_examples": 2,
                 "test_examples": 2, "target_columns": 1}))
            load = load_raw_csv
        with mock.patch.object(dataset, "parse_rows",
                               wraps=dataset.parse_rows) as parse:
            load(p)
        assert parse.call_args.args[0] == p.read_bytes()

    @pytest.mark.parametrize("kind", ["proben1", "raw-csv"])
    def test_load_frees_the_files_bytes_before_the_partitions(self, tmp_path,
                                                              kind):
        # At its peak a load holds the file's bytes and the parsed X and T,
        # or X and T and the partitions' copies of them, never all three.
        if kernel.BACKEND != "c":
            pytest.skip("the Python reader holds the file's lines as well")
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, (3000, 9))
        T = rng.integers(0, 2, (3000, 1)).astype(np.float64)
        rows = [" ".join(map(repr, r)) for r in np.hstack([X, T]).tolist()]
        if kind == "proben1":
            p = tmp_path / "wide.dt"
            p.write_text(tiny_dt(40, 1480, 1480, rows).replace(
                "real_in=2", "real_in=9").replace("bool_out=2", "bool_out=1"))
            load = load_dataset
        else:
            p = tmp_path / "wide.csv"
            p.write_text("\n".join([",".join("abcdefghit")]
                                   + [r.replace(" ", ",") for r in rows]))
            (tmp_path / "wide.csv.manifest.json").write_text(json.dumps(
                {"training_examples": 40, "validation_examples": 1480,
                 "test_examples": 1480, "target_columns": 1}))
            load = load_raw_csv
        load(p)  # imports and caches whatever the first load needs
        tracemalloc.start()
        try:
            ds = load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.header.total == 3000
        assert peak < p.stat().st_size + 1.5 * (X.nbytes + T.nbytes)

    def test_error_names_the_file_once(self, tmp_path):
        p = tmp_path / "tiny.dt"
        p.write_text(tiny_dt(rows=["0.1 0.2 1 0"] * 6 + ["0.1 0.2 1"]))
        with pytest.raises(RowArityError) as exc:
            load_dataset(p)
        assert str(exc.value) == f"{p}: line 14: expected 4 columns, got 3"
        assert exc.value.line_no == 14


class TestRoundTrip:
    def test_bit_for_bit(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(9):
            x = rng.uniform(0, 1, size=2)
            t = [1, 0] if rng.random() < 0.5 else [0, 1]
            rows.append(
                f"{float(x[0])!r} {float(x[1])!r} {t[0]} {t[1]}"
            )
        ds = parse_dataset(tiny_dt(3, 3, 3, rows=rows))
        assert_same_dataset(parse_dataset(format_dataset(ds)), ds)

    def test_save_and_reload(self, tmp_path):
        ds = parse_dataset(tiny_dt())
        p = tmp_path / "out.dt"
        save_dataset(ds, p)
        again = load_dataset(p)
        assert again.header == ds.header


class TestSplitDatasetInvariants:
    def test_partition_length_mismatch_rejected(self):
        ds = parse_dataset(tiny_dt())
        short = Partition(ds.train.X.tolist()[:-1], ds.train.T.tolist()[:-1])
        with pytest.raises(CountMismatchError):
            SplitDataset(header=ds.header, train=short,
                         valid=ds.valid, test=ds.test)

    def test_partition_column_mismatch_rejected(self):
        ds = parse_dataset(tiny_dt())
        wide = Partition(np.hstack([ds.test.X, ds.test.X]), ds.test.T)
        with pytest.raises(CountMismatchError):
            SplitDataset(header=ds.header, train=ds.train,
                         valid=ds.valid, test=wide)

    def test_built_from_arrays(self):
        X = np.arange(12.0).reshape(6, 2)
        T = np.eye(2)[[0, 1, 0, 1, 1, 0]]
        ds = SplitDataset(DatasetHeader(2, 2, 3, 2, 1),
                          Partition(X[:3], T[:3]), Partition(X[3:5], T[3:5]),
                          Partition(X[5:], T[5:]))
        assert len(ds.valid) == 2
        assert np.array_equal(ds.test.X, [[10.0, 11.0]])


class TestPartition:
    def test_copies_to_c_contiguous_float64(self):
        X = np.asfortranarray(np.arange(6).reshape(3, 2))
        T = np.ones((3, 1))
        part = Partition(X, T)
        for M in (part.X, part.T):
            assert M.format == "d" and M.c_contiguous and M.ndim == 2
        assert part.X.tolist() == X.tolist()
        assert not np.shares_memory(part.X, X)
        assert not np.shares_memory(part.T, T)
        assert len(part) == 3

    @pytest.mark.parametrize("X, T", [
        (np.zeros(3), np.zeros((3, 1))),
        (np.zeros((3, 2)), np.zeros(3)),
        (np.zeros((3, 2)), np.zeros((2, 1))),
        # No network or header takes a matrix of no columns.
        (np.zeros((3, 0)), np.zeros((3, 1))),
        (np.zeros((3, 2)), np.zeros((3, 0))),
        (np.zeros((0, 0)), np.zeros((0, 1))),
    ])
    def test_rejects_bad_shapes(self, X, T):
        with pytest.raises(MalformedValueError) as exc:
            Partition(X, T)
        # The message names the shape at fault.
        assert any(str(M.shape) in str(exc.value) for M in (X, T))

    def test_equal_by_value_and_unhashable(self):
        ds = parse_dataset(tiny_dt())
        same = parse_dataset(tiny_dt())
        assert ds.train == same.train and ds == same
        assert ds.train != ds.valid and ds != parse_dataset(
            tiny_dt(rows=[f"0.{i} 0.5 1 0" for i in range(7)]))
        for obj in (ds.train, ds):
            with pytest.raises(TypeError,
                               match="unhashable type: 'Partition'"):
                hash(obj)


def assert_same_dataset(got, want):
    assert got.header == want.header
    for p1, p2 in zip((got.train, got.valid, got.test),
                      (want.train, want.valid, want.test)):
        # Bitwise, so -0.0 and 0.0 count as different values.
        assert p1.X.tobytes() == p2.X.tobytes()
        assert p1.T.tobytes() == p2.T.tobytes()


@st.composite
def split_datasets(draw):
    n_inputs = draw(st.integers(1, 4))
    n_outputs = draw(st.sampled_from([1, 2, 3]))
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    total = sum(sizes)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(floats, min_size=n_inputs,
                                        max_size=n_inputs),
                               min_size=total, max_size=total)))
    T = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=n_outputs,
                                        max_size=n_outputs),
                               min_size=total, max_size=total)))
    header = DatasetHeader(n_inputs, n_outputs, *sizes)
    a, b = sizes[0], sizes[0] + sizes[1]
    return SplitDataset(header, Partition(X[:a], T[:a]),
                        Partition(X[a:b], T[a:b]), Partition(X[b:], T[b:]))


class TestProperties:
    @given(split_datasets())
    @settings(max_examples=60, deadline=None)
    def test_format_parse_round_trip_is_bitwise(self, ds):
        assert_same_dataset(parse_dataset(format_dataset(ds)), ds)

    # Text of the characters str.splitlines and str.strip treat apart.
    # Its ASCII bytes have its lines; a text that is not ASCII is refused
    # before any line is read.
    @given(st.text(st.sampled_from("ab= \t\n\r\v\f\x1c\x1d\x1e\x1f\x85"
                                   "\u2028\u2029\xa0")))
    def test_leading_lines_are_the_numbered_lines(self, text):
        if not text.isascii():
            refused_as_non_ascii(text)
            return
        data = text.encode("ascii")
        assert [(n, ln) for n, ln, _ in dataset.leading_lines(data)] == (
            numbered_lines(text))
        # Each ends after its line end, so a cut there splits no line.
        for _, line, end in dataset.leading_lines(data):
            head, tail = text[:end].splitlines(), text[end:].splitlines()
            assert head[-1].strip() == line
            assert head + tail == text.splitlines()

    # ASCII text, of the characters str.splitlines and str.strip treat
    # apart: as bytes it has the text's lines, each ending at the offset
    # where str.splitlines ends it.
    @given(st.text(st.sampled_from("ab= \t\n\r\v\f\x1c\x1d\x1e\x1f")))
    def test_leading_lines_of_ascii_bytes_are_the_texts(self, text):
        lines = text.splitlines(keepends=True)
        ends = itertools.accumulate(map(len, lines))
        assert list(dataset.leading_lines(text.encode("ascii"))) == [
            (n, line.strip(), end)
            for n, (line, end) in enumerate(zip(lines, ends), 1)
            if line.strip()]

    # Arbitrary text, and lines drawn from near-valid .dt fragments so that
    # inputs reach the row parser and not only the header checks.
    @given(st.one_of(st.text(), st.lists(st.sampled_from(
        ["bool_in=0", "real_in=1", "bool_out=1", "real_out=0",
         "training_examples=1", "validation_examples=1", "test_examples=1",
         "real_in=\u00b2", "0.5 1", "0.5 0.5", "nan 0", "1e999 1", "x 1",
         "0.5", "", "= ="]), max_size=12).map("\n".join)))
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_or_raises_growbp_error(self, text):
        try:
            ds = parse_dataset(text)
        except GrowbpError:
            return
        assert isinstance(ds, SplitDataset)


# Tokens float() reads that a stricter parser might not, and targets
# written in more than one way.
INPUT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", "+1e3", ".5", "-.5", "5.", "-0", "1E-3",
                     "00012", "+.5e-2", "1_000.000_1", "1e1_0", "1.e5",
                     "4.9e-324", "1e-400", "0" * 60 + "1"]))
TARGET_TOKENS = st.sampled_from(["0", "1", "0.0", "1.0", "+1", "-0", "1e0",
                                 "0_0", ".0", "1."])
# Faults the per-row loop names, each with the token that injects it; a
# "layout" token ends a line or splits a number where float() would not.
FAULT_TOKENS = {
    "non-numeric": ["x", "1..2", "0x10", "1,5", "--1", "_1", "1__0", "1_",
                    "1._5", "1e", "1e+", ".", "-", "", "1=2", "1e5e5"],
    "non-finite": ["nan", "inf", "-inf", "1e400", "-Infinity", "1_e999"],
    "target": ["0.5", "2", "-1", "1e-300"],
    "layout": ["1\r0", "1\x0b0", "1\x0c0", "1\x1c0", "1\x1f0", "1\x000",
               "1\x850", "1 0", "1\t0"],
}
# What may join two numbers of a row in place of its separator: a line
# end, a character that is whitespace to Python but not a separator to
# growbp_parse, and the separators of the other format.
JOINTS = ["\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x00", "\x85", "\xa0", " ",
          "\t", ","]
# Longer than the scratch buffer of growbp_parse, so only float() reads it.
LONG_TOKEN = "0." + "0" * 80 + "1"


@st.composite
def bodies(draw):
    """``(rows, sep, n_inputs, width)``: the tokens of the rows of a valid
    .dt or CSV data block, split on ``sep``."""
    sep = draw(st.sampled_from([None, ","]))
    n_inputs = draw(st.integers(1, 4))
    width = n_inputs + draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(INPUT_TOKENS, min_size=n_inputs,
                           max_size=n_inputs),
                  st.lists(TARGET_TOKENS, min_size=width - n_inputs,
                           max_size=width - n_inputs)).map(
            lambda row: row[0] + row[1]),
        min_size=3, max_size=12))
    return rows, sep, n_inputs, width


BLANKS = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def texts(draw, rows, sep):
    r"""A header line, then ``rows``, lists of tokens, laid out in one of
    the ways both readers take: separators of spaces and tabs, or commas
    with blanks around them, blanks around a row, lines of blanks between
    rows, ``\n`` or ``\r\n`` line ends, and a last line end or none."""
    joiner = draw(st.sampled_from([" ", "\t", " \t "] if sep is None else
                                  [",", ", ", " ,\t"]))
    lines = ["names=0"]
    for tokens in rows:
        lines += draw(st.lists(BLANKS, max_size=1))
        lines.append(draw(BLANKS) + joiner.join(tokens) + draw(BLANKS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def read(text, sep, n_inputs, width, rows):
    """``_matrix`` on the ``rows`` data rows of the ASCII ``text`` after its
    first line, as bytes, as ``_split`` gets them from a loader."""
    header = DatasetHeader(n_inputs, width - n_inputs, rows - 2, 1, 1)
    data = text.encode("ascii")
    return dataset._matrix(header, data, data.index(b"\n") + 1, 1, sep)


def refused_as_non_ascii(text):
    """A text that is not ASCII never reaches ``_matrix``: ``parse_dataset``
    names the offset of its first other character."""
    offset = next(i for i, char in enumerate(text) if not char.isascii())
    with pytest.raises(MalformedValueError) as exc:
        parse_dataset(text)
    assert str(exc.value) == f"non-ASCII byte at offset {offset}"


def read_by_row(text, sep, n_inputs, width, rows):
    """``_matrix_by_row``, the spec, on the same rows as :func:`read`."""
    body = numbered_lines(text)[1:]
    if len(body) != rows:
        raise CountMismatchError(f"expected {rows} data rows, "
                                 f"found {len(body)}")
    return dataset._matrix_by_row(body, sep, n_inputs, width)


def raised(fn, *args):
    with pytest.raises(DatasetError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value), getattr(exc.value, "line_no", None)


def outcome(fn, *args):
    """The bytes of the matrices ``fn`` returns, or the class, message and
    line of the DatasetError it raises."""
    try:
        return [a.tobytes() for a in fn(*args)]
    except DatasetError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


per_example = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBulkParse:
    """``_matrix`` reads data rows with the compiled ``growbp_parse``, and
    ``_matrix_by_row`` is its reference and fallback."""

    @given(bodies(), st.data())
    @settings(per_example, max_examples=300)
    def test_equals_the_per_row_loop_bitwise(self, each_backend, case, data):
        rows, sep, n_inputs, width = case
        args = data.draw(texts(rows, sep)), sep, n_inputs, width, len(rows)
        want = read_by_row(*args)
        for backend in each_backend:
            with mock.patch.object(dataset, "_matrix_by_row",
                                   wraps=dataset._matrix_by_row) as by_row:
                got = read(*args)
            # Valid rows never take the slow path on the compiled backend.
            assert by_row.called == (backend == "python")
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @given(bodies(), st.data())
    @settings(per_example, max_examples=400)
    def test_faults_raise_as_the_per_row_loop(self, each_backend, case, data):
        rows, sep, n_inputs, width = case
        rows = [list(tokens) for tokens in rows]
        declared = len(rows)
        for row in data.draw(st.lists(st.integers(0, len(rows) - 1),
                                      min_size=1, max_size=2, unique=True)):
            kind = data.draw(st.sampled_from(
                ["arity", "count", "joint"] + sorted(FAULT_TOKENS)))
            if kind == "count":  # one row more or fewer than declared
                declared = len(rows) + (1 if len(rows) == 3 else -1)
            elif kind == "joint":
                column = data.draw(st.integers(0, len(rows[row]) - 2))
                joint = data.draw(st.sampled_from(JOINTS))
                rows[row][column:column + 2] = [
                    joint.join(rows[row][column:column + 2])]
            elif kind == "arity":
                rows[row] = rows[row][:-1] if data.draw(st.booleans()) else (
                    rows[row] + ["0"])
            else:
                column = (data.draw(st.integers(n_inputs, width - 1))
                          if kind == "target" else
                          data.draw(st.integers(0, width - 1)))
                rows[row][column] = data.draw(st.sampled_from(
                    FAULT_TOKENS[kind]))
        # A joint may leave a valid row: then both read the same values.
        args = data.draw(texts(rows, sep)), sep, n_inputs, width, declared
        if not args[0].isascii():
            refused_as_non_ascii(args[0])
            return
        want = outcome(read_by_row, *args)
        for _ in each_backend:
            assert outcome(read, *args) == want

    @pytest.mark.parametrize("sep", [None, ","])
    @pytest.mark.parametrize("kind, token", [
        (kind, token) for kind in sorted(FAULT_TOKENS)
        for token in FAULT_TOKENS[kind]])
    def test_each_fault_token_raises_as_the_per_row_loop(self, each_backend,
                                                         kind, token, sep):
        # In an input column, except a target fault, and in a target
        # column of the middle row.
        for column in (2,) if kind == "target" else (0, 2):
            rows = [["0.1", "0.2", "1", "0"] for _ in range(3)]
            rows[1][column] = token
            args = self.text(rows, sep), sep, 2, 4, 3
            if not args[0].isascii():
                refused_as_non_ascii(args[0])
                continue
            want = raised(read_by_row, *args)
            for _ in each_backend:
                assert raised(read, *args) == want

    @pytest.mark.parametrize("sep", [None, ","])
    @pytest.mark.parametrize("joint", JOINTS)
    def test_each_joint_reads_as_the_per_row_loop(self, each_backend, joint,
                                                  sep):
        # Joining the middle row's second and third numbers.
        rows = [["0.1", "0.2", "1", "0"] for _ in range(3)]
        rows[1][1:3] = [joint.join(rows[1][1:3])]
        args = self.text(rows, sep), sep, 2, 4, 3
        if not args[0].isascii():
            refused_as_non_ascii(args[0])
            return
        want = outcome(read_by_row, *args)
        for _ in each_backend:
            assert outcome(read, *args) == want

    @staticmethod
    def text(rows, sep):
        """A header line, then ``rows`` joined by ``sep`` (or a space)."""
        joiner = " " if sep is None else sep
        return "names=0\n" + "\n".join(map(joiner.join, rows)) + "\n"

    @pytest.mark.parametrize("rows", [2, 4])
    def test_a_row_count_other_than_declared_raises(self, each_backend,
                                                    rows):
        text = tiny_dt(rows=["0.1 0.2 1 0"] * rows)
        for _ in each_backend:
            with pytest.raises(CountMismatchError) as exc:
                parse_dataset(text)
            assert str(exc.value) == f"expected 7 data rows, found {rows}"

    @pytest.mark.parametrize("rows, sep, end, fallback", [
        (["0.1 0.2 1 0", "0.3 0.4 0 1", "0.5 0.6 1 0"], None, "\r\n", False),
        (["0.1\t0.2\t1\t0", "\t0.3 \t0.4\t0  1 ", "0.5\t0.6 1\t0"], None,
         "\n", False),
        (["0.1, 0.2,1 ,\t0", " 0.3 ,0.4,0,1\t", "0.5\t,0.6,1,0"], ",",
         "\r\n", False),
        # Lines of blanks between rows are skipped, the last row has no
        # line end, and its last number ends the buffer.
        (["0.1 0.2 1 0", " \t", "", "0.3 0.4 0 1", "\t", "0.5 0.6 1 0"],
         None, "\n", False),
        ([f"0.1 {LONG_TOKEN} 1 0", "0.3 0.4 0 1", "0.5 0.6 1 0"], None,
         "\n", True),
        (["0.1,0.2,1,0", f"0.3,{LONG_TOKEN},0,1", "0.5,0.6,1,0"], ",",
         "\r\n", True),
    ])
    def test_line_ends_blanks_and_long_numbers(self, each_backend, rows,
                                               sep, end, fallback):
        args = "names=0" + end + end.join(rows), sep, 2, 4, 3
        want = read_by_row(*args)
        for backend in each_backend:
            with mock.patch.object(dataset, "_matrix_by_row",
                                   wraps=dataset._matrix_by_row) as by_row:
                got = read(*args)
            assert by_row.called == (fallback or backend == "python")
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_lines_of_blanks_still_count(self, each_backend):
        # A fault after lines of blanks names its line as numbered_lines
        # counts them, with \r\n line ends as with \n.
        rows = ["0.1 0.2 1 0", " \t", "", "\t", "0.1 0.2 1 0"] + (
            ["0.1 0.2 1 0"] * 4 + ["0.1 0.2 1 x"])
        for end in ("\n", "\r\n"):
            text = tiny_dt(rows=rows).replace("\n", end)
            for _ in each_backend:
                with pytest.raises(MalformedValueError) as exc:
                    parse_dataset(text)
                assert str(exc.value) == "line 17: non-numeric value"

    @pytest.mark.parametrize("early, late, want", [
        ("nan 0.2 1 0", "0.1 0.2 1", (NonFiniteError, 10)),
        ("0.1 0.2 0.5 0", "0.1 x 1 0", (MalformedValueError, 10)),
        ("0.1 0.2 1", "inf 0.2 1 0", (RowArityError, 10)),
        ("0.1 0.2 1 0", "0.1 0.2 1 0 1", (RowArityError, 1210)),
    ])
    def test_the_earlier_faulty_row_wins_across_chunks(self, early, late,
                                                       want):
        # The compiled pass stops at the first fault, and the per-row
        # loop names it, though a later row breaks another rule.
        rows = ["0.1 0.2 1 0"] * 1500
        rows[2], rows[1202] = early, late
        text = tiny_dt(500, 500, 500, rows)
        cls, line_no = want
        with pytest.raises(cls) as exc:
            parse_dataset(text)
        assert str(exc.value).startswith(f"line {line_no}: ")

    def test_csv_fault_names_its_line(self, tmp_path):
        rows = ["a,b,t"] + ["0.5,1_0,1"] * 1200
        rows[700] = "0.5,1,0.5"
        (tmp_path / "raw.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(
            {"training_examples": 400, "validation_examples": 400,
             "test_examples": 400, "target_columns": 1}))
        with pytest.raises(MalformedValueError) as exc:
            load_raw_csv(tmp_path / "raw.csv")
        assert str(exc.value) == (f"{tmp_path / 'raw.csv'}: line 701: "
                                  "target components must be exactly 0 or 1")
        # Blank lines are skipped but still counted, as in a .dt file.
        (tmp_path / "raw.csv").write_text(
            "a,b,t\n\n0.5,1,0\n0.5,x,1\n0.5,1,1\n")
        (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(
            {"training_examples": 1, "validation_examples": 1,
             "test_examples": 1, "target_columns": 1}))
        with pytest.raises(MalformedValueError) as exc:
            load_raw_csv(tmp_path / "raw.csv")
        assert str(exc.value) == (f"{tmp_path / 'raw.csv'}: line 4: "
                                  "non-numeric value")


def scaled(rows, n_train):
    """``normalize_raw`` of ``rows`` as lists, scaled on the first
    ``n_train``."""
    X = array("d", [v for row in rows for v in row])
    normalize_raw(X, len(rows[0]), n_train)
    return [X[i:i + len(rows[0])].tolist()
            for i in range(0, len(X), len(rows[0]))]


def scaled_by_column(rows, n_train):
    """The min-max scaling of ``rows``, column by column, each with the
    minimum and maximum of its first ``n_train`` values."""
    columns = []
    for col in zip(*rows):
        lo = min(col[:n_train])
        span = max(col[:n_train]) - lo
        columns.append([(x - lo) / span if span != 0.0 else 0.0
                        for x in col])
    return [list(row) for row in zip(*columns)]


class TestNormalizeRaw:
    def test_linear_map_endpoints(self):
        assert scaled([[0.0], [5.0], [10.0]], 3) == [[0.0], [0.5], [1.0]]

    def test_constant_column_maps_to_zero(self):
        assert scaled([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]], 3) == [
            [0.0, 0.0], [0.0, 0.5], [0.0, 1.0]]

    def test_out_of_range_not_clamped(self):
        # Only the training rows, the first two, give the statistics.
        assert scaled([[0.0], [10.0], [12.0], [-5.0]], 2) == [
            [0.0], [1.0], [1.2], [-0.5]]

    def test_empty_training(self):
        with pytest.raises(EmptyTrainingError):
            normalize_raw(array("d", [1.0]), 1, 0)


class TestRawCsv:
    def write_csv(self, tmp_path, n_targets=2):
        lines = ["a,b,t0,t1" if n_targets == 2 else "a,b,t"]
        data = [
            (0.0, 2.0, 0),
            (10.0, 4.0, 1),
            (5.0, 2.0, 0),
            (20.0, 6.0, 1),
            (10.0, 8.0, 0),
        ]
        for a, b, cls in data:
            if n_targets == 2:
                t = "1,0" if cls == 0 else "0,1"
            else:
                t = str(cls)
            lines.append(f"{a},{b},{t}")
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        manifest = {
            "training_examples": 3,
            "validation_examples": 1,
            "test_examples": 1,
            "target_columns": n_targets,
        }
        (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(manifest))
        return csv_path

    def test_normalizes_with_train_stats_only(self, tmp_path):
        ds = load_raw_csv(self.write_csv(tmp_path))
        assert (ds.header.n_inputs, ds.header.n_outputs) == (2, 2)
        assert np.allclose(np.asarray(ds.train.X)[:, 0], [0.0, 1.0, 0.5])
        # validation row a=20 exceeds the train max of 10: not clamped
        assert np.isclose(ds.valid.X[0, 0], 2.0)
        # test row b=8 with train span [2, 4]
        assert np.isclose(ds.test.X[0, 1], 3.0)

    def test_takes_the_compiled_pass(self, tmp_path, each_backend):
        csv_path = self.write_csv(tmp_path)
        with mock.patch.object(dataset, "_matrix_by_row",
                               wraps=dataset._matrix_by_row) as by_row:
            want = load_raw_csv(csv_path)
        assert by_row.called == (kernel.BACKEND == "python")
        for _ in each_backend:
            assert_same_dataset(load_raw_csv(csv_path), want)

    @given(st.data())
    @settings(per_example, max_examples=100)
    def test_scales_each_column_on_the_training_rows(self, tmp_path,
                                                      each_backend, data):
        # Bitwise the per-column reference, with constant columns and later
        # rows outside the training rows' range among the draws.
        width, n_targets = data.draw(st.integers(1, 6)), data.draw(
            st.integers(1, 2))
        sizes = [data.draw(st.integers(1, 5)) for _ in range(3)]
        constant = [data.draw(st.booleans()) for _ in range(width)]
        first = [data.draw(st.floats(-100, 100)) for _ in range(width)]
        features, targets = [], []
        for i in range(sum(sizes)):
            later = i >= sizes[0]
            features.append([
                data.draw(st.floats(-1e4, 1e4)) if later
                else first[j] if constant[j]
                else data.draw(st.floats(-100, 100)) for j in range(width)])
            targets.append([float(data.draw(st.integers(0, 1)))
                            for _ in range(n_targets)])
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("\n".join(
            [",".join(f"c{j}" for j in range(width + n_targets))]
            + [",".join(map(repr, x + t))
               for x, t in zip(features, targets)]) + "\n")
        (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(
            dict(zip(dataset.MANIFEST_KEYS, (*sizes, n_targets)))))
        want = [array("d", [v for row in rows for v in row]).tobytes()
                for rows in (scaled_by_column(features, sizes[0]), targets)]
        for _ in each_backend:
            ds = load_raw_csv(csv_path)
            parts = (ds.train, ds.valid, ds.test)
            assert [b"".join(p.X.tobytes() for p in parts),
                    b"".join(p.T.tobytes() for p in parts)] == want

    def test_scales_the_parsed_rows_in_place(self, tmp_path, each_backend,
                                             monkeypatch):
        # From the end of the parse on, a load holds the parsed rows, and
        # then the partitions' copies of them too: twice the rows.  The
        # file's bytes, about half the rows here, go before the scaling,
        # which adds a column's worth at a time.
        rng = random.Random(3)
        n, width = 3000, 20
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text("\n".join(
            [",".join(f"c{j}" for j in range(width + 1))]
            + [",".join([str(rng.randrange(-500, 500)) for _ in range(width)]
                        + [str(rng.randrange(2))]) for _ in range(n)]))
        (tmp_path / "wide.csv.manifest.json").write_text(json.dumps(
            dict(zip(dataset.MANIFEST_KEYS, (1000, 1000, 1000, 1)))))
        rows = 8 * n * (width + 1)
        parse = dataset._matrix

        def parsed(*args):
            X, T = parse(*args)
            tracemalloc.reset_peak()
            return X, T

        monkeypatch.setattr(dataset, "_matrix", parsed)
        for _ in each_backend:
            load_raw_csv(csv_path)  # imports whatever the first load needs
            tracemalloc.start()
            try:
                ds = load_raw_csv(csv_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ds.header.total == n
            assert peak < 2.25 * rows

    def test_single_target_column(self, tmp_path):
        ds = load_raw_csv(self.write_csv(tmp_path, n_targets=1))
        assert (ds.header.n_outputs, ds.header.n_classes) == (1, 2)

    def test_missing_manifest_key(self, tmp_path):
        csv_path = self.write_csv(tmp_path)
        (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(
            {"training_examples": 3, "validation_examples": 1,
             "test_examples": 1}
        ))
        with pytest.raises(MissingKeyError) as exc:
            load_raw_csv(csv_path)
        assert str(exc.value) == (f"{csv_path}.manifest.json: missing "
                                  "required manifest key: 'target_columns'")

    def test_non_ascii_csv(self, tmp_path):
        csv_path = self.write_csv(tmp_path)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"a,b", b"\xc3\xa9,b"))
        with pytest.raises(DatasetError):
            load_raw_csv(csv_path)

    def test_manifest_not_json(self, tmp_path):
        csv_path = self.write_csv(tmp_path)
        (tmp_path / "raw.csv.manifest.json").write_text("{training: 3")
        with pytest.raises(DatasetError):
            load_raw_csv(csv_path)

    @pytest.mark.parametrize("count", ["three", "3.5", None])
    def test_manifest_count_not_integer(self, tmp_path, count):
        csv_path = self.write_csv(tmp_path)
        manifest = json.loads(
            (tmp_path / "raw.csv.manifest.json").read_text())
        manifest["training_examples"] = count
        (tmp_path / "raw.csv.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError):
            load_raw_csv(csv_path)
