import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growbp import dataset
from growbp.dataset import (
    DatasetHeader,
    Partition,
    SplitDataset,
    format_dataset,
    load_dataset,
    load_raw_csv,
    normalize_raw,
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
        h = parse_header(CANCER1_HEADER)
        assert (h.n_inputs, h.n_outputs, h.n_classes) == (9, 2, 2)
        assert (h.n_train, h.n_valid, h.n_test) == (350, 175, 174)

    def test_heart_header_single_output_two_classes(self):
        h = parse_header(HEART_HEADER)
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
            parse_header(lines)

    def test_malformed_value(self):
        lines = CANCER1_HEADER[:-1] + ["test_examples=abc"]
        with pytest.raises(MalformedValueError):
            parse_header(lines)
        lines = CANCER1_HEADER[:-1] + ["test_examples=-3"]
        with pytest.raises(MalformedValueError):
            parse_header(lines)

    def test_unicode_digits_rejected(self):
        # "\u00b2" passes str.isdigit() but int() cannot convert it.
        lines = CANCER1_HEADER[:-1] + ["test_examples=\u00b2"]
        with pytest.raises(MalformedValueError):
            parse_header(lines)

    def test_unknown_keys_ignored(self):
        h = parse_header(CANCER1_HEADER + ["comment=whatever"])
        assert h.n_inputs == 9


class TestParseDataset:
    def test_partitions_in_file_order(self):
        ds = parse_dataset(tiny_dt())
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (3, 2, 2)
        # first input component encodes the row index
        firsts = np.concatenate([ds.train.X[:, 0], ds.valid.X[:, 0],
                                 ds.test.X[:, 0]])
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
        assert str(exc.value).startswith(f"{p}: non-ASCII byte")

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
        short = Partition(ds.train.X[:-1], ds.train.T[:-1])
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
        part = Partition(X, np.ones((3, 1)))
        for M in (part.X, part.T):
            assert M.dtype == np.float64
            assert M.flags.c_contiguous and M.flags.owndata
        assert not np.shares_memory(part.X, X)
        assert len(part) == 3

    @pytest.mark.parametrize("X, T", [
        (np.zeros(3), np.zeros((3, 1))),
        (np.zeros((3, 2)), np.zeros(3)),
        (np.zeros((3, 2)), np.zeros((2, 1))),
    ])
    def test_rejects_bad_shapes(self, X, T):
        with pytest.raises(MalformedValueError):
            Partition(X, T)


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
                     "00012", "+.5e-2", "1_000.000_1"]))
TARGET_TOKENS = st.sampled_from(["0", "1", "0.0", "1.0", "+1", "-0", "1e0",
                                 "0_0", ".0", "1."])
# Faults the per-row loop names, each with the token that injects it.
FAULT_TOKENS = {
    "non-numeric": ["x", "1..2", "0x10", "1,5", "--1", "_1"],
    "non-finite": ["nan", "inf", "-inf", "1e400", "-Infinity"],
    "target": ["0.5", "2", "-1", "1e-300"],
}


@st.composite
def bodies(draw):
    """``(body, sep, n_inputs, width)`` of a valid .dt or CSV data block."""
    sep = draw(st.sampled_from([None, ","]))
    n_inputs = draw(st.integers(1, 4))
    width = n_inputs + draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(INPUT_TOKENS, min_size=n_inputs,
                           max_size=n_inputs),
                  st.lists(TARGET_TOKENS, min_size=width - n_inputs,
                           max_size=width - n_inputs)),
        min_size=1, max_size=12))
    joiner = " " if sep is None else draw(st.sampled_from([",", ", "]))
    body = [(i + 3, joiner.join(x + t)) for i, (x, t) in enumerate(rows)]
    return body, sep, n_inputs, width


# Rows per chunk: small ones put chunk edges inside a short body.
CHUNKS = st.sampled_from([1, 2, 3, dataset._CHUNK_ROWS])


def raised(fn, *args):
    with pytest.raises(DatasetError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value), getattr(exc.value, "line_no", None)


class TestBulkParse:
    """``_matrix`` converts in chunks; ``_matrix_by_row`` is its reference."""

    @given(bodies(), CHUNKS)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_row_loop_bitwise(self, case, chunk):
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk), \
                mock.patch.object(dataset, "_matrix_by_row") as by_row:
            got = dataset._matrix(*case)
        by_row.assert_not_called()  # valid rows never take the slow path
        want = dataset._matrix_by_row(*case)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(bodies(), CHUNKS, st.data())
    @settings(max_examples=400, deadline=None)
    def test_faults_raise_as_the_per_row_loop(self, case, chunk, data):
        body, sep, n_inputs, width = case
        body = list(body)
        for row in data.draw(st.lists(st.integers(0, len(body) - 1),
                                      min_size=1, max_size=2, unique=True)):
            kind = data.draw(st.sampled_from(
                ["arity"] + sorted(FAULT_TOKENS)))
            line_no, line = body[row]
            tokens = line.split(sep)
            if kind == "arity":
                tokens = tokens[:-1] if data.draw(st.booleans()) else (
                    tokens + ["0"])
            else:
                column = (data.draw(st.integers(n_inputs, width - 1))
                          if kind == "target" else
                          data.draw(st.integers(0, width - 1)))
                tokens[column] = data.draw(st.sampled_from(
                    FAULT_TOKENS[kind]))
            body[row] = (line_no, (" " if sep is None else ",").join(tokens))
        case = body, sep, n_inputs, width
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk):
            assert raised(dataset._matrix, *case) == raised(
                dataset._matrix_by_row, *case)

    @pytest.mark.parametrize("early, late, want", [
        ("nan 0.2 1 0", "0.1 0.2 1", (NonFiniteError, 10)),
        ("0.1 0.2 0.5 0", "0.1 x 1 0", (MalformedValueError, 10)),
        ("0.1 0.2 1", "inf 0.2 1 0", (RowArityError, 10)),
        ("0.1 0.2 1 0", "0.1 0.2 1 0 1", (RowArityError, 1210)),
    ])
    def test_the_earlier_faulty_row_wins_across_chunks(self, early, late,
                                                       want):
        # Lines 10 and 1210 are in different chunks.
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


class TestNormalizeRaw:
    def test_linear_map_endpoints(self):
        col = np.array([[0.0], [5.0], [10.0]])
        out = normalize_raw(col, col)
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        col = np.array([[3.0], [3.0], [3.0]])
        out = normalize_raw(col, col)
        assert np.array_equal(out[:, 0], [0.0, 0.0, 0.0])

    def test_out_of_range_not_clamped(self):
        train = np.array([[0.0], [10.0]])
        out = normalize_raw(np.array([[12.0]]), train)
        assert np.isclose(out[0, 0], 1.2)

    def test_empty_training(self):
        with pytest.raises(EmptyTrainingError):
            normalize_raw(np.array([[1.0]]), np.empty((0, 1)))


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
        assert np.allclose(ds.train.X[:, 0], [0.0, 1.0, 0.5])
        # validation row a=20 exceeds the train max of 10: not clamped
        assert np.isclose(ds.valid.X[0, 0], 2.0)
        # test row b=8 with train span [2, 4]
        assert np.isclose(ds.test.X[0, 1], 3.0)

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
