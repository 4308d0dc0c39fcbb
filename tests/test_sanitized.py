"""``kernel.c`` under AddressSanitizer and UBSan.

``kernel.c`` checks none of its input: the Python entry points' checks
are all that keep its reads and writes inside the buffers it gets, and
``growbp_parse`` reads the bytes of files that users supply.  The test
builds ``kernel.c`` with both sanitizers and runs this file as a script
in a fresh interpreter, with the sanitizer runtime preloaded and that
library bound as ``growbp.kernel._lib``.  The script runs the entry
points at the evaluation pass's block edges, the parse on drawn and
mutated bytes, and views of no rows, and compares each result with the
unsanitized library's and, for the parse, the Python reader's.  A
sanitizer report ends the script with an error.

Every buffer the entry points hand ``kernel.c`` is allocated to its
exact size, the parse's input is copied into one, and
``PYTHONMALLOC=malloc`` gives each its own allocation, so a read one
element past any of them is reported.
"""

import ctypes
import math
import os
import random
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growbp import dataset, kernel
from growbp.dataset import Partition
from growbp.kernel import Generator, view
from growbp.network import Network

SRC = Path(__file__).resolve().parents[1] / "src"
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all", "-ffp-contract=off", "-fPIC",
            "-shared")


def sanitizer_runtime():
    """The path of gcc's ``libasan.so``, or the reason there is none."""
    if shutil.which("gcc") is None:
        return None, "needs gcc"
    path = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True,
                          timeout=60).stdout.strip()
    # Where gcc has no such library it prints the bare name.
    if not (os.path.isabs(path) and os.path.exists(path)):
        return None, "needs gcc's libasan.so"
    return path, None


def test_kernel_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    runtime, reason = sanitizer_runtime()
    if runtime is None:
        pytest.skip(reason)
    library = tmp_path / "kernel-sanitized.so"
    build = subprocess.run(
        ["gcc", *SANITIZE, str(SRC / "growbp" / "kernel.c"), "-o",
         str(library)], capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    env = dict(os.environ, PYTHONPATH=str(SRC), LD_PRELOAD=runtime,
               ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc")
    proc = subprocess.run([sys.executable, __file__, str(library)], env=env,
                          capture_output=True, text=True, timeout=300)
    # A sanitizer's report starts at its first ERROR or runtime error.
    report = re.search(r"ERROR: \w*Sanitizer|runtime error", proc.stderr)
    shown = proc.stderr[report.start():][:6000] if report else (
        proc.stderr[-6000:])
    assert proc.returncode == 0 and report is None, shown
    assert proc.stdout.split() == ["block-edges", "parse", "no-rows"]


def canonical(buffer):
    """The bytes of the doubles of ``buffer``, each NaN made one NaN:
    no kernel operation lets a NaN's bits reach a number."""
    values = array("d", bytes(buffer))
    return array("d", [math.nan if v != v else v for v in values]).tobytes()


# Row counts below, at and either side of a multiple of the 8-row
# block, up to 4001; inputs up to 40 wide and h up to 8.
block_rows = st.integers(1, 20) | st.sampled_from(
    [7, 8, 9, 15, 16, 17, 63, 65, 257, 1023, 3999, 4001])

# Numbers both readers take, one of 64 characters filling
# growbp_parse's scratch buffer, and targets; then numbers only the
# Python reader takes, longer ones among them, and ones neither takes.
inputs = st.sampled_from([
    "0", "1", "0.5", "-0.25", "+1e-3", ".5", "5.", "1E+2", "-0.0",
    "4.9e-324", "1_000.5", "0." + "0" * 61 + "1"])
targets = st.sampled_from(["0", "1", "1.0", "0e5", "-0"])
bad_numbers = st.sampled_from([
    "0." + "0" * 62 + "1", "0." + "0" * 80 + "1", "1e400", "nan", "inf",
    "0x10", "1..2", "", "1e", "_1", "1_", "2", "0.5"])


@st.composite
def data_rows(draw):
    """``(data, sep, rows, n_inputs, n_outputs)``: drawn rows laid out
    with blanks, lines of blanks and line ends, and up to two faults: a
    bad number, a row one number short or long, a declared count off
    by one, a byte changed, dropped or put in, or the bytes cut short,
    which may cut a number at the buffer's end."""
    sep = draw(st.sampled_from([None, ","]))
    n_inputs, n_outputs = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    table = [[draw(inputs) for _ in range(n_inputs)]
             + [draw(targets) for _ in range(n_outputs)]
             for _ in range(draw(st.integers(1, 8)))]
    rows = len(table)
    faults = [draw(st.sampled_from(
        ["number", "short", "long", "count", "byte", "cut"]))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2])))]
    for fault in faults:
        row = draw(st.sampled_from(table))
        if fault == "number":
            row[draw(st.integers(0, len(row) - 1))] = draw(bad_numbers)
        elif fault == "short":
            row.pop()
        elif fault == "long":
            row.append(draw(inputs))
        elif fault == "count":
            rows = max(1, rows + draw(st.sampled_from([-1, 1])))
    joiner = draw(st.sampled_from([" ", "\t", " \t "] if sep is None
                                  else [",", ", ", " ,\t"]))
    end, lines = draw(st.sampled_from(["\n", "\r\n"])), []
    for row in table:
        lines.append(draw(st.sampled_from(["", " "])) + joiner.join(row))
        lines += draw(st.lists(st.sampled_from(["", " ", "\t"]),
                               max_size=1))
    data = bytearray((end.join(lines) + draw(st.sampled_from(
        ["", end, "\r"]))).encode())
    for fault in faults:
        at = draw(st.integers(0, len(data)))
        if fault == "cut":
            del data[at:]
        elif fault == "byte":
            data[at:at + draw(st.integers(0, 1))] = bytes(
                draw(st.lists(st.integers(0, 127), max_size=1)))
    return bytes(data), sep, rows, n_inputs, n_outputs


def drive(library):
    """Run the sanitized ``library`` through the entry points, each
    result compared with the unsanitized library's."""
    reference = kernel._lib
    assert reference is not None, "the unsanitized library did not build"
    sanitized = kernel._bind(ctypes.CDLL(library))

    def on_both(run):
        """``run()`` on the sanitized library, then on the reference."""
        results = []
        for lib in (sanitized, reference):
            kernel._lib = lib
            results.append(run())
        return results

    @given(st.tuples(st.integers(1, 40), st.integers(1, 8),
                     st.sampled_from([1, 2, 3, 12])), block_rows,
           st.sampled_from([0.5, 30.0, 1e300]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example((40, 8, 12), 4001, 30.0, True, 0)
    @settings(max_examples=60, deadline=None, database=None)
    def block_edges(shape, rows, scale, infinite, seed):
        n_in, h, n_out = shape
        draw = random.Random(seed)

        def uniform(lo, hi, n):
            return [draw.uniform(lo, hi) for _ in range(n)]

        weights = ([uniform(-scale, scale, n_in + 1) for _ in range(h)],
                   [uniform(-scale, scale, h + 1) for _ in range(n_out)])
        # Training can make weights infinite, though a Network is built
        # finite: about a fifth of them, set after it is built.
        marks = [[(i, draw.choice([math.inf, -math.inf]))
                  for i in range(len(M) * len(M[0]))
                  if infinite and draw.random() < 0.2] for M in weights]

        def network():
            net = Network(*weights)
            for M, matrix_marks in zip(
                    (net.hidden_weights, net.output_weights), marks):
                for i, value in matrix_marks:
                    M.obj[i] = value
            return net

        net = network()
        part = Partition([uniform(-1, 1, n_in) for _ in range(rows)],
                         [[float(draw.random() < 0.5) for _ in range(n_out)]
                          for _ in range(rows)])

        def run():
            in_order, shuffled = network(), network()
            kernel.train_epoch(in_order, part, 0.7)
            kernel.train_epoch(shuffled, part, 0.7, Generator(seed))
            return [
                canonical(kernel.forward_outputs(net, part.X)),
                canonical(kernel.pattern_errors(net, part)),
                canonical(array("d", [kernel.average_error(net, part)])),
                kernel.classified(net, part),
                *(canonical(M) for trained in (in_order, shuffled)
                  for M in (trained.hidden_weights, trained.output_weights)),
            ]

        got, want = on_both(run)
        assert got == want

    @given(data_rows())
    @settings(max_examples=300, deadline=None, database=None)
    def parse(case):
        data, sep, rows, n_inputs, n_outputs = case
        exact = (ctypes.c_char * len(data)).from_buffer_copy(data)

        def run():
            matrices = kernel.parse_rows(exact, 0, sep, rows, n_inputs,
                                         n_outputs)
            return matrices and [M.tobytes() for M in matrices]

        got, want = on_both(run)
        assert got == want
        if got is not None:  # the Python reader, the spec, agrees
            body = [(n, line) for n, line, _ in dataset.leading_lines(data)]
            assert len(body) == rows
            assert got == [M.tobytes() for M in dataset._matrix_by_row(
                body, sep, n_inputs, n_inputs + n_outputs)]

    def no_rows():
        net = Network([[0.5, -1.0, 0.25]], [[1.0, -2.0], [0.0, 3.0]])
        empty = Partition(view(array("d"), (0, 2)), view(array("d"), (0, 2)))
        for M in (empty.X, empty.T):
            assert (M.tolist(), M.shape) == ([], (0, 2))

        def run():
            Y = kernel.forward_outputs(net, empty.X)
            assert (Y.tolist(), Y.shape) == ([], (0, 2))
            return Y.tobytes()

        assert on_both(run) == [b"", b""]

    for name, check in (("block-edges", block_edges), ("parse", parse),
                        ("no-rows", no_rows)):
        check()
        print(name, flush=True)


if __name__ == "__main__":
    drive(sys.argv[1])
