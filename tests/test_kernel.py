"""The order contract of ``growbp.kernel``, checked bitwise.

The scalar reference below is written with plain loops over Python
floats, independently of ``oracle``, ``kernel.c`` transcribed: each sum
starts from its first product, runs left to right and adds the bias
last.  The entry points ``train_epoch``, ``forward_outputs`` and
``pattern_errors`` are checked against it, and the compiled kernel is
also checked against the oracle.  numpy is the reference for the random
streams, the errors' row sums and the class rule; the mean of the errors
is checked against a plain left-to-right loop.
"""

import copy
import ctypes
import glob
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from array import array
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import growbp
import oracle
import test_golden
from growbp import kernel as kernel_module
from growbp import metrics, trainer
from growbp.dataset import Partition
from growbp.errors import (ArityMismatchError, EmptySetError,
                           MalformedValueError)
from growbp.kernel import Generator
from growbp.metrics import efficiency
from growbp.network import Network, add_hidden_unit, forward_outputs
from growbp.trainer import average_error, train_epoch


def ref_sigmoid(s):
    return 1.0 / (1.0 + oracle.exp(-s))


def ref_dot(row, inputs):
    s = row[0] * inputs[0]
    for i in range(1, len(inputs)):
        s += row[i] * inputs[i]
    return s + row[len(inputs)]


def ref_forward(hw, ow, x):
    hidden = [ref_sigmoid(ref_dot(row, x)) for row in hw]
    return hidden, [ref_sigmoid(ref_dot(row, hidden)) for row in ow]


def ref_step(hw, ow, x, d, eta):
    """One online step; returns the new weight rows."""
    hidden, y = ref_forward(hw, ow, x)
    e = [(d[k] - y[k]) * y[k] * (1.0 - y[k]) for k in range(len(ow))]
    g = []
    for j, hj in enumerate(hidden):
        back = ow[0][j] * e[0]
        for k in range(1, len(ow)):
            back += ow[k][j] * e[k]
        g.append(back * hj * (1.0 - hj))
    new_ow = [[row[j] + eta * (e[k] * hidden[j]) for j in range(len(hidden))]
              + [row[-1] + eta * e[k]] for k, row in enumerate(ow)]
    new_hw = [[row[i] + eta * (g[j] * x[i]) for i in range(len(x))]
              + [row[-1] + eta * g[j]] for j, row in enumerate(hw)]
    return new_hw, new_ow


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def left_to_right_mean(E):
    """The mean of ``E`` as the contract takes it: summed left to right
    from 0.0, then divided by the count."""
    total = 0.0
    for e in E:
        total = total + float(e)
    return total / len(E)


def one_step(net, x, d, eta):
    """One online step through the entry point: a one-pattern epoch."""
    return train_epoch(net, Partition([x], [d]), eta)


def oracle_forward(net, x):
    """The oracle's hidden and output activations of one pattern."""
    return oracle.forward(net.hidden_weights.tolist(),
                          net.output_weights.tolist(),
                          np.asarray(x, dtype=np.float64).tolist())


def oracle_evaluate(net, part):
    """The oracle's outputs, errors, mean error and count of ``net`` on
    ``part``."""
    return oracle.evaluate(net.hidden_weights.tolist(),
                           net.output_weights.tolist(), part.X.tolist(),
                           part.T.tolist())


# Shapes up to h=8 and three outputs; weight scales up to 1000 drive
# net inputs past exp's overflow point, so the saturated branch runs too.
# An eta of 1e4 makes the step's increment outweigh the old weight, so a
# delta summed in another order shows in the updated weights.
shapes = st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3))
scales = st.sampled_from([0.5, 2.0, 30.0, 1000.0])
seeds = st.integers(0, 2**32 - 1)


def random_net(rng, shape, scale):
    n_in, h, n_out = shape
    return Network(rng.uniform(-scale, scale, (h, n_in + 1)),
                   rng.uniform(-scale, scale, (n_out, h + 1)))


@given(shapes, scales, seeds, st.sampled_from([0.05, 0.7, 3.0, 1e4]))
@settings(deadline=None, max_examples=200)
def test_step_matches_scalar_reference(shape, scale, seed, eta):
    rng = np.random.default_rng(seed)
    start = random_net(rng, shape, scale)
    x = rng.uniform(-1, 1, shape[0])
    d = rng.integers(0, 2, shape[2]).astype(np.float64)
    want_hw, want_ow = ref_step(start.hidden_weights.tolist(),
                                start.output_weights.tolist(),
                                x.tolist(), d.tolist(), eta)
    net = start.copy()
    one_step(net, x, d, eta)
    hw, ow = start.hidden_weights.tolist(), start.output_weights.tolist()
    oracle.step(hw, ow, x.tolist(), d.tolist(), eta)
    for got in (net.hidden_weights, hw):
        assert bits(got) == bits(want_hw)
    for got in (net.output_weights, ow):
        assert bits(got) == bits(want_ow)


@given(shapes, seeds, st.integers(1, 12), seeds)
@settings(deadline=None, max_examples=60)
def test_epoch_equals_loop_of_steps(shape, seed, rows, order_seed):
    rng = np.random.default_rng(seed)
    start = random_net(rng, shape, 2.0)
    part = Partition(rng.uniform(0, 1, (rows, shape[0])),
                     rng.integers(0, 2, (rows, shape[2])).astype(float))
    order = np.random.default_rng(order_seed).permutation(rows)
    X, T = part.X.tolist(), part.T.tolist()
    hw, ow = start.hidden_weights.tolist(), start.output_weights.tolist()
    for i in order:
        hw, ow = ref_step(hw, ow, X[i], T[i], 0.7)
    a, b = start.copy(), start.copy()
    train_epoch(a, part, 0.7, Generator(order_seed))
    for i in order:
        one_step(b, X[i], T[i], 0.7)
    for net in (a, b):
        assert bits(net.hidden_weights) == bits(hw)
        assert bits(net.output_weights) == bits(ow)


@given(shapes, scales, seeds, st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_batch_forward_matches_per_pattern(shape, scale, seed, rows):
    rng = np.random.default_rng(seed)
    net = random_net(rng, shape, scale)
    X = rng.uniform(-1, 1, (rows, shape[0]))
    Y = np.asarray(forward_outputs(net, X))
    for i in range(rows):
        hidden, output = oracle_forward(net, X[i])
        want_hidden, want_output = ref_forward(net.hidden_weights.tolist(),
                                               net.output_weights.tolist(),
                                               X[i].tolist())
        assert bits(hidden) == bits(want_hidden)
        assert bits(output) == bits(want_output)
        assert bits(Y[i]) == bits(output)


@given(shapes, seeds)
@settings(max_examples=150, deadline=None)
def test_zero_output_growth_keeps_batch_outputs(shape, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, shape, 2.0)
    grown = add_hidden_unit(net, 1.0, rng, zero_output=True)
    X = rng.uniform(-1, 1, (25, shape[0]))
    assert bits(forward_outputs(grown, X)) == bits(forward_outputs(net, X))


@pytest.mark.parametrize("s", [-800.0, -745.2, -709.79, -709.78, -36.5,
                               0.0, 36.5, 800.0, math.inf, -math.inf,
                               math.nan])
def test_sigmoid_equals_expit(s):
    # The hidden unit's net input is exactly 1.0 * s + 0.0 = s, and so is
    # the output unit's on the hidden activation.
    w = np.array([[1.0, 0.0]])
    hidden, _ = oracle_forward(Network(w, np.zeros((1, 2))), [s])
    assert bits(hidden) == bits([expit(s)])
    net = Network(w, w.copy())
    want = bits([[expit(expit(s))], [expit(expit(-s))]])
    assert bits(forward_outputs(net, [[s], [-s]])) == want
    assert bits([oracle_forward(net, [v])[1] for v in (s, -s)]) == want


def test_long_sums_keep_order():
    rng = np.random.default_rng(0)
    net = random_net(rng, (3000, 2, 1), 0.05)
    x = rng.uniform(-1, 1, 3000)
    want = ref_forward(net.hidden_weights.tolist(),
                       net.output_weights.tolist(), x.tolist())
    hidden, output = oracle_forward(net, x)
    assert bits(hidden) == bits(want[0])
    assert bits(output) == bits(want[1])
    assert bits(forward_outputs(net, x[None, :])) == bits(want[1])


# The compiled kernel against the oracle.  Weight scales up to 1e300
# and etas up to 1e300 push weights past the float range, so later steps
# run on +-inf and NaN weights.
big_scales = st.sampled_from([0.5, 30.0, 1000.0, 1e300])
big_etas = st.sampled_from([0.05, 0.7, 1e4, 1e300])


def random_arrays(rng, shape, scale, rows):
    n_in, h, n_out = shape
    hw = rng.uniform(-scale, scale, (h, n_in + 1))
    ow = rng.uniform(-scale, scale, (n_out, h + 1))
    X = rng.uniform(-1, 1, (rows, n_in))
    T = rng.integers(0, 2, (rows, n_out)).astype(np.float64)
    return hw, ow, X, T


def nan_bits(a):
    """Bytes of ``a`` with every NaN made the same NaN.

    IEEE 754 fixes no sign or payload for a NaN made from two NaNs, and
    CPython does not reproduce them either: its specialised float
    instructions may add the operands in the other order.  No kernel
    operation lets a NaN's bits reach a number, so only NaN-ness counts.
    """
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def oracle_epoch(net, part, order, eta):
    """The oracle's step applied pattern by pattern; new weight rows."""
    hw, ow = net.hidden_weights.tolist(), net.output_weights.tolist()
    X, T = part.X.tolist(), part.T.tolist()
    for i in order:
        oracle.step(hw, ow, X[i], T[i], eta)
    return hw, ow


@given(shapes, big_scales, seeds, st.integers(1, 12), big_etas,
       st.none() | seeds)
@settings(max_examples=200, deadline=None)
def test_epoch_matches_python_steps(shape, scale, seed, rows, eta,
                                    order_seed):
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, shape, scale, rows)
    net, part = Network(hw, ow), Partition(X, T)
    # Both sides draw from equal streams, numpy's and growbp's, or both go
    # in file order.
    shuffles = [None, None] if order_seed is None else [
        np.random.default_rng(order_seed), Generator(order_seed)]
    for _ in range(3):  # later epochs start from saturated weights
        order = (range(rows) if order_seed is None
                 else shuffles[0].permutation(rows))
        want_hw, want_ow = oracle_epoch(net, part, order, eta)
        train_epoch(net, part, eta, shuffles[1])
        assert nan_bits(net.hidden_weights) == nan_bits(want_hw)
        assert nan_bits(net.output_weights) == nan_bits(want_ow)


@given(shapes, seeds, st.integers(1, 12))
@settings(deadline=None, max_examples=40)
def test_epoch_draws_one_permutation_or_goes_in_file_order(
        shape, seed, rows):
    rng = np.random.default_rng(seed)
    start = random_net(rng, shape, 2.0)
    part = Partition(rng.uniform(0, 1, (rows, shape[0])),
                     rng.integers(0, 2, (rows, shape[2])).astype(float))
    drawn, twin = Generator(seed), Generator(seed)
    shuffled, in_order = start.copy(), start.copy()
    train_epoch(shuffled, part, 0.7, drawn)
    train_epoch(in_order, part, 0.7)
    for net, order in ((shuffled, twin.permutation(rows)),
                       (in_order, range(rows))):
        want_hw, want_ow = oracle_epoch(start, part, order, 0.7)
        assert bits(net.hidden_weights) == bits(want_hw)
        assert bits(net.output_weights) == bits(want_ow)
    # The epoch took exactly one permutation from the stream.
    assert drawn.state == twin.state


# kernel.c evaluates rows in blocks of 8 and pads the last one with zero
# rows: row counts below, at and either side of a multiple of 8, up to
# 4001, and inputs up to 40 wide.
block_rows = st.integers(1, 20) | st.sampled_from(
    [1, 7, 8, 9, 15, 16, 17, 63, 65, 257, 1023, 3999, 4001])
block_shapes = st.tuples(st.integers(1, 40), st.integers(1, 8),
                         st.sampled_from([1, 2, 3, 12]))


def make_infinite(rng, net):
    """Set about a fifth of the weights, and the first hidden unit's first
    weight, infinite.  A Network is built finite; training can make it
    not.  A padded row's zero input times that weight is NaN, so a padded
    row's output is NaN, which must not reach a real row."""
    hw, ow = np.asarray(net.hidden_weights), np.asarray(net.output_weights)
    hw[rng.random(hw.shape) < 0.2] = math.inf
    ow[rng.random(ow.shape) < 0.2] = -math.inf
    hw[0, 0] = math.inf


@given(block_shapes, big_scales, seeds, st.just(0) | block_rows,
       st.booleans())
@example((40, 8, 12), 30.0, 0, 4001, True)
@example((3, 2, 2), 30.0, 0, 0, False)
@settings(deadline=None, max_examples=150)
def test_batch_forward_matches_python_forward(shape, scale, seed, rows,
                                              infinite):
    rng = np.random.default_rng(seed)
    hw, ow, X, _ = random_arrays(rng, shape, scale, rows)
    net = Network(hw, ow)
    if infinite:
        make_infinite(rng, net)
    Y = forward_outputs(net, X)
    assert Y.shape == (rows, shape[2])
    # Every view lists, one of no rows as [].
    assert len(Y.tolist()) == rows
    Y = np.asarray(Y)
    assert Y.shape == (rows, shape[2])
    for i in range(rows):
        assert nan_bits(Y[i]) == nan_bits(oracle_forward(net, X[i])[1])


# Net inputs at the edges of exp's ranges: past |s| < 512 a block of
# kernel.c's evaluation pass takes growbp_exp lane by lane, and below
# 2**-54, where glibc's exp returns 1 + s, the lane loop's body runs.
@pytest.mark.parametrize("s", [-600.0, 600.0, 1e-20, math.nan, math.inf,
                               -math.inf])
@pytest.mark.parametrize("rows", [8, 13])
def test_block_with_a_lane_out_of_exp_range(s, rows):
    # The first hidden unit's net input is the row's input, and the first
    # output unit's is that unit's activation, 2.6e-261 for s = -600; the
    # other lanes lie in the main range.  The odd lane goes through every
    # row of a whole block and of a last block of five.
    hw = np.array([[1.0, 0.0], [-0.5, 0.25]])
    ow = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    net = Network(hw, ow)
    rng = np.random.default_rng(rows)
    for lane in range(rows):
        X = rng.uniform(-5.0, 5.0, (rows, 1))
        X[lane, 0] = s
        want = [oracle.forward(hw.tolist(), ow.tolist(), x)[1]
                for x in X.tolist()]
        assert nan_bits(forward_outputs(net, X)) == nan_bits(want)


def exp_table_row(y):
    """The row j of ``kernel.c``'s ``exp_table`` that ``exp(y)`` reads."""
    kd = oracle._INV_LN2_N * y + oracle._SHIFT - oracle._SHIFT
    return int(kd) & 127


# kernel.c's evaluation pass runs a block's exps as pairs of lanes, rows
# 2i and 2i + 1, each lane reading its own exp_table row.  The hidden
# unit's net input is the row's value x and its exp takes -x.  Table row j
# is read at rows j and 129 + j, once in each lane and next to a j of its
# own; an edge value sits between the two runs, and four more end the
# rows in a block of 5: +-2**-54, where exp is 1 + x, -0.0, and +-511.99
# near the main range's end.
@given(seeds)
@settings(deadline=None, max_examples=25)
def test_every_exp_table_row_in_both_lanes_of_a_pair(seed):
    rng = np.random.default_rng(seed)
    j = np.arange(128)

    def one_value_per_row():
        # |128 k + j| ln2/128 < 511.99 for k in -738..737, of both signs.
        k = 128 * rng.integers(-738, 738, 128) + j
        y = (k + rng.uniform(-0.45, 0.45, 128)) * (math.log(2.0) / 128)
        assert [exp_table_row(v) for v in y] == j.tolist()
        return (-y).tolist()

    edges = rng.permutation([-0.0, 2.0**-54, -2.0**-54, 511.99, -511.99])
    rows = (one_value_per_row() + edges[:1].tolist() + one_value_per_row()
            + edges[1:].tolist())
    assert len(rows) % 8 == 5
    hw, ow = [[1.0, 0.0]], [[1.0, 0.0]]
    net = Network(hw, ow)
    want = [oracle.forward(hw, ow, [x])[1] for x in rows]
    assert bits(forward_outputs(net, [[x] for x in rows])) == bits(want)


def ref_pattern_error(net, x, d):
    _, y = ref_forward(net.hidden_weights.tolist(),
                       net.output_weights.tolist(), x)
    s = (d[0] - y[0]) * (d[0] - y[0])
    for k in range(1, len(y)):
        s += (d[k] - y[k]) * (d[k] - y[k])
    return 0.5 * s


# Up to 12 outputs: from eight on, numpy's row sums reblock, so only the
# kernel's own order can match the oracle.
wide_shapes = st.tuples(st.integers(1, 40), st.integers(1, 8),
                        st.integers(1, 12))


@given(wide_shapes, big_scales, seeds, block_rows, st.booleans())
@example((40, 8, 12), 30.0, 0, 4001, True)
@settings(deadline=None, max_examples=150)
def test_pattern_errors_equal_on_both_backends(shape, scale, seed, rows,
                                               infinite):
    # The compiled pass against the oracle, kernel.c transcribed, and the
    # scalar reference.
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, shape, scale, rows)
    net, part = Network(hw, ow), Partition(X, T)
    if infinite:
        make_infinite(rng, net)
    got = kernel_module.pattern_errors(net, part)
    want = [ref_pattern_error(net, X[i].tolist(), T[i].tolist())
            for i in range(rows)]
    assert len(got) == rows
    assert nan_bits(got) == nan_bits(oracle_evaluate(net, part)[1]) == (
        nan_bits(want))


@given(st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 7)),
       scales, seeds, st.integers(1, 40))
@settings(deadline=None, max_examples=100)
def test_average_error_keeps_numpy_row_sums(shape, scale, seed, rows):
    # Up to seven outputs numpy sums a row's squares left to right, as
    # the kernel does.
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, shape, scale, rows)
    net, part = Network(hw, ow), Partition(X, T)
    E = T - np.asarray(forward_outputs(net, X))
    want = left_to_right_mean(0.5 * (E * E).sum(axis=1))
    assert bits(average_error(net, part)) == bits(want)


# The entry points that take a partition, each called on one that does
# not fit the net below (2 inputs, 1 output).
FIT_CHECKED = {
    "train_epoch": lambda net, part: train_epoch(
        net, part, 0.7, Generator(0)),
    "pattern_errors": kernel_module.pattern_errors,
    "average_error": kernel_module.average_error,
    "efficiency": efficiency,
}


@pytest.mark.parametrize("entry", sorted(FIT_CHECKED))
@pytest.mark.parametrize("rows, n_inputs, n_targets, error, message", [
    (4, 3, 1, ArityMismatchError, "got 3 and 1"),
    (4, 1, 1, ArityMismatchError, "got 1 and 1"),
    (4, 2, 2, ArityMismatchError, "got 2 and 2"),
    (0, 2, 1, EmptySetError, "empty pattern set"),
    (0, 3, 2, EmptySetError, "empty pattern set"),
], ids=["3-1", "1-1", "2-2", "empty", "empty-3-2"])
def test_unfit_partitions_fail_before_the_kernel(
        entry, rows, n_inputs, n_targets, error, message, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    class NoLib:
        def __getattr__(self, name):
            return no_kernel

    monkeypatch.setattr(kernel_module, "_lib", NoLib())
    net = Network(np.ones((2, 3)), np.ones((1, 3)))
    before = bits(net.hidden_weights) + bits(net.output_weights)
    part = Partition(np.ones((rows, n_inputs)), np.ones((rows, n_targets)))
    with pytest.raises(error, match=message):
        FIT_CHECKED[entry](net, part)
    assert bits(net.hidden_weights) + bits(net.output_weights) == before


# Nothing but growbp's Generator may pick the order kernel.c trusts: not
# an order, a seed, numpy's generators, whose permutations the kernel
# never checks, or an object that only looks like a generator and would
# send it past the end of the rows.
@pytest.mark.parametrize("rng", [
    np.arange(4), 0, np.random.RandomState(0), np.random.default_rng(0),
    SimpleNamespace(permutation=lambda n: np.full(n, 10**9)),
], ids=["order", "seed", "random-state", "numpy-generator", "look-alike"])
def test_epoch_takes_only_a_growbp_generator(rng):
    net = Network(np.ones((2, 3)), np.ones((1, 3)))
    before = bits(net.hidden_weights) + bits(net.output_weights)
    part = Partition(np.ones((4, 2)), np.ones((4, 1)))
    with pytest.raises(TypeError, match="growbp.kernel.Generator"):
        train_epoch(net, part, 0.7, rng)
    assert bits(net.hidden_weights) + bits(net.output_weights) == before


# The symbols kernel.c exports, each with the package's prefix.
EXPORTS = ("growbp_epoch", "growbp_evaluate", "growbp_permutation",
           "growbp_parse")


def c_type(param):
    """The ctypes type that passes one C parameter, e.g. ``int64_t n``."""
    declared = param.strip().rsplit(None, 1)[0] if "*" not in param else "*"
    return {"*": ctypes.c_void_p, "int64_t": ctypes.c_int64,
            "double": ctypes.c_double}[declared]


def test_every_c_entry_point_is_bound_to_its_prototype():
    # A binding with the wrong argument count or types makes ctypes pass
    # garbage, which corrupts memory rather than raising.
    source = kernel_module._SOURCE.read_text()
    prototypes = re.findall(r"^int64_t\s+(\w+)\s*\(([^)]*)\)", source, re.M)
    assert {name for name, _ in prototypes} == set(EXPORTS)
    lib = SimpleNamespace(**{name: SimpleNamespace()
                             for name, _ in prototypes})
    kernel_module._bind(lib)
    for name, params in prototypes:
        entry = getattr(lib, name)
        assert entry.argtypes == [c_type(p) for p in params.split(",")], name
        assert entry.restype is ctypes.c_int64, name


def test_evaluation_pass_has_one_call_site():
    # _evaluate alone calls growbp_evaluate, and no second, Python path
    # runs anywhere in the package in the library's place.
    source = Path(kernel_module.__file__).read_text()
    assert source.count("_lib.growbp_evaluate(") == 1
    for path in Path(kernel_module.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "_lib is None" not in text, path.name
        assert "BACKEND" not in text, path.name


def test_kernel_alone_holds_the_matrices():
    # growbp.kernel.Held alone reads a class's addresses and copies it
    # through its constructor; no other module holds buffers its own way.
    package = Path(kernel_module.__file__).parent
    holders = {path.name for path in package.glob("*.py") if re.search(
        r"def __reduce(_ex)?__|[\"']addresses[\"']|\.addresses\s*=(?!=)",
        path.read_text())}
    assert holders == {"kernel.py"}


def _address(lib, name):
    """Where ``name`` resolves from ``lib``, or None where it does not."""
    try:
        return ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
    except AttributeError:
        return None


def test_compiled_library_exports_only_prefixed_names():
    lib = kernel_module._lib
    for name in EXPORTS:
        assert _address(lib, name) is not None, name
    # An unprefixed name resolves, if at all, to what the process already
    # has: glibc's error(3), never the kernel's own code.
    process = ctypes.CDLL(None)
    for name in ("epoch", "evaluate", "forward", "error", "layer",
                 "logistic", "mean", "pairwise", "label", "classified",
                 "next64", "permutation", "parse", "number", "skip_blanks",
                 "digit", "exp_body", "exp_special", "main_range",
                 "from_bits", "to_bits", "exp_table", "numeric", "digits",
                 "read_decimal", "eisel_lemire", "pow5_table"):
        assert _address(lib, name) == _address(process, name), name
    # The pinned exp is static too.
    assert _address(lib, "growbp_exp") is None


def test_parse_reads_nothing_past_its_length():
    parse = kernel_module._lib.growbp_parse
    X, T = (ctypes.c_double * 1)(), (ctypes.c_double * 1)()
    # Up to offset 9 the row is "0.5 1"; a read past it would see the
    # target 10, and before offset 4 a row of no numbers.
    data = b"x=1\n0.5 10"
    assert parse(data, 4, 9, 0, 1, 1, 1, X, T) == 0
    assert (X[0], T[0]) == (0.5, 1.0)
    assert parse(data, 4, 10, 0, 1, 1, 1, X, T) == 1
    assert parse(data, 0, 9, 0, 1, 1, 1, X, T) == 1
    # An underscore needs a digit after it before the end.
    assert parse(b"0.5 1_0", 0, 6, 0, 1, 1, 1, X, T) == 1


def test_parse_rows_allocates_only_rows_the_buffer_can_hold():
    # A trillion rows of two values cannot fit in four bytes: refused
    # before any allocation.
    parse_rows = kernel_module.parse_rows
    assert parse_rows(b"0 1\n", 0, None, 10**12, 1, 1) is None
    assert parse_rows(b"0 1", 0, None, 1, 1, 1) == (array("d", [0.0]),
                                                     array("d", [1.0]))
    # growbp_parse doubts any byte that is not ASCII.
    assert parse_rows("0 1\xa0".encode(), 0, None, 1, 1, 1) is None


def test_build_flags_keep_the_order_contract():
    # No fused multiply-adds, and nothing that lets the compiler reorder
    # the arithmetic or tune it to the building machine.
    flags = kernel_module._COMPILE
    assert "-ffp-contract=off" in flags
    for unsafe in ("-ffast-math", "-fassociative-math",
                   "-funsafe-math-optimizations", "-march=native"):
        assert unsafe not in flags


# x86-64's FMA mnemonics (vfmadd213sd, vfnmsub231pd, ...) and aarch64's
# (fmadd, fnmsub, and NEON's fmla and fmls).
FUSED = re.compile(r"v?fn?m(add|sub)|fml[as]")


def test_compiled_library_has_no_fused_multiply_add():
    # -ffp-contract=off keeps every product rounded on its own; vector
    # code or an -m flag must not bring a fused instruction back.
    if shutil.which("objdump") is None:
        pytest.skip("needs objdump")
    proc = subprocess.run(["objdump", "-d", kernel_module._lib._name],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    # A disassembled line is address, bytes, then the instruction.
    mnemonics = [line.split("\t")[2].split()[0]
                 for line in proc.stdout.splitlines()
                 if line.count("\t") >= 2 and line.split("\t")[2].strip()]
    assert "<growbp_evaluate>:" in proc.stdout and len(mnemonics) > 100
    assert [m for m in mnemonics if FUSED.match(m)] == []


def test_kernel_c_compiles_without_warnings(tmp_path):
    # Stricter than kernel._COMPILE, which names the cached library and so
    # stays as it is: here every warning is an error.
    source = Path(kernel_module.__file__).with_name("kernel.c")
    proc = subprocess.run(
        ["gcc", "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror",
         "-O2", "-c", str(source), "-o", str(tmp_path / "kernel.o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


SRC = Path(growbp.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def run_python(code, *options, **env):
    """Run ``code`` in a fresh interpreter, started with the command-line
    ``options``, with growbp importable."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, *options, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    # Nor numpy, nor anything that forks: seeds run on threads.  A whole
    # train run loads none of them either.
    absent = ("numpy", "scipy", "multiprocessing",
              "concurrent.futures.process")
    out = run_python("import sys, growbp.cli\n"
                     f"print([m for m in {absent!r} if m in sys.modules])")
    assert out == "[]\n"
    out = run_python(
        "import sys\n"
        "from growbp.cli import main\n"
        "status = main(['train', 'heart1', '--seeds', '0:2', '--output', "
        f"{str(tmp_path / 'res')!r}])\n"
        f"print(status, [m for m in {absent!r} if m in sys.modules])")
    assert out.splitlines()[-1] == "0 []"


def test_serial_run_loads_no_pool_and_no_build_modules(tmp_path):
    # Only a thread pool, a build of kernel.c or a resource loader needs
    # these, and -S keeps site's .pth files from importing any of them.
    lazy = ("concurrent.futures", "logging", "importlib.resources",
            "sysconfig", "subprocess", "tempfile")
    cache = str(tmp_path / "cache")
    run_python("import growbp.kernel", XDG_CACHE_HOME=cache)  # builds it
    out = run_python("import sys, growbp.cli\n"
                     f"print([m for m in {lazy!r} if m in sys.modules])",
                     "-S", XDG_CACHE_HOME=cache)
    assert out == "[]\n"
    # A serial sweep maps with the builtin map; two jobs start a pool.
    for jobs, pool in (1, False), (2, True):
        out = run_python(
            "import sys\n"
            "from growbp.cli import main\n"
            "status = main(['train', 'heart1', '--seeds', '0:2', '--jobs', "
            f"'{jobs}', '--output', {str(tmp_path / str(jobs))!r}])\n"
            "print(status, 'concurrent.futures' in sys.modules)",
            "-S", XDG_CACHE_HOME=cache)
        assert out.splitlines()[-1] == f"0 {pool}"


# numpy cannot be imported after this prelude.
NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
# Prints a function of the library, which only a loaded library has.
LOADED = "import growbp.kernel as k; print(k._lib.growbp_epoch.__name__)"


def test_compiled_kernel_needs_no_numpy(tmp_path):
    # The heart1 golden sweep, built into an empty cache.
    run_python(
        NO_NUMPY +
        "import tempfile\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "import test_golden\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    test_golden.assert_same_files(\n"
        "        'heart1', test_golden.result_files('heart1', Path(tmp)))\n",
        XDG_CACHE_HOME=str(tmp_path / "cache"))


def test_oracle_sweep_keeps_golden_bytes(tmp_path, monkeypatch):
    # The heart1 golden sweep with each epoch and evaluation pass taken by
    # the oracle: of the library, only the parse may run.
    def epoch(net, part, eta, rng):
        assert rng is None  # the golden sweep trains in file order
        hw, ow = net.hidden_weights.tolist(), net.output_weights.tolist()
        for x, d in zip(part.X.tolist(), part.T.tolist()):
            oracle.step(hw, ow, x, d, eta)
        net.hidden_weights.obj[:] = array("d", chain.from_iterable(hw))
        net.output_weights.obj[:] = array("d", chain.from_iterable(ow))
        return net

    monkeypatch.setattr(trainer, "train_epoch", epoch)
    monkeypatch.setattr(trainer, "average_error",
                        lambda net, part: oracle_evaluate(net, part)[2])
    monkeypatch.setattr(metrics, "classified",
                        lambda net, part: oracle_evaluate(net, part)[3])
    monkeypatch.setattr(kernel_module, "_lib", SimpleNamespace(
        growbp_parse=kernel_module._lib.growbp_parse))
    test_golden.assert_same_files(
        "heart1", test_golden.result_files("heart1", tmp_path))


def growbp_cli(tmp_path, path, *args):
    """Run ``growbp ARGS`` with an empty cache and ``path`` as ``PATH``;
    its exit status and stderr lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PATH=path,
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-m", "growbp.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stderr.splitlines()


BUILD_FAILED = ("error: cannot build growbp's kernel with "
                + " ".join(kernel_module._COMPILE) + ": ")


def test_no_compiler_fails_the_first_kernel_call(tmp_path):
    # One line and status 2, and nothing written; rendering a stored
    # result needs no kernel.
    (tmp_path / "bin").mkdir()
    out = tmp_path / "out"
    assert growbp_cli(tmp_path, str(tmp_path / "bin"), "train", "heart1",
                      "--output", str(out)) == (
        2, [BUILD_FAILED + "gcc not found on PATH"])
    assert not out.exists() and not (tmp_path / "cache").exists()
    assert growbp_cli(tmp_path, str(tmp_path / "bin"), "render", str(
        TESTS / "golden" / "heart1" / "histories.jsonl")) == (0, [])


def test_failing_compiler_fails_the_first_kernel_call(tmp_path):
    # The compiler's last line of stderr names what went wrong.
    (tmp_path / "bin").mkdir()
    shim = tmp_path / "bin" / "gcc"
    shim.write_text("#!/bin/sh\necho 'gcc: building failed' >&2\n"
                    "echo 'cc1: out of memory' >&2\nexit 1\n")
    shim.chmod(0o755)
    path = os.pathsep.join([str(tmp_path / "bin"), os.environ["PATH"]])
    assert growbp_cli(tmp_path, path, "train", "heart1", "--output",
                      str(tmp_path / "out")) == (
        2, [BUILD_FAILED + "cc1: out of memory"])


def test_build_is_cached_and_atomic(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache))
    # Two interpreters building into the same empty cache at once.
    procs = [subprocess.Popen([sys.executable, "-c", LOADED], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert (out, err, proc.returncode) == ("growbp_epoch\n", "", 0)
    built = os.listdir(cache / "growbp")
    assert len(built) == 1 and built[0].startswith("kernel-")
    # A cache hit starts no compiler, so it needs none on PATH.
    (tmp_path / "bin").mkdir()
    assert run_python(LOADED, XDG_CACHE_HOME=str(cache),
                      PATH=str(tmp_path / "bin")) == "growbp_epoch\n"


def test_build_deletes_other_versions_libraries(tmp_path):
    cache = tmp_path / "cache" / "growbp"
    cache.mkdir(parents=True)
    # Another version's library, a build in progress and a stranger.
    for name in (f"kernel-{'0' * 32}.so", "tmpabc123.so", "notes.txt"):
        (cache / name).write_text("")
    run_python("import growbp.kernel", XDG_CACHE_HOME=str(cache.parent))
    this = os.path.basename(kernel_module._lib._name)
    assert sorted(os.listdir(cache)) == sorted(
        ["notes.txt", "tmpabc123.so", this])


def test_unwritable_cache_builds_privately(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    (tmp_path / "tmp").mkdir()
    out = run_python(LOADED, XDG_CACHE_HOME=str(blocker),
                     TMPDIR=str(tmp_path / "tmp"))
    assert out == "growbp_epoch\n"
    assert os.listdir(tmp_path / "tmp") == []


def test_cache_dir_ignores_a_relative_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    default = str(tmp_path / "home" / ".cache" / "growbp")
    for value in ("relcache", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert kernel_module._cache_dir() == default
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert kernel_module._cache_dir() == default
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert kernel_module._cache_dir() == str(tmp_path / "cache" / "growbp")


def test_every_package_file_is_shipped():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("growbp is installed, not a source checkout")
    package = SRC / "growbp"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"][
        "package-data"]["growbp"]
    shipped = {f for g in globs for f in glob.glob(g, root_dir=package)}
    files = {p.relative_to(package).as_posix() for p in package.rglob("*")
             if p.is_file() and p.suffix not in (".py", ".pyc")
             and "__pycache__" not in p.parts}
    assert files <= shipped


# Lengths on and next to the evaluation pass's 8-row blocks and the edges
# of numpy's pairwise sum (eight accumulators over blocks of 128, halves
# cut at multiples of eight), where a reblocked sum would differ.
block_edges = st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129,
                               255, 256, 257, 1023, 1024, 1025, 8191, 8192,
                               8193, 9000])


@given(st.one_of(block_edges, st.integers(1, 9000)), st.integers(1, 3),
       seeds)
@settings(deadline=None, max_examples=60)
def test_average_error_is_the_left_to_right_mean(rows, n_out, seed):
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, (1, 2, n_out), 30.0, rows)
    net, part = Network(hw, ow), Partition(X, T)
    want = left_to_right_mean(kernel_module.pattern_errors(net, part))
    assert bits(average_error(net, part)) == bits(want)


# Row counts on and next to the 8-row block edges, and longer ones.
mean_rows = block_rows | st.sampled_from([127, 128, 129, 256, 4001])


@given(block_shapes, big_scales, seeds, mean_rows, st.booleans())
@example((40, 8, 12), 30.0, 0, 4001, True)
@settings(deadline=None, max_examples=150)
def test_average_error_is_the_mean_of_pattern_errors(shape, scale, seed,
                                                     rows, infinite):
    # The compiled pass sums the errors as it writes them, or without
    # writing them; a padded row's NaN error must not reach the sum.
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, shape, scale, rows)
    net, part = Network(hw, ow), Partition(X, T)
    if infinite:
        make_infinite(rng, net)
    E = kernel_module.pattern_errors(net, part)
    want = left_to_right_mean(E)
    assert nan_bits(kernel_module.average_error(net, part)) == \
        nan_bits(want)


@given(block_shapes, big_scales, seeds, mean_rows, st.booleans())
@example((40, 8, 12), 30.0, 0, 4001, True)
@settings(deadline=None, max_examples=100)
def test_error_pass_means_the_same_with_or_without_errors(shape, scale, seed,
                                                          rows, infinite):
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, shape, scale, rows)
    net, part = Network(hw, ow), Partition(X, T)
    if infinite:
        make_infinite(rng, net)
    E = array("d", bytes(8 * rows))
    means = []
    for errors in (E.buffer_info()[0], None):
        out = ctypes.c_double()
        assert kernel_module._lib.growbp_evaluate(
            *net.addresses, *part.addresses, None, errors, rows, *shape,
            ctypes.byref(out), None) == 0
        means.append(out.value)
    assert nan_bits(E) == nan_bits(kernel_module.pattern_errors(net, part))
    assert nan_bits(means[0]) == nan_bits(means[1]) == nan_bits(
        left_to_right_mean(E))


EVALUATION_RESULTS = ("outputs", "errors", "mean", "count")


@given(block_shapes, big_scales, seeds, mean_rows, st.booleans())
@example((40, 8, 12), 30.0, 0, 4001, True)
@settings(deadline=None, max_examples=100)
def test_evaluation_pass_gives_each_result_as_it_does_alone(
        shape, scale, seed, rows, infinite):
    # The one dispatch: all four results asked for at once are each the
    # result asked for alone, and each is the oracle's.
    rng = np.random.default_rng(seed)
    hw, ow, X, T = random_arrays(rng, shape, scale, rows)
    net, part = Network(hw, ow), Partition(X, T)
    if infinite:
        make_infinite(rng, net)

    def evaluate(*names):
        Y, E, mean, count = kernel_module._evaluate(
            net, part.X, part.T, part.addresses,
            **dict.fromkeys(names, True))
        return [None if Y is None else nan_bits(Y),
                None if E is None else nan_bits(E),
                None if mean is None else nan_bits(mean), count]

    together = evaluate(*EVALUATION_RESULTS)
    for i, name in enumerate(EVALUATION_RESULTS):
        alone = [None] * 4
        alone[i] = together[i]
        assert evaluate(name) == alone, name
    Y, E, mean, count = oracle_evaluate(net, part)
    assert together == [nan_bits(Y), nan_bits(E), nan_bits(mean), count]


def test_stored_arrays_refuse_resize():
    rng = np.random.default_rng(7)
    net = random_net(rng, (3, 2, 2), 1.0)
    nets = [net, net.copy(), add_hidden_unit(net, 1.0, rng)]
    part = Partition(rng.uniform(0, 1, (6, 3)), np.eye(2)[[0, 1, 1, 0, 1, 0]])
    twins = [net.copy() for net in nets]
    twin_part = Partition(part.X, part.T)
    stored = [(part, "X"), (part, "T")]
    for net in nets:
        stored += [(net, "hidden_weights"), (net, "output_weights")]
    for obj, name in stored:
        buffer = getattr(obj, name).obj
        size = len(buffer)
        with pytest.raises(BufferError, match="cannot resize"):
            buffer.extend([0.0] * 2500)
        assert len(buffer) == size
    for net, twin in zip(nets, twins):
        train_epoch(net, part, 0.7, Generator(3))
        train_epoch(twin, twin_part, 0.7, Generator(3))
        assert bits(net.hidden_weights) == bits(twin.hidden_weights)
        assert bits(net.output_weights) == bits(twin.output_weights)
        assert bits(kernel_module.pattern_errors(net, part)) == bits(
            kernel_module.pattern_errors(twin, twin_part))
        assert bits(forward_outputs(net, part.X)) == bits(
            forward_outputs(twin, part.X))


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_duplicates_address_their_own_arrays(duplicate):
    rng = np.random.default_rng(8)
    net = random_net(rng, (3, 2, 2), 1.0)
    X = rng.uniform(0, 1, (5, 3))
    X[0, 0], X[1, 1] = -0.0, 5e-324
    part = Partition(X, np.eye(2)[[0, 1, 1, 0, 1]])
    empty = Partition(np.empty((0, 3)), np.empty((0, 2)))
    for obj, arrays in ((net, "hidden_weights output_weights"),
                        (part, "X T"), (empty, "X T")):
        twin = duplicate(obj)
        names = arrays.split()
        assert twin.addresses == tuple(
            getattr(twin, name).obj.buffer_info()[0] for name in names)
        # Every bit kept, -0.0 and the subnormal too.
        assert [getattr(twin, name).tobytes() for name in names] == [
            getattr(obj, name).tobytes() for name in names]
    before = bits(net.hidden_weights) + bits(net.output_weights)
    train_epoch(copy.deepcopy(net), part, 0.7)
    assert bits(net.hidden_weights) + bits(net.output_weights) == before
    # A partition with no rows keeps its widths and lists as [].
    empty = duplicate(empty)
    assert (empty.X.shape, empty.T.shape) == ((0, 3), (0, 2))
    assert empty.X.tolist() == empty.T.tolist() == []


def numpy_state(rng):
    """A numpy Generator's state in the form of ``Generator.state``."""
    state = rng.bit_generator.state
    return [state["state"]["state"], state["state"]["inc"],
            state["has_uint32"], state["uinteger"]]


BIG_SEEDS = [2**32, 2**64 - 1, 2**64, 2**64 + 3, 10**30, 2**200 + 12345]


def test_generator_seeds_as_numpy_does():
    for seed in [*range(1001), *BIG_SEEDS]:
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        assert ours.state == numpy_state(theirs), seed
        assert bits(ours.uniform(-1.5, 2.0, 2)) == bits(
            theirs.uniform(-1.5, 2.0, 2)), seed
        assert ours.permutation(5).tolist() == (
            theirs.permutation(5).tolist()), seed
        assert ours.state == numpy_state(theirs), seed


def test_generator_rejects_a_negative_seed():
    with pytest.raises(ValueError) as exc:
        Generator(-1)
    assert str(exc.value) == "seed must be an int >= 0, got -1"


# Doubles in the other byte order, a layout memoryview cannot list.
SWAPPED = ">" if sys.byteorder == "little" else "<"


@pytest.mark.parametrize("rows, message", [
    ([[1.0, 2.0], [3.0]], "rows of a matrix must be equally long"),
    (np.zeros((2, 2), SWAPPED + "f8"),
     f"cannot read numbers of format '{SWAPPED}d'"),
])
def test_matrix_rejects_ragged_rows_and_unlisted_formats(rows, message):
    with pytest.raises(MalformedValueError) as exc:
        kernel_module.matrix(rows)
    assert str(exc.value) == message


def test_matrix_copies_doubles_labelled_with_the_native_layout():
    # ctypes labels its doubles with the byte order, '<d' on a
    # little-endian machine; '@d' names the native layout too.
    M = (ctypes.c_double * 3 * 2)((1.5, -0.0, 2.0), (3.0, 1e-300, -4.25))
    want = [1.5, -0.0, 2.0, 3.0, 1e-300, -4.25]
    assert memoryview(M).format == ("<d" if sys.byteorder == "little"
                                    else ">d")
    for matrix in (M, memoryview(M).cast("B").cast("@d", (2, 3))):
        flat, shape = kernel_module.matrix(matrix)
        assert shape == (2, 3)
        assert bits(flat) == bits(want)
    # Not C-contiguous: copied in row order.
    flat, shape = kernel_module.matrix(np.arange(6.0).reshape(2, 3)[:, ::2])
    assert (flat.tolist(), shape) == ([0.0, 2.0, 3.0, 5.0], (2, 2))


@pytest.mark.parametrize("seed", [0, 1, 999, *BIG_SEEDS])
def test_generator_interleaves_draws_as_numpy_does(seed):
    # A permutation of n <= 2**32 draws 32-bit halves and may leave one
    # buffered for the next; uniform draws whole words around it.
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for n in (0, 1, 2, 152, 4000, 2, 1, 152, 0, 3):
        assert ours.permutation(n).tolist() == (
            theirs.permutation(n).tolist())
        assert bits(ours.uniform(-0.7, 0.7, n % 5)) == bits(
            theirs.uniform(-0.7, 0.7, n % 5))
        assert ours.state == numpy_state(theirs)


def numpy_classes(M):
    """Proben1's rule in numpy: a threshold at 0.5, or argmax."""
    return (M[:, 0] >= 0.5).astype(int) if M.shape[1] == 1 else (
        M.argmax(axis=1))


@given(block_shapes, block_rows, seeds, st.booleans())
@example((40, 8, 12), 4001, 0, True)
@settings(deadline=None, max_examples=150)
def test_classified_count_is_the_argmax_count(shape, rows, seed, infinite):
    # Weights, inputs and targets from a few values repeat output rows, so
    # outputs tie, and a zero net input gives exactly 0.5; infinite
    # weights make NaN outputs, where numpy's argmax takes the first.
    n_in, h, n_out = shape
    rng = np.random.default_rng(seed)
    hw = rng.choice([-1.0, 0.0, 1.0], (h, n_in + 1))
    ow = rng.choice([-1.0, 0.0, 1.0], (n_out, h + 1))
    X = rng.choice([0.0, 0.5, 1.0], (rows, n_in))
    T = rng.choice([0.0, 0.5, 1.0], (rows, n_out))
    net, part = Network(hw, ow), Partition(X, T)
    if infinite:
        make_infinite(rng, net)
    Y = np.asarray(forward_outputs(net, X))
    want = int(np.count_nonzero(numpy_classes(Y) == numpy_classes(T)))
    for M in (Y, T):
        assert [oracle.label(row) for row in M.tolist()] == \
            numpy_classes(M).tolist()
    assert kernel_module.classified(net, part) == want
    assert efficiency(net, part).classified == want
    assert oracle_evaluate(net, part)[3] == want
