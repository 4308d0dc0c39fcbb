"""The order contract of ``growbp.kernel``, checked bitwise.

The scalar reference below is written with plain loops over Python
floats, independently of the generated kernel: each sum starts from its
first product, runs left to right and adds the bias last.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from growbp.dataset import Partition
from growbp.network import Network, add_hidden_unit, forward, forward_outputs
from growbp.trainer import backprop_step, train_epoch


def ref_sigmoid(s):
    try:
        return 1.0 / (1.0 + math.exp(-s))
    except OverflowError:
        return 0.0


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
@settings(max_examples=200, deadline=None)
def test_step_matches_scalar_reference(shape, scale, seed, eta):
    rng = np.random.default_rng(seed)
    net = random_net(rng, shape, scale)
    x = rng.uniform(-1, 1, shape[0])
    d = rng.integers(0, 2, shape[2]).astype(np.float64)
    want_hw, want_ow = ref_step(net.hidden_weights.tolist(),
                                net.output_weights.tolist(),
                                x.tolist(), d.tolist(), eta)
    backprop_step(net, x, d, eta)
    assert bits(net.hidden_weights) == bits(want_hw)
    assert bits(net.output_weights) == bits(want_ow)


@given(shapes, seeds, st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_epoch_equals_loop_of_steps(shape, seed, rows, data):
    rng = np.random.default_rng(seed)
    a = random_net(rng, shape, 2.0)
    b = a.copy()
    part = Partition(rng.uniform(0, 1, (rows, shape[0])),
                     rng.integers(0, 2, (rows, shape[2])).astype(float))
    order = data.draw(st.permutations(range(rows)))
    train_epoch(a, part, 0.7, order)
    for i in order:
        backprop_step(b, part.X[i], part.T[i], 0.7)
    assert bits(a.hidden_weights) == bits(b.hidden_weights)
    assert bits(a.output_weights) == bits(b.output_weights)


@given(shapes, scales, seeds, st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_batch_forward_matches_per_pattern(shape, scale, seed, rows):
    rng = np.random.default_rng(seed)
    net = random_net(rng, shape, scale)
    X = rng.uniform(-1, 1, (rows, shape[0]))
    Y = forward_outputs(net, X)
    for i in range(rows):
        hidden, output = forward(net, X[i])
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
    # The hidden unit's net input is exactly 1.0 * s + 0.0 = s.
    net = Network(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    hidden, _ = forward(net, [s])
    assert bits(hidden) == bits([expit(s)])


def test_long_sums_compile_and_keep_order():
    # Sums longer than the compiler can nest continue on further lines.
    rng = np.random.default_rng(0)
    net = random_net(rng, (3000, 2, 1), 0.05)
    x = rng.uniform(-1, 1, 3000)
    want = ref_forward(net.hidden_weights.tolist(),
                       net.output_weights.tolist(), x.tolist())
    hidden, output = forward(net, x)
    assert bits(hidden) == bits(want[0])
    assert bits(output) == bits(want[1])
    assert bits(forward_outputs(net, x[None, :])[0]) == bits(want[1])
