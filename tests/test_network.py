import dataclasses
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growbp import kernel
from growbp.dataset import Partition
from growbp.errors import (
    ArityMismatchError,
    GrowbpError,
    InvalidRangeError,
    MalformedValueError,
)
from growbp.network import (
    Network,
    add_hidden_unit,
    forward_outputs,
    format_network,
    init_network,
    load_network,
    parse_network,
    save_network,
)
from growbp.trainer import train_epoch


def forward(net, x):
    """The Python kernel's hidden and output activations of one pattern."""
    hidden, output = kernel.forward(net.hidden_weights.tolist(),
                                    net.output_weights.tolist(),
                                    np.asarray(x, dtype=np.float64).tolist())
    return np.array(hidden), np.array(output)


def reference_forward(net, x):
    """Matrix-free scalar-loop evaluator, written independently of forward()."""
    hidden = []
    for j in range(net.h):
        s = net.hidden_weights[j][net.n_inputs]
        for i in range(net.n_inputs):
            s += net.hidden_weights[j][i] * x[i]
        hidden.append(1.0 / (1.0 + math.exp(-s)))
    outputs = []
    for k in range(net.n_outputs):
        s = net.output_weights[k][net.h]
        for j in range(net.h):
            s += net.output_weights[k][j] * hidden[j]
        outputs.append(1.0 / (1.0 + math.exp(-s)))
    return hidden, outputs


def random_network(rng, n_inputs, h, n_outputs, scale=1.0):
    return Network(
        rng.uniform(-scale, scale, size=(h, n_inputs + 1)),
        rng.uniform(-scale, scale, size=(n_outputs, h + 1)),
    )


def sigmoid(x):
    """The hidden activations of a net whose unit j computes sigmoid(x[j]).

    Each hidden unit has weight 1 on its own input, 0 elsewhere and bias
    0, so its net input is exactly x[j].
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = len(x)
    net = Network(np.hstack([np.eye(n), np.zeros((n, 1))]),
                  np.zeros((1, n + 1)))
    return forward(net, x)[0]


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0)[0] == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_derivative_form_at_zero(self):
        y = sigmoid(0.0)[0]
        assert y * (1 - y) == 0.25

    def test_derivative_matches_finite_differences(self):
        x = np.linspace(-8, 8, 200)
        y = sigmoid(x)
        h = 1e-6
        numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2 * h)
        np.testing.assert_allclose(y * (1 - y), numeric, atol=1e-9)

    def test_saturation_without_error(self):
        assert np.array_equal(sigmoid([1000.0, -1000.0]), [1.0, 0.0])


class TestInitNetwork:
    def test_cancer_sized_shapes(self):
        net = init_network(9, 2, 1.0, np.random.default_rng(42))
        assert net.h == 1
        assert net.hidden_weights.shape == (1, 10)
        assert net.output_weights.shape == (2, 2)

    def test_same_seed_same_weights(self):
        a = init_network(5, 3, 0.5, np.random.default_rng(11))
        b = init_network(5, 3, 0.5, np.random.default_rng(11))
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_different_seeds_differ(self):
        a = init_network(5, 3, 0.5, np.random.default_rng(11))
        b = init_network(5, 3, 0.5, np.random.default_rng(12))
        assert not (
            np.array_equal(a.hidden_weights, b.hidden_weights)
            and np.array_equal(a.output_weights, b.output_weights)
        )

    def test_invalid_range(self):
        for bad in (0.0, -1.0, math.nan, 1e308, math.inf):
            with pytest.raises(InvalidRangeError):
                init_network(3, 1, bad, np.random.default_rng(0))

    def test_widest_drawable_range(self):
        # numpy draws only where high - low = 2 * init_range is finite.
        widest = sys.float_info.max / 2
        net = init_network(3, 1, widest, np.random.default_rng(0))
        assert np.abs(net.hidden_weights).max() <= widest
        with pytest.raises(InvalidRangeError):
            init_network(3, 1, math.nextafter(widest, math.inf),
                         np.random.default_rng(0))

    def test_weights_within_range(self):
        net = init_network(20, 4, 0.3, np.random.default_rng(5))
        assert np.abs(net.hidden_weights).max() <= 0.3
        assert np.abs(net.output_weights).max() <= 0.3


class TestForward:
    def test_zero_weights_give_half(self):
        net = Network(np.zeros((3, 5)), np.zeros((2, 4)))
        hidden, output = forward(net, [0.1, 0.9, 0.4, 0.2])
        assert np.array_equal(output, [0.5, 0.5])
        assert np.array_equal(hidden, [0.5, 0.5, 0.5])

    def test_hand_set_single_unit(self):
        net = Network(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        hidden, output = forward(net, [1.0])
        assert np.isclose(hidden[0], 0.7310585786300049)
        assert np.isclose(output[0], sigmoid(hidden[0])[0])

    def test_arity_mismatch(self, each_backend):
        net = init_network(4, 1, 1.0, np.random.default_rng(0))
        for _ in each_backend:
            for X in ([[0.1, 0.2, 0.3]], [0.1, 0.2, 0.3, 0.4],
                      np.ones((2, 5))):
                with pytest.raises(ArityMismatchError):
                    forward_outputs(net, X)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n_in = int(rng.integers(1, 8))
            h = int(rng.integers(1, 6))
            n_out = int(rng.integers(1, 4))
            net = random_network(rng, n_in, h, n_out, scale=2.0)
            x = rng.uniform(-1, 1, size=n_in)
            hidden, output = forward(net, x)
            ref_hidden, ref_out = reference_forward(net, x)
            np.testing.assert_allclose(hidden, ref_hidden, atol=1e-12)
            np.testing.assert_allclose(output, ref_out, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 6, 4, 3)
        X = rng.uniform(0, 1, size=(25, 6))
        Y = forward_outputs(net, X)
        for i in range(25):
            np.testing.assert_allclose(
                Y[i], forward(net, X[i])[1], atol=1e-12
            )

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            net = random_network(rng, 5, 3, 2, scale=3.0)
            hidden, output = forward(net, rng.uniform(0, 1, size=5))
            assert np.all(output > 0) and np.all(output < 1)
            assert np.all(hidden > 0) and np.all(hidden < 1)


class TestAddHiddenUnit:
    def test_preserves_existing_weights_exactly(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 7, 3, 2)
        hw_before = net.hidden_weights.copy()
        ow_before = net.output_weights.copy()
        grown = add_hidden_unit(net, 1.0, rng)
        assert grown.h == 4
        assert np.array_equal(grown.hidden_weights[:3], hw_before)
        assert np.array_equal(grown.output_weights[:, :3], ow_before[:, :3])
        assert np.array_equal(grown.output_weights[:, -1], ow_before[:, -1])
        # original untouched
        assert np.array_equal(net.hidden_weights, hw_before)
        assert np.array_equal(net.output_weights, ow_before)

    def test_zeroed_new_output_leaves_function_unchanged(self):
        rng = np.random.default_rng(15)
        for h in range(1, 11):
            net = random_network(rng, 4, h, 2)
            grown = add_hidden_unit(net, 1.0, rng, zero_output=True)
            for _ in range(10):
                x = rng.uniform(-1, 1, size=4)
                before = forward(net, x)[1]
                after = forward(grown, x)[1]
                assert np.array_equal(before, after)

    def test_three_grows_dimension_bookkeeping(self):
        rng = np.random.default_rng(2)
        net = init_network(6, 2, 1.0, rng)
        for _ in range(3):
            net = add_hidden_unit(net, 1.0, rng)
        assert net.h == 4
        assert net.hidden_weights.shape == (4, 7)
        assert net.output_weights.shape == (2, 5)

    def test_growth_draws_are_deterministic(self):
        a = add_hidden_unit(
            init_network(3, 2, 1.0, np.random.default_rng(8)),
            1.0, np.random.default_rng(21),
        )
        b = add_hidden_unit(
            init_network(3, 2, 1.0, np.random.default_rng(8)),
            1.0, np.random.default_rng(21),
        )
        assert np.array_equal(a.hidden_weights, b.hidden_weights)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_invalid_range(self):
        net = init_network(3, 1, 1.0, np.random.default_rng(0))
        for bad in (0.0, 1e308):
            with pytest.raises(InvalidRangeError):
                add_hidden_unit(net, bad, np.random.default_rng(0))


class TestNetworkValidation:
    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(MalformedValueError):
            Network(np.zeros((2, 4)), np.zeros((1, 2)))

    def test_non_finite_rejected(self):
        hw = np.zeros((1, 3))
        hw[0, 0] = np.nan
        with pytest.raises(MalformedValueError):
            Network(hw, np.zeros((1, 2)))

    def test_no_output_units_rejected(self):
        with pytest.raises(MalformedValueError):
            Network(np.zeros((1, 3)), np.zeros((0, 2)))

    def test_stores_c_contiguous_float64_and_is_frozen(self):
        rng = np.random.default_rng(5)
        hw = np.asfortranarray(rng.uniform(-1, 1, (2, 4)))
        ow = np.asfortranarray(rng.uniform(-1, 1, (2, 3)))
        read_only = np.array(hw, order="C")
        read_only.flags.writeable = False
        net = Network(hw, ow)
        c_net = Network(np.ascontiguousarray(hw), np.ascontiguousarray(ow))
        for a in (net.hidden_weights, net.output_weights,
                  Network(read_only, ow).hidden_weights):
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert a.flags.writeable
        assert np.array_equal(net.hidden_weights, hw)
        assert np.array_equal(net.output_weights, ow)
        part = Partition(rng.uniform(0, 1, (4, 3)), np.eye(2)[[0, 1, 1, 0]])
        train_epoch(net, part, 0.7)
        train_epoch(c_net, part, 0.7)
        assert net.hidden_weights.tobytes() == c_net.hidden_weights.tobytes()
        assert net.output_weights.tobytes() == c_net.output_weights.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.hidden_weights = c_net.hidden_weights


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        net = random_network(rng, 5, 3, 2)
        again = parse_network(format_network(net))
        assert np.array_equal(net.hidden_weights, again.hidden_weights)
        assert np.array_equal(net.output_weights, again.output_weights)
        p = tmp_path / "net.txt"
        save_network(net, p)
        reloaded = load_network(p)
        assert np.array_equal(net.hidden_weights, reloaded.hidden_weights)
        assert np.array_equal(net.output_weights, reloaded.output_weights)

    def test_bad_file_rejected(self):
        with pytest.raises(MalformedValueError):
            parse_network("n_inputs 2\nnothing else\n")

    @pytest.mark.parametrize("data", [
        "n_inputs 1\nh 1\nn_outputs 1\nhidden_weights\n1 \u00e9\n"
        "output_weights\n1 2\n".encode("utf-8"),
        b"n_inputs 2\nh 2\nn_outputs 1\nhidden_weights\n1 2 3\n1 2\n"
        b"output_weights\n1 2 3\n",
    ], ids=["non-ascii", "ragged-hidden-rows"])
    def test_load_names_the_file(self, tmp_path, data):
        p = tmp_path / "net.txt"
        p.write_bytes(data)
        with pytest.raises(MalformedValueError) as exc:
            load_network(p)
        assert str(exc.value).startswith(f"{p}: ")

    @given(st.binary(max_size=300) | st.builds(
        lambda net, junk: format_network(net).encode("ascii") + junk,
        st.builds(lambda n_in, h, n_out, seed: random_network(
            np.random.default_rng(seed), n_in, h, n_out),
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
            st.integers(0, 1000)),
        st.binary(max_size=20)))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_give_network_or_growbp_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "net.txt"
            p.write_bytes(data)
            try:
                net = load_network(p)
            except GrowbpError as exc:
                assert str(exc).startswith(f"{p}: ")
            else:
                assert isinstance(net, Network)
