"""Single-hidden-layer feedforward networks and one-unit growth.

Weights live in two matrices.  ``hidden_weights`` has one row per hidden
unit and ``n_inputs + 1`` columns, the last column being the bias against a
constant-1 input.  ``output_weights`` has one row per output unit and
``h + 1`` columns, again with the bias last.  All units use the logistic
function 1 / (1 + exp(-x)).  Growth appends one hidden unit while leaving
every existing weight untouched.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ArityMismatchError, InvalidRangeError, MalformedValueError


@dataclass(eq=False)
class Network:
    """Weights of a 1-hidden-layer feedforward net, biases included."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray

    def __post_init__(self):
        hw = np.asarray(self.hidden_weights, dtype=np.float64)
        ow = np.asarray(self.output_weights, dtype=np.float64)
        if hw.ndim != 2 or ow.ndim != 2:
            raise MalformedValueError("weight matrices must be 2-D")
        if hw.shape[0] < 1:
            raise MalformedValueError("need at least one hidden unit")
        if hw.shape[1] < 2 or ow.shape[1] != hw.shape[0] + 1:
            raise MalformedValueError(
                f"inconsistent shapes: hidden {hw.shape}, output {ow.shape}"
            )
        if not (np.isfinite(hw).all() and np.isfinite(ow).all()):
            raise MalformedValueError("weights must be finite")
        self.hidden_weights = hw
        self.output_weights = ow

    @property
    def n_inputs(self):
        return self.hidden_weights.shape[1] - 1

    @property
    def h(self):
        return self.hidden_weights.shape[0]

    @property
    def n_outputs(self):
        return self.output_weights.shape[0]

    def copy(self):
        return Network(self.hidden_weights.copy(), self.output_weights.copy())


def init_network(n_inputs, n_outputs, init_range, rng):
    """Create an h=1 network with uniform random weights.

    Every weight is drawn independently from [-init_range, +init_range].
    Draw order is fixed: hidden matrix row-major first, then output matrix
    row-major, so equal seeds give equal networks.
    """
    if n_inputs < 1 or n_outputs < 1:
        raise MalformedValueError("n_inputs and n_outputs must be >= 1")
    if init_range <= 0:
        raise InvalidRangeError(
            f"init_range must be > 0, got {init_range}"
        )
    hw = rng.uniform(-init_range, init_range, size=(1, n_inputs + 1))
    ow = rng.uniform(-init_range, init_range, size=(n_outputs, 2))
    return Network(hw, ow)


def forward(net, inputs):
    """Evaluate the network on one input vector.

    Returns ``(hidden, output)``, the logistic activations of both layers.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape != (net.n_inputs,):
        raise ArityMismatchError(
            f"expected {net.n_inputs} inputs, got {x.shape}"
        )
    # Left-to-right accumulation, not matmul: BLAS reblocks the reduction
    # when h changes, which breaks bit-equality of grown nets whose new
    # output weight is exactly zero.
    xb = np.append(x, 1.0)
    hidden = expit(np.cumsum(net.hidden_weights * xb, axis=1)[:, -1])
    hb = np.append(hidden, 1.0)
    return hidden, expit(np.cumsum(net.output_weights * hb, axis=1)[:, -1])


def forward_outputs(net, X):
    """Evaluate the network on a matrix of inputs, one row per pattern."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_inputs:
        raise ArityMismatchError(
            f"expected (n, {net.n_inputs}) inputs, got {X.shape}"
        )
    hw = net.hidden_weights
    ow = net.output_weights
    hidden = expit(X @ hw[:, :-1].T + hw[:, -1])
    return expit(hidden @ ow[:, :-1].T + ow[:, -1])


def add_hidden_unit(net, init_range, rng, zero_output=False):
    """Return a copy of the network grown by one hidden unit.

    A fresh row is appended to the hidden matrix and a fresh column is
    inserted before the output-layer bias; all pre-existing weights are
    preserved bit-for-bit.  New weights are uniform in
    [-init_range, +init_range], drawn row first, then column.  With
    ``zero_output`` the new unit's outgoing weights are zeroed instead
    (no draw), which leaves the network function unchanged.
    """
    if init_range <= 0:
        raise InvalidRangeError(
            f"init_range must be > 0, got {init_range}"
        )
    new_row = rng.uniform(-init_range, init_range, size=net.n_inputs + 1)
    if zero_output:
        new_col = np.zeros(net.n_outputs)
    else:
        new_col = rng.uniform(-init_range, init_range, size=net.n_outputs)
    hw = np.vstack([net.hidden_weights, new_row[None, :]])
    ow = np.insert(net.output_weights, net.h, new_col, axis=1)
    return Network(hw, ow)


def format_network(net):
    """Serialize a network to plain text with repr (round-trip) precision."""
    lines = [
        f"n_inputs {net.n_inputs}",
        f"h {net.h}",
        f"n_outputs {net.n_outputs}",
        "hidden_weights",
    ]
    for row in net.hidden_weights:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("output_weights")
    for row in net.output_weights:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_network(text):
    """Parse the output of :func:`format_network`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    try:
        n_inputs = int(lines[0].split()[1])
        h = int(lines[1].split()[1])
        n_outputs = int(lines[2].split()[1])
        if lines[3] != "hidden_weights":
            raise ValueError(lines[3])
        hw = [
            [float(v) for v in lines[4 + j].split()]
            for j in range(h)
        ]
        if lines[4 + h] != "output_weights":
            raise ValueError(lines[4 + h])
        ow = [
            [float(v) for v in lines[5 + h + k].split()]
            for k in range(n_outputs)
        ]
    except (IndexError, ValueError) as exc:
        raise MalformedValueError(f"bad network file: {exc}") from None
    net = Network(np.array(hw), np.array(ow))
    if net.n_inputs != n_inputs or net.n_outputs != n_outputs:
        raise MalformedValueError("network dimensions disagree with matrices")
    return net


def save_network(net, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_network(net))


def load_network(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_network(fh.read())
