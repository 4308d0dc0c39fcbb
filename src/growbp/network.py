"""Single-hidden-layer feedforward networks and one-unit growth.

Weights live in two matrices.  ``hidden_weights`` has one row per hidden
unit and ``n_inputs + 1`` columns, the last column being the bias against a
constant-1 input.  ``output_weights`` has one row per output unit and
``h + 1`` columns, again with the bias last.  All units use the logistic
function 1 / (1 + exp(-x)), evaluated in the order ``growbp.kernel``
states.  Growth appends one hidden unit while leaving every existing
weight untouched.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import naming, read_ascii
from .errors import InvalidRangeError, MalformedValueError
from .kernel import forward_outputs


@dataclass(frozen=True, eq=False)
class Network:
    """Weights of a 1-hidden-layer feedforward net, biases included.

    Stored as C-contiguous, writeable float64 arrays: training updates
    them in place.  ``addresses`` holds their data addresses, read once
    here for the compiled kernel.  The network keeps a second reference
    to each array, so numpy refuses to ``resize`` one, which would move
    its memory away from those addresses.
    """

    hidden_weights: np.ndarray
    output_weights: np.ndarray

    def __post_init__(self):
        hw = np.require(self.hidden_weights, np.float64, "CWE")
        ow = np.require(self.output_weights, np.float64, "CWE")
        if hw.ndim != 2 or ow.ndim != 2:
            raise MalformedValueError("weight matrices must be 2-D")
        if hw.shape[0] < 1:
            raise MalformedValueError("need at least one hidden unit")
        if ow.shape[0] < 1:
            raise MalformedValueError("need at least one output unit")
        if hw.shape[1] < 2 or ow.shape[1] != hw.shape[0] + 1:
            raise MalformedValueError(
                f"inconsistent shapes: hidden {hw.shape}, output {ow.shape}"
            )
        if not (np.isfinite(hw).all() and np.isfinite(ow).all()):
            raise MalformedValueError("weights must be finite")
        object.__setattr__(self, "hidden_weights", hw)
        object.__setattr__(self, "output_weights", ow)
        object.__setattr__(self, "addresses", (hw.ctypes.data, ow.ctypes.data))
        object.__setattr__(self, "_pinned", (hw, ow))

    def __reduce__(self):
        # Through the constructor, so a deep copy or an unpickled network
        # reads the addresses of its own arrays.
        return Network, (self.hidden_weights, self.output_weights)

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


def check_init_range(init_range):
    """Reject a range that is not positive, or one whose width
    ``2 * init_range`` is not finite, which numpy cannot draw from."""
    if not (init_range > 0 and math.isfinite(2.0 * init_range)):
        raise InvalidRangeError(
            f"init_range must be > 0 and 2 * init_range finite, "
            f"got {init_range}"
        )


def init_network(n_inputs, n_outputs, init_range, rng):
    """Create an h=1 network with uniform random weights.

    Every weight is drawn independently from [-init_range, +init_range].
    Draw order is fixed: hidden matrix row-major first, then output matrix
    row-major, so equal seeds give equal networks.
    """
    if n_inputs < 1 or n_outputs < 1:
        raise MalformedValueError("n_inputs and n_outputs must be >= 1")
    check_init_range(init_range)
    hw = rng.uniform(-init_range, init_range, size=(1, n_inputs + 1))
    ow = rng.uniform(-init_range, init_range, size=(n_outputs, 2))
    return Network(hw, ow)


def add_hidden_unit(net, init_range, rng, zero_output=False):
    """Return a copy of the network grown by one hidden unit.

    A fresh row is appended to the hidden matrix and a fresh column is
    inserted before the output-layer bias; all pre-existing weights are
    preserved bit-for-bit.  New weights are uniform in
    [-init_range, +init_range], drawn row first, then column.  With
    ``zero_output`` the new unit's outgoing weights are zeroed instead
    (no draw), which leaves the network function unchanged.
    """
    check_init_range(init_range)
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
    lines = [f"n_inputs {net.n_inputs}", f"h {net.h}",
             f"n_outputs {net.n_outputs}"]
    for name in ("hidden_weights", "output_weights"):
        lines.append(name)
        lines += [" ".join(map(repr, row))
                  for row in getattr(net, name).tolist()]
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
        net = Network(np.array(hw), np.array(ow))
    except (IndexError, ValueError) as exc:
        raise MalformedValueError(f"bad network file: {exc}") from None
    if net.n_inputs != n_inputs or net.n_outputs != n_outputs:
        raise MalformedValueError("network dimensions disagree with matrices")
    return net


def save_network(net, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_network(net))


def load_network(path):
    """Read a network file; a :class:`GrowbpError` names the file."""
    with naming(path):
        return parse_network(read_ascii(path))
