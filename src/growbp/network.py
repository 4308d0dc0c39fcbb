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

from .dataset import (_count, _matrix_by_row, naming, numbered_lines,
                      read_text, write_text)
from .errors import InvalidRangeError, MalformedValueError
from .kernel import forward_outputs, matrix, view

NETWORK_KEYS = ("n_inputs", "h", "n_outputs")


@dataclass(frozen=True, eq=False)
class Network:
    """Weights of a 1-hidden-layer feedforward net, biases included.

    Each matrix is stored as a row-major ``array('d')`` copy of what was
    given and shown as a writeable 2-D ``memoryview`` of it
    (``growbp.kernel.view``): training updates it in place.
    ``addresses`` holds the buffers' addresses, read once here for the
    compiled kernel; while the views exist the buffers cannot be resized
    (``BufferError``), which would move them away from those addresses.
    """

    hidden_weights: memoryview
    output_weights: memoryview

    def __post_init__(self):
        hw, hw_shape = matrix(self.hidden_weights)
        ow, ow_shape = matrix(self.output_weights)
        if hw_shape[0] < 1:
            raise MalformedValueError("need at least one hidden unit")
        if ow_shape[0] < 1:
            raise MalformedValueError("need at least one output unit")
        if hw_shape[1] < 2 or ow_shape[1] != hw_shape[0] + 1:
            raise MalformedValueError(
                f"inconsistent shapes: hidden {hw_shape}, output {ow_shape}"
            )
        if not all(map(math.isfinite, hw + ow)):
            raise MalformedValueError("weights must be finite")
        object.__setattr__(self, "hidden_weights", view(hw, hw_shape))
        object.__setattr__(self, "output_weights", view(ow, ow_shape))
        object.__setattr__(self, "addresses",
                           (hw.buffer_info()[0], ow.buffer_info()[0]))

    def __reduce__(self):
        # Through the constructor, so a deep copy or an unpickled network
        # reads the addresses of its own buffers.
        return Network, (self.hidden_weights.tolist(),
                         self.output_weights.tolist())

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
        return Network(self.hidden_weights, self.output_weights)


def check_init_range(init_range):
    """Reject a range that is not positive, or one whose width
    ``2 * init_range`` is not finite, since a draw scales by that width."""
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
    hw = rng.uniform(-init_range, init_range, n_inputs + 1)
    ow = rng.uniform(-init_range, init_range, 2 * n_outputs)
    return Network([hw], [ow[k:k + 2] for k in range(0, 2 * n_outputs, 2)])


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
    new_row = rng.uniform(-init_range, init_range, net.n_inputs + 1)
    if zero_output:
        new_col = [0.0] * net.n_outputs
    else:
        new_col = rng.uniform(-init_range, init_range, net.n_outputs)
    h = net.h
    return Network(
        net.hidden_weights.tolist() + [new_row],
        [row[:h] + [w] + row[h:]
         for row, w in zip(net.output_weights.tolist(), new_col)],
    )


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
    """Parse the output of :func:`format_network`.

    Three ``key N`` lines give n_inputs, h and n_outputs, each at least 1,
    each weight block follows its name at the widths they give, and then
    nothing.  A DatasetError names the line of a fault, and a missing line
    as the one after the last.
    """
    rows = numbered_lines(text)
    rows.append(((rows[-1][0] if rows else 0) + 1, ""))
    sizes = []
    for (line_no, line), key in zip(rows, NETWORK_KEYS):
        with naming(f"line {line_no}"):
            sizes.append(_count(key, line.removeprefix(key + " "), 1))
    n_inputs, h, n_outputs = sizes
    weights, at = [], len(sizes)
    for key, n, width in (("hidden_weights", h, n_inputs + 1),
                          ("output_weights", n_outputs, h + 1)):
        if rows[at][1] != key:
            raise MalformedValueError(f"line {rows[at][0]}: expected {key!r}")
        # A short block takes in the end-of-file row, which holds no value.
        flat, _ = _matrix_by_row(rows[at + 1:at + 1 + n], None, width,
                                 width)
        weights.append(view(flat, (n, width)))
        at += 1 + n
    if at < len(rows) - 1:
        raise MalformedValueError(f"line {rows[at][0]}: expected end of file")
    return Network(*weights)


def save_network(net, path):
    write_text(path, format_network(net))


def load_network(path):
    """Read a network file; a :class:`GrowbpError` names the file."""
    with naming(path):
        return parse_network(read_text(path))
