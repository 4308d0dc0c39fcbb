"""``kernel.c`` transcribed into Python, function by function: the
reference the tests compare growbp's compiled kernel with, bitwise.

The names are those of the C functions, less the ``growbp_`` prefix:
:func:`exp` is ``growbp_exp``, reading ``exp_table`` from ``kernel.c``
itself, and :func:`logistic`, :func:`layer`, :func:`update` and
:func:`label` are their C namesakes.  :func:`step` is the body of
``growbp_epoch``'s loop, :func:`forward` one pattern's two :func:`layer`
calls, and :func:`evaluate` gives what ``growbp_evaluate`` gives, one row
at a time.  Each loops over lists of weight rows in the C code's order,
so each rounds as it does.  numpy's ``default_rng(seed).permutation`` is
the reference for ``growbp_permutation``.
"""

import math
import sys
from array import array

from growbp.kernel import _SOURCE

# kernel.c's exp_table: the bits of the tail of 2**(j/128), then those of
# its head H less j << 45, for j = 0..127 (scripts/exp_table.py).
_EXP_TABLE = array("Q", bytes.fromhex(
    _SOURCE.read_bytes().partition(b"exp_table[2 * 128] = {")[2]
    .partition(b"};")[0].replace(b"0x", b"").replace(b",", b"").decode()))
if sys.byteorder == "little":
    _EXP_TABLE.byteswap()
_EXP_TAIL = array("d", _EXP_TABLE[0::2].tobytes()).tolist()
_EXP_HEAD = array("d", array("Q", [bits + (j << 45) for j, bits in enumerate(
    _EXP_TABLE[1::2])]).tobytes()).tolist()
# 128/ln2, 1.5 * 2**52, ln2/128 split in two, and glibc's C2..C5.
_INV_LN2_N, _SHIFT = float.fromhex("0x1.71547652b82fep7"), 1.5 * 2.0**52
_NEG_LN2_HI_N = float.fromhex("-0x1.62e42fefa0000p-8")
_NEG_LN2_LO_N = float.fromhex("-0x1.cf79abc9e3b3ap-47")
_C2, _C3, _C4, _C5 = map(float.fromhex, (
    "0x1.ffffffffffdbdp-2", "0x1.555555555543cp-3", "0x1.55555cf172b91p-5",
    "0x1.1111167a4d017p-7"))


def exp(x):
    """``kernel.c``'s ``growbp_exp``: glibc's generic ``exp`` in plain IEEE
    operations, so the same bits on every host; they equal those of the
    ``exp`` glibc >= 2.28 runs where it uses no FMA."""
    a = abs(x)
    if not a < 1024.0:
        return 0.0 if x < 0.0 else math.inf if x > 0.0 else 1.0 + x
    kd = (_INV_LN2_N * x + _SHIFT) - _SHIFT
    k = int(kd)
    r = x + kd * _NEG_LN2_HI_N + kd * _NEG_LN2_LO_N
    r2 = r * r
    tmp = (_EXP_TAIL[k & 127] + r + r2 * (_C2 + r * _C3)
           + r2 * r2 * (_C4 + r * _C5))
    if a < 512.0:
        scale = math.ldexp(_EXP_HEAD[k & 127], k >> 7)
        return scale + scale * tmp
    # exp_special: scale's exponent may leave the double range.
    if k > 0:
        scale = math.ldexp(_EXP_HEAD[k & 127], (k >> 7) - 1009)
        return 2.0**1009 * (scale + scale * tmp)
    scale = math.ldexp(_EXP_HEAD[k & 127], (k >> 7) + 1022)
    y = scale + scale * tmp
    if y < 1.0:
        lo = scale - y + scale * tmp
        hi = 1.0 + y
        lo = 1.0 - hi + y + lo
        y = (hi + lo) - 1.0
    return 2.0**-1022 * y


def logistic(s):
    """``1 / (1 + exp(-s))`` with :func:`exp`."""
    return 1.0 / (1.0 + exp(-s))


def layer(w, a):
    """Activations of the units whose weight rows are ``w`` on inputs ``a``.

    Each row has ``len(a) + 1`` weights, bias last.
    """
    n = len(a)
    out = []
    for row in w:
        s = row[0] * a[0]
        for i in range(1, n):
            s = s + row[i] * a[i]
        out.append(logistic(s + row[n]))
    return out


def update(w, a, delta, eta):
    """Add ``eta * delta[j] * a[i]`` to every weight of row ``j``, and
    ``eta * delta[j]`` to its bias."""
    n = len(a)
    for row, dj in zip(w, delta):
        for i in range(n):
            row[i] = row[i] + eta * (dj * a[i])
        row[n] = row[n] + eta * dj


def forward(hw, ow, x):
    """The hidden and output activations of one pattern, as lists."""
    hidden = layer(hw, x)
    return hidden, layer(ow, hidden)


def step(hw, ow, x, d, eta):
    """One online backprop step on pattern ``x`` with targets ``d``.

    Updates the rows of ``hw`` and ``ow`` in place by -eta times the
    gradient of the pattern's half squared error.
    """
    hidden, y = forward(hw, ow, x)
    e = [(dk - yk) * yk * (1.0 - yk) for dk, yk in zip(d, y)]
    # The hidden deltas use the output weights before this step.
    g = []
    for j, hj in enumerate(hidden):
        s = ow[0][j] * e[0]
        for k in range(1, len(e)):
            s = s + ow[k][j] * e[k]
        g.append(s * hj * (1.0 - hj))
    update(ow, hidden, e, eta)
    update(hw, x, g, eta)


def label(v):
    """The class of an output or target vector: with one value, 1 where it
    is >= 0.5; with more, the index of the largest, the lowest on ties,
    and the first NaN where there is one, as numpy's ``argmax`` picks."""
    if len(v) == 1:
        return int(v[0] >= 0.5)
    arg, best = 0, v[0]
    for k in range(1, len(v)):
        if best != best:
            break
        if not v[k] <= best:
            arg, best = k, v[k]
    return arg


def evaluate(hw, ow, X, T):
    """``growbp_evaluate`` over the rows ``X`` and ``T``, one row at a time:
    each row's outputs and error, as lists, the errors' mean, summed left
    to right from 0.0 and divided by the count of rows, and how many rows
    the net puts in their target's class."""
    Y, E, total, count = [], [], 0.0, 0
    for x, d in zip(X, T):
        y = forward(hw, ow, x)[1]
        e = d[0] - y[0]
        s = e * e
        for k in range(1, len(y)):
            e = d[k] - y[k]
            s = s + e * e
        s = 0.5 * s
        Y.append(y)
        E.append(s)
        total = total + s
        count += label(y) == label(d)
    return Y, E, total / len(X), count
