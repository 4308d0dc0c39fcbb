"""The arithmetic of the network: the per-pattern forward pass, the online
backprop step and the batch forward pass.

Every function here follows one order contract, so training, per-pattern
evaluation and batch evaluation round identically on any machine and any
BLAS build:

- a unit's net input is summed left to right over its weight row, inputs
  first and the bias (against a constant 1.0 input) last;
- the hidden delta sums over the output units left to right,
  ``back_j = ow[0][j]*e0 + ow[1][j]*e1 + ...``;
- every product and sum is rounded on its own: nothing is fused into a
  multiply-add and no reduction is reblocked;
- the logistic is ``1 / (1 + exp(-s))``, and 0.0 where ``exp`` overflows,
  which equals ``scipy.special.expit`` bitwise, including at +-inf and NaN.

The online step touches arrays of under a hundred elements, where numpy's
per-call overhead costs more than the arithmetic, so the per-pattern
functions work on Python floats.  :func:`kernel_source` writes them out
for one network shape with every sum spelled out term by term (a Python
loop per weight costs more than twice as much), and :func:`kernel`
compiles them once per shape; ``print(kernel_source(2, 2, 1))`` shows
the code for two inputs, two hidden units and one output.

The batch function evaluates many patterns at once with numpy,
accumulating one input at a time in the same order.
"""

import math
from functools import lru_cache

from scipy.special import expit

# Terms per source line of a sum.  A longer sum continues on the next line
# from the partial result: the order stays the same, and the expression
# the compiler has to nest stays shallow (it gives up near 3000 terms).
_TERMS_PER_LINE = 100


def _sum(terms):
    """Source lines that set ``s`` to the sum of ``terms``, left to right."""
    lines = []
    for i in range(0, len(terms), _TERMS_PER_LINE):
        head = "s = " if i == 0 else "s = s + "
        lines.append(head + " + ".join(terms[i:i + _TERMS_PER_LINE]))
    return lines


def _unpack(names, value):
    return f"{', '.join(names)}, = {value}"


def _layer(weights, inputs, out):
    """Source lines that set the list ``out`` to the units' activations."""
    terms = [f"w[{i}] * {a}" for i, a in enumerate(inputs)]
    terms.append(f"w[{len(inputs)}]")
    return ([f"{out} = []", f"for w in {weights}:"]
            + ["    " + ln for ln in _sum(terms)]
            + ["    try:",
               f"        {out}.append(1.0 / (1.0 + exp(-s)))",
               "    except OverflowError:",
               f"        {out}.append(0.0)"])


def _update(weights, inputs, deltas):
    """Source lines that add ``eta * delta * input`` to every weight."""
    new = [f"w[{i}] + eta * (dj * {a})" for i, a in enumerate(inputs)]
    new.append(f"w[{len(inputs)}] + eta * dj")
    return [f"for j, dj in enumerate({deltas}):",
            f"    w = {weights}[j]",
            f"    {weights}[j] = [{', '.join(new)}]"]


def kernel_source(n_inputs, h, n_outputs):
    """Python source of ``forward`` and ``step`` for one network shape.

    ``forward(hw, ow, x)`` returns the hidden and output activations as
    lists.  ``step(hw, ow, x, d, eta)`` applies one online backprop step
    and replaces the rows of ``hw`` and ``ow`` with the updated ones.  The
    weights are lists of rows, bias last; ``x`` and ``d`` are one pattern's
    inputs and targets.  The hidden deltas use the pre-update output
    weights, so the step is -eta times the gradient of the pattern's half
    squared error.
    """
    xs = [f"x{i}" for i in range(n_inputs)]
    hs = [f"h{j}" for j in range(h)]
    es = [f"e{k}" for k in range(n_outputs)]
    rows = [f"r{k}" for k in range(n_outputs)]
    body = ([_unpack(xs, "x")] + _layer("hw", xs, "hidden")
            + [_unpack(hs, "hidden")] + _layer("ow", hs, "y"))
    fwd = body + ["return hidden, y"]
    stp = body + [
        "e = [(dk - yk) * yk * (1.0 - yk) for dk, yk in zip(d, y)]",
        _unpack(es, "e"),
        _unpack(rows, "ow"),
        "g = []",
        "for j, hj in enumerate(hidden):",
    ]
    stp += ["    " + ln for ln in _sum([f"{r}[j] * {e}"
                                       for r, e in zip(rows, es)])]
    stp.append("    g.append(s * hj * (1.0 - hj))")
    stp += _update("ow", hs, "e") + _update("hw", xs, "g")
    return "\n".join(
        ["def forward(hw, ow, x):"] + ["    " + ln for ln in fwd]
        + ["", "def step(hw, ow, x, d, eta):"] + ["    " + ln for ln in stp]
    ) + "\n"


@lru_cache(maxsize=64)
def kernel(n_inputs, h, n_outputs):
    """The compiled ``(forward, step)`` of :func:`kernel_source`."""
    namespace = {"exp": math.exp}
    name = f"<growbp kernel {n_inputs}-{h}-{n_outputs}>"
    exec(compile(kernel_source(n_inputs, h, n_outputs), name, "exec"),
         namespace)
    return namespace["forward"], namespace["step"]


def batch_activations(A, W):
    """Logistic activations of the units whose weight rows are ``W``.

    ``A`` holds one input per row and one pattern per column, and ``W``
    has ``len(A) + 1`` columns, bias last.  The result holds one unit per
    row and one pattern per column.  The sums run over the rows of ``A``
    in the kernel's order, so each column equals the per-pattern
    ``forward`` bitwise.
    """
    acc = W[:, :1] * A[0]
    for i in range(1, len(A)):
        acc += W[:, i:i + 1] * A[i]
    acc += W[:, -1:]
    return expit(acc)
