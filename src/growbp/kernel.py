"""The arithmetic of the network: the per-pattern forward pass, the online
backprop step, the epoch, the batch forward pass and the per-pattern error.

The package enters through three functions: :func:`train_epoch`,
:func:`forward_outputs` and :func:`pattern_errors`.  Each checks its
arguments once, then runs the compiled or the Python kernel on the
C-contiguous float64 arrays that a ``Network`` and a ``Partition`` hold.

Every function here follows one order contract, so training, per-pattern
evaluation and batch evaluation round identically on any machine and any
BLAS build:

- a unit's net input is summed left to right over its weight row, inputs
  first and the bias (against a constant 1.0 input) last;
- the hidden delta sums over the output units left to right,
  ``back_j = ow[0][j]*e0 + ow[1][j]*e1 + ...``;
- a pattern's error is ``0.5 * (e0*e0 + e1*e1 + ...)`` with
  ``ek = dk - yk``, its squares summed left to right over the outputs
  (numpy's ``(E * E).sum(axis=1)`` gives the same bits up to seven
  outputs, then reblocks the sum);
- every product and sum is rounded on its own: nothing is fused into a
  multiply-add and no reduction is reblocked;
- the logistic is ``1 / (1 + exp(-s))`` with the C library's ``exp``, and
  0.0 where ``exp`` overflows, which equals ``scipy.special.expit``
  bitwise, including at +-inf and NaN.

Training, batch evaluation and the error pass run in ``kernel.c``,
which the entry points call through ``ctypes``.  The library is built
with ``gcc -O2 -ffp-contract=off`` at first import into
``$XDG_CACHE_HOME/growbp`` (default ``~/.cache/growbp``), under a name
that hashes the source, the flags and the Python ABI, so later imports
start no compiler.  If that directory cannot be written the build goes
to a private temporary directory for the process.  Where no ``gcc`` is
found or the build fails, the entry points run the pure-Python kernel
instead; :data:`BACKEND` says which one is in use, ``"c"`` or
``"python"``.

The pure-Python kernel is also the reference the tests compare the C
code against.  The online step touches arrays of under a hundred
elements, where numpy's per-call overhead costs more than the
arithmetic, so it works on Python floats.  :func:`kernel_source` writes
``forward`` and ``step`` out for one network shape with every sum spelled
out term by term (a Python loop per weight costs more than twice as
much), and :func:`kernel` compiles them once per shape;
``print(kernel_source(2, 2, 1))`` shows the code for two inputs, two
hidden units and one output.  Its batch forward, :func:`batch_activations`,
evaluates many patterns at once with numpy, accumulating one input at a
time in the same order, and the fallback error pass adds one output
column of squares at a time.
"""

import ctypes
import hashlib
import math
import os
import shutil
import sysconfig
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ArityMismatchError, EmptySetError

_SOURCE = Path(__file__).with_name("kernel.c")
# Never -ffast-math or -march=native: either lets the compiler reorder or
# fuse the arithmetic, and the results would stop matching the contract.
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")

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
    from scipy.special import expit  # only the fallback pays this import

    acc = W[:, :1] * A[0]
    for i in range(1, len(A)):
        acc += W[:, i:i + 1] * A[i]
    acc += W[:, -1:]
    return expit(acc)


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "growbp")


def _compile(source, directory, name):
    """Build ``source`` into ``directory/name`` and return its path.

    The compiler writes a temporary file that is then renamed into place,
    so a process loading the library never sees a partial one, and two
    processes building at once both end up with a whole library.
    """
    import subprocess
    import tempfile

    os.makedirs(directory, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([*_COMPILE, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=source, capture_output=True, check=True,
                       timeout=300)
        path = os.path.join(directory, name)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _bind(lib):
    ptr, size = ctypes.c_void_p, ctypes.c_int64
    lib.epoch.argtypes = [ptr] * 5 + [size] * 4 + [ctypes.c_double]
    lib.epoch.restype = size
    lib.forward.argtypes = [ptr] * 4 + [size] * 4
    lib.forward.restype = size
    lib.error.argtypes = [ptr] * 5 + [size] * 4
    lib.error.restype = size
    return lib


def _load():
    """The compiled ``kernel.c``, or None where it cannot be built."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None  # installed without its C source
    key = hashlib.sha256(b"\0".join([
        source, " ".join(_COMPILE).encode(),
        str(sysconfig.get_config_var("SOABI")).encode(),
    ])).hexdigest()
    name = f"kernel-{key[:32]}.so"
    cached = os.path.join(_cache_dir(), name)
    if os.path.exists(cached):
        try:
            return _bind(ctypes.CDLL(cached))
        except OSError:
            pass  # unreadable or damaged: build it again
    if shutil.which(_COMPILE[0]) is None:
        return None
    import subprocess
    import tempfile

    try:
        return _bind(ctypes.CDLL(_compile(source, _cache_dir(), name)))
    except subprocess.SubprocessError:
        return None
    except OSError:
        pass  # the cache directory cannot be written
    private = tempfile.mkdtemp(prefix="growbp-")
    try:
        return _bind(ctypes.CDLL(_compile(source, private, name)))
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(private, ignore_errors=True)


_lib = _load()
BACKEND = "python" if _lib is None else "c"


_NOT_A_PERMUTATION = "order must be a permutation of the train indices"


def train_epoch(net, train, eta, order):
    """One pass of online updates over ``train`` in the given order.

    ``order`` is an integer permutation of the partition's row indices.
    Every step updates the network's weight arrays in place; a rejected
    ``order`` leaves them untouched.  Returns the network.
    """
    if len(train) == 0:
        raise EmptySetError("cannot train on an empty set")
    order = np.asarray(order)
    if order.dtype.kind not in "iu" or order.shape != (len(train),):
        raise ValueError(_NOT_A_PERMUTATION)
    if train.X.shape[1] != net.n_inputs or train.T.shape[1] != net.n_outputs:
        raise ArityMismatchError(
            f"expected {net.n_inputs} inputs and {net.n_outputs} targets, "
            f"got {train.X.shape[1]} and {train.T.shape[1]}"
        )
    hw, ow = net.hidden_weights, net.output_weights
    if _lib is None:
        if not np.array_equal(np.sort(order), np.arange(len(train))):
            raise ValueError(_NOT_A_PERMUTATION)
        _, step = kernel(net.n_inputs, net.h, net.n_outputs)
        hw_l, ow_l = hw.tolist(), ow.tolist()
        X, T, eta = train.X.tolist(), train.T.tolist(), float(eta)
        for i in order.tolist():
            step(hw_l, ow_l, X[i], T[i], eta)
        hw[...] = hw_l
        ow[...] = ow_l
        return net
    order = np.ascontiguousarray(order, dtype=np.int64)
    status = _lib.epoch(hw.ctypes.data, ow.ctypes.data, train.X.ctypes.data,
                        train.T.ctypes.data, order.ctypes.data, len(train),
                        net.n_inputs, net.h, net.n_outputs, float(eta))
    if status == 1:
        raise ValueError(_NOT_A_PERMUTATION)
    if status == 2:
        raise MemoryError("kernel epoch")
    return net


def forward_outputs(net, X):
    """Evaluate the network on a matrix of inputs, one row per pattern.

    Row ``i`` of the result equals ``growbp.network.forward(net, X[i])[1]``
    bitwise.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_inputs:
        raise ArityMismatchError(
            f"expected (n, {net.n_inputs}) inputs, got {X.shape}"
        )
    hw, ow = net.hidden_weights, net.output_weights
    if _lib is None:
        # One contiguous row per input, so every step of the sums runs
        # over a long row of patterns.
        hidden = batch_activations(np.ascontiguousarray(X.T), hw)
        return np.ascontiguousarray(batch_activations(hidden, ow).T)
    Y = np.empty((len(X), net.n_outputs))
    if _lib.forward(hw.ctypes.data, ow.ctypes.data, X.ctypes.data,
                    Y.ctypes.data, len(X), net.n_inputs, net.h,
                    net.n_outputs) == 2:
        raise MemoryError("kernel forward")
    return Y


def pattern_errors(net, part):
    """The error ``0.5 * (e0*e0 + e1*e1 + ...)`` of each pattern of ``part``.

    ``ek = dk - yk`` is the pattern's target minus its output, and the
    squares are summed left to right over the outputs.  Returns a vector
    with one value per row of the partition.
    """
    if part.X.shape[1] != net.n_inputs or part.T.shape[1] != net.n_outputs:
        raise ArityMismatchError(
            f"expected {net.n_inputs} inputs and {net.n_outputs} targets, "
            f"got {part.X.shape[1]} and {part.T.shape[1]}"
        )
    if _lib is None:
        E = part.T - forward_outputs(net, part.X)
        s = E[:, 0] * E[:, 0]
        for k in range(1, net.n_outputs):
            s = s + E[:, k] * E[:, k]
        return 0.5 * s
    hw, ow = net.hidden_weights, net.output_weights
    errors = np.empty(len(part))
    if _lib.error(hw.ctypes.data, ow.ctypes.data, part.X.ctypes.data,
                  part.T.ctypes.data, errors.ctypes.data, len(part),
                  net.n_inputs, net.h, net.n_outputs) == 2:
        raise MemoryError("kernel error")
    return errors
