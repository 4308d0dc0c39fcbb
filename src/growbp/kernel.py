"""The arithmetic of the network: the per-pattern forward pass, the online
backprop step, the epoch, the batch forward pass and the per-pattern error.

The package enters through :func:`train_epoch`, :func:`forward_outputs`
and :func:`pattern_errors`.  Each checks its arguments once, then runs the
compiled or the Python kernel on the C-contiguous float64 arrays that a
``Network`` and a ``Partition`` hold; :func:`check_fit`, which
``growbp.metrics.efficiency`` calls too, alone decides whether a partition
fits a network.  ``kernel.c`` checks none of its input: it gets checked
arrays, and a shuffled epoch's permutation that ``train_epoch`` draws
itself.  Both classes read their arrays' addresses once, when made, and
per call only that permutation and the results are looked up; to keep
the addresses valid, their arrays cannot be resized (``ValueError``).

Every function here follows one order contract, so training, per-pattern
evaluation and batch evaluation round identically on any machine and any
BLAS build, given the same libm ``exp``:

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

The pure-Python kernel is ``kernel.c`` transcribed function by function
under the same names, less the ``growbp_`` prefix of the C exports
(:func:`logistic`, :func:`layer`, :func:`update`, then :func:`step` for
the body of ``growbp_epoch`` and :func:`forward` for the body of
``growbp_forward``), with plain loops over lists of weight rows in the
same order.  It is much slower, and serves as the fallback and as the
reference the tests compare the C code against.  The fallback evaluates
a matrix of inputs by running :func:`forward` on each row, and its error
pass adds one output column of squares at a time.
"""

import ctypes
import hashlib
import math
import os
import shutil
import sysconfig
from pathlib import Path

import numpy as np

from .errors import ArityMismatchError, EmptySetError

_SOURCE = Path(__file__).with_name("kernel.c")
# Never -ffast-math or -march=native: either lets the compiler reorder or
# fuse the arithmetic, and the results would stop matching the contract.
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")


def logistic(s):
    """``1 / (1 + exp(-s))``, and 0.0 where ``exp`` overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-s))
    except OverflowError:
        return 0.0


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
    lib.growbp_epoch.argtypes = [ptr] * 5 + [size] * 4 + [ctypes.c_double]
    lib.growbp_forward.argtypes = [ptr] * 4 + [size] * 4
    lib.growbp_error.argtypes = [ptr] * 5 + [size] * 4
    for fn in (lib.growbp_epoch, lib.growbp_forward, lib.growbp_error):
        fn.restype = size
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


def check_fit(net, part, what):
    """Reject a partition that is empty or whose widths are not the net's.

    ``what`` names the operation in the :class:`EmptySetError`; a wrong
    input or target width raises :class:`ArityMismatchError`.
    """
    if len(part) == 0:
        raise EmptySetError(f"{what} over an empty pattern set")
    if part.X.shape[1] != net.n_inputs or part.T.shape[1] != net.n_outputs:
        raise ArityMismatchError(
            f"expected {net.n_inputs} inputs and {net.n_outputs} targets, "
            f"got {part.X.shape[1]} and {part.T.shape[1]}"
        )


def train_epoch(net, train, eta, rng=None):
    """One online pass over ``train``, updating the net's weights in place:
    in file order, or with a numpy Generator ``rng`` in the order of one
    ``rng.permutation(len(train))``, which the kernel trusts, so nothing
    else is taken for ``rng``.  Returns the network."""
    check_fit(net, train, "training")
    if not (rng is None or type(rng) is np.random.Generator):
        raise TypeError(f"rng must be None or a numpy Generator, got {rng!r}")
    order = None if rng is None else np.ascontiguousarray(
        rng.permutation(len(train)), dtype=np.int64)
    if _lib is None:
        hw, ow = net.hidden_weights.tolist(), net.output_weights.tolist()
        X, T, eta = train.X.tolist(), train.T.tolist(), float(eta)
        for i in range(len(X)) if order is None else order.tolist():
            step(hw, ow, X[i], T[i], eta)
        net.hidden_weights[...] = hw
        net.output_weights[...] = ow
        return net
    if _lib.growbp_epoch(
            *net.addresses, *train.addresses,
            None if order is None else order.ctypes.data, len(train),
            net.n_inputs, net.h, net.n_outputs, float(eta)) == 2:
        raise MemoryError("kernel epoch")
    return net


def forward_outputs(net, X):
    """Evaluate the network on a matrix of inputs, one row per pattern.

    Row ``i`` of the result equals the outputs :func:`forward` gives for
    ``X[i]``, bitwise.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_inputs:
        raise ArityMismatchError(
            f"expected (n, {net.n_inputs}) inputs, got {X.shape}"
        )
    if _lib is None:
        hw, ow = net.hidden_weights.tolist(), net.output_weights.tolist()
        return np.array([forward(hw, ow, x)[1] for x in X.tolist()],
                        np.float64).reshape(len(X), net.n_outputs)
    Y = np.empty((len(X), net.n_outputs))
    if _lib.growbp_forward(*net.addresses, X.ctypes.data, Y.ctypes.data,
                           len(X), net.n_inputs, net.h, net.n_outputs) == 2:
        raise MemoryError("kernel forward")
    return Y


def pattern_errors(net, part):
    """The error ``0.5 * (e0*e0 + e1*e1 + ...)`` of each pattern of ``part``.

    ``ek = dk - yk`` is the pattern's target minus its output, and the
    squares are summed left to right over the outputs.  Returns a vector
    with one value per row of the partition.
    """
    check_fit(net, part, "error")
    if _lib is None:
        E = part.T - forward_outputs(net, part.X)
        s = E[:, 0] * E[:, 0]
        for k in range(1, net.n_outputs):
            s = s + E[:, k] * E[:, k]
        return 0.5 * s
    errors = np.empty(len(part))
    if _lib.growbp_error(*net.addresses, *part.addresses, errors.ctypes.data,
                         len(part), net.n_inputs, net.h, net.n_outputs) == 2:
        raise MemoryError("kernel error")
    return errors
