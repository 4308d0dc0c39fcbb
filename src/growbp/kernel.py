"""The arithmetic of the network: the per-pattern forward pass, the online
backprop step, the epoch, one evaluation pass that gives the outputs, the
per-pattern errors and their mean, and the count of correctly classified
patterns, and the random streams that draw weights and shuffle epochs;
and the compiled parse of a dataset's data rows.

The package enters through :func:`train_epoch`, :func:`forward_outputs`,
:func:`pattern_errors`, :func:`average_error` and :func:`classified`,
and reads data rows through :func:`parse_rows`.  Each of the first five
checks its arguments once, then runs the compiled or the Python kernel
on the row-major ``array('d')`` buffers that a ``Network`` and a
``Partition`` hold; :func:`check_fit` alone decides whether a partition
fits a network.  ``kernel.c`` checks none of its input: it gets checked
buffers, and a shuffled epoch's permutation that ``train_epoch`` draws
itself.  Both classes read their buffers' addresses once, when made, and
show each buffer as a 2-D ``memoryview`` (:func:`view`); while that view
exists the buffer cannot be resized (``BufferError``), so the addresses
stay valid.  :func:`matrix` reads any 2-D nested sequence or buffer,
numpy arrays included, into such a buffer.

Every function here follows one order contract, so training, per-pattern
evaluation and batch evaluation round identically on any machine, given
the same libm ``exp``:

- a unit's net input is summed left to right over its weight row, inputs
  first and the bias (against a constant 1.0 input) last;
- the hidden delta sums over the output units left to right,
  ``back_j = ow[0][j]*e0 + ow[1][j]*e1 + ...``;
- a pattern's error is ``0.5 * (e0*e0 + e1*e1 + ...)`` with
  ``ek = dk - yk``, its squares summed left to right over the outputs;
- the mean of the errors (:func:`average_error`) sums them left to right
  from 0.0 and divides by their count;
- every product and sum is rounded on its own: nothing is fused into a
  multiply-add and no sum is reblocked;
- the logistic is ``1 / (1 + exp(-s))`` with the C library's ``exp``, and
  0.0 where ``exp`` overflows, which equals ``scipy.special.expit``
  bitwise, including at +-inf and NaN.

A pattern's class (:func:`label`) is 1 where its one output is >= 0.5,
and with more outputs the index of the largest, the lowest on ties and
the first NaN where there is one, as numpy's ``argmax`` picks; a target
row's class follows the same rule.

The random streams are numpy's ``default_rng(seed)`` reproduced bit for
bit (:class:`Generator`): SeedSequence's hash mix seeds PCG64, a 128-bit
LCG with XSL-RR output (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905); ``uniform`` is
``lo + (hi - lo) * ((next64 >> 11) * 2**-53)``, and ``permutation`` is
numpy's Fisher-Yates pass with masked rejection on buffered 32-bit
halves of the output.

Training, the evaluation pass, the permutation and the parse of data
rows run in ``kernel.c``, which the entry points call through
``ctypes``: ``growbp_epoch``, ``growbp_evaluate``,
``growbp_permutation`` and ``growbp_parse`` are its exports.  Each of
the four evaluation entry points asks ``growbp_evaluate`` for only what
it returns.  The library is built with ``gcc -O2 -ffp-contract=off`` at
first import into ``$XDG_CACHE_HOME/growbp`` (``~/.cache/growbp`` where
that variable is unset or not an absolute path), under a name that
hashes the source, the flags and the Python ABI, so later imports start
no compiler.  If that directory cannot be written the build goes to a
private temporary directory for the process.  Where no ``gcc`` is found
or the build fails, the entry points run the pure-Python kernel instead;
:data:`BACKEND` says which one is in use, ``"c"`` or ``"python"``.

The pure-Python kernel is ``kernel.c`` transcribed function by function
under the same names, less the ``growbp_`` prefix of the C exports
(:func:`logistic`, :func:`layer`, :func:`update`, :func:`label`,
:func:`next64`, :func:`permutation`, then :func:`step` for the body of
``growbp_epoch`` and :func:`evaluate` for the body of
``growbp_evaluate`` less its mean), with plain loops over lists of
weight rows in the same order; :func:`forward` is one pattern's two
:func:`layer` calls.  It is much slower, and serves as the fallback and
as the reference the tests compare the C code against.

One C function has no Python twin: ``layer_block``, the schedule by
which ``growbp_evaluate`` runs :func:`layer` on 8 rows at a time.  It
changes when each product is added, not what is added to what: every
row keeps its own sum and adds its terms in :func:`layer`'s order, so no
sum is reblocked and each row gets the bits the per-row loop here gives
it.  A last block of fewer
than 8 rows is padded with zero rows whose outputs are dropped.

Nor has ``growbp_parse``, behind :func:`parse_rows`: its reference is
``growbp.dataset``'s per-row reader, which runs wherever the compiled
parse returns None.  It reads only finite ASCII decimals, the ones
``float()`` reads: an optional sign, digits with single underscores
between them, a ``.`` and an optional exponent, split by runs of spaces
and tabs, or by commas with optional spaces or tabs around them, one row
a line, ``\n`` or ``\r\n`` ending a line and lines of blanks skipped.
Each number is copied, less its underscores, for the C library's
``strtod``, which rounds correctly as ``float()`` does, so both give the
same bits.  Anything else, such as ``inf``, a hex number, another
control character, a number too long for its scratch buffer, a wrong
count of numbers or rows, a target other than 0 or 1, or a ``strtod``
that stops short (as in a locale whose decimal point is not ``.``), is
left to the Python reader.
"""

import ctypes
import hashlib
import math
import os
import sys
from array import array
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import chain
from pathlib import Path

from .errors import ArityMismatchError, EmptySetError, MalformedValueError

_SOURCE = Path(__file__).with_name("kernel.c")
# Never -ffast-math, which lets the compiler reorder the arithmetic and
# the results stop matching the contract, nor -march=native, which would
# enable FMA and tie the cached library to the CPU that built it.
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The struct formats of a double in this machine's layout; ctypes labels
# its doubles with the byte order.
_NATIVE_DOUBLES = ("d", "@d", "=d", ("<" if sys.byteorder == "little"
                                     else ">") + "d")


def matrix(M, error=MalformedValueError):
    """A row-major ``array('d')`` copy of the 2-D matrix ``M`` and its
    shape.  ``M`` is a buffer, such as a numpy array or a :func:`view`, or
    a sequence of equally long rows of numbers; anything else raises
    ``error``."""
    try:
        src = memoryview(M)
    except TypeError:  # not a buffer: a sequence of rows
        try:
            rows = [list(row) for row in M]
            flat = array("d", chain.from_iterable(rows))
        except (TypeError, ValueError):
            raise error("expected a 2-D matrix of numbers") from None
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(row) != shape[1] for row in rows):
            raise error("rows of a matrix must be equally long")
        return flat, shape
    if src.ndim != 2:
        raise error(f"expected a 2-D matrix, got shape {src.shape}")
    flat = array("d")
    if src.nbytes and src.format in _NATIVE_DOUBLES:
        flat.frombytes(src.cast("B") if src.c_contiguous else src.tobytes())
    elif src.nbytes:
        try:
            flat.extend(chain.from_iterable(src.tolist()))
        except (TypeError, NotImplementedError):
            raise error(f"cannot read numbers of format {src.format!r}")
    return flat, src.shape


def view(flat, shape):
    """``flat`` as a 2-D ``memoryview`` of ``shape``, which keeps it from
    being resized.  ``memoryview.cast`` refuses a zero in the shape, so a
    view with no elements is a ctypes array's."""
    if not flat:
        return memoryview((ctypes.c_double * shape[1] * shape[0])())
    return memoryview(flat).cast("B").cast("d", shape)


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


def evaluate(hw, ow, X, T, Y, E, count):
    """The body of ``growbp_evaluate`` less its mean, over the rows ``X``
    and ``T``: each row's outputs appended to ``Y`` and its error appended
    to ``E``, where they are not None, and, where ``count`` is true, how
    many rows the net puts in their target's class, returned (else 0)."""
    c = 0
    for i, x in enumerate(X):
        y = forward(hw, ow, x)[1]
        if Y is not None:
            Y.extend(y)
        if E is not None:
            d = T[i]
            e = d[0] - y[0]
            s = e * e
            for k in range(1, len(y)):
                e = d[k] - y[k]
                s = s + e * e
            E.append(0.5 * s)
        if count:
            c += label(y) == label(T[i])
    return c


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def next64(g):
    """PCG64's next 64-bit output from generator state ``g`` (see
    :func:`permutation`): a 128-bit LCG step, then XSL-RR."""
    g[0] = state = (g[0] * _PCG_MULT + g[1]) & _MASK128
    x = ((state >> 64) ^ state) & _MASK64
    rot = state >> 122
    return ((x >> rot) | (x << (64 - rot))) & _MASK64


def permutation(g, order):
    """numpy's ``Generator.permutation(len(order))`` into ``order``: a
    Fisher-Yates pass from the last index down, each draw in ``[0, i]`` by
    masked rejection, on 32-bit halves of the output while ``i`` fits in
    32 bits.  ``g`` is the generator, ``[state, increment, a half is
    buffered, that half]``, and is updated in place."""
    order[:] = array("q", range(len(order)))
    for i in range(len(order) - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if i > _MASK32:
                value = next64(g)
            elif g[2]:
                g[2], value = 0, g[3]
            else:
                value = next64(g)
                g[2], g[3] = 1, value >> 32
                value &= _MASK32
            value &= mask
            if value <= i:
                break
        order[i], order[value] = order[value], order[i]


# numpy's SeedSequence constants.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_sequence(seed):
    """``SeedSequence(seed).generate_state(8)``: the seed's 32-bit words,
    least significant first, hash-mixed into a pool of four words, which
    are hashed out again."""
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append((seed >> 32 * len(words)) & _MASK32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = ((value ^ const) * const * _MULT_A) & _MASK32
        const = (const * _MULT_A) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], _INIT_B
    for i in range(8):
        value = ((pool[i % 4] ^ const) * const * _MULT_B) & _MASK32
        const = (const * _MULT_B) & _MASK32
        out.append(value ^ (value >> 16))
    return out


class Generator:
    """The stream of ``numpy.random.default_rng(seed)``, bit for bit.

    ``seed`` is an int >= 0.  ``state`` is ``[state, increment, a half is
    buffered, that half]``: PCG64's two 128-bit words, then the 32-bit
    half of an output that the next bounded draw takes first.
    """

    def __init__(self, seed):
        if not (isinstance(seed, int) and seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {seed!r}")
        w = _seed_sequence(seed)
        initstate = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        initseq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        self.state = [0, ((initseq << 1) | 1) & _MASK128, 0, 0]
        next64(self.state)
        self.state[0] = (self.state[0] + initstate) & _MASK128
        next64(self.state)

    def uniform(self, lo, hi, n):
        """``n`` draws from ``[lo, hi)``, as a list."""
        span = hi - lo
        return [lo + span * ((next64(self.state) >> 11) * 2.0**-53)
                for _ in range(n)]

    def permutation(self, n):
        """A random order of ``range(n)``, as an ``array('q')``."""
        order = array("q", bytes(8 * n))
        if _lib is None:
            permutation(self.state, order)
            return order
        state, inc, buffered, half = self.state
        g = (ctypes.c_uint64 * 6)(state >> 64, state & _MASK64, inc >> 64,
                                  inc & _MASK64, buffered, half)
        _lib.growbp_permutation(g, order.buffer_info()[0], n)
        self.state[:] = [(g[0] << 64) | g[1], inc, g[4], g[5]]
        return order


def _cache_dir():
    # The XDG Base Directory spec says to ignore a relative value.
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
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
    lib.growbp_evaluate.argtypes = [ptr] * 6 + [size] * 4 + [ptr] * 2
    lib.growbp_permutation.argtypes = [ptr, ptr, size]
    lib.growbp_parse.argtypes = [ptr] + [size] * 6 + [ptr] * 2
    for fn in (lib.growbp_epoch, lib.growbp_evaluate, lib.growbp_permutation,
               lib.growbp_parse):
        fn.restype = size
    return lib


def _load():
    """The compiled ``kernel.c``, or None where it cannot be built."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None  # installed without its C source
    # The first extension suffix names the interpreter's ABI, as in
    # ".cpython-311-x86_64-linux-gnu.so".
    key = hashlib.sha256(b"\0".join([
        source, " ".join(_COMPILE).encode(), EXTENSION_SUFFIXES[0].encode(),
    ])).hexdigest()
    name = f"kernel-{key[:32]}.so"
    cached = os.path.join(_cache_dir(), name)
    if os.path.exists(cached):
        try:
            return _bind(ctypes.CDLL(cached))
        except OSError:
            pass  # unreadable or damaged: build it again
    # Only a build needs these, so a cached library loads without them.
    import shutil

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
    in file order, or with a :class:`Generator` ``rng`` in the order of
    one ``rng.permutation(len(train))``, which the kernel trusts, so
    nothing else is taken for ``rng``.  Returns the network."""
    check_fit(net, train, "training")
    if not (rng is None or type(rng) is Generator):
        raise TypeError(f"rng must be None or a growbp.kernel.Generator, "
                        f"got {rng!r}")
    order = None if rng is None else rng.permutation(len(train))
    if _lib is None:
        hw, ow = net.hidden_weights.tolist(), net.output_weights.tolist()
        X, T, eta = train.X.tolist(), train.T.tolist(), float(eta)
        for i in range(len(X)) if order is None else order:
            step(hw, ow, X[i], T[i], eta)
        # Same-length slice assignment: the views keep the buffers in place.
        net.hidden_weights.obj[:] = array("d", chain.from_iterable(hw))
        net.output_weights.obj[:] = array("d", chain.from_iterable(ow))
        return net
    if _lib.growbp_epoch(
            *net.addresses, *train.addresses,
            None if order is None else order.buffer_info()[0], len(train),
            net.n_inputs, net.h, net.n_outputs, float(eta)) == 2:
        raise MemoryError("kernel epoch")
    return net


def forward_outputs(net, X):
    """Evaluate the network on a matrix of inputs, one row per pattern.

    Row ``i`` of the result, a 2-D :func:`view`, equals the outputs
    :func:`forward` gives for ``X[i]``, bitwise.
    """
    X, (n, width) = matrix(X, ArityMismatchError)
    if width != net.n_inputs:
        raise ArityMismatchError(
            f"expected (n, {net.n_inputs}) inputs, got {(n, width)}"
        )
    if _lib is None:
        Y = array("d")
        evaluate(net.hidden_weights.tolist(), net.output_weights.tolist(),
                 [X[i:i + width] for i in range(0, len(X), width)], None,
                 Y, None, False)
        return view(Y, (n, net.n_outputs))
    Y = array("d", bytes(8 * n * net.n_outputs))
    if _lib.growbp_evaluate(*net.addresses, X.buffer_info()[0], None,
                            Y.buffer_info()[0], None, n, net.n_inputs,
                            net.h, net.n_outputs, None, None) == 2:
        raise MemoryError("kernel evaluate")
    return view(Y, (n, net.n_outputs))


def pattern_errors(net, part):
    """The error ``0.5 * (e0*e0 + e1*e1 + ...)`` of each pattern of ``part``.

    ``ek = dk - yk`` is the pattern's target minus its output, and the
    squares are summed left to right over the outputs.  Returns an
    ``array('d')`` with one value per row of the partition.
    """
    check_fit(net, part, "error")
    if _lib is None:
        errors = array("d")
        evaluate(net.hidden_weights.tolist(), net.output_weights.tolist(),
                 part.X.tolist(), part.T.tolist(), None, errors, False)
        return errors
    errors = array("d", bytes(8 * len(part)))
    if _lib.growbp_evaluate(*net.addresses, *part.addresses, None,
                            errors.buffer_info()[0], len(part), net.n_inputs,
                            net.h, net.n_outputs, None, None) == 2:
        raise MemoryError("kernel evaluate")
    return errors


def average_error(net, part):
    """Mean over a partition of the per-pattern error xi = |d - y|^2 / 2:
    :func:`pattern_errors` summed left to right from 0.0, then divided by
    their count, in one call of the compiled pass."""
    if _lib is None:
        total = 0.0
        for e in pattern_errors(net, part):
            total = total + e
        return total / len(part)
    check_fit(net, part, "error")
    out = ctypes.c_double()
    if _lib.growbp_evaluate(*net.addresses, *part.addresses, None, None,
                            len(part), net.n_inputs, net.h, net.n_outputs,
                            ctypes.byref(out), None) == 2:
        raise MemoryError("kernel evaluate")
    return out.value


def classified(net, part):
    """How many patterns of ``part`` the net puts in their target's class,
    each class given by :func:`label`."""
    check_fit(net, part, "efficiency")
    if _lib is None:
        return evaluate(net.hidden_weights.tolist(),
                        net.output_weights.tolist(), part.X.tolist(),
                        part.T.tolist(), None, None, True)
    count = ctypes.c_int64()
    if _lib.growbp_evaluate(*net.addresses, *part.addresses, None, None,
                            len(part), net.n_inputs, net.h, net.n_outputs,
                            None, ctypes.byref(count)) == 2:
        raise MemoryError("kernel evaluate")
    return count.value


def parse_rows(text, start, sep, rows, n_inputs, n_outputs):
    """The ``rows`` data rows of ``text``, a file's bytes or a str, from
    offset ``start`` on, split on ``sep`` (None for runs of blanks, or
    ``","``), read by ``growbp_parse`` into row-major ``array('d')`` inputs
    and targets, ``(X, T)``.  Bytes are read in place.  None where the
    Python kernel is in use, a str is not ASCII or ``growbp_parse`` doubts
    the rows, as it does any byte that is not ASCII: the caller then reads
    them with its Python reader, which raises the error of the first bad
    row."""
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    # Every value takes a character, and all but the last a separator or
    # a line end after it; rows that cannot fit are not allocated.
    if _lib is None or (
            2 * rows * (n_inputs + n_outputs) - 1 > len(text) - start):
        return None
    X = array("d", [0.0]) * (rows * n_inputs)
    T = array("d", [0.0]) * (rows * n_outputs)
    if _lib.growbp_parse(text, start, len(text),
                         ord(sep or "\0"), rows, n_inputs, n_outputs,
                         X.buffer_info()[0], T.buffer_info()[0]):
        return None
    return X, T
