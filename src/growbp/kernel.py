"""The arithmetic of the network: the per-pattern forward pass, the online
backprop step, the epoch, one evaluation pass that gives the outputs, the
per-pattern errors and their mean, and the count of correctly classified
patterns, and the random streams that draw weights and shuffle epochs;
and the compiled parse of a dataset's data rows.

The package enters through :func:`train_epoch`, :func:`forward_outputs`,
:func:`pattern_errors`, :func:`average_error` and :func:`classified`,
and reads a file's ASCII data rows through :func:`parse_rows`.  Each of
the first five checks its arguments once, then runs the compiled or the
Python kernel on the row-major ``array('d')`` buffers that a ``Network``
and a ``Partition`` hold; :func:`check_fit` alone decides whether a
partition fits a network.  ``kernel.c`` checks none of its input: it gets
checked buffers, and a shuffled epoch's permutation that ``train_epoch``
draws itself.  Both classes hold their buffers through :class:`Held`,
which reads their addresses once, when made, and shows each buffer as a
2-D ``memoryview`` (:func:`view`); while that view exists the buffer
cannot be resized (``BufferError``), so the addresses stay valid.
:func:`matrix` reads any 2-D nested sequence or buffer, numpy arrays
included, into such a buffer.

Every function here follows one order contract, so training, per-pattern
evaluation and batch evaluation round identically on any IEEE-754
machine:

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
- the logistic is ``1 / (1 + exp(-s))`` with :func:`exp`, a pinned
  ``exp``: glibc's generic ``exp`` (Tang's table-driven method, ACM TOMS
  15(2), 1989) written out in plain IEEE operations on fixed constants
  and a 128-entry table, ``kernel.c``'s ``exp_table``, read from there at
  import.  Its bits equal those of the ``exp`` that glibc 2.28 and later
  run on a CPU without FMA, and stay the same wherever the kernel runs.
  Where ``exp`` overflows to inf the logistic is 0.0.

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
``growbp_permutation`` and ``growbp_parse`` are its exports.  The four
evaluation entry points share one dispatch, the one call of
``growbp_evaluate`` and of :func:`evaluate`, and each asks it for only
what it returns.  The library is built with ``gcc -O2 -ffp-contract=off``
at first import into ``$XDG_CACHE_HOME/growbp`` (``~/.cache/growbp`` where
that variable is unset or not an absolute path), under a name that
hashes the source, the flags and the Python ABI, so later imports start
no compiler.  If that directory cannot be written the build goes to a
private temporary directory for the process.  Where no ``gcc`` is found
or the build fails, the entry points run the pure-Python kernel instead;
:data:`BACKEND` says which one is in use, ``"c"`` or ``"python"``.

The pure-Python kernel is ``kernel.c`` transcribed function by function
under the same names, less the ``growbp_`` prefix of the C functions
(:func:`exp`, :func:`logistic`, :func:`layer`, :func:`update`,
:func:`label`, :func:`next64`, :func:`permutation`, then :func:`step` for
the body of ``growbp_epoch`` and :func:`evaluate` for the whole of
``growbp_evaluate``, its mean included), with plain loops over lists of
weight rows in the same order; :func:`forward` is one pattern's two
:func:`layer` calls.  It is much slower, and serves as the fallback and
as the reference the tests compare the C code against.

Two C schedules have no Python twin.  ``layer_block`` is the schedule by
which ``growbp_evaluate`` runs :func:`layer` on 8 rows at a time.  It
changes when each product is added, not what is added to what: every
row keeps its own sum and adds its terms in :func:`layer`'s order, so no
sum is reblocked and each row gets the bits the per-row loop here gives
it.  A last block of fewer than 8 rows is padded with zero rows whose
outputs are dropped.  ``logistic_block`` then takes a unit's 8 logistics
in one lane loop: where all 8 exponents lie in ``exp``'s main range,
``|x| < 512``, it runs the main-range part of the ``exp`` on every lane
without a branch, and otherwise the whole ``exp`` lane by lane; both
give :func:`logistic`'s bits.

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
_KERNEL_C = _SOURCE.read_bytes()  # deleted once the library is loaded
# Never -ffast-math, which lets the compiler reorder the arithmetic and
# the results stop matching the contract, nor -march=native, which would
# enable FMA and tie the cached library to the CPU that built it.
_COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The struct formats of a double in this machine's layout; ctypes labels
# its doubles with the byte order.
_NATIVE_DOUBLES = ("d", "@d", "=d", ("<" if sys.byteorder == "little"
                                     else ">") + "d")
# growbp_evaluate's out-parameters, each made only where it is asked for.
_MEAN, _COUNT = ctypes.c_double * 1, ctypes.c_int64 * 1
# _ZERO * n is n zeros in a buffer of exactly their size, so a sanitizer
# sees a read past its end; an array that grows keeps spare room there.
_ZERO = array("d", [0.0])


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
            flat = array("d", [v for row in rows for v in row])
        except (TypeError, ValueError):
            raise error("expected a 2-D matrix of numbers") from None
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(row) != shape[1] for row in rows):
            raise error("rows of a matrix must be equally long")
        return flat, shape
    if src.ndim != 2:
        raise error(f"expected a 2-D matrix, got shape {src.shape}")
    flat = _ZERO * (src.shape[0] * src.shape[1])
    if src.nbytes and src.format in _NATIVE_DOUBLES:
        memoryview(flat).cast("B")[:] = (src.cast("B") if src.c_contiguous
                                         else src.tobytes())
    elif src.nbytes:
        try:
            flat[:] = array("d", chain.from_iterable(src.tolist()))
        except (TypeError, NotImplementedError):
            raise error(f"cannot read numbers of format {src.format!r}")
    return flat, src.shape


def view(flat, shape):
    """``flat`` as a 2-D ``memoryview`` of ``shape``, which keeps it from
    being resized.  ``memoryview.cast`` refuses a zero in the shape, so a
    view of no rows is a row of zeros cut to none, and a matrix of no
    columns, which no network or dataset can take, is refused."""
    if not shape[1]:
        raise MalformedValueError(
            f"a matrix needs at least one column, got shape {shape}")
    if not shape[0]:
        return view(_ZERO * shape[1], (1, shape[1]))[:0]
    return memoryview(flat).cast("B").cast("d", shape)


class Held:
    """The base of a frozen dataclass whose fields are all matrices for
    ``kernel.c``, as ``Network``'s and ``Partition``'s are.  Each field is
    held as a row-major ``array('d')`` copy (:func:`matrix`), which the
    subclass's ``_check`` may reject, shown as a 2-D :func:`view`, and
    ``addresses`` holds the views' buffers' addresses."""

    def __post_init__(self):
        names = self.__dataclass_fields__
        matrices = [matrix(getattr(self, name)) for name in names]
        self._check(*matrices)
        addresses = []
        for name, m in zip(names, matrices):
            object.__setattr__(self, name, view(*m))
            addresses.append(getattr(self, name).obj.buffer_info()[0])
        object.__setattr__(self, "addresses", tuple(addresses))

    def __reduce__(self):
        # Through the constructor, so a copy reads its own addresses; as
        # bytes and shapes, so a matrix of no rows keeps its width.
        return _held, (type(self), *[
            (getattr(self, name).tobytes(), getattr(self, name).shape)
            for name in self.__dataclass_fields__])


def _held(cls, *matrices):
    """The ``cls`` whose fields hold the doubles and shapes ``matrices``."""
    return cls(*[view(array("d", data), shape) for data, shape in matrices])


# kernel.c's exp_table: the bits of the tail of 2**(j/128), then those of
# its head H less j << 45, for j = 0..127 (scripts/exp_table.py).
_EXP_TABLE = array("Q", bytes.fromhex(
    _KERNEL_C.partition(b"exp_table[2 * 128] = {")[2].partition(b"};")[0]
    .replace(b"0x", b"").replace(b",", b"").decode()))
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


def evaluate(hw, ow, X, T, Y, E, mean, count):
    """The body of ``growbp_evaluate`` over the rows ``X`` and ``T``: each
    row's outputs and error written to its place in ``Y`` and ``E``, where
    they are not None.  Returns the errors' mean, summed left to right
    from 0.0 and divided by the count of rows, where ``mean`` is true, and
    how many rows the net puts in their target's class, where ``count`` is
    true; each is None where it is not asked for."""
    total, c = 0.0, 0
    for i, x in enumerate(X):
        y = forward(hw, ow, x)[1]
        if Y is not None:
            Y[i * len(y):(i + 1) * len(y)] = array("d", y)
        if E is not None or mean:
            d = T[i]
            e = d[0] - y[0]
            s = e * e
            for k in range(1, len(y)):
                e = d[k] - y[k]
                s = s + e * e
            s = 0.5 * s
            if E is not None:
                E[i] = s
            total = total + s
        if count:
            c += label(y) == label(T[i])
    return total / len(X) if mean else None, c if count else None


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
        order = array("q", [0]) * n
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
    """Build ``source`` into ``directory/name``, delete the other
    versions' ``kernel-*.so`` there, and return the new library's path.

    The compiler writes a temporary file that is then renamed into place,
    so a process loading the library never sees a partial one, and two
    processes building at once both end up with a whole library.
    """
    import glob
    import subprocess
    import tempfile

    os.makedirs(directory, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([*_COMPILE, "-x", "c", "-", "-o", tmp],
                       input=source, capture_output=True, check=True,
                       timeout=300)
        path = os.path.join(directory, name)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for entry in glob.glob("kernel-*.so", root_dir=directory):
        if entry != name:
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:
                pass  # deleted already, or not ours to delete
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


def _load(source):
    """The compiled ``source``, kernel.c, or None where it cannot be built."""
    # The first extension suffix names the interpreter's ABI, as in
    # ".cpython-311-x86_64-linux-gnu.so".
    key = hashlib.sha256(b"\0".join([
        source, " ".join(_COMPILE).encode(), EXTENSION_SUFFIXES[0].encode(),
    ])).hexdigest()
    name = f"kernel-{key[:32]}.so"
    try:
        return _bind(ctypes.CDLL(os.path.join(_cache_dir(), name)))
    except OSError:
        pass  # not built yet, unreadable or damaged: build it
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
    with tempfile.TemporaryDirectory(prefix="growbp-",
                                     ignore_cleanup_errors=True) as private:
        try:
            return _bind(ctypes.CDLL(_compile(source, private, name)))
        except (OSError, subprocess.SubprocessError):
            return None


_lib = _load(_KERNEL_C)
del _KERNEL_C
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


def _evaluate(net, X, T, addresses, outputs=False, errors=False,
              mean=False, count=False):
    """``growbp_evaluate``, or :func:`evaluate` on the Python backend, of
    ``net`` on the 2-D views ``X`` and ``T`` (None for outputs alone) at
    ``addresses``: ``(outputs, errors, mean, count)``, the first two as
    ``array('d')``, each None and not made unless asked for."""
    n = len(X)
    Y = _ZERO * (n * net.n_outputs) if outputs else None
    E = _ZERO * n if errors else None
    if _lib is None:
        return (Y, E, *evaluate(
            net.hidden_weights.tolist(), net.output_weights.tolist(),
            X.tolist(), None if T is None else T.tolist(), Y, E, mean, count))
    m = _MEAN() if mean else None
    c = _COUNT() if count else None
    if _lib.growbp_evaluate(
            *net.addresses, *addresses,
            None if Y is None else Y.buffer_info()[0],
            None if E is None else E.buffer_info()[0],
            n, net.n_inputs, net.h, net.n_outputs, m, c) == 2:
        raise MemoryError("kernel evaluate")
    return Y, E, m and m[0], c and c[0]


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
    Y = _evaluate(net, view(X, (n, width)), None, (X.buffer_info()[0], None),
                  outputs=True)[0]
    return view(Y, (n, net.n_outputs))


def pattern_errors(net, part):
    """The error ``0.5 * (e0*e0 + e1*e1 + ...)`` of each pattern of ``part``.

    ``ek = dk - yk`` is the pattern's target minus its output, and the
    squares are summed left to right over the outputs.  Returns an
    ``array('d')`` with one value per row of the partition.
    """
    check_fit(net, part, "error")
    return _evaluate(net, part.X, part.T, part.addresses, errors=True)[1]


def average_error(net, part):
    """Mean over a partition of the per-pattern error xi = |d - y|^2 / 2:
    :func:`pattern_errors` summed left to right from 0.0, then divided by
    their count, in one evaluation pass that keeps no errors."""
    check_fit(net, part, "error")
    return _evaluate(net, part.X, part.T, part.addresses, mean=True)[2]


def classified(net, part):
    """How many patterns of ``part`` the net puts in their target's class,
    each class given by :func:`label`."""
    check_fit(net, part, "efficiency")
    return _evaluate(net, part.X, part.T, part.addresses, count=True)[3]


def parse_rows(data, start, sep, rows, n_inputs, n_outputs):
    """The ``rows`` data rows of a file's ASCII bytes ``data`` from offset
    ``start`` on, split on ``sep`` (None for runs of blanks, or ``","``),
    read in place by ``growbp_parse`` into row-major ``array('d')`` inputs
    and targets, ``(X, T)``.  None on the Python kernel or where
    ``growbp_parse`` doubts the rows: the caller's Python reader then
    reads them and raises the error of the first bad row."""
    # Every value takes a character, and all but the last a separator or
    # a line end after it; rows that cannot fit are not allocated.
    if _lib is None or (
            2 * rows * (n_inputs + n_outputs) - 1 > len(data) - start):
        return None
    X = _ZERO * (rows * n_inputs)
    T = _ZERO * (rows * n_outputs)
    if _lib.growbp_parse(data, start, len(data),
                         ord(sep or "\0"), rows, n_inputs, n_outputs,
                         X.buffer_info()[0], T.buffer_info()[0]):
        return None
    return X, T
