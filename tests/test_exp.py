"""The pinned ``exp`` of ``growbp.kernel`` and ``kernel.c``.

Both transcribe glibc's generic ``exp``: the same table, constants and
operations, so they give the same bits on every IEEE-754 host.  The C
function is static; a test library that includes ``kernel.c`` calls it.
"""

import ctypes
import importlib.util
import math
import os
import platform
import random
import re
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growbp import kernel
from test_golden import NO_FMA

ROOT = Path(__file__).resolve().parents[1]

# The zeros, both sides of the main range 2**-54 <= |x| < 512 and of 1024,
# the last finite result (709.78...) and the first overflow, subnormal
# results, the last nonzero one (-745.13...) and the first zero.
EDGES = [0.0, -0.0, 2.0**-54, -2.0**-54, 2.0**-55, -2.0**-55, 512.0,
         -512.0, math.nextafter(512.0, 0.0), -math.nextafter(512.0, 0.0),
         709.78, 709.79, -708.4, -740.0, -745.1, -745.2, 1000.0, -1000.0,
         1024.0, -1024.0, math.nextafter(1024.0, 0.0), 1e300, -1e300,
         5e-324, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]


def exp_table_script():
    spec = importlib.util.spec_from_file_location(
        "exp_table", ROOT / "scripts" / "exp_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_tables_are_the_scripts():
    words = exp_table_script().table()
    assert list(kernel._EXP_TABLE) == words
    source = kernel._SOURCE.read_text()
    body = re.search(r"exp_table\[2 \* 128\] = \{(.*?)\};", source, re.S)
    assert [int(w, 16) for w in re.findall(r"0x[0-9a-f]{16}",
                                           body.group(1))] == words


def test_the_table_is_held_once():
    # Every word but the bits of 0.0 and 1.0, which other code may hold.
    words = [f"{w:016x}".encode() for w in exp_table_script().table()[2:]]
    package = kernel._SOURCE.parent
    holders = set()
    for path in package.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            text = path.read_bytes().lower()
            if any(w in text for w in words):
                holders.add(path.relative_to(package).as_posix())
    assert holders == {"kernel.c"}


@pytest.fixture(scope="module")
def c_exp(tmp_path_factory):
    """``growbp_exp`` of ``kernel.c``, built as the kernel is, over a list
    of doubles."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    tmp = tmp_path_factory.mktemp("exp")
    (tmp / "exp.c").write_text(
        f'#include "{kernel._SOURCE}"\n'
        "void exp_all(const double *x, double *y, int64_t n)\n"
        "{\n"
        "    for (int64_t i = 0; i < n; i++)\n"
        "        y[i] = growbp_exp(x[i]);\n"
        "}\n")
    subprocess.run([*kernel._COMPILE, str(tmp / "exp.c"), "-o",
                    str(tmp / "exp.so")], check=True, capture_output=True,
                   timeout=300)
    exp_all = ctypes.CDLL(str(tmp / "exp.so")).exp_all
    exp_all.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]

    def run(xs):
        x, y = (ctypes.c_double * len(xs))(*xs), (ctypes.c_double * len(xs))()
        exp_all(x, y, len(xs))
        return list(y)
    return run


def same(a, b):
    """Equal bits, or both NaN: IEEE 754 fixes no NaN's sign or payload."""
    return a.hex() == b.hex() or (a != a and b != b)


def assert_same(xs, got, want):
    bad = [(x.hex(), g.hex(), w.hex()) for x, g, w in zip(xs, got, want)
           if not same(g, w)]
    assert bad == []


def test_c_and_python_agree_at_the_edges(c_exp):
    assert_same(EDGES, c_exp(EDGES), [kernel.exp(x) for x in EDGES])


@given(st.lists(st.floats() | st.floats(-1100.0, 1100.0), min_size=1,
                max_size=50))
@settings(max_examples=300, deadline=None)
def test_c_and_python_agree(c_exp, xs):
    assert_same(xs, c_exp(xs), [kernel.exp(x) for x in xs])


def ulp_error(x):
    """How many ulps of the result ``kernel.exp(x)`` is from exp(x),
    taken with ``decimal`` at 40 digits."""
    y = kernel.exp(x)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(x).exp()
        return abs(Decimal(y) - exact) / Decimal(math.ulp(y))


@given(st.floats(-745.2, 709.78) | st.floats(-1.0, 1.0)
       | st.floats(-2.0**-50, 2.0**-50))
@settings(max_examples=500, deadline=None)
def test_error_is_at_most_one_ulp(x):
    assert ulp_error(x) <= 1


def test_edges_round_within_one_ulp_and_saturate():
    for x in EDGES:
        if x != x:
            assert math.isnan(kernel.exp(x))
        elif x >= 709.79:
            assert kernel.exp(x) == math.inf
        elif x < -746.0:
            assert kernel.exp(x).hex() == "0x0.0p+0"
        else:
            assert ulp_error(x) <= 1, x
    assert kernel.exp(-745.2) == 0.0 < kernel.exp(-745.1)
    assert kernel.exp(709.78) < math.inf == kernel.exp(709.79)


def glibc_exp(xs):
    """glibc's ``exp`` without FMA, through ``math.exp`` in a process run
    under ``NO_FMA``, with inf where it raises ``OverflowError``."""
    code = ("import math, sys\n"
            "def exp(x):\n"
            "    try:\n"
            "        return math.exp(x)\n"
            "    except OverflowError:\n"
            "        return math.inf\n"
            "for line in sys.stdin:\n"
            "    print(exp(float.fromhex(line)).hex())\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], input="\n".join(x.hex() for x in xs),
        env=dict(os.environ, GLIBC_TUNABLES=NO_FMA), capture_output=True,
        text=True, check=True, timeout=300)
    return [float.fromhex(line) for line in proc.stdout.split()]


def glibc_version():
    """glibc's version as a tuple of ints, or None for another C library."""
    name, version = platform.libc_ver()
    return tuple(map(int, version.split("."))) if name == "glibc" else None


@pytest.mark.skipif((glibc_version() or (0,)) < (2, 28),
                    reason="compares with the exp of glibc 2.28 and later")
def test_equals_glibc_exp_without_fma(c_exp):
    draw = random.Random(0)
    xs = EDGES + [draw.uniform(-30.0, 30.0) for _ in range(50000)] + [
        draw.uniform(-750.0, 750.0) for _ in range(50000)]
    want = glibc_exp(xs)
    assert_same(xs, [kernel.exp(x) for x in xs], want)
    assert_same(xs, c_exp(xs), want)


def test_compiled_kernel_calls_no_libm_exp():
    if kernel._lib is None or shutil.which("nm") is None:
        pytest.skip("needs the compiled kernel and nm")
    proc = subprocess.run(["nm", "-D", "--undefined-only", kernel._lib._name],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    symbols = {line.split()[-1].partition("@")[0]
               for line in proc.stdout.splitlines()}
    assert "exp" not in symbols
    assert "malloc" in symbols  # nm lists the library's imports
