"""The exact decimal reader of ``kernel.c``.

``read_decimal`` converts the numbers of a data row itself, by the
Eisel-Lemire method with a table of powers of five, where the number has
at most 19 significant digits and a decimal exponent the table holds;
``growbp_parse`` leaves the rest to ``strtod``.  Both must give the bits
``float()`` gives.  The C function is static; a test library that
includes ``kernel.c`` calls it.
"""

import ctypes
import importlib.util
import re
import subprocess
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growbp import kernel

ROOT = Path(__file__).resolve().parents[1]


def pow5_table_script():
    spec = importlib.util.spec_from_file_location(
        "pow5_table", ROOT / "scripts" / "pow5_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


SCRIPT = pow5_table_script()
Q_MIN, Q_MAX = SCRIPT.Q_MIN, SCRIPT.Q_MAX


@st.composite
def ties(draw):
    """``(w, q)``, w of at most 19 digits, with w * 10**q exactly halfway
    between two doubles: o * 2**f for an odd o in (2**53, 2**54), which
    has a w of 19 digits or fewer only where -4 <= q."""
    q = draw(st.integers(-4, Q_MAX))
    f = draw(st.integers(q, q + 12))
    if q >= 0:  # 5**q must divide o
        k = draw(st.integers(2**53 // 5**q + 1, 2**54 // 5**q - 1)) | 1
        o, w = 5**q * k, k * 2**(f - q)
    else:
        o = 2 * draw(st.integers(2**52, 2**53 - 1)) + 1
        w = o * 2**(f - q) * 5**-q
    if not (2**53 < o < 2**54 and w < 10**19):
        w, q = 2**53 + 1, 0
    return w, q


@st.composite
def decimals(draw):
    """A decimal token ``float()`` reads: a significand w of 1-19 digits,
    or 17-19 digits above 2**53, or a tie between two doubles, or 0,
    with leading and trailing zeros, a '.' anywhere or none, a sign or
    none, and an exponent that puts its last digit at q, often at the
    ends of the table or one step past them."""
    kind = draw(st.sampled_from(["digits", "wide", "tie", "zero"]))
    q = draw(st.integers(Q_MIN - 1, Q_MAX + 1)
             | st.sampled_from([Q_MIN - 1, Q_MIN, Q_MAX, Q_MAX + 1]))
    if kind == "digits":
        n = draw(st.integers(1, 19))
        w = draw(st.integers(10**(n - 1), 10**n - 1))
    elif kind == "wide":
        w = draw(st.integers(2**53 + 1, 10**19 - 1))
    elif kind == "tie":
        w, q = draw(ties())
    else:
        w = 0
    zeros = draw(st.integers(0, 3))
    digits = "0" * draw(st.integers(0, 3)) + str(w) + "0" * zeros
    q -= zeros
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is None:
        mantissa = digits
    else:
        mantissa = digits[:point] + "." + digits[point:]
        q += len(digits) - point
    exponent = ""
    if q != 0 or draw(st.booleans()):
        exponent = draw(st.sampled_from(["e", "E"])) + draw(
            st.sampled_from(["", "+"] if q >= 0 else [""])) + str(q)
    return draw(st.sampled_from(["", "-", "+"])) + mantissa + exponent


# Signs, zeros and the shortest spellings.
SHAPES = ["-0", "+0", "0", "-0.0", "0e-999", "1.", ".5", "-.5", "+1.e+0",
          "9007199254740993", "900719925474099.3e1", "1e22", "1e23",
          "1e-30", "1e-31", "1234567890123456789", "12345678901234567890",
          "9223372036854775808", "92233720368547758080",
          "0." + "0" * 40 + "1e40"]


def takes_the_exact_path(token):
    """Whether ``read_decimal`` converts ``token`` itself: at most 19
    digits from the first that is not 0, the last of them at an exponent
    in the table, or no such digit, and at most 64 characters."""
    m = re.fullmatch(r"[+-]?(\d*)\.?(\d*)(?:[eE]([+-]?\d+))?", token)
    significant = (m[1] + m[2]).lstrip("0")
    q = int(m[3] or 0) - len(m[2])
    return len(token) <= 64 and len(significant) <= 19 and (
        not significant or Q_MIN <= q <= Q_MAX)


def test_table_is_the_scripts():
    source = kernel._SOURCE.read_text()
    body = re.search(r"pow5_table\[[^]]*\] = \{(.*?)\};", source, re.S)
    assert [int(w, 16) for w in re.findall(r"0x[0-9a-f]{16}",
                                           body.group(1))] == SCRIPT.table()
    assert re.search(r"#define Q_MIN \((-\d+)\)", source)[1] == str(Q_MIN)
    assert re.search(r"#define Q_MAX (\d+)", source)[1] == str(Q_MAX)


@pytest.fixture(scope="module")
def c_read(tmp_path_factory):
    """``read_decimal`` of ``kernel.c``, built as the kernel is, over a
    list of tokens: for each, its bits where it reads the whole token,
    else None."""
    tmp = tmp_path_factory.mktemp("decimal")
    (tmp / "decimal.c").write_text(
        f'#include "{kernel._SOURCE}"\n'
        "void read_all(const char *buf, const int64_t *ends, int64_t n,\n"
        "              double *v, int64_t *failed)\n"
        "{\n"
        "    const char *p = buf;\n"
        "    for (int64_t i = 0; i < n; i++) {\n"
        "        const char *end = buf + ends[i], *c = p;\n"
        "        failed[i] = read_decimal(&c, end, v + i) || c != end;\n"
        "        p = end;\n"
        "    }\n"
        "}\n")
    subprocess.run([*kernel._COMPILE, str(tmp / "decimal.c"), "-o",
                    str(tmp / "decimal.so")], check=True,
                   capture_output=True, timeout=300)
    read_all = ctypes.CDLL(str(tmp / "decimal.so")).read_all
    read_all.argtypes = [ctypes.c_char_p, ctypes.c_void_p, ctypes.c_int64,
                         ctypes.c_void_p, ctypes.c_void_p]

    def run(tokens):
        ends, offset = array("q"), 0
        for token in tokens:
            offset += len(token)
            ends.append(offset)
        v, failed = array("d", [0.0]) * len(tokens), array("q", ends)
        read_all("".join(tokens).encode(), ends.buffer_info()[0],
                 len(tokens), v.buffer_info()[0], failed.buffer_info()[0])
        return [None if bad else x.hex() for x, bad in zip(v, failed)]
    return run


@given(st.lists(decimals() | st.sampled_from(SHAPES), min_size=1,
                max_size=20))
@example(SHAPES)
@settings(max_examples=500, deadline=None)
def test_reads_what_it_takes_as_float_does(c_read, tokens):
    want = [float(t).hex() if takes_the_exact_path(t) else None
            for t in tokens]
    assert c_read(tokens) == want


def test_the_shapes_it_leaves_to_strtod(c_read):
    # An exponent past the table, a 20th significant digit, a token over
    # 64 characters, an underscore, or a character a number holds after
    # it: read_decimal takes none of them.
    tokens = ["1e23", "1e-31", "12345678901234567890", "1" + "0" * 19,
              "0" * 64 + "1", "1_0", "1.5.", "1e5e5", "1-", "1e", "1e+",
              ".", "-", "", "e5", "+-1"]
    assert c_read(tokens) == [None] * len(tokens)
