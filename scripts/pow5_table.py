"""Print the table of powers of five that growbp's exact decimal reader uses.

``kernel.c``'s ``number`` reads a decimal w * 10**q, with w of at most 19
digits and Q_MIN <= q <= Q_MAX, by the Eisel-Lemire method (Lemire,
"Number parsing at a gigabyte per second", Software: Practice and
Experience 51(8), 2021): one 64 x 128-bit product of w with a 128-bit
approximation of 5**q.  This script computes those approximations as the
fast_float library does, which is the table that Mushtak and Lemire, "Fast
number parsing without fallback", Software: Practice and Experience 53(6),
2023, prove the product correctly rounded with.  Each power is shifted so
that its top bit is bit 127: 5**q itself, cut to its top 128 bits, for
q >= 0, and one more than floor(2**b / 5**-q), cut the same way, for
q < 0.  ``kernel.c`` holds it as ``pow5_table``, two 64-bit words a power,
high word first, one power a line, in the rows printed.

Run from the repository root:  python3 scripts/pow5_table.py
"""

Q_MIN, Q_MAX = -30, 22


def power(q):
    """The 128-bit approximation of 5**q, with its top bit set."""
    if q >= 0:
        c = 5**q
        while c < 2**127:
            c *= 2
    else:
        five = 5**-q
        z = five.bit_length()
        b = z + 127 if q >= -27 else 2 * z + 128
        c = 2**b // five + 1
    while c >= 2**128:
        c //= 2
    return c


def table():
    """The words of the table, high then low, from Q_MIN to Q_MAX."""
    words = []
    for q in range(Q_MIN, Q_MAX + 1):
        c = power(q)
        words += [c >> 64, c % 2**64]
    return words


if __name__ == "__main__":
    words = table()
    for i in range(0, len(words), 2):
        print(f"    0x{words[i]:016x}, 0x{words[i + 1]:016x},")
