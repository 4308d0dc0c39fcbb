"""Print the table of 2**(j/128) that growbp's pinned exp reads.

For j = 0..127, with H the double nearest 2**(j/128) and the tail the
double nearest (2**(j/128) - H) / H, the table holds two 64-bit words: the
bits of the tail, then the bits of H less j << 45, so that the exp adds
k << 45 to get the bits of 2**(k >> 7) * H.  This is the table of glibc's
generic exp (sysdeps/ieee754/dbl-64/e_exp_data.c), computed here with
``decimal`` at 60 digits.  ``kernel.c`` holds it as ``exp_table``, in the
rows printed, and ``growbp.kernel`` reads it from there.

Run from the repository root:  python3 scripts/exp_table.py
"""

import struct
from decimal import Decimal, localcontext


def bits(x):
    """The 64 bits of the double ``x``, as an int."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def table():
    """The 256 words of the table, in order."""
    words = []
    with localcontext() as ctx:
        ctx.prec = 60
        for j in range(128):
            power = Decimal(2) ** (Decimal(j) / 128)
            head = float(power)  # float() of a Decimal rounds correctly
            tail = float((power - Decimal(head)) / Decimal(head))
            words += [bits(tail), (bits(head) - (j << 45)) % 2**64]
    return words


if __name__ == "__main__":
    words = table()
    for i in range(0, len(words), 3):
        print("    " + " ".join(f"0x{w:016x}," for w in words[i:i + 3]))
