"""Output words as packed integer codes.

Every scan over a channel's transfer rows (reach maps, meet tables,
decoders, classification) works on codes: each element of the output
space is packed into one int, so a dict lookup hashes an int and an
addition is one XOR on GF(2^k), or a fixed handful of big-int operations
otherwise.  Tuples appear only at the public boundary.

Layout.  The N symbols of a word (a matrix's entries row-major) each take
a field of ``8*width`` bits, the first symbol most significant.  A symbol's
field holds its base-p coefficients, one digit each:

* p = 2: the symbol itself, whose bits are its coefficients, so adding
  symbols is XOR; ``width`` is one byte up to GF(256).
* odd p: one digit of 8 bits per coefficient (16 bits once p >= 128), the
  highest-degree coefficient first; a prime field's symbol is its own
  single digit.  Codes add digitwise mod p with the carry-free identity
  ``s - p * (((s + K) >> (w - 1)) & ONES)``, s = a + b, where ONES has a 1
  at the bottom of each w-bit digit and K = (2^(w-1) - p) * ONES: a digit
  sum d <= 2p - 2 sets its top bit after adding 2^(w-1) - p exactly when
  d >= p, and no digit ever carries into the next.

Distinct words get distinct codes, the zero word's code is 0, and code
addition agrees with the space's own.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from itertools import chain, repeat

_from_bytes = int.from_bytes
_flat = chain.from_iterable
# memoryview formats of the unsigned machine integers, by size in bytes
_UNSIGNED = {struct.calcsize(c): c for c in "BHIQ"}


class Codec:
    """Packs the elements of one vector or matrix space into ints.

    ``encode``/``decode`` convert one element; ``encode_all`` packs many in
    C-level passes; ``from_columns`` packs words given as one list per
    symbol position; ``add`` adds two codes.  Nothing is validated: every
    operand must be an element of the space (or its code).
    """

    def __init__(self, space):
        f = space.field
        self.shape = space.shape
        length = math.prod(self.shape)
        p, k = f.p, f.k
        if p == 2:
            width = (k + 7) // 8
            symbol = list(range(f.q))
            self.add = operator.xor
        else:
            digit = (p.bit_length() + 8) // 8  # bytes per digit: p < 2^(8*digit - 1)
            width = k * digit
            w = 8 * digit
            symbol = [sum(c << (w * i) for i, c in enumerate(f.coeffs(s))) for s in range(f.q)]
            ones = sum(1 << (w * i) for i in range(length * k))
            bias, top = ((1 << (w - 1)) - p) * ones, w - 1

            def add(a, b):
                s = a + b
                return s - p * (((s + bias) >> top) & ones)
            self.add = add
        self.bits = 8 * width
        self._bytes = [v.to_bytes(width, "big") for v in symbol]
        self._byte_tables = [[b[j] for b in self._bytes] for j in range(width)]
        self._of_bytes = {b: s for s, b in enumerate(self._bytes)}
        self._nbytes = width * length
        # each symbol's field holds the symbol itself in one byte: a word's
        # symbols are its bytes
        self._one_byte = (p == 2 or k == 1) and width == 1
        self._pack = bytes if self._one_byte else (
            lambda flat: b"".join(map(self._bytes.__getitem__, flat)))

    def encode(self, y) -> int:
        flat = y if len(self.shape) == 1 else _flat(y)
        return _from_bytes(self._pack(flat), "big")

    def encode_all(self, words) -> list[int]:
        if len(self.shape) == 2:
            words = map(_flat, words)
        return list(map(_from_bytes, map(self._pack, words), repeat("big")))

    def from_columns(self, cols: list) -> list[int]:
        """Codes of the words whose k-th symbols are ``cols[k]``, k = 0..N-1.

        The words' bytes are interleaved in one buffer, one C-level slice
        assignment per symbol byte, and read back by :meth:`_ints`.
        """
        n, width = self._nbytes, self.bits // 8
        buf = bytearray(len(cols[0]) * n)
        for k, col in enumerate(cols):
            for j, table in enumerate(self._byte_tables):
                buf[k * width + j::n] = bytes(col if self._one_byte
                                              else map(table.__getitem__, col))
        return self._ints(buf)

    def _ints(self, packed) -> list[int]:
        """Codes of the words whose big-endian bytes ``packed`` concatenates.

        A word of at most 8 bytes is read as a machine integer: each is
        copied into its own slot of 1, 2, 4 or 8 bytes in the host's byte
        order, and one memoryview cast reads them all.  A longer word takes
        one ``int.from_bytes``.
        """
        n = self._nbytes
        if n > 8:
            starts, ends = range(0, len(packed), n), range(n, len(packed) + 1, n)
            words = map(packed.__getitem__, map(slice, starts, ends))
            return list(map(_from_bytes, words, repeat("big")))
        slot = 1 << (n - 1).bit_length()
        out = bytearray(len(packed) // n * slot)
        for j in range(n):  # byte j of a word is its (n-1-j)-th least significant
            out[(n - 1 - j if sys.byteorder == "little" else slot - n + j)::slot] = packed[j::n]
        return memoryview(out).cast(_UNSIGNED[slot]).tolist()

    def decode(self, code: int):
        raw = code.to_bytes(self._nbytes, "big")
        if self._one_byte:
            flat = tuple(raw)
        else:
            step = self.bits // 8
            flat = tuple(self._of_bytes[raw[i:i + step]] for i in range(0, len(raw), step))
        if len(self.shape) == 1:
            return flat
        cols = self.shape[1]
        return tuple(flat[i:i + cols] for i in range(0, len(flat), cols))
