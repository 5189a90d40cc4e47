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
from itertools import chain, repeat

_from_bytes = int.from_bytes
_flat = chain.from_iterable


class Codec:
    """Packs the elements of one vector or matrix space into ints.

    ``encode``/``decode`` convert one element; ``encode_all`` packs many in
    C-level passes; ``add`` adds two codes.  Nothing is validated: every
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
