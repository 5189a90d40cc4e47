"""Exact arithmetic in small finite fields GF(q), q = p^k.

Field elements are plain integers in ``range(q)``.  The integer ``a``
stands for the polynomial ``a0 + a1*x + ... + a_{k-1}*x^(k-1)`` where
``(a0, ..., a_{k-1})`` are the base-p digits of ``a``, least significant
first.  Integer order therefore doubles as the canonical element order:
``0, 1, ..., p-1, x, x+1, ...`` -- zero first, then ascending by
coefficients with higher-degree coefficients more significant.

Extension fields (k > 1) reduce products modulo a monic irreducible
polynomial of degree k, given as a coefficient list with the constant term
first.  When no modulus is supplied the field picks the irreducible
polynomial with the smallest integer encoding, which is deterministic and
matches the element order above.  Irreducibility is verified by trial
division against every lower-degree monic polynomial; that is cheap at the
supported sizes (q <= 256 by default -- every downstream algorithm in this
package enumerates exhaustively, so large fields are rejected up front).

The addition and multiplication tables are built on first use by table
lookups alone: sums digit by digit, and each row of products as the
GF(p)-linear map b -> a*b, fixed by its images of 1, x, ..., x^(k-1).
"""

from __future__ import annotations

from itertools import chain

DEFAULT_MAX_FIELD_SIZE = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Is ``base ** exp > cap``, for ``base >= 2``?  Multiplies up to the
    cap, so it never builds a power much past it."""
    power = 1
    for _ in range(exp):
        power *= base
        if power > cap:
            return True
    return False


# -- polynomial helpers over GF(p); coefficient lists, constant term first --

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over GF(p); den must be monic."""
    rem = list(num)
    dd = len(den) - 1
    while len(rem) - 1 >= dd and rem:
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for i, dc in enumerate(den):
            rem[shift + i] = (rem[shift + i] - lead * dc) % p
        _poly_trim(rem)
    return rem


def is_irreducible(poly: tuple[int, ...] | list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..k//2."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    for deg in range(1, k // 2 + 1):
        for low in range(p ** deg):
            cand = _digits(low, p, deg) + [1]
            if not _poly_rem(list(poly), cand, p):
                return False
    return True


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k with the smallest integer encoding."""
    for low in range(p ** k):
        cand = _digits(low, p, k) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")  # pragma: no cover


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _linear_map(add: list[list[int]], p: int, images: list[int]) -> list[int]:
    """The table of the GF(p)-linear map that sends the basis element p^i
    (the polynomial x^i) to ``images[i]``: entry b is the sum of
    b_i * images[i] over b's base-p digits b_i.

    Each image in turn extends the table by its multiples: the entries for
    b = d*p^i + r, r < p^i, are d*images[i] + the entry for r, read off
    the addition table row of d*images[i], one C-level map per digit d.
    """
    table = [0]
    for image in images:
        multiples = [0]
        for _ in range(p - 1):
            multiples.append(add[multiples[-1]][image])
        table = list(chain.from_iterable([map(add[m].__getitem__, table) for m in multiples]))
    return table


def _poly_str(coeffs: tuple[int, ...]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            pw = "x" if i == 1 else f"x^{i}"
            terms.append(pw if c == 1 else f"{c}{pw}")
    return " + ".join(reversed(terms)) if terms else "0"


class Field:
    """GF(p^k) with integer-encoded elements and table-backed operations.

    Instances are immutable and hashable; two fields compare equal when
    they have the same characteristic, degree and modulus.
    """

    __slots__ = ("p", "k", "q", "modulus", "_add", "_neg", "_mul", "_inv")

    def __init__(self, p: int, k: int = 1,
                 modulus: tuple[int, ...] | list[int] | None = None,
                 max_size: int = DEFAULT_MAX_FIELD_SIZE):
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        # the cap comes first, so a huge p or k costs nothing
        if p >= 2 and power_exceeds(p, k, max_size):
            size = p if k == 1 else f"{p}^{k}"
            raise ValueError(
                f"field size {size} exceeds the enumeration cap {max_size}; "
                "raise max_size explicitly if this is intentional")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            if modulus is not None:
                raise ValueError(f"GF({p}) is a prime field and takes no modulus, "
                                 f"got {tuple(modulus)}")
            self.modulus = None
        else:
            if modulus is None:
                modulus = default_modulus(p, k)
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != k + 1:
                raise ValueError(
                    f"modulus must have degree {k} ({k + 1} coefficients), got {len(modulus)}")
            if any(not 0 <= c < p for c in modulus):
                raise ValueError("modulus coefficients must lie in 0..p-1")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not is_irreducible(modulus, p):
                raise ValueError(
                    f"modulus {_poly_str(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        # operation tables are built lazily on first use
        self._add = None
        self._neg = None
        self._mul = None
        self._inv = None

    def _additive_tables(self) -> list[list[int]]:
        if self._add is None:
            p = self.p
            # a + b adds base-p digits mod p.  In GF(p), row a is 0..p-1
            # rotated by a; each pass puts one more digit in front:
            # a = da*n + ra and b = db*n + rb sum to ((da + db) % p)*n + (ra + rb)
            add = [[*range(a, p), *range(a)] for a in range(p)]
            for n in (p ** i for i in range(1, self.k)):
                add = [list(chain.from_iterable([map(((da + db) % p * n).__add__, add[ra])
                                                 for db in range(p)]))
                       for da in range(p) for ra in range(n)]
            self._add = add
            self._neg = [row.index(0) for row in add]
        return self._add

    def _mul_tables(self) -> list[list[int]]:
        if self._mul is None:
            p, k, q = self.p, self.k, self.q
            if k == 1:
                self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            else:
                add = self._additive_tables()
                # b -> b*x is GF(p)-linear, fixed on the basis x^i: x^i -> x^(i+1)
                # below the top, and x^(k-1) -> x^k, which the modulus reduces to
                # -(m_0 + m_1 x + ... + m_(k-1) x^(k-1))
                top = self._from_digits([(-c) % p for c in self.modulus[:-1]])
                times_x = _linear_map(add, p, [p ** i for i in range(1, k)] + [top])
                # b -> a*b is linear too, fixed by a, a*x, ..., a*x^(k-1)
                mul = []
                for a in range(q):
                    images = [a]
                    for _ in range(k - 1):
                        images.append(times_x[images[-1]])
                    mul.append(_linear_map(add, p, images))
                self._mul = mul
            self._inv = [None] + [row.index(1) for row in self._mul[1:]]
        return self._mul

    def _from_digits(self, digits: list[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._additive_tables()[self._check(a)][self._check(b)]

    def neg(self, a: int) -> int:
        self._additive_tables()
        return self._neg[self._check(a)]

    def sub(self, a: int, b: int) -> int:
        self._additive_tables()
        return self._add[self._check(a)][self._neg[self._check(b)]]

    def mul(self, a: int, b: int) -> int:
        return self._mul_tables()[self._check(a)][self._check(b)]

    def inv(self, a: int) -> int:
        self._mul_tables()
        if self._check(a) == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- representation -----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of ``a``, constant term first."""
        return tuple(_digits(self._check(a), self.p, self.k))

    def element(self, coeffs) -> int:
        """Inverse of :meth:`coeffs`."""
        coeffs = list(coeffs)
        if len(coeffs) != self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"need {self.k} coefficients in 0..{self.p - 1}, got {coeffs}")
        return self._from_digits(coeffs)

    def elements(self) -> list[int]:
        """All q elements in canonical order (zero first)."""
        return list(range(self.q))

    @property
    def add_table(self) -> list[list[int]]:
        """Addition table for hot loops; do not mutate."""
        return self._additive_tables()

    @property
    def mul_table(self) -> list[list[int]]:
        """Multiplication table for hot loops; do not mutate."""
        return self._mul_tables()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.q})=GF({self.p}^{self.k}) mod {_poly_str(self.modulus)}"

