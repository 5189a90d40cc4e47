"""Dense exact linear algebra over a :class:`~gnetcode.field.Field`.

Vectors are tuples of field elements (integers), matrices are tuples of
row tuples.  Everything is immutable and hashable, so elements can key
dicts and sets at the public boundary; the engines' scans over transfer
rows run on packed integer codes instead (see :mod:`gnetcode.codec`).
"""

from __future__ import annotations

import operator
from itertools import chain, repeat

from .field import Field

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def zeros(rows: int, cols: int) -> Matrix:
    return ((0,) * cols,) * rows


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def dims(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def is_element(f: Field, a, shape: tuple[int, ...]) -> bool:
    """Is ``a`` a vector ``(n,)`` or matrix ``(rows, cols)`` over ``f``?"""
    q = f.q
    if len(shape) == 1:
        return (isinstance(a, tuple) and len(a) == shape[0]
                and all(isinstance(x, int) and 0 <= x < q for x in a))
    rows, cols = shape
    return (isinstance(a, tuple) and len(a) == rows
            and all(isinstance(r, tuple) and len(r) == cols for r in a)
            and all(isinstance(x, int) and 0 <= x < q for r in a for x in r))


def all_vectors(q: int, vectors, length: int) -> bool:
    """Is every one of ``vectors``, a collection of tuples, ``length``
    integer symbols in range(q)?

    A whole-table check, one set of lengths and one of symbols, for a
    constructor's fast path: a caller that gets False scans in order, so
    its error names the first offending entry.
    """
    try:
        symbols = list(chain.from_iterable(vectors))
        return (set(map(len, vectors)) <= {length}
                and all(map(isinstance, symbols, repeat(int)))
                and set(symbols) <= set(range(q)))
    except TypeError:  # an entry that is not a sequence
        return False


def vec_add(f: Field, u: Vector, v: Vector) -> Vector:
    return tuple(f.add(x, y) for x, y in zip(u, v, strict=True))


def vec_sub(f: Field, u: Vector, v: Vector) -> Vector:
    return tuple(f.sub(x, y) for x, y in zip(u, v, strict=True))


def vec_neg(f: Field, u: Vector) -> Vector:
    return tuple(f.neg(x) for x in u)


def vec_scale(f: Field, s: int, u: Vector) -> Vector:
    return tuple(f.mul(s, x) for x in u)


def mat_add(f: Field, a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(f, ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_sub(f: Field, a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(f, ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_neg(f: Field, a: Matrix) -> Matrix:
    return tuple(vec_neg(f, r) for r in a)


def mat_scale(f: Field, s: int, a: Matrix) -> Matrix:
    return tuple(vec_scale(f, s, r) for r in a)


def adder(f: Field, shape: tuple[int, ...]):
    """Unchecked ``a + b`` for vectors ``(n,)`` or matrices ``(rows, cols)``.

    Adds straight through the field's addition table, without validating
    symbols or lengths: the caller guarantees both operands are elements of
    ``shape`` over ``f``.  Inner pair scans use it after checking their
    inputs once at the boundary.
    """
    row = f.add_table.__getitem__
    getitem = operator.getitem

    def vec(a, b):
        return tuple(map(getitem, map(row, a), b))

    if len(shape) == 1:
        return vec
    return lambda a, b: tuple(map(vec, a, b))


def scaler(f: Field, shape: tuple[int, ...]):
    """Unchecked ``s * a`` for vectors or matrices, as :func:`adder` adds."""
    rows = f.mul_table

    def vec(s, a):
        return tuple(map(rows[s].__getitem__, a))

    if len(shape) == 1:
        return vec
    return lambda s, a: tuple(vec(s, r) for r in a)


def multiplier(f: Field, m: Matrix, shape: tuple[int, ...]):
    """Unchecked ``a * m`` for vectors ``(n,)`` or matrices ``(rows, n)``,
    as :func:`adder` adds: the caller guarantees ``a`` and ``m`` are
    elements over ``f`` of matching sizes."""
    mul, add = f.mul_table, f.add_table
    cols = transpose(m)

    def vec(v):
        out = []
        for col in cols:
            acc = 0
            for s, t in zip(v, col):
                acc = add[acc][mul[s][t]]
            out.append(acc)
        return tuple(out)

    if len(shape) == 1:
        return vec
    return lambda a: tuple(map(vec, a))


def vec_mat_mul(f: Field, v: Vector, a: Matrix) -> Vector:
    ra, _ = dims(a)
    if len(v) != ra:
        raise ValueError(f"dimension mismatch: 1x{len(v)} times {ra}x{dims(a)[1]}")
    return tuple(_dot(f, v, col) for col in transpose(a))


def _dot(f: Field, u: Vector, v: Vector) -> int:
    acc = 0
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def block_diag(blocks: list[Matrix]) -> Matrix:
    """Block-diagonal assembly of the given matrices."""
    total_r = sum(dims(b)[0] for b in blocks)
    total_c = sum(dims(b)[1] for b in blocks)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for b in blocks:
        br, bc = dims(b)
        for i in range(br):
            for j in range(bc):
                out[r0 + i][c0 + j] = b[i][j]
        r0 += br
        c0 += bc
    return tuple(tuple(row) for row in out)


def _echelon(f: Field, a: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form (on a copy); returns (rows, pivot columns).

    Rows past ``len(pivots)`` are zero.  Symbols are checked: an element
    outside the field raises ``ValueError``.
    """
    mat = [list(r) for r in a]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = f.inv(mat[r][col])
        mat[r] = [f.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def rank(f: Field, a: Matrix) -> int:
    return len(_echelon(f, a)[1])


def pivot_columns(f: Field, a: Matrix) -> list[int]:
    """Leftmost maximal independent column set (lexicographically first)."""
    return _echelon(f, a)[1]
