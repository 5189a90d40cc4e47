"""Weight measures on error vectors: Hamming, rank and sum-rank.

Besides the weights themselves this module provides the constructive
splitting of an error into two parts of prescribed weights (the
decomposability property that error-linear channels require; a rank or
sum-rank error's splits all come from one row reduction),
:func:`symbol_sums`, which weighs all of GF(q)^n from per-symbol weights,
:func:`index_sums`, which adds errors as enumeration indices, and three
axiom verifiers for the theorem harness.  :func:`verify_weight_axioms`
scans the given errors and their pairs (sampled past a budget).  The other
two decide the axioms over a whole error space from its cached weight
list: :func:`verify_separable_axioms` for the Hamming weight, which is a
sum of per-symbol weights (separability on the list, the four axioms once
on GF(q)^1), and :func:`verify_rank_axioms` for rank and sum-rank weights
(nonnegativity, inverse invariance and decomposability on every error,
subadditivity on every pair of at most a budget of errors, else of a
seeded sample), in O(|E|) plus the scanned pairs.

Flat error vectors are tuples of field elements; matrix errors are tuples
of row tuples.  The sum-rank weight carries a column partition
``blocks = (u_1, ..., u_l)``; a single block reduces it to the plain rank
weight.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import gt, ne

from .field import Field
from . import matrices as mx

HAMMING = "hamming"
RANK = "rank"
SUM_RANK = "sum-rank"
_KINDS = (HAMMING, RANK, SUM_RANK)

# rank and sum-rank subadditivity (verify_rank_axioms) scans every pair of
# at most this many errors, else of a seeded sample of this many
AXIOM_ELEMENT_BUDGET = 256


def hamming_weight(v) -> int:
    """Number of nonzero coordinates (of a vector, or of a matrix's rows)."""
    if v and isinstance(v[0], tuple):
        return sum(len(r) - r.count(0) for r in v)
    return len(v) - v.count(0)


def symbol_sums(symbol_weights: list[int], n: int) -> list[int]:
    """``sum_i w(z_i)`` for all z in GF(q)^n, in base-q enumeration order.

    ``symbol_weights`` lists w(0), ..., w(q-1).  Element i of the list
    weighs element i of ``itertools.product(range(q), repeat=n)`` (a matrix
    space's entries flattened row-major enumerate the same way).  A leading
    digit d adds w(d) to every weight of the digits after it, so each of
    the n levels is one comprehension over the level before.
    """
    sums = [0]
    for _ in range(n):
        sums = [w + s for w in symbol_weights for s in sums]
    return sums


def index_sums(table: list[list[int]], a: int, places: int, b: int | None = None) -> list[int]:
    """Enumeration indices of za + zb in a space of ``places`` base-q digits.

    Errors enumerate as base-q numbers (a matrix's entries row-major, the
    last coordinate lowest), and addition is digitwise, so the index of
    za + zb is built one digit at a time, highest place first, from the
    field's addition ``table``.  Returns the index for every zb, by zb's
    index, or, given ``b``, the one-element list for zb at index b.
    """
    q = len(table)
    sums = [0]
    for p in reversed(range(places)):
        step = q ** p
        digit_sums = table[a // step % q]
        sums = ([s * q + c for s in sums for c in digit_sums] if b is None
                else [sums[0] * q + digit_sums[b // step % q]])
    return sums


def rank_weight(f: Field, a: mx.Matrix) -> int:
    """Column rank, by exact Gaussian elimination over the field."""
    return mx.rank(f, a)


def sum_rank_weight(f: Field, a: mx.Matrix, blocks: tuple[int, ...]) -> int:
    """Sum of per-block column ranks under the given column partition."""
    return sum(mx.rank(f, b) for b in split_blocks(a, blocks))


def split_blocks(a: mx.Matrix, blocks: tuple[int, ...]) -> list[mx.Matrix]:
    _, cols = mx.dims(a)
    if sum(blocks) != cols or any(b <= 0 for b in blocks):
        raise ValueError(f"block partition {blocks} does not cover {cols} columns")
    out = []
    start = 0
    for width in blocks:
        out.append(tuple(row[start:start + width] for row in a))
        start += width
    return out


def join_blocks(parts: list[mx.Matrix]) -> mx.Matrix:
    return tuple(sum(rows, ()) for rows in zip(*parts))


def decompose_hamming(z, c1: int, c2: int):
    """Split z = z1 + z2 with Hamming weights exactly (c1, c2).

    The first c1 nonzero coordinates go to z1, the rest to z2 (a matrix's
    entries are taken in row-major order); supports are disjoint so the
    split is field-independent.
    """
    w = hamming_weight(z)
    if c1 < 0 or c2 < 0 or c1 + c2 != w:
        raise ValueError(f"split ({c1}, {c2}) does not sum to the weight {w}")
    if not (z and isinstance(z[0], tuple)):
        return _split_after_nonzeros(z, c1)
    cols = len(z[0])
    flat1, flat2 = _split_after_nonzeros(tuple(x for row in z for x in row), c1)
    return (tuple(flat1[i:i + cols] for i in range(0, len(flat1), cols)),
            tuple(flat2[i:i + cols] for i in range(0, len(flat2), cols)))


def _split_after_nonzeros(v: tuple, count: int):
    """``v`` cut after its ``count``-th nonzero symbol, each side zero-padded."""
    cut = 0
    while count > 0 and cut < len(v):
        if v[cut]:
            count -= 1
        cut += 1
    return v[:cut] + (0,) * (len(v) - cut), (0,) * cut + v[cut:]


def rank_splits(f: Field, z: mx.Matrix) -> list[tuple[mx.Matrix, mx.Matrix]]:
    """Every split z = z1 + z2 with column ranks (c, r - c), for c = 0..r,
    r = rank z, from one row reduction.

    The reduction factors z = C·F: C holds z's pivot columns (its leftmost
    maximal independent column set) and F the nonzero rows of its reduced
    echelon form, so column j of F expresses z's column j in C's basis.
    Split c is z1 = C[:, :c]·F[:c] and z2 = C[:, c:]·F[c:]: z1 keeps the
    first c pivot columns and every other column's part in their span.
    Both are running sums of the rank-one terms C[:, k]·F[k], from the
    front and from the back.  The terms add on the field's raw tables, as
    the checked elimination has already rejected any symbol outside the
    field.
    """
    reduced, pivots = mx._echelon(f, z)
    mul = f.mul_table
    add = mx.adder(f, mx.dims(z))
    zero = mx.zeros(*mx.dims(z))
    terms = [tuple(tuple(map(mul[row[p]].__getitem__, reduced[k])) for row in z)
             for k, p in enumerate(pivots)]
    heads = itertools.accumulate(terms, add, initial=zero)
    tails = list(itertools.accumulate(reversed(terms), add, initial=zero))
    return list(zip(heads, reversed(tails)))


def sum_rank_splits(f: Field, z: mx.Matrix,
                    blocks: tuple[int, ...]) -> list[tuple[mx.Matrix, mx.Matrix]]:
    """Every split z = z1 + z2 with sum-rank weights (c, total - c), for
    c = 0..total, from one row reduction per block.

    Per-block rank targets are chosen greedily left to right: block i gets
    e_i = min(rank_i, remaining c) for z1 and the rest for z2, and its
    split e_i from :func:`rank_splits`.
    """
    per_block = [rank_splits(f, part) for part in split_blocks(z, blocks)]
    out = []
    for c in range(sum(map(len, per_block)) - len(per_block) + 1):
        remaining = c
        parts1, parts2 = [], []
        for splits in per_block:
            e = min(len(splits) - 1, remaining)
            remaining -= e
            parts1.append(splits[e][0])
            parts2.append(splits[e][1])
        out.append((join_blocks(parts1), join_blocks(parts2)))
    return out


def _split(splits: list, c1: int, c2: int, weight: str):
    """Split c1 of ``splits``, if (c1, c2) sums to their total weight."""
    total = len(splits) - 1
    if c1 < 0 or c2 < 0 or c1 + c2 != total:
        raise ValueError(f"split ({c1}, {c2}) does not sum to the {weight} {total}")
    return splits[c1]


def decompose_rank(f: Field, z: mx.Matrix, c1: int, c2: int):
    """Split z = z1 + z2 with column ranks exactly (c1, c2): split c1 of
    :func:`rank_splits`."""
    return _split(rank_splits(f, z), c1, c2, "rank")


def decompose_sum_rank(f: Field, z: mx.Matrix, c1: int, c2: int,
                       blocks: tuple[int, ...]):
    """Split z = z1 + z2 with sum-rank weights exactly (c1, c2): split c1
    of :func:`sum_rank_splits`."""
    return _split(sum_rank_splits(f, z, blocks), c1, c2, "sum-rank")


@dataclass(frozen=True)
class WeightMeasure:
    """A named weight measure, optionally with a sum-rank column partition."""

    kind: str
    blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == SUM_RANK:
            if not self.blocks or any(b <= 0 for b in self.blocks):
                raise ValueError("sum-rank weight needs a nonempty positive block partition")
        elif self.blocks is not None:
            raise ValueError(f"{self.kind} weight takes no block partition")

    def weight(self, f: Field, z) -> int:
        if self.kind == HAMMING:
            return hamming_weight(z)
        if self.kind == RANK:
            return rank_weight(f, z)
        return sum_rank_weight(f, z, self.blocks)

    def decompose(self, f: Field, z, c1: int, c2: int):
        if self.kind == HAMMING:
            return decompose_hamming(z, c1, c2)
        if self.kind == RANK:
            return decompose_rank(f, z, c1, c2)
        return decompose_sum_rank(f, z, c1, c2, self.blocks)

    def max_weight(self, shape: tuple[int, ...]) -> int:
        """Largest weight attainable on errors of the given shape."""
        if self.kind == HAMMING:
            return shape[0] if len(shape) == 1 else shape[0] * shape[1]
        rows, cols = shape
        if self.kind == RANK:
            return min(rows, cols)
        return sum(min(rows, u) for u in self.blocks)

    def check_shape(self, shape: tuple[int, ...]) -> None:
        if self.kind == HAMMING:
            return
        if len(shape) != 2:
            raise ValueError(f"{self.kind} weight needs matrix errors, got shape {shape}")
        if self.kind == SUM_RANK and sum(self.blocks) != shape[1]:
            raise ValueError(
                f"block partition {self.blocks} does not cover {shape[1]} columns")


# -- axiom verification -----------------------------------------------------

def _checked_shape(f: Field, elements: list) -> tuple[int, ...]:
    """The shape of the first element; ValueError unless every element has it."""
    if not elements:
        raise ValueError("the weight axioms need at least one element")
    first = elements[0]
    if not isinstance(first, tuple):
        raise ValueError(f"{first!r} is not a vector or matrix over {f}")
    if first and isinstance(first[0], tuple):
        shape, kind = (len(first), len(first[0])), f"{len(first)}x{len(first[0])} matrix"
    else:
        shape, kind = (len(first),), f"length-{len(first)} vector"
    for z in elements:
        if not mx.is_element(f, z, shape):
            raise ValueError(f"{z!r} is not a {kind} over {f}")
    return shape


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: tuple | None = None


def _first_failure(witnesses) -> AxiomCheck:
    """Fail with the first witness a lazy scan yields; pass when it yields none."""
    witness = next(iter(witnesses), None)
    return AxiomCheck(True) if witness is None else AxiomCheck(False, witness)


@dataclass(frozen=True)
class AxiomReport:
    """The four axiom verdicts; ``separability`` is set by the separable route only."""

    nonnegativity: AxiomCheck
    subadditivity: AxiomCheck
    inverse_invariance: AxiomCheck
    decomposability: AxiomCheck
    separability: AxiomCheck | None = None

    @property
    def passed(self) -> bool:
        checks = (self.separability, self.nonnegativity, self.subadditivity,
                  self.inverse_invariance, self.decomposability)
        return all(c.passed for c in checks if c is not None)


def verify_weight_axioms(f: Field, elements, measure: WeightMeasure,
                         pair_budget: int | None = None, seed: int = 0) -> AxiomReport:
    """Check the weight axioms over the given error sample.

    Every element is validated once, on entry: each must be a vector or
    matrix over ``f`` of the first element's shape, else ``ValueError``
    (an empty sample raises too).  The pair scans then add on the field's
    raw table.  Subadditivity runs over all pairs in row-major order (``a``
    outer, ``b`` inner) unless ``pair_budget`` caps them; then
    ``pair_budget`` pairs are drawn one at a time from
    ``random.Random(seed)``.  Either way the witness is the first failing
    pair.  Decomposability checks the measure's constructive splitting; a
    split it cannot construct (its weight disagrees with the one its
    construction reads, so ``decompose`` raises ``ValueError``) fails.
    Failures are reported, never raised.
    """
    elements = list(elements)
    shape = _checked_shape(f, elements)
    add = mx.adder(f, shape)
    neg = mx.mat_neg if len(shape) == 2 else mx.vec_neg
    cache: dict = {}

    def w(z):
        got = cache.get(z)
        if got is None:
            got = cache[z] = measure.weight(f, z)
        return got

    zero = mx.zeros(*shape) if len(shape) == 2 else (0,) * shape[0]

    nonneg = _first_failure((z, wz) for z in elements
                            if (wz := w(z)) < 0 or (wz == 0) != (z == zero))

    n = len(elements)
    weights = [w(z) for z in elements]
    if pair_budget is not None and n * n > pair_budget:
        rng = random.Random(seed)
        pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(pair_budget))
    else:
        pairs = itertools.product(range(n), repeat=2)

    subadd = _first_failure((elements[i], elements[j]) for i, j in pairs
                            if w(add(elements[i], elements[j])) > weights[i] + weights[j])
    inverse = _first_failure((z,) for z in elements if w(neg(f, z)) != w(z))

    def splits(z, c1, c2):
        try:
            z1, z2 = measure.decompose(f, z, c1, c2)
        except ValueError:
            return False
        return w(z1) == c1 and w(z2) == c2 and add(z1, z2) == z

    decomp = _first_failure((z, c, w(z) - c) for z in elements for c in range(w(z) + 1)
                            if not splits(z, c, w(z) - c))
    return AxiomReport(nonneg, subadd, inverse, decomp)


def verify_separable_axioms(errors, order: list[int], weights: list[int]) -> AxiomReport:
    """Check the Hamming weight's axioms over a whole error space.

    ``errors`` is the space's :class:`~gnetcode.channel.ErrorModel` and
    ``(order, weights)`` its cached weight order (enumeration indices
    sorted by weight, and their weights); they are trusted, not
    re-validated.  The Hamming weight is a sum of one weight per
    coordinate (or matrix entry), and addition and negation act coordinate
    by coordinate.  So the axioms over the whole space follow from exact
    checks:

    * separability, ``w(z) == sum_i w(z_i)``, on every error, as one
      C-level comparison of ``weights`` with :func:`symbol_sums`;
    * the four axioms on the factor space GF(q)^1, by
      :func:`verify_weight_axioms` over all of its q^2 pairs; a factor
      witness is lifted to the whole space by placing its symbol in the
      first coordinate with every other one zero.

    When separability holds and the zero symbol weighs 0 (else
    nonnegativity fails), the nonnegativity, subadditivity and inverse
    invariance verdicts equal those of an exhaustive whole-space scan.  So
    does decomposability once nonnegativity passes too: every nonzero
    symbol then weighs at least 1, and the constructive split is valid on
    the whole space iff every nonzero symbol weighs exactly 1, iff it is
    valid on GF(q)^1.  Every witness is a counterexample in the whole
    space.  A separability failure is reported as its own check,
    ``(z, w(z), sum_i w(z_i))`` for the first z in weight order; the other
    verdicts then speak only for the symbol weights, as decomposability
    does when nonnegativity fails.  A witness is lifted to a tuple from its
    enumeration index.  Rank and sum-rank weights take
    :func:`verify_rank_axioms` instead.
    """
    space, measure = errors.space, errors.measure
    if measure.kind != HAMMING:
        raise ValueError(f"the separable route covers the Hamming weight only, "
                         f"not the {measure.kind} weight")
    f = space.field
    symbols = [(s,) for s in range(f.q)]
    totals = symbol_sums([measure.weight(f, s) for s in symbols], math.prod(space.shape))
    step = len(totals) // f.q  # symbol s in the first coordinate has index s * step

    def element(i):
        return next(itertools.islice(space.elements(), i, None))

    separable = _first_failure(
        (element(order[i]), weights[i], totals[order[i]])
        for i in itertools.compress(itertools.count(),
                                    map(ne, weights, map(totals.__getitem__, order))))

    factor = verify_weight_axioms(f, symbols, measure)
    nonneg, subadd, inverse, decomp = (factor.nonnegativity, factor.subadditivity,
                                       factor.inverse_invariance, factor.decomposability)
    if not nonneg.passed:
        i = nonneg.witness[0][0] * step
        nonneg = AxiomCheck(False, (element(i), weights[order.index(i)]))
    if not subadd.passed:
        subadd = AxiomCheck(False, tuple(element(s * step) for (s,) in subadd.witness))
    if not inverse.passed:
        inverse = AxiomCheck(False, (element(inverse.witness[0][0] * step),))
    if not decomp.passed:
        (s,), c1, c2 = decomp.witness
        decomp = AxiomCheck(False, (element(s * step), c1, c2))
    return AxiomReport(nonneg, subadd, inverse, decomp, separable)


def verify_rank_axioms(errors, order: list[int], weights: list[int], seed: int) -> AxiomReport:
    """Check a rank or sum-rank weight's axioms over a whole error space.

    ``errors`` is the space's :class:`~gnetcode.channel.ErrorModel` and
    ``(order, weights)`` its cached weight order, trusted as in
    :func:`verify_separable_axioms`.  The scans run on enumeration indices,
    and every weight they need, a split part's too, is a lookup in the
    cached weights; the zero error is index 0, negation is one digitwise
    index map and sums come from :func:`index_sums`.  Nonnegativity,
    inverse invariance and decomposability are checked on every error,
    subadditivity on every pair of a scan list: every error when there are
    at most AXIOM_ELEMENT_BUDGET, else ``random.Random(seed).sample(order,
    AXIOM_ELEMENT_BUDGET)`` with the zero error in place of the first draw
    if the draw missed it.  Each scan runs in weight order (the sample in
    its drawn order, ``a`` outer), so on at most AXIOM_ELEMENT_BUDGET
    errors the report, witnesses included, is that of
    :func:`verify_weight_axioms` over every error in weight order, and past
    it the subadditivity verdict is that call's on the sample.

    Each error is row-reduced once: all of its splits come from one
    factorization (:func:`rank_splits`, :func:`sum_rank_splits`), the
    construction the measure's ``decompose`` reads.  Split c of z is valid
    iff its parts' cached weights are (c, w(z) - c) and their index sum is
    z's index; when the factorization's rank differs from z's cached
    weight, split 0 fails, where ``decompose`` would raise.  The cost is
    O(|E|) plus the scanned pairs.
    """
    space, measure = errors.space, errors.measure
    if measure.kind == HAMMING:
        raise ValueError("the rank route covers the rank and sum-rank weights, "
                         "not the Hamming weight")
    f = space.field
    table, q = f.add_table, f.q
    places = math.prod(space.shape)
    elements = list(space.elements())  # by enumeration index
    index = dict(zip(elements, itertools.count()))
    w = [0] * len(elements)  # weights by enumeration index
    for i, wi in zip(order, weights):
        w[i] = wi

    nonneg = _first_failure((elements[i], wi) for i, wi in zip(order, weights)
                            if wi < 0 or (wi == 0) != (i == 0))

    scan = order
    if len(scan) > AXIOM_ELEMENT_BUDGET:
        scan = random.Random(seed).sample(order, AXIOM_ELEMENT_BUDGET)
        if 0 not in scan:
            scan[0] = 0
    scan_weights = list(map(w.__getitem__, scan))

    def oversums():
        for a in scan:
            sums = index_sums(table, a, places)
            bad = next(itertools.compress(scan, map(
                gt, map(w.__getitem__, map(sums.__getitem__, scan)),
                map(w[a].__add__, scan_weights))), None)
            if bad is not None:
                yield elements[a], elements[bad]

    subadd = _first_failure(oversums())

    neg_digits = [row.index(0) for row in table]
    neg = [0]  # neg[i] = index of -z_i
    for _ in range(places):
        neg = [s * q + d for s in neg for d in neg_digits]
    inverse = _first_failure((elements[i],) for i in order if w[neg[i]] != w[i])

    if measure.kind == RANK:
        all_splits = lambda z: rank_splits(f, z)
    else:
        all_splits = lambda z: sum_rank_splits(f, z, measure.blocks)

    def bad_splits():
        for i, wi in zip(order, weights):
            if wi < 0:
                continue
            splits = all_splits(elements[i])
            if len(splits) != wi + 1:
                yield elements[i], 0, wi
                continue
            for c, (z1, z2) in enumerate(splits):
                i1, i2 = index[z1], index[z2]
                if not (w[i1] == c and w[i2] == wi - c
                        and index_sums(table, i1, places, i2) == [i]):
                    yield elements[i], c, wi - c
                    break

    decomp = _first_failure(bad_splits())
    return AxiomReport(nonneg, subadd, inverse, decomp)
