"""Generalized network channels.

A channel ties together a finite ordered codeword set C, an enumerable
error set E carrying a weight measure, an output set Y, and a total
transfer function F(x, z).  Construction verifies the zero-error
injectivity requirement (distinct codewords must stay distinguishable when
no error occurs) and rejects spaces too large for exhaustive work.

Output and error sets are vector or matrix spaces over one field, with
componentwise addition as the group operation; channels over other groups
are out of scope and rejected by the constructors.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import ne

from .codec import Codec
from .field import Field
from . import matrices as mx
from .weights import WeightMeasure, HAMMING, RANK, symbol_sums

DEFAULT_PAIR_BUDGET = 10 ** 6


class ConstructionError(ValueError):
    """A channel or space cannot be built from the given pieces."""


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed the enumeration budget."""


@dataclass(frozen=True)
class VectorSpace:
    """All length-n row vectors over a field, as tuples."""

    field: Field
    length: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.length,)

    @property
    def size(self) -> int:
        return self.field.q ** self.length

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.length

    def elements(self):
        return itertools.product(range(self.field.q), repeat=self.length)

    def contains(self, v) -> bool:
        return mx.is_element(self.field, v, self.shape)

    def add(self, u, v):
        return mx.vec_add(self.field, u, v)

    def sub(self, u, v):
        return mx.vec_sub(self.field, u, v)

    def neg(self, u):
        return mx.vec_neg(self.field, u)

    def scale(self, s, u):
        return mx.vec_scale(self.field, s, u)


@dataclass(frozen=True)
class MatrixSpace:
    """All rows-by-cols matrices over a field, as tuples of row tuples."""

    field: Field
    rows: int
    cols: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.rows, self.cols)

    @property
    def size(self) -> int:
        return self.field.q ** (self.rows * self.cols)

    def zero(self) -> mx.Matrix:
        return mx.zeros(self.rows, self.cols)

    def elements(self):
        q = self.field.q
        for flat in itertools.product(range(q), repeat=self.rows * self.cols):
            yield tuple(flat[i * self.cols:(i + 1) * self.cols] for i in range(self.rows))

    def contains(self, a) -> bool:
        return mx.is_element(self.field, a, self.shape)

    def add(self, a, b):
        return mx.mat_add(self.field, a, b)

    def sub(self, a, b):
        return mx.mat_sub(self.field, a, b)

    def neg(self, a):
        return mx.mat_neg(self.field, a)

    def scale(self, s, a):
        return mx.mat_scale(self.field, s, a)


@dataclass(frozen=True)
class ErrorModel:
    """An enumerable error space together with its weight measure."""

    space: VectorSpace | MatrixSpace
    measure: WeightMeasure

    def __post_init__(self):
        self.measure.check_shape(self.space.shape)

    def weight(self, z) -> int:
        return self.measure.weight(self.space.field, z)

    @property
    def max_weight(self) -> int:
        return self.measure.max_weight(self.space.shape)


@dataclass(frozen=True)
class ChannelClass:
    """Linearity verdicts for a channel, with a counterexample on failure.

    ``witness`` carries the first counterexample found, tagged by which
    requirement broke; ``linear`` implies ``error_linear``.
    """

    error_linear: bool
    linear: bool
    witness: tuple | None = None


class Channel:
    """A concrete channel with exhaustively enumerable pieces.

    Use the module-level constructors (:func:`classical_channel`,
    :func:`matrix_channel`, :func:`table_channel`) or
    :func:`gnetcode.network.compile_network` rather than instantiating
    directly, unless you bring your own transfer callable.

    ``transfer(x, z)`` answers single-error questions (:meth:`evaluate`,
    the per-error decoder verdicts).  Whole rows come from the row kernel
    ``row(x, codec)``: the codes of x's outputs against every error, in the
    error space's enumeration order, packed by the channel's
    :class:`~gnetcode.codec.Codec`.  The channel creates that codec with
    its first row, never at construction, and every scan over a row (reach
    maps, decoders, classification) runs on the codes; outputs become
    tuples again only at the public boundary.  The constructors pass a row
    kernel, and a transfer, whose outputs are elements by construction, so
    the codewords' zero-error outputs are not checked again here.  Without
    a row kernel those outputs are checked, each row is evaluated pair by
    pair and every output is validated once, when its row is built,
    raising :class:`ConstructionError` with the offending (x, z); every
    scan over a row then trusts its codes.

    An optional reach kernel ``reach(x, codec)`` returns x's reach map,
    output code -> least error weight reaching it, iterating in
    nondecreasing weight, without a row; :func:`gnetcode.distances._reach`
    calls it when present and reads the map off the row otherwise.
    :func:`~gnetcode.network.compile_network` passes one.
    """

    def __init__(self, field: Field, codewords, errors: ErrorModel, outputs,
                 transfer, kind: str = "custom",
                 pair_budget: int = DEFAULT_PAIR_BUDGET, row=None, reach=None):
        codewords = tuple(codewords)
        if len(codewords) < 2:
            raise ConstructionError("a code needs at least two codewords")
        if len(set(codewords)) != len(codewords):
            raise ConstructionError("codewords must be distinct")
        if errors.space.field != field or outputs.field != field:
            raise ConstructionError("codeword, error and output spaces must share one field")
        if len(codewords) * errors.space.size > pair_budget:
            raise BudgetError(
                f"{len(codewords)} codewords x {errors.space.size} errors exceeds "
                f"the pair budget {pair_budget}")
        self.field = field
        self.codewords = codewords
        self.errors = errors
        self.outputs = outputs
        self.kind = kind
        self.pair_budget = pair_budget
        self.w_max = errors.max_weight
        self._transfer = transfer
        self._row = row if row is not None else self._checked_row
        self._reach = reach
        self._cache: dict = {}
        zero = errors.space.zero()
        seen: dict = {}
        self._zero_outputs = {}
        for x in codewords:
            y = transfer(x, zero)
            if row is None and not outputs.contains(y):
                raise ConstructionError(
                    f"transfer output {y!r} is outside the declared output space")
            if y in seen:
                raise ConstructionError(
                    f"codewords {seen[y]!r} and {x!r} collide at zero error (both map to {y!r})")
            seen[y] = x
            self._zero_outputs[x] = y

    # -- public surface ------------------------------------------------------

    def evaluate(self, x, z):
        """F(x, z), with membership validation."""
        if x not in self.codewords:
            raise ValueError(f"{x!r} is not a codeword of this channel")
        if not self.errors.space.contains(z):
            raise ValueError(f"{z!r} is not in the error space {self.errors.space}")
        return self._transfer(x, z)

    def zero_output(self, x):
        return self._zero_outputs[x]

    def __repr__(self) -> str:
        return (f"Channel(kind={self.kind!r}, field={self.field!r}, "
                f"|C|={len(self.codewords)}, |E|={self.errors.space.size})")

    # -- internal fast paths (no membership validation) ----------------------

    def _weight_order(self):
        """(order, weights): enumeration indices sorted stably by weight, and
        their weights in that order.  A Hamming space of n symbols (n =
        rows·cols for a matrix) sums the symbol weights 0, 1, ..., 1 by
        :func:`gnetcode.weights.symbol_sums` and builds no error tuple;
        rank and sum-rank weights are taken per error.
        """
        cached = self._cache.get("weight_order")
        if cached is None:
            space = self.errors.space
            if self.errors.measure.kind == HAMMING:
                weights = symbol_sums([0] + [1] * (self.field.q - 1), math.prod(space.shape))
            else:
                weights = list(map(self.errors.weight, space.elements()))
            order = sorted(range(len(weights)), key=weights.__getitem__)
            cached = self._cache["weight_order"] = (order, list(map(weights.__getitem__, order)))
        return cached

    def _errors_by_weight(self):
        """All errors as (z, weight) in weight order, built only on demand, for
        :func:`enumerate_errors_up_to`, the rank and sum-rank axiom sample
        and the test oracle."""
        cached = self._cache.get("errors_by_weight")
        if cached is None:
            errors = list(self.errors.space.elements())
            order, weights = self._weight_order()
            cached = self._cache["errors_by_weight"] = list(
                zip(map(errors.__getitem__, order), weights))
        return cached

    def _codec(self) -> Codec:
        """The output space's codec, created with the first row."""
        codec = self._cache.get("codec")
        if codec is None:
            codec = self._cache["codec"] = Codec(self.outputs)
        return codec

    def _code_row(self, x) -> list[int]:
        """Codes of x's outputs against every error, in weight order."""
        rows = self._cache.setdefault("code_rows", {})
        row = rows.get(x)
        if row is None:
            row = list(map(self._row(x, self._codec()).__getitem__, self._weight_order()[0]))
            rows[x] = row
        return row

    def _transfer_row(self, x):
        """x's outputs as tuples, decoded from :meth:`_code_row` (not cached)."""
        return list(map(self._codec().decode, self._code_row(x)))

    def _checked_row(self, x, codec):
        """Row kernel of a channel built without one: per pair, validated."""
        transfer, contains = self._transfer, self.outputs.contains
        row = []
        for z in self.errors.space.elements():
            y = transfer(x, z)
            if not contains(y):
                raise ConstructionError(
                    f"transfer output {y!r} for (x, z) = ({x!r}, {z!r}) is outside "
                    "the declared output space")
            row.append(y)
        return codec.encode_all(row)


def enumerate_errors_up_to(ch: Channel, c: int) -> list[tuple]:
    """Every error of weight <= c exactly once, as (z, weight) pairs.

    Ordered by nondecreasing weight; within one weight class the error
    space's enumeration order is kept, so the output is deterministic and
    the weight-<= c prefix is shared with any larger radius.
    """
    if c < 0:
        raise ValueError("radius must be nonnegative")
    out = []
    for z, w in ch._errors_by_weight():
        if w > c:
            break
        out.append((z, w))
    return out


def classify(ch: Channel) -> ChannelClass:
    """Decide error-linearity and linearity of a channel, exhaustively.

    The only decomposition consistent with a homomorphic error map is
    f(x) = F(x, 0) and h(z) = F(x0, z) - F(x0, 0), so that candidate is
    checked against every (codeword, error) pair: F(x, z) = f(x) + h(z) is
    the group identity F(x, z) = F(x0, z) + (f(x) - f(x0)), so each x other
    than x0 costs one addition per error against x0's row, and x0 passes by
    the definition of h.  The rows are compared as codes, by a lazy C-level
    scan that stops at the first mismatch, so the first failing pair is the
    same, in the same (x, weight order) order, either way.  Only when every
    row passes is h built, and whether it is a group homomorphism is then
    decided in O(|E|) by :func:`_is_additive`, from the errors'
    coordinates; only when it is not does the first failing pair get
    searched for, as the witness.  The linear verdict additionally requires
    the codeword set to form a subspace on which f is additive and
    scalar-homogeneous.

    Every sum is a code addition (see :mod:`gnetcode.codec`), which trusts
    its operands: each row output was validated when its row was built (or
    is an element by the row kernel's construction), each f(x) was checked
    when the channel was built, so f(x) - f(x0) and h(z) = F(x0, z) +
    (-f(x0)) are elements too, and the errors come from the space's own
    enumeration.

    This classifies the transfer function only; a transfer-not-additive
    witness's error is lifted from its enumeration index.  The weight
    measure's side of the error-linearity hypotheses (subadditivity,
    inverse invariance, decomposability) is checked separately, by
    ``run_all``'s weight-axiom verdict, and holds for all three built-in
    measures.
    """
    out, codec = ch.outputs, ch._codec()
    add = codec.add
    f0 = ch.zero_output(ch.codewords[0])
    row0 = ch._code_row(ch.codewords[0])

    for x in ch.codewords[1:]:
        shift = codec.encode(out.sub(ch.zero_output(x), f0))
        expected = map(add, row0, repeat(shift))
        bad = next(compress(count(), map(ne, ch._code_row(x), expected)), None)
        if bad is not None:
            return ChannelClass(False, False, ("transfer-not-additive", x,
                                               _error_at(ch, ch._weight_order()[0][bad])))

    # h(z)'s codes by enumeration index
    h = [None] * len(row0)
    for i, hz in zip(ch._weight_order()[0], map(add, row0, repeat(codec.encode(out.neg(f0))))):
        h[i] = hz
    if not _is_additive(ch, h, add):
        return ChannelClass(False, False,
                            ("error-map-not-homomorphic",) + _first_failing_pair(ch, h, add))

    linear, witness = _codeword_map_linear(ch)
    return ChannelClass(True, linear, witness)


def _error_at(ch: Channel, i: int):
    """The error at enumeration index i, as a tuple."""
    return next(islice(ch.errors.space.elements(), i, None))


def _is_additive(ch: Channel, h: list, add) -> bool:
    """Is h additive?  ``h`` lists h(z)'s codes by enumeration index; O(|E|) sums.

    Both error spaces enumerate their errors as base-q numbers over N
    coordinates (a matrix's entries row-major, the last coordinate lowest),
    and addition is coordinatewise whatever the weight measure.  With
    ``step = q^p`` for the coordinate t at place p, ``a * step`` indexes
    the error a·e_t.  h is additive iff

    (a) on every coordinate axis, h((a+b)·e_t) = h(a·e_t) + h(b·e_t) for
        all a, b in GF(q) (N·q² sums; a = b = 0 gives h(0) = 0), and
    (b) every z splits at its lowest-order nonzero coordinate t:
        h(z) = h(z - z_t·e_t) + h(z_t·e_t) (|E| sums).

    Induction on the support size turns (b) into h(z) = sum_t h(z_t·e_t),
    and (a) then makes that sum additive; both are necessary.
    """
    q, table = ch.field.q, ch.field.add_table
    step = 1
    while step < len(h):
        for a in range(q):
            for b in range(q):
                if h[table[a][b] * step] != add(h[a * step], h[b * step]):
                    return False
        # the errors whose lowest-order nonzero digit is d sit at d*step
        # plus a multiple of block; those multiples are their splits
        block = q * step
        for d in range(1, q):
            if h[d * step::block] != list(map(add, h[::block], repeat(h[d * step]))):
                return False
        step = block
    return True


def _first_failing_pair(ch: Channel, h: list, add):
    """The first (za, zb) in weight order, za outer, with
    h(za + zb) != h(za) + h(zb), given that one exists; ``h`` as for
    :func:`_is_additive`.

    The errors of weight <= 1 generate the error group under all three
    measures (single symbols, rank-one matrices, a rank-one block), so if
    h(g + z) = h(g) + h(z) held for all of them and every z, h would be
    additive.  They come first in weight order, so the first failing pair
    of the all-pairs scan has one of them as za, and the scan stops there.
    The scan runs on enumeration indices: for each za, the index of za + zb
    for every zb is built one base-q digit at a time (highest place first)
    from za's digits and the field's addition table, and only the two
    witness errors are lifted to tuples.
    """
    q, table = ch.field.q, ch.field.add_table
    order, weights = ch._weight_order()
    places = math.prod(ch.errors.space.shape)
    hb = list(map(h.__getitem__, order))  # h(zb) in weight order
    for a in order[:bisect_right(weights, 1)]:
        sums = [0]  # sums[b] = index of za + zb, zb by enumeration index
        for p in reversed(range(places)):
            digit_sums = table[a // q ** p % q]
            sums = [s * q + c for s in sums for c in digit_sums]
        bad = next(compress(order, map(ne, map(h.__getitem__, map(sums.__getitem__, order)),
                                       map(add, repeat(h[a]), hb))), None)
        if bad is not None:
            return _error_at(ch, a), _error_at(ch, bad)
    raise AssertionError("h is not additive, yet every weight-one error adds")


def _codeword_map_linear(ch: Channel):
    """Is C a subspace with x -> F(x, 0) additive and scalar-homogeneous?

    Scales on the field's raw tables, and adds on codes (the codewords'
    own and the outputs'), x1 + x2 for every x2 at once: every codeword
    and clean output was validated when the channel was built.
    """
    first = ch.codewords[0]
    f = ch.field
    space = (MatrixSpace(f, len(first), len(first[0])) if isinstance(first[0], tuple)
             else VectorSpace(f, len(first)))
    scale, out_scale = mx.scaler(f, space.shape), mx.scaler(f, ch.outputs.shape)
    zero = space.zero()
    cwset = set(ch.codewords)
    if zero not in cwset:
        return False, ("code-not-subspace", zero)
    cw, out = Codec(space), ch._codec()
    codes = cw.encode_all(ch.codewords)
    clean = ch._zero_outputs
    clean_codes = out.encode_all(map(clean.__getitem__, ch.codewords))
    clean_of = dict(zip(codes, clean_codes))
    for x1, c1, y1c in zip(ch.codewords, codes, clean_codes):
        y1 = clean[x1]
        for s in range(f.q):
            sx = scale(s, x1)
            if sx not in cwset:
                return False, ("code-not-subspace", sx)
            if clean[sx] != out_scale(s, y1):
                return False, ("codeword-map-not-homogeneous", s, x1)
        # F(x1 + x2, 0) against F(x1, 0) + F(x2, 0); None marks a sum outside C
        sums = list(map(cw.add, codes, repeat(c1)))
        got = map(clean_of.get, sums)
        bad = next(compress(count(), map(ne, got, map(out.add, clean_codes, repeat(y1c)))), None)
        if bad is not None:
            if sums[bad] not in clean_of:
                return False, ("code-not-subspace", cw.decode(sums[bad]))
            return False, ("codeword-map-not-additive", x1, ch.codewords[bad])
    return True, None


# -- constructors ------------------------------------------------------------

def _vector_code(field: Field, codewords) -> tuple[tuple, VectorSpace]:
    """The codewords as tuples, all in one VectorSpace(field, len(first))."""
    codewords = tuple(tuple(x) for x in codewords)
    if not codewords:
        raise ConstructionError("empty codeword list")
    n = len(codewords[0])
    space = VectorSpace(field, n)
    if not mx.all_vectors(field.q, codewords, n):
        for x in codewords:
            if not space.contains(x):
                raise ConstructionError(
                    f"codeword {x!r} is not a length-{n} vector over {field}")
    return codewords, space


def classical_channel(field: Field, codewords,
                      pair_budget: int = DEFAULT_PAIR_BUDGET) -> Channel:
    """Point-to-point channel F(x, z) = x + z under the Hamming weight.

    x's row is the product of the sets {x_k + d : d in GF(q)}, read off the
    field's addition table (``add_table[x_k]`` lists x_k + d for d = 0..q-1);
    ``itertools.product`` varies the last coordinate fastest, which is the
    error space's enumeration order.
    """
    codewords, space = _vector_code(field, codewords)
    errors = ErrorModel(space, WeightMeasure(HAMMING))
    shifts = field.add_table.__getitem__
    return Channel(field, codewords, errors, space, mx.adder(field, space.shape),
                   kind="classical", pair_budget=pair_budget,
                   row=lambda x, codec: codec.encode_all(itertools.product(*map(shifts, x))))


def matrix_channel(field: Field, codewords, a: mx.Matrix, b: mx.Matrix,
                   measure: WeightMeasure | None = None,
                   pair_budget: int = DEFAULT_PAIR_BUDGET) -> Channel:
    """Linear channel F(x, z) = x*A + z*B.

    With vector codewords the errors are vectors under the Hamming weight;
    with matrix codewords they are matrices under the rank weight (or
    sum-rank, when the measure says so).  A and B act by right
    multiplication and must land in one output space.

    A, B and the codewords are validated once, here; every product after
    that runs unchecked on the field's raw tables.  A row is f(x) + h(z)
    on codes: h(z) = z*B is built once for the whole error space, by
    linearity (see :func:`_image_codes`), and f(x) = x*A once per row.
    """
    codewords = tuple(tuple(tuple(r) for r in x) if isinstance(x[0], (tuple, list))
                      else tuple(x) for x in codewords)
    a = tuple(tuple(r) for r in a)
    b = tuple(tuple(r) for r in b)
    ka, n = mx.dims(a)
    u, nb = mx.dims(b)
    if n != nb:
        raise ConstructionError(
            f"A ({ka}x{n}) and B ({u}x{nb}) must have the same number of columns")
    for name, mat, rows in (("A", a, ka), ("B", b, u)):
        if not mx.all_vectors(field.q, mat, n):
            raise ConstructionError(f"{name} must be a {rows}x{n} matrix over {field}")
    matrix_code = isinstance(codewords[0][0], tuple)
    if matrix_code:
        m = len(codewords[0])
        if not (set(map(len, codewords)) == {m}
                and mx.all_vectors(field.q, [r for x in codewords for r in x], ka)):
            raise ConstructionError(f"matrix codewords must all be {m}x{ka} over {field}")
        err_space = MatrixSpace(field, m, u)
        out_space = MatrixSpace(field, m, n)
        measure = measure or WeightMeasure(RANK)
        if measure.kind == HAMMING:
            raise ConstructionError("matrix codewords need a rank or sum-rank weight")
    else:
        if not mx.all_vectors(field.q, codewords, ka):
            raise ConstructionError(f"vector codewords must have length {ka} over {field}")
        err_space = VectorSpace(field, u)
        out_space = VectorSpace(field, n)
        measure = measure or WeightMeasure(HAMMING)
        if measure.kind != HAMMING:
            raise ConstructionError(f"vector errors only support the Hamming weight, "
                                    f"got {measure.kind}")
    times_a = mx.multiplier(field, a, out_space.shape)
    times_b = mx.multiplier(field, b, err_space.shape)
    add = mx.adder(field, out_space.shape)

    def transfer(x, z):
        return add(times_a(x), times_b(z))

    hs: list = []  # codes of h(z) = z*B in enumeration order, built by the first row

    def row(x, codec):
        if not hs:
            hs.extend(_image_codes(times_b, err_space, codec))
        return list(map(codec.add, hs, repeat(codec.encode(times_a(x)))))

    errors = ErrorModel(err_space, measure)
    return Channel(field, codewords, errors, out_space, transfer,
                   kind="matrix", pair_budget=pair_budget, row=row)


def _image_codes(times_b, err_space, codec) -> list[int]:
    """Codes of z*B for every z, in the error space's enumeration order.

    The space enumerates z as a base-q number over its N coordinates (a
    matrix's entries row-major), the first most significant, and z -> z*B
    is additive, so each coordinate t in turn extends every code so far by
    its sums with the codes of (d*e_t)*B, d = 0..q-1.
    """
    q, shape = err_space.field.q, err_space.shape
    n = math.prod(shape)
    codes = [0]
    for t in range(n):
        units = [(0,) * t + (d,) + (0,) * (n - 1 - t) for d in range(q)]
        if len(shape) == 2:
            units = [tuple(u[i:i + shape[1]] for i in range(0, n, shape[1])) for u in units]
        images = codec.encode_all(map(times_b, units))
        # zip(*[codes] * q) yields each code q times, each beside an image
        codes = list(map(codec.add, itertools.chain.from_iterable(zip(*[codes] * q)),
                         images * len(codes)))
    return codes


def table_channel(field: Field, codewords, error_length: int, output_length: int,
                  table: dict, pair_budget: int = DEFAULT_PAIR_BUDGET) -> Channel:
    """Channel given by an exhaustive table (x, z) -> y.

    The table must hold exactly the codeword list times the full error
    space F_q^error_length, with outputs in F_q^output_length; errors carry
    the Hamming weight.  The codewords must be vectors of one length over
    the field.  Outputs are encoded by the row kernel, not here.
    """
    codewords, _ = _vector_code(field, codewords)
    err_space = VectorSpace(field, error_length)
    out_space = VectorSpace(field, output_length)
    table = {(tuple(x), tuple(z)): tuple(y) for (x, z), y in table.items()}
    if not (len(table) == len(codewords) * err_space.size
            and all(map(table.__contains__, itertools.product(codewords, err_space.elements())))
            and mx.all_vectors(field.q, table.values(), output_length)):
        # name the first missing or bad entry in (x, z) order, else an extra one
        for x in codewords:
            for z in err_space.elements():
                y = table.get((x, z))
                if y is None:
                    raise ConstructionError(f"table is missing the entry for ({x!r}, {z!r})")
                if not out_space.contains(y):
                    raise ConstructionError(f"table output {y!r} for ({x!r}, {z!r}) is not "
                                            f"a length-{output_length} vector over {field}")
        codes = set(codewords)
        if len(table) > len(codes) * err_space.size:  # total, so some key is extra
            x, z = next(k for k in table if k[0] not in codes or not err_space.contains(k[1]))
            raise ConstructionError(f"table has an entry for ({x!r}, {z!r}) outside the "
                                    f"codewords x length-{error_length} errors")

    def row(x, codec):
        return codec.encode_all(map(table.__getitem__, zip(repeat(x), err_space.elements())))

    return Channel(field, codewords, ErrorModel(err_space, WeightMeasure(HAMMING)),
                   out_space, lambda x, z: table[(x, z)],
                   kind="table", pair_budget=pair_budget, row=row)
