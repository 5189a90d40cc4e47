"""Cache-free brute-force oracles for the distance engine.

Each function recomputes decoding balls from scratch on every call,
straight from the definitions, with no shells, no memoization and no
early-exit cleverness beyond scanning candidate radii upward.  The engine
must agree with these on every value.
"""

import configparser
import random

from gnetcode import matrices as mx
from gnetcode.channel import BudgetError, ChannelClass
from gnetcode.distances import INFINITE
from gnetcode.field import _poly_rem
from gnetcode.weights import AxiomCheck, AxiomReport


def naive_ball(ch, x, c):
    members = set()
    weigh = ch.errors.weight
    for z in ch.errors.space.elements():
        if weigh(z) <= c:
            members.add(ch.evaluate(x, z))
    return members


def naive_d0(ch, x1, x2):
    if x1 == x2:
        return 0
    wm = ch.w_max
    best = INFINITE
    for c1 in range(wm + 1):
        for c2 in range(wm + 1):
            if abs(c1 - c2) <= 1 and c1 + c2 < best:
                if naive_ball(ch, x1, c1) & naive_ball(ch, x2, c2):
                    best = c1 + c2
    return best


def naive_d1(ch, x1, x2):
    target = naive_ball(ch, x1, 0)
    for c in range(ch.w_max + 1):
        if target & naive_ball(ch, x2, c):
            return c
    return INFINITE


def naive_d2(ch, x1, x2):
    if x1 == x2:
        return 0
    wm = ch.w_max
    best = INFINITE
    for c1 in range(wm + 1):
        for c2 in range(wm + 1):
            if c1 + c2 < best and naive_ball(ch, x1, c1) & naive_ball(ch, x2, c2):
                best = c1 + c2
    return best


def naive_d2_refined(ch, x1, x2, c):
    left = naive_ball(ch, x1, c)
    for cp in range(ch.w_max + 1):
        if left & naive_ball(ch, x2, c + cp):
            return cp
    return INFINITE


def naive_meet(ch, x1, x2):
    """m[c], c = 0..w_max: the least r with x1's radius-c ball meeting x2's
    radius-r ball, INFINITE if there is none."""
    wm = ch.w_max
    return [next((r for r in range(wm + 1)
                  if naive_ball(ch, x1, c) & naive_ball(ch, x2, r)), INFINITE)
            for c in range(wm + 1)]


def naive_joint_grid(ch, hi):
    """{(c, c'): joint verdict} for c, c' = 0..hi, from the definition: for
    every ordered pair of distinct codewords, the radius-c ball of one
    misses the radius-(c+c') ball of the other.  Each ball is built once
    per (codeword, radius) within the call."""
    balls = {}

    def ball(x, r):
        r = min(r, ch.w_max)  # no error weighs more, so larger balls repeat
        if (x, r) not in balls:
            balls[x, r] = naive_ball(ch, x, r)
        return balls[x, r]

    return {(c, cp): all(not (ball(x1, c) & ball(x2, c + cp))
                         for x1 in ch.codewords for x2 in ch.codewords if x1 != x2)
            for c in range(hi + 1) for cp in range(hi + 1)}


def naive_mwd(ch, y):
    """Minimum weight decoding straight from the definition: scan every
    (codeword, error) pair for solutions, no precomputed index."""
    weigh = ch.errors.weight
    best_w = None
    best_x = set()
    for x in ch.codewords:
        for z in ch.errors.space.elements():
            if ch.evaluate(x, z) != y:
                continue
            w = weigh(z)
            if best_w is None or w < best_w:
                best_w, best_x = w, {x}
            elif w == best_w:
                best_x.add(x)
    if best_w is None or len(best_x) != 1:
        return None
    return next(iter(best_x))


def naive_capability(ch):
    """(max_correctable, max_detectable, all_correctable, all_detectable)
    from classifying every error in weight order against every codeword:
    z is uncorrectable when naive_mwd does not decode F(x, z) back to x,
    undetectable when F(x, z) is another codeword's clean output.  Each
    distinct received word is decoded once per call."""
    weigh = ch.errors.weight
    zero = ch.errors.space.zero()
    clean = {ch.evaluate(x, zero): x for x in ch.codewords}
    decoded = {}
    bad_c = bad_d = None
    for z in sorted(ch.errors.space.elements(), key=weigh):
        for x in ch.codewords:
            y = ch.evaluate(x, z)
            if bad_c is None:
                if y not in decoded:
                    decoded[y] = naive_mwd(ch, y)
                if decoded[y] != x:
                    bad_c = weigh(z)
            if bad_d is None and clean.get(y, x) != x:
                bad_d = weigh(z)
        if bad_c is not None and bad_d is not None:
            break
    wm = ch.w_max
    return (wm if bad_c is None else bad_c - 1, wm if bad_d is None else bad_d - 1,
            bad_c is None, bad_d is None)


# -- the pair scans on checked field arithmetic ---------------------------------

def _is_matrix(z):
    return bool(z) and isinstance(z[0], tuple)


def err_add(f, a, b):
    return mx.mat_add(f, a, b) if _is_matrix(a) else mx.vec_add(f, a, b)


def err_neg(f, a):
    return mx.mat_neg(f, a) if _is_matrix(a) else mx.vec_neg(f, a)


def err_sub(f, a, b):
    return mx.mat_sub(f, a, b) if _is_matrix(a) else mx.vec_sub(f, a, b)


def naive_weight_axioms(f, elements, measure, pair_budget=None, seed=0, weight_fn=None):
    """The weight axioms on checked arithmetic, with every pair materialized
    up front (the seeded sample draws a then b for each pair)."""
    elements = list(elements)
    raw = weight_fn if weight_fn is not None else (lambda z: measure.weight(f, z))
    cache = {}

    def w(z):
        got = cache.get(z)
        if got is None:
            got = cache[z] = raw(z)
        return got

    first = elements[0]
    zero = mx.zeros(len(first), len(first[0])) if _is_matrix(first) else (0,) * len(first)

    nonneg = AxiomCheck(True)
    for z in elements:
        wz = w(z)
        if wz < 0 or (wz == 0) != (z == zero):
            nonneg = AxiomCheck(False, (z, wz))
            break

    n = len(elements)
    if pair_budget is not None and n * n > pair_budget:
        rng = random.Random(seed)
        pairs = [(elements[rng.randrange(n)], elements[rng.randrange(n)])
                 for _ in range(pair_budget)]
    else:
        pairs = [(a, b) for a in elements for b in elements]

    subadd = AxiomCheck(True)
    for a, b in pairs:
        if w(err_add(f, a, b)) > w(a) + w(b):
            subadd = AxiomCheck(False, (a, b))
            break

    inverse = AxiomCheck(True)
    for z in elements:
        if w(err_neg(f, z)) != w(z):
            inverse = AxiomCheck(False, (z,))
            break

    decomp = AxiomCheck(True)
    for z in elements:
        wz = w(z)
        if wz < 0:
            continue
        for c1 in range(wz + 1):
            c2 = wz - c1
            if weight_fn is None:
                z1, z2 = measure.decompose(f, z, c1, c2)
                ok = (w(z1) == c1 and w(z2) == c2 and err_add(f, z1, z2) == z)
            else:
                ok = any(w(z1) == c1 and w(err_sub(f, z, z1)) == c2 for z1 in elements)
            if not ok:
                decomp = AxiomCheck(False, (z, c1, c2))
                break
        if not decomp.passed:
            break

    return AxiomReport(nonneg, subadd, inverse, decomp)


class SearchedMeasure:
    """A stand-in weight measure for negative controls: ``weight_fn`` weighs,
    and z splits as z1 + (z - z1) for the first z1 among ``elements`` of the
    requested weights -- the brute-force existence search that
    naive_weight_axioms runs under the same ``weight_fn``."""

    def __init__(self, elements, weight_fn):
        self.elements = list(elements)
        self.weight_fn = weight_fn

    def weight(self, f, z):
        return self.weight_fn(z)

    def decompose(self, f, z, c1, c2):
        w = self.weight_fn
        for z1 in self.elements:
            z2 = err_sub(f, z, z1)
            if w(z1) == c1 and w(z2) == c2:
                return z1, z2
        # z + z == z only for z = 0, and the search splits 0 as 0 + 0 when
        # the requested weights allow it, so this pair fails the check
        return z, z


def naive_classify(ch, pair_budget=None):
    """classify with every sum taken through the spaces' checked add."""
    budget = pair_budget if pair_budget is not None else ch.pair_budget
    out = ch.outputs
    errs = ch.errors.space
    x0 = ch.codewords[0]
    base = ch.zero_output(x0)
    errors = [z for z, _ in ch._errors_by_weight()]
    h = {}
    for z, y in zip(errors, ch._transfer_row(x0)):
        h[z] = out.sub(y, base)

    for x in ch.codewords:
        fx = ch.zero_output(x)
        for z, y in zip(errors, ch._transfer_row(x)):
            if y != out.add(fx, h[z]):
                return ChannelClass(False, False, ("transfer-not-additive", x, z))

    if len(errors) * len(errors) > budget:
        raise BudgetError(
            f"homomorphism check needs {len(errors) ** 2} pairs, budget is {budget}")
    for za in errors:
        ha = h[za]
        for zb in errors:
            if h[errs.add(za, zb)] != out.add(ha, h[zb]):
                return ChannelClass(False, False, ("error-map-not-homomorphic", za, zb))

    linear, witness = naive_codeword_map_linear(ch)
    return ChannelClass(True, linear, witness)


def naive_first_failing_pair(ch):
    """classify's error-map-not-homomorphic witness by the tuple search: za
    over the errors of weight <= 1, zb over every error, both in weight
    order, with h(z) = F(x0, z) - F(x0, 0) and every sum taken through the
    spaces' checked add; None when no pair fails."""
    out, errs = ch.outputs, ch.errors.space
    x0 = ch.codewords[0]
    base = ch.zero_output(x0)
    errors = ch._errors_by_weight()
    h = {z: out.sub(y, base) for (z, _), y in zip(errors, ch._transfer_row(x0))}
    for za, wa in errors:
        if wa > 1:
            break
        for zb, _ in errors:
            if h[errs.add(za, zb)] != out.add(h[za], h[zb]):
                return za, zb
    return None


def naive_codeword_map_linear(ch):
    """_codeword_map_linear with every sum and multiple taken through the
    checked vector and matrix arithmetic."""
    first = ch.codewords[0]
    if _is_matrix(first):
        add, scale = mx.mat_add, mx.mat_scale
        zero = mx.zeros(len(first), len(first[0]))
    else:
        add, scale = mx.vec_add, mx.vec_scale
        zero = (0,) * len(first)
    f = ch.field
    cwset = set(ch.codewords)
    if zero not in cwset:
        return False, ("code-not-subspace", zero)
    out = ch.outputs
    for x1 in ch.codewords:
        y1 = ch.zero_output(x1)
        for s in range(f.q):
            sx = scale(f, s, x1)
            if sx not in cwset:
                return False, ("code-not-subspace", sx)
            if ch.zero_output(sx) != out.scale(s, y1):
                return False, ("codeword-map-not-homogeneous", s, x1)
        for x2 in ch.codewords:
            x12 = add(f, x1, x2)
            if x12 not in cwset:
                return False, ("code-not-subspace", x12)
            if ch.zero_output(x12) != out.add(y1, ch.zero_output(x2)):
                return False, ("codeword-map-not-additive", x1, x2)
    return True, None


def naive_metric(table, n):
    """{axiom: its first failure, or None} for a distance table (i, j) -> d
    over n codewords with a zero diagonal, from the all-pairs and
    all-triples scans in lexicographic order."""
    def dist(i, j):
        return 0 if i == j else table[i, j]

    idx = range(n)
    fails = {
        "nonnegativity": [(i, j) for i in idx for j in idx
                          if (dist(i, j) == 0) != (i == j) or dist(i, j) < 0],
        "symmetry": [(i, j) for i in idx for j in idx if dist(i, j) != dist(j, i)],
        "triangle": [(i, j, k) for i in idx for j in idx for k in idx
                     if dist(i, j) + dist(j, k) < dist(i, k)],
    }
    return {axiom: found[0] if found else None for axiom, found in fails.items()}


def configparser_sections(text):
    """``{section: {key: value}}`` as the standard library's configparser
    reads ``text`` with the settings gnetcode's config reader mirrors:
    ``=`` the only delimiter, no interpolation, strict, keys verbatim."""
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None, strict=True)
    parser.optionxform = str
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


def polynomial_tables(f):
    """(add, mul) tables of ``f`` by coefficient arithmetic: coefficient-wise
    sums mod p, and polynomial products reduced modulo ``f.modulus``."""
    p, k, q = f.p, f.k, f.q
    coeffs = [list(f.coeffs(a)) for a in range(q)]
    add = [[f.element([(s + t) % p for s, t in zip(ca, cb)]) for cb in coeffs] for ca in coeffs]
    if k == 1:
        return add, [[a * b % p for b in range(q)] for a in range(q)]
    mul = []
    for ca in coeffs:
        row = []
        for cb in coeffs:
            prod = [0] * (2 * k - 1)
            for i, s in enumerate(ca):
                for j, t in enumerate(cb):
                    prod[i + j] = (prod[i + j] + s * t) % p
            rem = _poly_rem(prod, list(f.modulus), p)
            row.append(f.element(rem + [0] * (k - len(rem))))
        mul.append(row)
    return add, mul
