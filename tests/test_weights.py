import itertools
import random

import pytest

from oracles import (SearchedMeasure, err_add as oracle_add, err_neg as oracle_neg,
                     naive_weight_axioms)
from gnetcode import (Field, WeightMeasure, HAMMING, RANK, SUM_RANK,
                      hamming_weight, rank_weight, sum_rank_weight,
                      decompose_hamming, decompose_rank, decompose_sum_rank,
                      verify_weight_axioms)
from gnetcode import matrices as mx
from gnetcode import weights as weights_module
from gnetcode.channel import ErrorModel, MatrixSpace, VectorSpace
from gnetcode.weights import symbol_sums, verify_separable_axioms


def all_matrices(f, rows, cols):
    return list(MatrixSpace(f, rows, cols).elements())


def test_hamming_weight_examples():
    assert hamming_weight((0, 0, 0)) == 0
    assert hamming_weight((1, 0, 2)) == 2
    # the fixture network's double error on the first and third source edges
    toy_z = (2, 0, 2, 0, 0, 0, 0, 0, 0)
    assert hamming_weight(toy_z) == 2


@pytest.mark.parametrize("space", [
    VectorSpace(Field(2), 6), VectorSpace(Field(3), 4), VectorSpace(Field(2, 2), 3),
    MatrixSpace(Field(2), 2, 3), VectorSpace(Field(2), 1), VectorSpace(Field(3), 1),
    VectorSpace(Field(2, 2), 1)],
    ids=["gf2^6", "gf3^4", "gf4^3", "gf2-2x3", "gf2^1", "gf3^1", "gf4^1"])
def test_hamming_weights_follow_the_enumeration(space):
    """The symbol sums with symbol weights 0, 1, ..., 1 are the Hamming
    weights, and under every perturbed symbol-weight table (the zero symbol
    included) they are the per-element symbol sums, in enumeration order."""
    q = space.field.q
    n = space.length if isinstance(space, VectorSpace) else space.rows * space.cols
    elements = list(space.elements())
    assert symbol_sums([0] + [1] * (q - 1), n) == [hamming_weight(z) for z in elements]
    for table in itertools.product((-1, 0, 1, 2), repeat=q):
        assert symbol_sums(list(table), n) == list(map(_symbol_weights(table), elements))


def test_rank_weight_examples(gf2):
    gf5 = Field(5)
    assert rank_weight(gf2, mx.zeros(2, 3)) == 0
    assert rank_weight(gf2, mx.identity(2)) == 2
    assert rank_weight(gf5, ((1, 2), (2, 4))) == 1  # second column = 2 * first


def test_sum_rank_weight_examples(gf2):
    assert sum_rank_weight(gf2, mx.zeros(2, 4), (2, 2)) == 0
    both_identity = ((1, 0, 1, 0), (0, 1, 0, 1))
    assert sum_rank_weight(gf2, both_identity, (2, 2)) == 4
    for a in all_matrices(gf2, 2, 2):
        assert sum_rank_weight(gf2, a, (2,)) == rank_weight(gf2, a)


def test_sum_rank_partition_errors(gf2):
    with pytest.raises(ValueError, match="partition"):
        sum_rank_weight(gf2, mx.zeros(2, 4), (2, 3))
    with pytest.raises(ValueError):
        WeightMeasure(SUM_RANK)  # needs blocks
    with pytest.raises(ValueError):
        WeightMeasure(HAMMING, (1, 2))  # takes none


def test_decompose_hamming_examples():
    assert decompose_hamming((1, 0, 2), 1, 1) == ((1, 0, 0), (0, 0, 2))
    assert decompose_hamming((1, 1, 1), 0, 3) == ((0, 0, 0), (1, 1, 1))
    z1, z2 = decompose_hamming((2, 1, 0, 1), 2, 1)
    assert z1 == (2, 1, 0, 0) and z2 == (0, 0, 0, 1)
    gf3 = Field(3)
    assert mx.vec_add(gf3, z1, z2) == (2, 1, 0, 1)
    with pytest.raises(ValueError, match="weight"):
        decompose_hamming((1, 0, 2), 2, 2)


def test_decompose_rank_identity(gf2):
    z1, z2 = decompose_rank(gf2, mx.identity(2), 1, 1)
    assert z1 == ((1, 0), (0, 0))
    assert z2 == ((0, 0), (0, 1))


def test_decompose_rank_degenerate_split(gf2):
    for z in all_matrices(gf2, 2, 3):
        r = rank_weight(gf2, z)
        z1, z2 = decompose_rank(gf2, z, r, 0)
        assert z1 == z and rank_weight(gf2, z2) == 0


def test_decompose_rank_random_rank2():
    gf3 = Field(3)
    z = ((1, 0, 2, 1), (0, 1, 1, 2), (1, 1, 0, 0))
    assert rank_weight(gf3, z) == 2
    z1, z2 = decompose_rank(gf3, z, 1, 1)
    assert rank_weight(gf3, z1) == 1
    assert rank_weight(gf3, z2) == 1
    assert mx.mat_add(gf3, z1, z2) == z


def test_decompose_rank_exhaustive_small():
    for f, rows, cols in ((Field(2), 2, 3), (Field(3), 2, 3), (Field(2, 2), 2, 2)):
        for z in all_matrices(f, rows, cols):
            r = rank_weight(f, z)
            for c1 in range(r + 1):
                z1, z2 = decompose_rank(f, z, c1, r - c1)
                assert rank_weight(f, z1) == c1
                assert rank_weight(f, z2) == r - c1
                assert mx.mat_add(f, z1, z2) == z


@pytest.mark.parametrize("bad", [5, -1])
def test_rank_splits_reject_symbols_outside_the_field(gf2, bad):
    for z in (((bad, 0), (0, 1)), ((1, 0), (0, bad)), ((1, bad), (0, 0))):
        with pytest.raises(ValueError, match="not an element"):
            decompose_rank(gf2, z, 1, 1)
        with pytest.raises(ValueError, match="not an element"):
            decompose_sum_rank(gf2, z, 1, 1, (1, 1))


def test_decompose_sum_rank(gf2):
    zero = mx.zeros(2, 4)
    assert decompose_sum_rank(gf2, zero, 0, 0, (2, 2)) == (zero, zero)
    # single block agrees with the rank decomposition
    for z in all_matrices(gf2, 2, 2):
        r = rank_weight(gf2, z)
        for c1 in range(r + 1):
            assert (decompose_sum_rank(gf2, z, c1, r - c1, (2,))
                    == decompose_rank(gf2, z, c1, r - c1))
    # per-block ranks (2, 1); greedy split puts all of c1=2 in the first block
    z = ((1, 0, 1, 0), (0, 1, 0, 0))
    assert sum_rank_weight(gf2, z, (2, 2)) == 3
    z1, z2 = decompose_sum_rank(gf2, z, 2, 1, (2, 2))
    assert sum_rank_weight(gf2, z1, (2, 2)) == 2
    assert sum_rank_weight(gf2, z2, (2, 2)) == 1
    assert [rank_weight(gf2, b) for b in
            (tuple(r[:2] for r in z1), tuple(r[2:] for r in z1))] == [2, 0]
    assert [rank_weight(gf2, b) for b in
            (tuple(r[:2] for r in z2), tuple(r[2:] for r in z2))] == [0, 1]
    assert mx.mat_add(gf2, z1, z2) == z


def test_weight_axioms_pass(gf2):
    vectors = list(VectorSpace(gf2, 3).elements())
    report = verify_weight_axioms(gf2, vectors, WeightMeasure(HAMMING))
    assert report.passed
    matrices22 = all_matrices(gf2, 2, 2)
    report = verify_weight_axioms(gf2, matrices22, WeightMeasure(RANK))
    assert report.passed
    matrices24 = all_matrices(gf2, 2, 4)
    report = verify_weight_axioms(gf2, matrices24, WeightMeasure(SUM_RANK, (2, 2)))
    assert report.passed


def test_weight_axioms_broken_measure(monkeypatch, gf2):
    vectors = list(VectorSpace(gf2, 3).elements())
    monkeypatch.setattr(weights_module, "hamming_weight", lambda z: 1)
    report = verify_weight_axioms(gf2, vectors, WeightMeasure(HAMMING))
    assert not report.nonnegativity.passed
    assert report.nonnegativity.witness == ((0, 0, 0), 1)


def test_weight_axioms_sampled(gf3):
    vectors = list(VectorSpace(gf3, 4).elements())
    report = verify_weight_axioms(gf3, vectors, WeightMeasure(HAMMING),
                                  pair_budget=500, seed=7)
    assert report.passed


def test_subadditivity_and_inverse_exhaustive():
    gf3 = Field(3)
    cases = [
        (gf3, list(VectorSpace(gf3, 4).elements()), WeightMeasure(HAMMING)),
        (Field(2), all_matrices(Field(2), 2, 3), WeightMeasure(RANK)),
        (Field(2), all_matrices(Field(2), 2, 4), WeightMeasure(SUM_RANK, (2, 2))),
    ]
    for f, elements, measure in cases:
        report = verify_weight_axioms(f, elements, measure)
        assert report.subadditivity.passed and report.inverse_invariance.passed


def test_weight_axioms_reject_bad_input_on_entry(monkeypatch):
    gf3 = Field(3)

    def never(*args):
        raise AssertionError("a weight was taken before the input was checked")

    monkeypatch.setattr(weights_module, "hamming_weight", never)
    monkeypatch.setattr(weights_module, "rank_weight", never)
    hamming = WeightMeasure(HAMMING)
    with pytest.raises(ValueError, match="at least one element"):
        verify_weight_axioms(gf3, [], hamming)
    with pytest.raises(ValueError, match="not a length-2 vector"):
        verify_weight_axioms(gf3, [(0, 0), (0, 5)], hamming)
    with pytest.raises(ValueError, match="not a length-2 vector"):
        verify_weight_axioms(gf3, [(0, 0), (1, 2, 0)], hamming)
    with pytest.raises(ValueError, match="not a 2x2 matrix"):
        verify_weight_axioms(gf3, [((0, 0), (0, 0)), ((1,), (2,))], WeightMeasure(RANK))


def _axiom_cases(rng, count):
    """Seeded (field, sample, measure) cases, about half of them perturbed."""
    gf2, gf3 = Field(2), Field(3)
    spaces = [
        (gf2, list(VectorSpace(gf2, 3).elements()), WeightMeasure(HAMMING)),
        (gf3, list(VectorSpace(gf3, 3).elements()), WeightMeasure(HAMMING)),
        (gf2, all_matrices(gf2, 2, 3), WeightMeasure(RANK)),
        (gf3, all_matrices(gf3, 2, 2), WeightMeasure(RANK)),
        (gf2, all_matrices(gf2, 2, 3), WeightMeasure(SUM_RANK, (1, 2))),
    ]
    for _ in range(count):
        f, space, measure = rng.choice(spaces)
        sample = rng.sample(space, rng.randint(2, min(24, len(space))))
        if rng.random() < 0.7 and space[0] not in sample:
            sample[0] = space[0]
        weight_fn = None
        if rng.random() < 0.6:
            bumps = {z: rng.choice([-1, 1, 2]) for z in rng.sample(space, rng.randint(1, 3))}
            weight_fn = (lambda m, f, b: lambda z: m.weight(f, z) + b.get(z, 0))(
                measure, f, bumps)
        yield f, sample, measure, weight_fn


@pytest.mark.parametrize("pair_budget", [None, 40])
def test_weight_axioms_match_checked_oracle(pair_budget):
    rng = random.Random(4041 if pair_budget is None else 4042)
    failed = set()
    for f, sample, measure, weight_fn in _axiom_cases(rng, 60):
        seed = rng.randrange(100)
        # a perturbed weight is measured by a stand-in whose splits are
        # searched for, as the oracle searches under the same weight_fn
        searched = measure if weight_fn is None else SearchedMeasure(sample, weight_fn)
        got = verify_weight_axioms(f, sample, searched, pair_budget, seed)
        want = naive_weight_axioms(f, sample, measure, pair_budget, seed, weight_fn)
        assert got == want, (measure, sample)
        failed |= {name for name in ("nonnegativity", "subadditivity",
                                     "inverse_invariance", "decomposability")
                   if not getattr(got, name).passed}
    # the perturbed cases fail every axiom somewhere, so witnesses are compared too
    assert failed == {"nonnegativity", "subadditivity", "inverse_invariance",
                      "decomposability"}


def test_max_weight():
    gf2 = Field(2)
    assert WeightMeasure(HAMMING).max_weight((5,)) == 5
    assert WeightMeasure(RANK).max_weight((2, 3)) == 2
    assert WeightMeasure(SUM_RANK, (2, 2)).max_weight((3, 4)) == 4
    assert WeightMeasure(RANK).max_weight((4, 2)) == 2


# -- the separable route: separability plus one scan of GF(q)^1 ----------------

AXIOMS = ("nonnegativity", "subadditivity", "inverse_invariance", "decomposability")


def _separable_spaces():
    gf2, gf3 = Field(2), Field(3)
    return [
        (gf2, VectorSpace(gf2, 4), WeightMeasure(HAMMING)),
        (gf3, VectorSpace(gf3, 3), WeightMeasure(HAMMING)),
        (gf2, MatrixSpace(gf2, 2, 2), WeightMeasure(HAMMING)),
    ]


def _is_counterexample(f, space, measure, name, witness):
    """Does ``witness`` break axiom ``name`` in the whole space, under the
    measure as it currently weighs?"""
    w = lambda z: measure.weight(f, z)
    elements = set(space)
    if name == "separability":
        z, wz, total = witness
        return z in elements and wz == w(z) != total
    if name == "nonnegativity":
        z, wz = witness
        return z in elements and wz == w(z) and (wz < 0 or (wz == 0) != (z == space[0]))
    if name == "subadditivity":
        a, b = witness
        return {a, b} <= elements and w(oracle_add(f, a, b)) > w(a) + w(b)
    if name == "inverse_invariance":
        (z,) = witness
        return z in elements and w(oracle_neg(f, z)) != w(z)
    z, c1, c2 = witness
    if z not in elements or c1 + c2 != w(z):
        return False
    z1, z2 = measure.decompose(f, z, c1, c2)
    return not (w(z1) == c1 and w(z2) == c2 and oracle_add(f, z1, z2) == z)


def _separable_route(space, measure):
    """verify_separable_axioms on the space's weight order, as a channel
    caches it, taken under the measure as it currently weighs."""
    errors = ErrorModel(space, measure)
    weights = list(map(errors.weight, space.elements()))
    order = sorted(range(len(weights)), key=weights.__getitem__)
    return verify_separable_axioms(errors, order, list(map(weights.__getitem__, order)))


def _check_separable_route(f, space, measure):
    """The separable route passes exactly when the whole-space oracle does,
    each witness it reports is a whole-space counterexample, and, once
    separability and nonnegativity pass, each axiom's status equals the
    oracle's; returns the report."""
    got = _separable_route(space, measure)
    elements = list(space.elements())
    want = naive_weight_axioms(f, elements, measure)
    assert got.passed == want.passed, (measure, got, want)
    for name in ("separability",) + AXIOMS:
        check = getattr(got, name)
        if not check.passed:
            assert _is_counterexample(f, elements, measure, name, check.witness), (name, check)
    # Decomposability is decided on GF(q)^1, which speaks for the whole space
    # only when no nonzero symbol weighs 0 or less.  Over GF(3) with symbol 1
    # weighing 0 and symbol 2 weighing 1, (1, 2) weighs 1 and its split at
    # c1 = 1 gives (1, 0), weighing 0, yet each single symbol splits fine.
    if got.separability.passed and got.nonnegativity.passed:
        for name in AXIOMS:
            assert getattr(got, name).passed == getattr(want, name).passed, (name, got, want)
    return got


SPACE_IDS = ["gf2^4", "gf3^3", "gf2-2x2-hamming"]


@pytest.mark.parametrize("f, space, measure", _separable_spaces(), ids=SPACE_IDS)
def test_separable_route_matches_whole_space_oracle(f, space, measure):
    assert _check_separable_route(f, space, measure).passed


def _symbol_weights(table):
    """A Hamming weight that gives each symbol its own weight."""
    def weight(v):
        if v and isinstance(v[0], tuple):
            return sum(table[x] for row in v for x in row)
        return sum(table[x] for x in v)
    return weight


@pytest.mark.parametrize("f, space, measure", _separable_spaces(), ids=SPACE_IDS)
def test_separable_route_under_perturbed_symbol_weights(monkeypatch, f, space, measure):
    failed = set()
    for weights in itertools.product((-1, 0, 1, 2), repeat=f.q - 1):
        monkeypatch.setattr(weights_module, "hamming_weight", _symbol_weights((0,) + weights))
        got = _check_separable_route(f, space, measure)
        assert got.separability.passed
        failed |= {name for name in AXIOMS if not getattr(got, name).passed}
    # e.g. GF(3)'s symbol 2 weighing 2 breaks inverse invariance, a nonzero
    # symbol weighing 0 breaks nonnegativity; over GF(2), -a = a
    assert failed == set(AXIOMS) - ({"inverse_invariance"} if f.q == 2 else set())


def test_separable_route_scans_every_symbol_pair_of_a_large_field(monkeypatch):
    """Over GF(2^9) the factor space has 512^2 pairs.  With symbols a and b
    weighing 1, a + b weighing 3 and every other nonzero symbol 2, the
    only pairs that break subadditivity are (a, b) and (b, a); the route
    must find one of them."""
    f = Field(2, 9, max_size=512)
    a, b = 1, 2
    table = [2] * f.q
    table[0], table[a], table[b], table[f.add(a, b)] = 0, 1, 1, 3
    monkeypatch.setattr(weights_module, "hamming_weight", _symbol_weights(table))
    got = _separable_route(VectorSpace(f, 2), WeightMeasure(HAMMING))
    assert got.separability.passed and got.nonnegativity.passed
    assert not got.subadditivity.passed
    assert set(got.subadditivity.witness) == {(a, 0), (b, 0)}


@pytest.mark.parametrize("f, space, measure", _separable_spaces(), ids=SPACE_IDS)
def test_separable_route_reports_a_non_separable_weight(monkeypatch, f, space, measure):
    """A weight that is not a sum of symbol weights fails the route with a
    real separability witness, as the whole space fails some axiom."""
    heavy = list(space.elements())[-1]  # every symbol nonzero
    for weight in (lambda v: min(hamming_weight(v), 2),
                   lambda v: hamming_weight(v) + (v == heavy)):
        monkeypatch.setattr(weights_module, "hamming_weight", weight)
        got = _check_separable_route(f, space, measure)
        assert not got.separability.passed and not got.passed
        monkeypatch.undo()


@pytest.mark.parametrize("measure", [WeightMeasure(RANK), WeightMeasure(SUM_RANK, (1, 1))])
def test_separable_route_takes_the_hamming_weight_only(gf2, measure):
    with pytest.raises(ValueError, match="Hamming weight only"):
        _separable_route(MatrixSpace(gf2, 2, 2), measure)
