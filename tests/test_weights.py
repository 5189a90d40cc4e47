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
from gnetcode.weights import (AXIOM_ELEMENT_BUDGET, AxiomCheck, symbol_sums,
                              verify_rank_axioms, verify_separable_axioms)


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


def _weight_order(space, measure):
    """The error model and its weight order, as a channel caches it, under
    the measure as it currently weighs."""
    errors = ErrorModel(space, measure)
    weights = list(map(errors.weight, space.elements()))
    order = sorted(range(len(weights)), key=weights.__getitem__)
    return errors, order, list(map(weights.__getitem__, order))


def _separable_route(space, measure):
    """verify_separable_axioms on the space's weight order."""
    return verify_separable_axioms(*_weight_order(space, measure))


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


def test_a_split_the_measure_cannot_construct_is_reported(monkeypatch, gf2):
    """A weight that disagrees with the measure's own split construction
    fails decomposability with that split as witness; it does not raise."""
    rank = weights_module.rank_weight
    monkeypatch.setattr(weights_module, "rank_weight",
                        lambda f, a: rank(f, a) + (a == ((1, 0), (0, 0))))
    report = verify_weight_axioms(gf2, all_matrices(gf2, 2, 2), WeightMeasure(RANK))
    assert report.nonnegativity.passed and report.subadditivity.passed
    assert report.decomposability == AxiomCheck(False, (((1, 0), (0, 0)), 0, 2))


# -- the rank route: every error by index, subadditivity on a bounded scan ----

def _rank_spaces():
    gf2, gf3, gf4 = Field(2), Field(3), Field(2, 2)
    return [
        (gf2, MatrixSpace(gf2, 2, 2), WeightMeasure(RANK)),
        (gf2, MatrixSpace(gf2, 2, 3), WeightMeasure(RANK)),
        (gf2, MatrixSpace(gf2, 3, 2), WeightMeasure(RANK)),
        (gf2, MatrixSpace(gf2, 2, 3), WeightMeasure(SUM_RANK, (1, 2))),
        (gf2, MatrixSpace(gf2, 2, 4), WeightMeasure(SUM_RANK, (2, 2))),
        (gf3, MatrixSpace(gf3, 2, 2), WeightMeasure(RANK)),
        (gf3, MatrixSpace(gf3, 2, 2), WeightMeasure(SUM_RANK, (1, 1))),
        (gf4, MatrixSpace(gf4, 2, 2), WeightMeasure(RANK)),
        (gf4, MatrixSpace(gf4, 2, 2), WeightMeasure(SUM_RANK, (1, 1))),
    ]


RANK_SPACE_IDS = ["gf2-2x2", "gf2-2x3", "gf2-3x2", "gf2-2x3-sum12", "gf2-2x4-sum22",
                  "gf3-2x2", "gf3-2x2-sum11", "gf4-2x2", "gf4-2x2-sum11"]


def _bump(monkeypatch, bumps):
    """Add ``bumps[z]`` to the rank and sum-rank weights of z."""
    rank, sum_rank = weights_module.rank_weight, weights_module.sum_rank_weight
    monkeypatch.setattr(weights_module, "rank_weight",
                        lambda f, a: rank(f, a) + bumps.get(a, 0))
    monkeypatch.setattr(weights_module, "sum_rank_weight",
                        lambda f, a, blocks: sum_rank(f, a, blocks) + bumps.get(a, 0))


def _rank_route(space, measure, seed=0):
    """verify_rank_axioms on the space's weight order, and the errors in
    that order."""
    errors, order, weights = _weight_order(space, measure)
    got = verify_rank_axioms(errors, order, weights, seed)
    elements = list(space.elements())
    return got, [elements[i] for i in order]


@pytest.mark.parametrize("f, space, measure", _rank_spaces(), ids=RANK_SPACE_IDS)
def test_rank_route_matches_the_scan_over_every_error(monkeypatch, f, space, measure):
    """On at most AXIOM_ELEMENT_BUDGET errors the rank route's report,
    witnesses included, is verify_weight_axioms' over every error in weight
    order, with and without perturbed weights.  Under a perturbed weight
    the three split-free verdicts also equal those of the measure whose
    splits are searched for, and a constructive split that passes implies
    a searched one does."""
    assert space.size <= AXIOM_ELEMENT_BUDGET
    got, by_weight = _rank_route(space, measure)
    assert got.passed and got == verify_weight_axioms(f, by_weight, measure)

    rng = random.Random(f"{f}/{space.shape}/{measure}")
    elements = list(space.elements())
    for _ in range(6 if space.size <= 81 else 2):
        bumps = {z: rng.choice([-1, 1, 2]) for z in rng.sample(elements, rng.randint(1, 3))}
        with monkeypatch.context() as patch:
            _bump(patch, bumps)
            got, by_weight = _rank_route(space, measure)
            assert got == verify_weight_axioms(f, by_weight, measure), bumps
            if space.size <= 81:
                searched = verify_weight_axioms(
                    f, by_weight, SearchedMeasure(by_weight, lambda z: measure.weight(f, z)))
                for name in AXIOMS[:3]:
                    assert getattr(got, name) == getattr(searched, name), (name, bumps)
                assert searched.decomposability.passed or not got.decomposability.passed
        assert not got.passed, bumps


def test_rank_route_fails_each_axiom_with_the_scan_witness(monkeypatch):
    """One perturbed rank-one error of GF(3)'s 2x2 space fails each axiom in
    turn, with the witness of the scan over every error."""
    gf3 = Field(3)
    space, measure = MatrixSpace(gf3, 2, 2), WeightMeasure(RANK)
    z = ((1, 0), (0, 0))
    for bump, name in ((-1, "nonnegativity"), (2, "subadditivity"),
                       (1, "inverse_invariance"), (1, "decomposability")):
        with monkeypatch.context() as patch:
            _bump(patch, {z: bump})
            got, by_weight = _rank_route(space, measure)
            assert got == verify_weight_axioms(gf3, by_weight, measure)
            assert not getattr(got, name).passed, name


def _oracle_sample(by_weight, seed):
    """The seeded sample run_all checked every axiom on past the budget."""
    sample = random.Random(seed).sample(by_weight, AXIOM_ELEMENT_BUDGET)
    if by_weight[0] not in sample:
        sample[0] = by_weight[0]
    return sample


@pytest.mark.parametrize("f, space, measure", [
    (Field(2), MatrixSpace(Field(2), 3, 3), WeightMeasure(RANK)),
    (Field(3), MatrixSpace(Field(3), 2, 3), WeightMeasure(SUM_RANK, (1, 2))),
], ids=["gf2-3x3", "gf3-2x3-sum12"])
def test_rank_route_past_the_budget(monkeypatch, f, space, measure):
    """Past AXIOM_ELEMENT_BUDGET errors subadditivity scans every pair of
    exactly the seeded sample, while the other three axioms cover every
    error: one failing error outside the sample fails them, with the
    witnesses of a scan over every error.  Each error is row-reduced once
    per block."""
    # a seed whose sample misses the error just after zero in weight order,
    # where an error perturbed to weigh 0 lands
    seed = next(s for s in itertools.count()
                if 1 not in random.Random(s).sample(range(space.size), AXIOM_ELEMENT_BUDGET))
    errors, order, weights = _weight_order(space, measure)
    elements = list(space.elements())
    sample = _oracle_sample([elements[i] for i in order], seed)
    outer, reductions = [], [0]
    index_sums, echelon = weights_module.index_sums, mx._echelon

    def recording_index_sums(table, a, places, b=None):
        if b is None:
            outer.append(a)
        return index_sums(table, a, places, b)

    def counting_echelon(f, a):
        reductions[0] += 1
        return echelon(f, a)

    with monkeypatch.context() as patch:
        patch.setattr(weights_module, "index_sums", recording_index_sums)
        patch.setattr(mx, "_echelon", counting_echelon)
        got = verify_rank_axioms(errors, order, weights, seed)
    assert got.passed and [elements[a] for a in outer] == sample
    assert reductions == [space.size * len(measure.blocks or (1,))]

    # a nonzero error made to weigh 0, or (in odd characteristic, where
    # -z != z) one more than its rank, with it and its negation outside the
    # sample its perturbed weight order draws
    cases = [(lambda z: -measure.weight(f, z), ("nonnegativity", "decomposability"))]
    if f.q % 2:
        cases.append((lambda z: 1, ("inverse_invariance", "decomposability")))
    for bump, names in cases:
        for z in reversed(elements):
            bumps = {z: bump(z)}
            with monkeypatch.context() as patch:
                _bump(patch, bumps)
                errors, order, weights = _weight_order(space, measure)
                by_weight = [elements[i] for i in order]
                sample = _oracle_sample(by_weight, seed)
                if z in sample or mx.mat_neg(f, z) in sample:
                    continue
                got = verify_rank_axioms(errors, order, weights, seed)
                every = verify_weight_axioms(f, by_weight, measure, 1, 0)
                sampled = verify_weight_axioms(f, sample, measure)
            break
        assert got.subadditivity == sampled.subadditivity
        assert sampled.nonnegativity.passed and sampled.inverse_invariance.passed
        for name in names:
            check = getattr(got, name)
            assert not check.passed and check == getattr(every, name), (name, bumps)


def test_rank_route_takes_rank_weights_only(gf2):
    with pytest.raises(ValueError, match="not the Hamming weight"):
        _rank_route(MatrixSpace(gf2, 2, 2), WeightMeasure(HAMMING))
