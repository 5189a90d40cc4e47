import itertools
import random
import re

import pytest

from oracles import naive_classify, naive_codeword_map_linear, naive_first_failing_pair
from gnetcode import (Field, WeightMeasure, RANK, classical_channel,
                      matrix_channel, table_channel, classify, ChannelClass,
                      enumerate_errors_up_to, ConstructionError, BudgetError,
                      random_table_channel, random_linear_channel,
                      random_rank_channel, random_sum_rank_channel,
                      minimum_distances, mwd, toy_channel, run_all, capability)
from gnetcode import matrices as mx
from gnetcode.channel import Channel, VectorSpace, ErrorModel, _codeword_map_linear
from gnetcode.weights import HAMMING


def test_classical_channel_valid(gf2):
    ch = classical_channel(gf2, [(0, 0, 0), (1, 1, 1)])
    assert ch.zero_output((0, 0, 0)) == (0, 0, 0)
    assert ch.evaluate((1, 1, 1), (0, 1, 1)) == (1, 0, 0)


def test_classical_evaluate_example(gf2):
    ch = classical_channel(gf2, [(1, 1, 0), (0, 1, 1)])
    assert ch.evaluate((1, 1, 0), (0, 1, 1)) == (1, 0, 1)


def test_duplicate_codewords_collide(gf2):
    with pytest.raises(ConstructionError, match="distinct"):
        classical_channel(gf2, [(0, 0, 0), (0, 0, 0)])


def test_zero_error_collision_detected(gf2):
    # distinct codewords whose clean outputs collide through a table
    table = {}
    for x in ((0,), (1,)):
        for z in ((0,), (1,)):
            table[(x, z)] = (0,) if z == (0,) else (x[0],)
    with pytest.raises(ConstructionError, match="collide at zero error"):
        table_channel(gf2, [(0,), (1,)], 1, 1, table)


def test_single_codeword_rejected(gf2):
    with pytest.raises(ConstructionError, match="two codewords"):
        classical_channel(gf2, [(0, 0)])


@pytest.mark.parametrize("bad", [(3,), (-1,), (1, 1)],
                         ids=["above-field", "negative", "wrong-length"])
def test_table_channel_rejects_foreign_codewords(gf2, bad):
    # a table total over both codewords does not admit a foreign one
    table = {(x, (z,)): (x[0] % 2, z) for x in ((0,), bad) for z in range(2)}
    with pytest.raises(ConstructionError, match="is not a length-1 vector"):
        table_channel(gf2, [(0,), bad], 1, 2, table)


@pytest.mark.parametrize("stray", [((0, 1), (1,)), ((0,), (1, 1)), ((5,), (0,))],
                         ids=["foreign-codeword", "long-error", "symbol-5"])
def test_table_channel_rejects_stray_entries(gf2, stray):
    # a table total over codewords x errors may hold nothing else
    table = {((x,), (z,)): (x, z) for x in range(2) for z in range(2)}
    table[stray] = (0, 0)
    with pytest.raises(ConstructionError, match=re.escape(f"an entry for {stray!r} outside")):
        table_channel(gf2, [(0,), (1,)], 1, 2, table)


def test_membership_validation(gf2, repetition):
    with pytest.raises(ValueError, match="not a codeword"):
        repetition.evaluate((1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="error space"):
        repetition.evaluate((0, 0, 0), (0, 0))


def test_budget_rejected(gf3):
    with pytest.raises(BudgetError):
        classical_channel(gf3, [(0,) * 9, (1,) * 9], pair_budget=1000)


def test_matrix_channel_identity(gf2):
    ident = mx.identity(3)
    ch = matrix_channel(gf2, [(0, 0, 0), (1, 1, 1)], ident, ident)
    for z in ch.errors.space.elements():
        assert ch.evaluate((1, 1, 1), z) == tuple(1 ^ b for b in z)


def test_matrix_channel_dimension_mismatch(gf2):
    with pytest.raises(ConstructionError, match="columns"):
        matrix_channel(gf2, [(0, 0), (1, 1)], mx.identity(2), mx.zeros(2, 3))
    with pytest.raises(ConstructionError, match="length"):
        matrix_channel(gf2, [(0, 0, 0), (1, 1, 1)], mx.identity(2), mx.identity(2))


def test_matrix_channel_rejects_symbols_outside_the_field(gf2):
    eye = mx.identity(2)
    with pytest.raises(ConstructionError, match="A must be"):
        matrix_channel(gf2, [(0, 0), (1, 1)], ((1, 2), (0, 1)), eye)
    with pytest.raises(ConstructionError, match="B must be"):
        matrix_channel(gf2, [(0, 0), (1, 1)], eye, ((1, 0), (0, 2)))
    with pytest.raises(ConstructionError, match="vector codewords"):
        matrix_channel(gf2, [(0, 0), (1, 2)], eye, eye)
    with pytest.raises(ConstructionError, match="matrix codewords"):
        matrix_channel(gf2, [((0,), (0,)), ((1,), (2,))], ((1, 0),), eye,
                       WeightMeasure(RANK))


def test_codec_is_created_with_the_first_row(gf2):
    ch = matrix_channel(gf2, [(0, 0), (1, 1)], mx.identity(2), mx.identity(2))
    assert "codec" not in ch._cache
    minimum_distances(ch)
    assert "codec" in ch._cache


def test_classify_classical_linear(gf2, repetition):
    verdict = classify(repetition)
    assert verdict.error_linear and verdict.linear and verdict.witness is None


def test_classify_non_subspace_code(gf2):
    ch = classical_channel(gf2, [(0, 0, 1), (1, 1, 0)])
    verdict = classify(ch)
    assert verdict.error_linear
    assert not verdict.linear
    assert verdict.witness[0] == "code-not-subspace"


def test_classify_matrix_channels():
    gf3 = Field(3)
    a = ((1, 0, 1), (0, 1, 1))
    b = ((1, 1, 0), (0, 1, 1), (1, 0, 0))
    codewords = list(itertools.product(range(3), repeat=2))
    ch = matrix_channel(gf3, codewords, a, b)
    verdict = classify(ch)
    assert verdict.error_linear and verdict.linear


def test_classify_rank_channel(gf2):
    a = ((1, 0),)
    b = ((1, 0), (0, 1))
    codewords = [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    ch = matrix_channel(gf2, codewords, a, b, WeightMeasure(RANK))
    verdict = classify(ch)
    assert verdict.error_linear and verdict.linear


def test_classify_toy_not_error_linear(toy):
    verdict = classify(toy)
    assert not verdict.error_linear and not verdict.linear
    tag, x, z = verdict.witness
    assert tag == "transfer-not-additive"
    # the witness must actually violate F(x, z) == F(x, 0) + h(z)
    x0 = toy.codewords[0]
    h = mx.vec_sub(toy.field, toy.evaluate(x0, z), toy.zero_output(x0))
    assert toy.evaluate(x, z) != mx.vec_add(toy.field, toy.zero_output(x), h)


def test_classify_adds_each_error_once(toy, monkeypatch):
    """The toy's witness is codeword 1 at weight-order position 7, so the
    row check takes one code addition for each of the first 8 errors
    against codeword 0's row, codeword 0's own row is not checked, and h,
    which would take another |E| additions, is never built."""
    row0 = toy._code_row(toy.codewords[0])
    codec = toy._codec()
    calls = []
    add = codec.add

    def counted(a, b):
        calls.append((a, b))
        return add(a, b)

    monkeypatch.setattr(codec, "add", counted)
    verdict = classify(toy)
    assert verdict.witness[1] == toy.codewords[1]
    errors = [z for z, _ in toy._errors_by_weight()]
    assert errors.index(verdict.witness[2]) == 7
    assert 1 <= len(calls) <= 9
    assert [a for a, _ in calls] == row0[:len(calls)]


def test_classify_names_its_witness_by_index(gf3):
    """The transfer-not-additive witness is lifted from the error's
    enumeration index: the toy's (weight-order position 7, index 27) and
    that of a table breaking x + z at one weight-2 error (position 15,
    index 19) are the errors of those positions, and classify leaves no
    list of error tuples behind."""
    codewords = [(0, 0, 0), (1, 1, 1)]
    table = {(x, z): mx.vec_add(gf3, x, z)
             for x in codewords for z in itertools.product(range(3), repeat=3)}
    table[((1, 1, 1), (2, 0, 1))] = (0, 0, 0)
    for ch, x, z in ((toy_channel(), (1, 1, 1), (0, 0, 0, 0, 0, 1, 0, 0, 0)),
                     (table_channel(gf3, codewords, 3, 3, table), (1, 1, 1), (2, 0, 1))):
        assert classify(ch) == ChannelClass(False, False, ("transfer-not-additive", x, z))
        assert "errors_by_weight" not in ch._cache


def test_classify_reconstructs_transfer(gf2, repetition):
    # for an error-linear verdict, f + h rebuilds F exactly
    verdict = classify(repetition)
    assert verdict.error_linear
    x0 = repetition.codewords[0]
    for x in repetition.codewords:
        for z in repetition.errors.space.elements():
            h = mx.vec_sub(gf2, repetition.evaluate(x0, z), repetition.zero_output(x0))
            assert repetition.evaluate(x, z) == mx.vec_add(
                gf2, repetition.zero_output(x), h)


def test_classify_homomorphism_counterexample(gf2):
    # additive in (x, z) jointly but h fails the homomorphism: y = x + 2*z is
    # impossible over GF(2); instead use a table whose h is not additive
    table = {}
    for x in ((0,), (1,)):
        for z0, z1 in itertools.product(range(2), repeat=2):
            # h(z) depends nonlinearly on z = (z0, z1): h = z0 OR z1
            table[(x, (z0, z1))] = ((x[0] + (z0 | z1)) % 2,)
    ch = table_channel(gf2, [(0,), (1,)], 2, 1, table)
    verdict = classify(ch)
    assert not verdict.error_linear
    assert verdict.witness[0] == "error-map-not-homomorphic"


def test_classify_answers_every_admitted_channel(gf2, gf3):
    """The homomorphism check is linear in |E|, so a channel the pair budget
    admits is classified whatever |E|^2 is, and its ledger runs."""
    rep10 = classical_channel(gf2, [(0,) * 10, (1,) * 10])  # 1,024^2 pairs > 10^6
    # construction needs 2 x 3^6 = 1,458 pairs, an all-pairs scan 3^12
    rep6 = classical_channel(gf3, [(0,) * 6, (1,) * 6], pair_budget=1_500)
    assert classify(rep10) == ChannelClass(True, True, None)
    # {0, (1,...,1)} is no GF(3) subspace, and a 3-word code is past the budget
    assert classify(rep6) == ChannelClass(True, False, ("code-not-subspace", (2,) * 6))
    for ch in (rep10, rep6):
        assert run_all(ch, seed=1).failures() == []


def _separable_table_channel(rng, f, n_codewords, error_length, output_length):
    """F(x, z) = F(x, 0) + h(z) with a random h, h(0) = 0: classify gets past
    the additivity scan and, unless h happens to be additive, fails the
    homomorphism scan at some pair."""
    outputs = list(itertools.product(range(f.q), repeat=output_length))
    errors = list(itertools.product(range(f.q), repeat=error_length))
    codewords = rng.sample(errors, n_codewords)
    clean = rng.sample(outputs, n_codewords)
    h = {z: rng.choice(outputs) if any(z) else outputs[0] for z in errors}
    table = {(x, z): mx.vec_add(f, y, h[z])
             for x, y in zip(codewords, clean) for z in errors}
    return table_channel(f, codewords, error_length, output_length, table)


def _with_error_map(ch, h):
    """ch's code and spaces with F(x, z) = F(x, 0) + h[z]."""
    out = ch.outputs
    return Channel(ch.field, ch.codewords, ch.errors, out,
                   lambda x, z: out.add(ch.zero_output(x), h[z]))


def _perturbed(rng, ch):
    """ch, an error-linear channel, with h shifted at one nonzero error: the
    new h is not additive once |E| > 2."""
    x0, out, zero = ch.codewords[0], ch.outputs, ch.errors.space.zero()
    h = {z: out.sub(ch.evaluate(x0, z), ch.zero_output(x0)) for z in ch.errors.space.elements()}
    z = rng.choice([z for z in h if z != zero])
    h[z] = out.add(h[z], rng.choice([y for y in out.elements() if y != out.zero()]))
    return _with_error_map(ch, h)


def _coordinate_sum(rng, ch):
    """ch, with vector errors, under h(z) = sum_t phi_t(z_t) for random maps
    phi_t with phi_t(0) = 0: h splits at every coordinate, but it is additive
    only where every phi_t is."""
    out, q = ch.outputs, ch.field.q
    nonzero = [y for y in out.elements() if y != out.zero()]
    phi = [[out.zero()] + [rng.choice(nonzero) for _ in range(q - 1)]
           for _ in range(ch.errors.space.length)]
    h = {}
    for z in ch.errors.space.elements():
        hz = out.zero()
        for phi_t, a in zip(phi, z):
            hz = out.add(hz, phi_t[a])
        h[z] = hz
    return _with_error_map(ch, h)


def test_classify_matches_checked_oracle():
    rng = random.Random(8128)
    gf2, gf3, gf4 = Field(2), Field(3), Field(2, 2)
    channels = []
    for f in (gf2, gf3, gf4):
        for _ in range(3):
            channels.append(random_table_channel(rng, f, n_codewords=3,
                                                 error_length=2, output_length=2))
            channels.append(_separable_table_channel(rng, f, 3, 2, 2))
    channels += [
        random_linear_channel(rng, gf2, msg_length=2, error_length=3, output_length=3),
        random_linear_channel(rng, gf3, msg_length=1, error_length=2, output_length=2),
        random_linear_channel(rng, gf4, msg_length=1, error_length=2, output_length=2),
        random_rank_channel(rng, gf2, rows=2, msg_cols=1, err_cols=2, out_cols=2),
        random_sum_rank_channel(rng, gf2, rows=1, msg_blocks=(1, 1),
                                err_blocks=(1, 1), out_blocks=(1, 1)),
    ]
    # h non-additive on one coordinate axis, yet split at every coordinate;
    # and linear h with one entry moved, over vector, rank and sum-rank errors
    gf5 = Field(5)
    vector_bases = [random_linear_channel(rng, f, msg_length=1, error_length=n,
                                          output_length=2)
                    for f, n in ((gf2, 3), (gf3, 2), (gf4, 2), (gf5, 2))]
    coordinate_sums = [_coordinate_sum(rng, ch) for ch in vector_bases[1:]]
    perturbed = [_perturbed(rng, ch) for ch in vector_bases + [
        random_rank_channel(rng, gf2, rows=2, msg_cols=1, err_cols=2, out_cols=2),
        random_sum_rank_channel(rng, gf2, rows=2)]]
    tags = set()
    for ch in channels + vector_bases + coordinate_sums + perturbed:
        verdict = classify(ch)
        assert verdict == naive_classify(ch), ch
        tags.add(verdict.witness[0] if verdict.witness else verdict.error_linear)
    assert {"transfer-not-additive", "error-map-not-homomorphic", True} <= tags
    for ch in coordinate_sums + perturbed:
        assert classify(ch).witness[0] == "error-map-not-homomorphic", ch


def test_homomorphism_witness_matches_tuple_search():
    """classify names the first failing (za, zb) of the tuple search, za over
    the weight-<= 1 errors, on every channel whose h is not additive: a GF(3)
    table channel whose failing za comes late among the weight-one errors,
    one whose witness depends on zb's order, seeded random GF(2)/GF(3) table
    channels, and perturbed rank and sum-rank channels."""
    gf2, gf3 = Field(2), Field(3)
    late = {(x, z): ((x[0] + sum(z) + z[0] * z[1]) % 3, z[2])
            for x in ((0,), (1,)) for z in itertools.product(range(3), repeat=8)}
    # h = 1 at (1, 2) and (2, 1) only: za = (0, 1) first fails at zb = (2, 0)
    # in weight order, but at (1, 1) in enumeration order
    bump = {(1, 2): 1, (2, 1): 1}
    ordered = {(x, z): ((x[0] + bump.get(z, 0)) % 3,)
               for x in ((0,), (1,)) for z in itertools.product(range(3), repeat=2)}
    channels = [table_channel(gf3, [(0,), (1,)], 8, 2, late),
                table_channel(gf3, [(0,), (1,)], 2, 1, ordered)]
    rng = random.Random(2718)
    for f, n in ((gf2, 2), (gf2, 3), (gf3, 2), (gf3, 3)):
        channels += [_separable_table_channel(rng, f, 2, n, 2) for _ in range(3)]
    channels += [_perturbed(rng, random_rank_channel(rng, gf2, rows=2, msg_cols=1,
                                                     err_cols=2, out_cols=2)),
                 _perturbed(rng, random_sum_rank_channel(rng, gf2, rows=2))]
    pairs = list(map(naive_first_failing_pair, channels))
    for ch, pair in zip(channels, pairs):
        if pair is None:  # a random h that happens to be additive
            assert classify(ch).error_linear, ch
        else:
            assert classify(ch) == ChannelClass(
                False, False, ("error-map-not-homomorphic",) + pair), ch
    assert pairs[:2] == [((0, 1) + (0,) * 6, (1,) + (0,) * 7), ((0, 1), (2, 0))]
    assert sum(pair is not None for pair in pairs) >= 13


def _subspace_code_channel(rng, f, dim, output_length):
    """The whole GF(q)^dim as the code, f(0) = 0 and random distinct clean
    outputs elsewhere, F(x, z) = F(x, 0) + (z, 0, ..., 0)."""
    codewords = list(itertools.product(range(f.q), repeat=dim))
    nonzero = [y for y in itertools.product(range(f.q), repeat=output_length) if any(y)]
    clean = [(0,) * output_length] + rng.sample(nonzero, len(codewords) - 1)
    pad = (0,) * (output_length - 1)
    table = {(x, (z,)): mx.vec_add(f, y, (z,) + pad)
             for x, y in zip(codewords, clean) for z in range(f.q)}
    return table_channel(f, codewords, 1, output_length, table)


def test_codeword_map_linear_matches_checked_oracle():
    rng = random.Random(2718)
    gf2, gf3, gf4 = Field(2), Field(3), Field(2, 2)
    channels = [_subspace_code_channel(rng, f, 2, 3) for f in (gf2, gf3) for _ in range(3)]
    channels += [_separable_table_channel(rng, gf4, 3, 2, 2) for _ in range(2)]
    channels += [random_linear_channel(rng, gf4, msg_length=1, error_length=2, output_length=2),
                 random_rank_channel(rng, gf3, rows=2, msg_cols=1, err_cols=1, out_cols=2),
                 random_sum_rank_channel(rng, gf2, rows=1, msg_blocks=(1, 1),
                                         err_blocks=(1, 1), out_blocks=(1, 1))]
    tags = set()
    for ch in channels:
        got = _codeword_map_linear(ch)
        assert got == naive_codeword_map_linear(ch), ch
        tags.add(got[1][0] if got[1] else got[0])
    assert tags == {True, "code-not-subspace", "codeword-map-not-homogeneous",
                    "codeword-map-not-additive"}


def test_enumerate_errors_up_to(gf3, toy):
    ch = classical_channel(gf3, [(0, 0, 0), (1, 1, 1)])
    zero_only = enumerate_errors_up_to(ch, 0)
    assert zero_only == [((0, 0, 0), 0)]
    radius1 = enumerate_errors_up_to(ch, 1)
    assert len(radius1) == 7  # 1 + 3 positions * 2 nonzero values
    assert [w for _, w in radius1] == sorted(w for _, w in radius1)
    radius2 = enumerate_errors_up_to(ch, 2)
    assert radius2[:len(radius1)] == radius1  # prefix property


def test_enumerate_rank_errors(gf2):
    a = ((1, 0),)
    b = ((1, 0), (0, 1))
    codewords = [((0,), (0,)), ((1,), (0,))]
    ch = matrix_channel(gf2, codewords, a, b, WeightMeasure(RANK))
    # zero matrix plus the nine rank-1 matrices in GF(2)^{2x2}
    assert len(enumerate_errors_up_to(ch, 1)) == 10


def test_custom_channel_rejects_output_outside_space(gf2):
    space = VectorSpace(gf2, 2)
    errors = ErrorModel(space, WeightMeasure(HAMMING))
    with pytest.raises(ConstructionError, match="output space"):
        Channel(gf2, [(0, 0), (1, 1)], errors, space, lambda x, z: (0, 0, 0))


def test_custom_channel_rejects_row_output_outside_space(gf2):
    # only the nonzero error (1, 1) of codeword (1, 1) leaves the output space
    space = VectorSpace(gf2, 2)
    errors = ErrorModel(space, WeightMeasure(HAMMING))

    def transfer(x, z):
        return (7, 0) if x == z == (1, 1) else mx.vec_add(gf2, x, z)

    ch = Channel(gf2, [(0, 0), (1, 1)], errors, space, transfer)
    culprit = r"\(x, z\) = \(\(1, 1\), \(1, 1\)\)"
    with pytest.raises(ConstructionError, match=culprit):
        minimum_distances(ch)
    with pytest.raises(ConstructionError, match=culprit):
        mwd(ch, (7, 0))


_ROW_CHANNELS = {
    "classical": lambda rng: classical_channel(Field(3), [(0, 0, 0), (1, 2, 0), (2, 2, 1)]),
    "vector-matrix": lambda rng: random_linear_channel(
        rng, Field(2, 2), msg_length=1, error_length=3, output_length=2),
    "rank": lambda rng: random_rank_channel(rng, Field(2), rows=2, msg_cols=1,
                                            err_cols=2, out_cols=2),
    "sum-rank": lambda rng: random_sum_rank_channel(rng, Field(3), rows=1),
    "table": lambda rng: random_table_channel(rng, Field(3), n_codewords=3,
                                              error_length=3, output_length=2),
    "network": lambda rng: toy_channel(),
}


@pytest.mark.parametrize("kind", sorted(_ROW_CHANNELS))
def test_row_kernel_matches_per_pair_transfer(kind):
    ch = _ROW_CHANNELS[kind](random.Random(kind))
    for x in ch.codewords:
        assert ch._transfer_row(x) == [ch.evaluate(x, z) for z, _ in ch._errors_by_weight()]


@pytest.mark.parametrize("p, k, n", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (2, 3, 2)],
                         ids=["gf2", "gf3", "gf4", "gf8"])
def test_classical_row_is_every_shift(p, k, n):
    """The row kernel lists the codes of x + z for every z in the
    enumeration order."""
    f = Field(p, k)
    space = VectorSpace(f, n)
    codewords = random.Random(n).sample(list(space.elements()), 3)
    ch = classical_channel(f, codewords)
    codec = ch._codec()
    for x in ch.codewords:
        assert ch._row(x, codec) == [codec.encode(mx.vec_add(f, x, z))
                                     for z in space.elements()]


def test_hamming_engine_builds_no_error_tuples(monkeypatch):
    """On Hamming channels whose row kernels work without error tuples (a
    network, classical and matrix rows), the distances, capability, MWD and
    a passing classify take the weight order from the bulk Hamming weights
    and never enumerate the error space."""
    def refuse(space):
        raise AssertionError(f"{space} was enumerated")

    monkeypatch.setattr(VectorSpace, "elements", refuse)
    gf3 = Field(3)
    channels = [toy_channel(), classical_channel(gf3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)]),
                matrix_channel(gf3, [(0, 0), (1, 2), (2, 1)], ((1, 0, 1), (0, 1, 1)),
                               ((1, 1, 0), (0, 1, 2)))]
    for ch in channels:
        minimum_distances(ch)
        capability(ch)
        assert mwd(ch, ch.zero_output(ch.codewords[1])).codeword == ch.codewords[1]
    for ch in channels[1:]:
        assert classify(ch).error_linear
