import dataclasses
import random

import pytest

from gnetcode import (Field, INFINITE, is_finite, decoding_ball, dist_d0, dist_d1, dist_d2,
                      dist_d2_refined, tau_and_cstar, minimum_distances,
                      ThresholdUndefinedError, random_table_channel)
from conftest import disjoint_images_channel
from oracles import (naive_ball, naive_d0, naive_d1, naive_d2, naive_d2_refined,
                     naive_meet)

EXPECTED_BALL_X0 = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (2, 0, 0), (0, 2, 0), (0, 0, 2)}
EXPECTED_BALL_X1 = {(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 0, 2),
                 (2, 0, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)}


def test_radius_zero_ball_is_singleton(toy, repetition):
    for ch in (toy, repetition):
        for x in ch.codewords:
            ball = decoding_ball(ch, x, 0)
            assert ball.members == frozenset({ch.zero_output(x)})


def test_toy_radius_one_balls_exact(toy):
    x0, x1 = toy.codewords
    assert decoding_ball(toy, x0, 1).members == frozenset(EXPECTED_BALL_X0)
    assert decoding_ball(toy, x1, 1).members == frozenset(EXPECTED_BALL_X1)
    assert decoding_ball(toy, x0, 1).members & decoding_ball(toy, x1, 1).members == frozenset()


def test_hamming_ball(repetition):
    assert decoding_ball(repetition, (0, 0, 0), 1).members == frozenset(
        {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)})


def test_ball_monotone(toy):
    for x in toy.codewords:
        prev = frozenset()
        for c in range(toy.w_max + 1):
            cur = decoding_ball(toy, x, c).members
            assert prev <= cur
            prev = cur


def test_toy_distances(toy):
    x0, x1 = toy.codewords
    assert dist_d0(toy, x0, x0) == 0
    assert dist_d0(toy, x0, x1) == 3
    assert dist_d0(toy, x1, x0) == 3
    assert dist_d1(toy, x0, x1) == 2
    assert dist_d1(toy, x1, x0) == 3  # detection distance is asymmetric here
    assert dist_d2(toy, x0, x1) == 2
    assert dist_d2_refined(toy, x0, x1, 0) == 2
    assert dist_d2_refined(toy, x0, x1, 1) == 1
    assert dist_d2_refined(toy, x0, x1, 2) == 0
    assert dist_d2_refined(toy, x0, x1, 5) == 0
    assert tau_and_cstar(toy, x0, x1) == (2, 1)


def test_self_distances_are_zero(toy, repetition):
    for ch in (toy, repetition):
        for x in ch.codewords:
            assert dist_d0(ch, x, x) == 0
            assert dist_d1(ch, x, x) == 0
            assert dist_d2(ch, x, x) == 0


def test_threshold_floor_arithmetic(hamming_code_channel):
    # pairs of the [7,4] code sit at distances 3, 4 and 7
    report = minimum_distances(hamming_code_channel)
    seen = {}
    for (i, j) in report.pairs():
        seen[report.d0[i, j]] = (report.tau[i, j], report.cstar[i, j])
    assert seen[3] == (2, 1)
    assert seen[4] == (2, 2)
    assert seen[7] == (4, 3)
    x1, x2 = hamming_code_channel.codewords[0], hamming_code_channel.codewords[-1]
    assert tau_and_cstar(hamming_code_channel, x1, x2) == (
        report.tau[0, len(report.codewords) - 1],
        report.cstar[0, len(report.codewords) - 1])


def test_toy_minimum_report(toy):
    report = minimum_distances(toy)
    assert report.d0_min == 3
    assert report.d1_min == 2
    assert report.d2_min == 2
    assert report.d2_min_refined == (2, 1, 0)
    assert min(2 * c + v for c, v in enumerate(report.d2_min_refined)) == 2
    assert report.tau[0, 1] == 2 and report.cstar[0, 1] == 1


def test_repetition_distances(repetition):
    x0, x1 = repetition.codewords
    assert dist_d0(repetition, x0, x1) == 3
    assert dist_d1(repetition, x0, x1) == 3
    assert dist_d1(repetition, x1, x0) == 3
    assert dist_d2(repetition, x0, x1) == 3
    report = minimum_distances(repetition)
    assert (report.d0_min, report.d1_min, report.d2_min) == (3, 3, 3)


def test_hamming_code_distances(hamming_code_channel):
    report = minimum_distances(hamming_code_channel)
    assert report.d0_min == report.d1_min == report.d2_min == 3
    assert all(report.d0[p] == report.d1[p] == report.d2[p]
               for p in report.pairs())


def test_refined_equals_detection_at_zero(toy, repetition):
    for ch in (toy, repetition):
        report = minimum_distances(ch)
        for (i, j) in report.pairs():
            assert report.d2_refined[i, j][0] == report.d1[i, j]


def test_refined_nonincreasing(toy):
    report = minimum_distances(toy)
    for (i, j) in report.pairs():
        vals = report.d2_refined[i, j]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_infinite_distances():
    ch = disjoint_images_channel()
    x0, x1 = ch.codewords
    assert dist_d0(ch, x0, x1) == INFINITE
    assert dist_d1(ch, x0, x1) == INFINITE
    assert dist_d2(ch, x0, x1) == INFINITE
    assert dist_d2_refined(ch, x0, x1, 0) == INFINITE
    assert not is_finite(dist_d0(ch, x0, x1))
    with pytest.raises(ThresholdUndefinedError):
        tau_and_cstar(ch, x0, x1)
    report = minimum_distances(ch)
    assert report.d0_min == INFINITE
    assert report.tau[0, 1] is None
    assert report.to_dict()["d0_min"] == {"value": None, "infinite": True}


def test_invalid_inputs(repetition):
    with pytest.raises(ValueError, match="nonnegative"):
        decoding_ball(repetition, (0, 0, 0), -1)
    with pytest.raises(ValueError, match="not a codeword"):
        dist_d0(repetition, (1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        dist_d2_refined(repetition, (0, 0, 0), (1, 1, 1), -2)


def assert_engine_matches_oracle(ch):
    report = minimum_distances(ch)
    for (i, j) in report.pairs():
        x1, x2 = ch.codewords[i], ch.codewords[j]
        # one scan per unordered pair builds both tables
        assert report.meets[i, j] == tuple(naive_meet(ch, x1, x2))
        assert report.d0[i, j] == naive_d0(ch, x1, x2)
        assert report.d1[i, j] == naive_d1(ch, x1, x2)
        assert report.d2[i, j] == naive_d2(ch, x1, x2)
        # the ledger reads d2[c] beyond tau, so check every radius
        for c in range(ch.w_max + 2):
            assert dist_d2_refined(ch, x1, x2, c) == naive_d2_refined(ch, x1, x2, c)


def test_engine_matches_oracle_small_channels(repetition):
    assert_engine_matches_oracle(repetition)
    assert_engine_matches_oracle(disjoint_images_channel())
    rng = random.Random(5)
    for q in (2, 3):
        f = Field(q)
        for _ in range(3):
            ch = random_table_channel(rng, f, n_codewords=3,
                                      error_length=2, output_length=2)
            assert_engine_matches_oracle(ch)


def test_refined_tables_match_oracle(repetition, hamming_code_channel):
    """minimum_distances' refined tuples (c = 0..tau), its d2_min[c] column
    minima and its refined rows to w_max+2, and past that through an
    altered copy whose tau runs further (built first, so rows it shared
    with the report would show as too long there).  Two pairs of one meet
    table share a payload fragment and a refined row, but neither an
    altered entry nor a mutated row of one shows in the other."""
    rng = random.Random(11)
    channels = [repetition, hamming_code_channel, disjoint_images_channel()]
    channels += [random_table_channel(rng, Field(q), n_codewords=rng.choice([3, 4]),
                                      error_length=2, output_length=2)
                 for q in (2, 3, 2, 3)]
    for ch in channels:
        report = minimum_distances(ch)
        hi = ch.w_max + 4
        longer = dataclasses.replace(report, tau={**report.tau, (0, 1): hi - 1}).refined_rows()
        naive = {}
        for (i, j) in report.pairs():
            x1, x2 = ch.codewords[i], ch.codewords[j]
            naive[i, j] = [naive_d2_refined(ch, x1, x2, c) for c in range(hi + 1)]
            assert longer[i, j] == naive[i, j]
            assert report.refined_rows()[i, j] == naive[i, j][:ch.w_max + 3]
            tau = report.tau[i, j]
            assert report.d2_refined[i, j] == (
                (INFINITE,) if tau is None else tuple(naive[i, j][:tau + 1]))
        c_hi = max((t for t in report.tau.values() if t is not None), default=0)
        assert report.d2_min_refined == tuple(
            min(row[c] for row in naive.values()) for c in range(c_hi + 1))

        twins = {}
        for pair in report.pairs():
            twins.setdefault(report.meets[pair], []).append(pair)
        a, b = next(pairs for pairs in twins.values() if len(pairs) > 1)[:2]
        ka, kb = f"{a[0]},{a[1]}", f"{b[0]},{b[1]}"
        payload = report.to_dict()["pairs"]
        bumped = dataclasses.replace(report, d0={**report.d0, a: 99}).to_dict()["pairs"]
        assert bumped[ka] == {**payload[ka], "d0": {"value": 99, "infinite": False}}
        assert bumped[ka] != payload[ka]
        assert {k: v for k, v in bumped.items() if k != ka} == {
            k: v for k, v in payload.items() if k != ka}
        assert bumped[kb] == payload[kb] == payload[ka]
        rows = dataclasses.replace(report).refined_rows()
        rows[a][0] = -1
        rows[a].append(-1)
        assert rows[b] == report.refined_rows()[b] == naive[b][:ch.w_max + 3]


def test_ball_oracle_agreement(toy, repetition):
    for ch in (toy, repetition, disjoint_images_channel()):
        for x in ch.codewords:
            for c in range(ch.w_max + 2):
                assert decoding_ball(ch, x, c).members == frozenset(naive_ball(ch, x, c))


def test_balls_are_the_naive_balls_cached_per_radius(toy):
    from gnetcode import random_sum_rank_channel
    from gnetcode.distances import _balls

    sum_rank = random_sum_rank_channel(random.Random(7), Field(2))
    for ch in (toy, sum_rank):
        encode = ch._codec().encode
        for c in range(ch.w_max + 2):
            balls = _balls(ch, c)
            assert balls is _balls(ch, c)
            assert balls == [frozenset(map(encode, naive_ball(ch, x, c)))
                             for x in ch.codewords]
        assert sorted(ch._cache["balls"]) == list(range(ch.w_max + 1))


def test_run_all_builds_the_radius_zero_balls_once():
    """capability reads the reach maps and builds no ball, so the store
    holds radius 0 only, which the ledger's radius-0 decoder reuses."""
    from gnetcode import run_all, toy_channel
    from gnetcode.distances import _balls

    ch = toy_channel()
    run_all(ch)
    store = ch._cache["balls"]
    assert list(store) == [0]
    assert _balls(ch, 0) is store[0]


def test_symmetry_of_d0_and_d2(toy, repetition, hamming_code_channel):
    for ch in (toy, repetition, hamming_code_channel):
        report = minimum_distances(ch)
        for (i, j) in report.pairs():
            assert report.d0[i, j] == report.d0[j, i]
            assert report.d2[i, j] == report.d2[j, i]


def test_minima_consistent_with_tables(toy, repetition):
    for ch in (toy, repetition, disjoint_images_channel()):
        report = minimum_distances(ch)
        assert report.d0_min == min(report.d0.values())
        assert report.d1_min == min(report.d1.values())
        assert report.d2_min == min(report.d2.values())
        assert report.d0_min >= 1 and report.d1_min >= 1 and report.d2_min >= 1
