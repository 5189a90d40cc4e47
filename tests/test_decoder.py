import pytest

from gnetcode import (Field, WeightMeasure, RANK, classical_channel, matrix_channel,
                      table_channel, mwd, mwd_bounded, DETECTED, is_correctable,
                      is_detectable, capability, is_joint_correcting, minimum_distances,
                      InvalidDecoderError)

from conftest import disjoint_images_channel


def single_edge_channel():
    return classical_channel(Field(2), [(0,), (1,)])


def constant_error_channel():
    """y = (x, 0) whatever the error, so the words (x, 1) are unreachable."""
    gf2 = Field(2)
    table = {((x,), (z,)): (x, 0) for x in range(2) for z in range(2)}
    return table_channel(gf2, [(0,), (1,)], 1, 2, table)


NETWORK_ATTEMPTS = 200


def random_networks(seed):
    """Two seeded random DAG networks over each of GF(2) and GF(3), with at
    most 6 edges and 2-3 codewords, each a code with d0_min >= 2, so that
    it corrects or detects something.  Draws that do not compile (codewords
    colliding at zero error) or have d0_min = 1 are redrawn, at most
    NETWORK_ATTEMPTS times per network."""
    import itertools
    import random
    from gnetcode import ConstructionError, compile_network
    from test_network import random_dag

    rng = random.Random(seed)
    out = []
    for q in (2, 3, 2, 3):
        for _ in range(NETWORK_ATTEMPTS):
            inner = rng.randint(1, 3)
            # inner + 1 tree edges; the other node pairs bound the extras
            room = min(5 - inner, inner * (inner + 1) // 2)
            spec = random_dag(rng, q, inner=inner, extra=rng.randint(0, room))
            m = sum(tail == "s" for tail, _ in spec.edges)
            words = list(itertools.product(range(q), repeat=m))
            code = rng.sample(words, min(len(words), rng.randint(2, 3)))
            try:
                ch = compile_network(Field(q), spec, code)
            except ConstructionError:
                continue
            if minimum_distances(ch).d0_min >= 2:
                out.append(ch)
                break
        else:
            raise AssertionError(f"no GF({q}) network with d0_min >= 2 "
                                 f"in {NETWORK_ATTEMPTS} draws")
    return out


def test_mwd_toy(toy):
    assert mwd(toy, (0, 0, 0)).codeword == (0, 0, 0)
    assert mwd(toy, (1, 1, 1)).codeword == (1, 1, 1)


def test_mwd_repetition(repetition):
    assert mwd(repetition, (1, 0, 0)).codeword == (0, 0, 0)
    assert mwd(repetition, (1, 1, 0)).codeword == (1, 1, 1)


def test_mwd_tie_detects(gf2):
    ch = classical_channel(gf2, [(0, 0), (1, 1)])
    outcome = mwd(ch, (1, 0))
    assert outcome.detected
    assert outcome == DETECTED


def test_mwd_bounded_toy(toy):
    assert mwd_bounded(toy, 0, (0, 0, 0)).codeword == (0, 0, 0)
    assert mwd_bounded(toy, 1, (1, 0, 0)).codeword == (0, 0, 0)
    assert mwd_bounded(toy, 1, (2, 2, 2)).detected


def test_mwd_bounded_all_clean_outputs(toy, repetition, hamming_code_channel):
    for ch in (toy, repetition, hamming_code_channel):
        for x in ch.codewords:
            assert mwd_bounded(ch, 0, ch.zero_output(x)).codeword == x


def test_words_outside_the_output_space_are_detected(toy):
    rank = matrix_channel(Field(2), [((0,), (0,)), ((1,), (1,))], ((1, 0),),
                          ((1, 0), (0, 1)), WeightMeasure(RANK))
    for ch, words in ((toy, [(9, 9, 9), (0, 0), (0, 0, 0, 0), (0, 0, -1)]),
                      (rank, [(0, 1), ((0, 1),), ((0, 2), (1, 0)), ((0,), (1,))])):
        for y in words:
            assert mwd(ch, y) == DETECTED
            assert mwd_bounded(ch, 0, y) == DETECTED


def assert_names_a_real_intersection(ch, c):
    """MWD(c) raises, and its message names the first pair of codewords
    A, B, in codeword order, whose radius-c balls meet by the ball
    definition, and the least word Y of the output space (in its
    enumeration order) that lies in both."""
    import ast
    import re
    from itertools import combinations
    from oracles import naive_ball

    with pytest.raises(InvalidDecoderError) as info:
        mwd_bounded(ch, c, ch.zero_output(ch.codewords[0]))
    got = re.fullmatch(rf"radius-{c} balls of (.+?) and (.+?) intersect at (.+?); "
                       "bounded decoding is undefined at this radius", str(info.value))
    assert got, info.value
    a, b, y = map(ast.literal_eval, got.groups())
    balls = {x: naive_ball(ch, x, c) for x in ch.codewords}
    assert (a, b) == next(pair for pair in combinations(ch.codewords, 2)
                          if balls[pair[0]] & balls[pair[1]])
    assert y == next(w for w in ch.outputs.elements() if w in balls[a] and w in balls[b])


def test_mwd_bounded_invalid_radius(toy, repetition):
    from gnetcode.config import channel_from_config
    from test_golden import CONFIGS

    for ch in (toy, repetition):
        assert_names_a_real_intersection(ch, 2)
    # the relay network's balls are reach-map prefixes, yet its witness is
    # the balls' own: the least word of the first meeting pair
    relay = channel_from_config((CONFIGS / "linear_relay_network.ini").read_text())
    assert_names_a_real_intersection(relay, 1)


def test_every_demo_config_names_the_canonical_witness():
    """On every demo config, at every radius where two balls meet, MWD(c)
    names the first meeting pair and their least shared word."""
    from gnetcode.config import channel_from_config
    from oracles import naive_ball
    from test_golden import CONFIGS

    paths = sorted(CONFIGS.glob("*.ini"))
    assert paths
    met = 0
    for path in paths:
        ch = channel_from_config(path.read_text())
        for c in range(ch.w_max + 1):
            balls = [naive_ball(ch, x, c) for x in ch.codewords]
            if sum(map(len, balls)) > len(set().union(*balls)):
                assert_names_a_real_intersection(ch, c)
                met += 1
    assert met


def test_correctable(toy):
    zero = (0,) * 9
    assert is_correctable(toy, zero)
    # every single error is correctable on the fixture network
    for ei in range(9):
        for v in (1, 2):
            z = tuple(v if i == ei else 0 for i in range(9))
            assert is_correctable(toy, z)
    # the double error that lands on the other codeword's clean output is not
    z = (2, 0, 2, 0, 0, 0, 0, 0, 0)
    assert not is_correctable(toy, z)


def test_detectable(toy):
    z = (2, 0, 2, 0, 0, 0, 0, 0, 0)
    assert not is_detectable(toy, z)
    assert is_detectable(toy, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    # an error a nonlinear node swallows entirely still counts as detectable
    assert is_detectable(toy, (0, 1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="nonzero"):
        is_detectable(toy, (0,) * 9)


def test_per_error_predicates_decode_each_evaluated_output(repetition):
    """The predicates take F(x, z) from one per-pair transfer on every
    channel; they must agree with decoding ch.evaluate(x, z) on every
    error, matrix errors included."""
    import random
    from gnetcode import (random_rank_channel, random_sum_rank_channel, random_table_channel,
                          toy_channel)

    rng = random.Random(3)
    channels = [repetition, random_table_channel(rng, Field(3), 3, 3, 2),
                random_rank_channel(rng, Field(2), 2, 1, 3, 3),
                random_sum_rank_channel(rng, Field(2), 2, (1, 1), (1, 2), (1, 2)),
                toy_channel(), *random_networks(41)]
    for ch in channels:
        zero = ch.errors.space.zero()
        for z in ch.errors.space.elements():
            sent = [(x, ch.evaluate(x, z)) for x in ch.codewords]
            assert is_correctable(ch, z) == all(mwd(ch, y).codeword == x for x, y in sent)
            if z != zero:
                assert is_detectable(ch, z) == all(
                    mwd_bounded(ch, 0, y).codeword in (None, x) for x, y in sent)


def test_per_error_predicates_check_each_transfer_output(gf2):
    """A custom channel (no row kernel) whose only output outside the space
    is F((0, 1), (1, 1)).  At that error both predicates raise naming the
    pair.  At every other nonzero error is_detectable, which takes its
    outputs from the transfer alone, answers by the definition;
    is_correctable reads every codeword's reach map off its validated
    row, so it raises naming the same pair."""
    from gnetcode import Channel, ConstructionError, ErrorModel, HAMMING, VectorSpace
    from gnetcode.matrices import vec_add

    space = VectorSpace(gf2, 2)
    errors = ErrorModel(space, WeightMeasure(HAMMING))

    def transfer(x, z):
        return (7, 0) if (x, z) == ((0, 1), (1, 1)) else vec_add(gf2, x, z)

    def channel():
        return Channel(gf2, [(0, 0), (0, 1)], errors, space, transfer)

    culprit = r"\(x, z\) = \(\(0, 1\), \(1, 1\)\)"
    for predicate in (is_correctable, is_detectable):
        with pytest.raises(ConstructionError, match=culprit):
            predicate(channel(), (1, 1))
    answers = []
    for z in [(0, 1), (1, 0)]:
        ch = channel()
        clean = {ch.zero_output(x) for x in ch.codewords}
        answers.append(is_detectable(ch, z))
        assert answers[-1] == all(
            transfer(x, z) not in clean - {ch.zero_output(x)} for x in ch.codewords)
        assert "code_rows" not in ch._cache
        with pytest.raises(ConstructionError, match=culprit):
            is_correctable(ch, z)
    # (0, 1) moves (0, 0) onto (0, 1)'s clean output; (1, 0) lands on no codeword's
    assert answers == [False, True]


def test_capability_toy(toy):
    cap = capability(toy)
    assert cap.max_correctable == 1
    assert cap.max_detectable == 1
    assert not cap.all_correctable and not cap.all_detectable


def test_capability_repetition(repetition):
    cap = capability(repetition)
    assert cap.max_correctable == 1
    assert cap.max_detectable == 2


def test_capability_single_edge():
    cap = capability(single_edge_channel())
    assert cap.max_correctable == 0
    assert cap.max_detectable == 0


def test_mwd_unreachable_word_detects():
    assert mwd(constant_error_channel(), (0, 1)).detected


def test_fully_correctable_channel_flagged():
    ch = disjoint_images_channel()
    cap = capability(ch)
    assert cap.all_correctable and cap.max_correctable == ch.w_max
    assert cap.all_detectable and cap.max_detectable == ch.w_max


def test_joint_toy(toy):
    assert is_joint_correcting(toy, 0, 1)
    assert is_joint_correcting(toy, 1, 0)
    assert not is_joint_correcting(toy, 0, 2)
    assert not is_joint_correcting(toy, 1, 1)
    assert not is_joint_correcting(toy, 2, 0)


def test_joint_grid_matches_naive_oracle(toy, repetition, hamming_code_channel):
    import random
    from gnetcode import (random_rank_channel, random_sum_rank_channel,
                          random_table_channel)
    from oracles import naive_joint_grid

    # the grid runs past w_max, so also past the last stored d2_min[c]
    channels = [toy, repetition, hamming_code_channel, single_edge_channel(),
                disjoint_images_channel(), constant_error_channel()]
    channels += random_networks(71)
    rng = random.Random(71)
    channels += [random_table_channel(rng, Field(q), n_codewords=3,
                                      error_length=2, output_length=2)
                 for q in (2, 3, 2, 3)]
    channels += [random_rank_channel(rng, Field(2)) for _ in range(2)]
    channels += [random_sum_rank_channel(rng, Field(2)) for _ in range(2)]
    for ch in channels:
        hi = ch.w_max + 1
        expected = naive_joint_grid(ch, hi)
        got = {(c, cp): is_joint_correcting(ch, c, cp)
               for c in range(hi + 1) for cp in range(hi + 1)}
        assert got == expected, ch
        assert capability(ch, joint_grid=(hi, hi)).joint == expected, ch


def test_joint_capability_consistency(toy, repetition):
    for ch in (toy, repetition):
        cap = capability(ch, joint_grid=(0, 0))
        assert is_joint_correcting(ch, cap.max_correctable, 0)
        assert is_joint_correcting(ch, 0, cap.max_detectable)


def test_capability_report_grid(toy):
    cap = capability(toy)
    assert cap.joint[(0, 1)] is True
    assert cap.joint[(1, 0)] is True
    assert cap.joint[(0, 2)] is False
    as_dict = cap.to_dict()
    assert as_dict["joint"]["0,1"] is True


def test_input_validation(repetition):
    with pytest.raises(ValueError, match="nonnegative"):
        mwd_bounded(repetition, -1, (0, 0, 0))
    with pytest.raises(ValueError, match="error space"):
        is_correctable(repetition, (0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        is_joint_correcting(repetition, -1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        capability(repetition, joint_grid=(-1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        capability(repetition, joint_grid=(0, -1))


def test_mwd_matches_naive_oracle(repetition):
    import random
    from gnetcode import (Field, random_rank_channel, random_sum_rank_channel,
                          random_table_channel)
    from oracles import naive_ball, naive_mwd

    channels = [repetition, single_edge_channel(), disjoint_images_channel()]
    channels += random_networks(31) + random_networks(41)
    rng = random.Random(31)
    channels += [random_table_channel(rng, Field(q), n_codewords=3,
                                      error_length=2, output_length=2)
                 for q in (2, 3)]
    # matrix outputs: every word of the output space is a tuple of rows
    channels += [random_rank_channel(rng, Field(2)) for _ in range(2)]
    channels += [random_sum_rank_channel(rng, Field(2)) for _ in range(2)]
    channels.append(random_rank_channel(rng, Field(3)))
    for ch in channels:
        words = list(ch.outputs.elements())
        for y in words:
            assert mwd(ch, y).codeword == naive_mwd(ch, y)
        # MWD(c) by definition: defined only when the radius-c balls are
        # pairwise disjoint, then y decodes to the codeword whose ball holds it
        for c in range(ch.w_max + 2):
            balls = {x: naive_ball(ch, x, c) for x in ch.codewords}
            if any(balls[a] & balls[b] for a in ch.codewords
                   for b in ch.codewords if a != b):
                assert_names_a_real_intersection(ch, c)
                continue
            for y in words:
                owner = next((x for x in ch.codewords if y in balls[x]), None)
                assert mwd_bounded(ch, c, y).codeword == owner


def test_decoders_read_reach_maps_on_a_network_and_rows_elsewhere():
    """On a network (the toy and a random one) no mwd, mwd_bounded,
    is_correctable or is_detectable call builds a row or the weight order;
    on the rank channel mwd and mwd_bounded build no reach map, and
    is_detectable builds no row and no weight order.  The calls
    run on a reached, an unreached and an outside word, at every radius
    whose balls are disjoint, at every radius where they meet (raising),
    and on a few errors.  The row reader's triple is the one the reach
    maps give for every reached word, and None for every unreached one."""
    import random
    from itertools import islice
    from gnetcode import random_rank_channel, toy_channel
    from gnetcode.decoder import _row_weights, _solution
    from gnetcode.distances import INFINITE, _balls, _reach

    # the seed-3 rank channel leaves 12 of its 16 output words unreached
    channels = [toy_channel(), random_rank_channel(random.Random(3), Field(2)),
                random_networks(41)[3]]
    unreached_seen = 0
    for ch in channels:
        rows = list(map(ch._code_row, ch.codewords))
        encode = ch._codec().encode
        reached = frozenset().union(*rows)
        words = [ch.zero_output(ch.codewords[-1]), ch._transfer_row(ch.codewords[0])[-1]]
        words += [y for y in ch.outputs.elements() if encode(y) not in reached][:1]
        unreached_seen += len(words) == 3
        words.append(ch.zero_output(ch.codewords[0])[:-1])  # outside the space
        radii = [c for c in range(ch.w_max + 2)
                 if sum(map(len, _balls(ch, c))) == len(frozenset().union(*_balls(ch, c)))]
        assert 0 in radii
        ch._cache.clear()
        network = ch.kind == "network"
        unbuilt = {"code_rows", "weight_order"} if network else {"reach"}
        for y in words:
            mwd(ch, y)
            assert not unbuilt & ch._cache.keys(), (ch, y)
            for c in radii:
                mwd_bounded(ch, c, y)
                assert not unbuilt & ch._cache.keys(), (ch, c, y)
        for c in set(range(ch.w_max + 2)) - set(radii):
            with pytest.raises(InvalidDecoderError):
                mwd_bounded(ch, c, words[0])
            assert not unbuilt & ch._cache.keys(), (ch, c)
        ch._cache.clear()
        for z in islice(ch.errors.space.elements(), 1, 6):
            if network:
                is_correctable(ch, z)
                assert not unbuilt & ch._cache.keys(), (ch, z)
            is_detectable(ch, z)
            assert not {"code_rows", "weight_order"} & ch._cache.keys(), (ch, z)

        weights = ch._weight_order()[1]
        reaches = [_reach(ch, xi) for xi in range(len(ch.codewords))]
        for y in ch.outputs.elements():
            code = encode(y)
            if code not in reached:
                assert _solution(_row_weights(rows, weights, code)) is None
                continue
            ws = [reach.get(code, INFINITE) for reach in reaches]
            owner = ws.index(min(ws))
            runner_up = min(ws[:owner] + ws[owner + 1:], default=INFINITE)
            assert _solution(_row_weights(rows, weights, code)) == (ws[owner], owner, runner_up)
    assert unreached_seen


def _per_error_capability(ch):
    """The capability verdicts from one is_correctable / is_detectable call
    per error, in weight order."""
    zero = ch.errors.space.zero()
    by_weight = ch._errors_by_weight()
    bad_c = next((w for z, w in by_weight if not is_correctable(ch, z)), None)
    bad_d = next((w for z, w in by_weight
                  if z != zero and not is_detectable(ch, z)), None)
    wm = ch.w_max
    return (wm if bad_c is None else bad_c - 1, wm if bad_d is None else bad_d - 1,
            bad_c is None, bad_d is None)


def test_capability_matches_naive_oracle(toy, repetition, hamming_code_channel):
    import random
    from gnetcode import (random_rank_channel, random_sum_rank_channel,
                          random_table_channel)
    from oracles import naive_capability

    # the disjoint-images and constant-error channels have infinite d0_min
    # and d1_min, so capability's own cross-check skips them
    channels = [toy, repetition, hamming_code_channel, single_edge_channel(),
                disjoint_images_channel(), constant_error_channel()]
    channels += random_networks(61)
    rng = random.Random(61)
    channels += [random_table_channel(rng, Field(q), n_codewords=3,
                                      error_length=2, output_length=2)
                 for q in (2, 3, 2, 3)]
    channels += [random_rank_channel(rng, Field(2)) for _ in range(2)]
    channels += [random_sum_rank_channel(rng, Field(2)) for _ in range(2)]
    for ch in channels:
        cap = capability(ch, joint_grid=(0, 0))
        got = (cap.max_correctable, cap.max_detectable,
               cap.all_correctable, cap.all_detectable)
        assert got == naive_capability(ch), ch
        assert got == _per_error_capability(ch), ch
        # the least uncorrectable weight is the least radius MWD(c) rejects
        if not cap.all_correctable:
            y = ch.zero_output(ch.codewords[0])
            assert mwd_bounded(ch, cap.max_correctable, y).codeword == ch.codewords[0]
            with pytest.raises(InvalidDecoderError):
                mwd_bounded(ch, cap.max_correctable + 1, y)
