import dataclasses
import itertools
import random

import pytest

from oracles import naive_metric
from test_network import random_dag
from gnetcode import (Field, classical_channel, classify, is_finite,
                      minimum_distances, run_all, check_bounds, check_refined, check_error_linear_suite,
                      check_metric, check_conditions, check_decoders,
                      compile_network, verify_weight_axioms,
                      random_table_channel, random_linear_channel,
                      random_rank_channel, random_sum_rank_channel, toy_channel)
from gnetcode import properties, weights
from gnetcode.network import _evaluator, _validate_and_order


def by_name(verdicts):
    return {v.check: v for v in verdicts}


def test_toy_bounds_pass(toy):
    verdicts = by_name(check_bounds(toy))
    assert verdicts["detection-floor-bound"].status == "pass"     # 2 >= floor(3/2)+1
    assert verdicts["joint-under-correction"].status == "pass"    # 3 >= 2
    assert verdicts["joint-under-detection"].status == "pass"     # 2 >= 2
    assert verdicts["joint-halving-bound"].status == "pass"       # 2 >= ceil(3/2)
    assert verdicts["min-detection-floor-bound"].status == "pass"
    assert verdicts["min-joint-bounds"].status == "pass"


def test_toy_refined_pass(toy):
    verdicts = by_name(check_refined(toy))
    for name in ("refined-equals-detection-at-zero", "refined-at-most-detection",
                 "refined-nonincreasing", "refined-zero-threshold",
                 "balanced-split-parity", "balanced-split-identity",
                 "joint-from-refined", "min-joint-from-refined"):
        assert verdicts[name].status == "pass", name


def test_toy_error_linear_suite_not_applicable(toy):
    verdicts = check_error_linear_suite(toy)
    assert verdicts and all(v.status == "not-applicable" for v in verdicts)


def test_error_linear_suite_passes_on_linear_channels(repetition, hamming_code_channel):
    for ch in (repetition, hamming_code_channel):
        verdicts = check_error_linear_suite(ch)
        assert verdicts and all(v.status == "pass" for v in verdicts)


def test_metric_reports(toy, hamming_code_channel):
    for which in ("d0", "d1", "d2"):
        assert check_metric(hamming_code_channel, which).all_pass
    report = check_metric(toy, "d1")
    # the fixture's detection distance is asymmetric: 2 one way, 3 the other
    assert report.symmetry.status == "fail"
    assert report.nonnegativity.status == "pass"
    d0_report = check_metric(toy, "d0")
    assert d0_report.nonnegativity.status == "pass"


def test_conditions_on_linear_channel(repetition):
    verdicts = by_name(check_conditions(repetition))
    assert verdicts["refined-symmetry-equivalence"].status == "pass"
    assert verdicts["relation-condition-collapse"].status == "pass"
    assert verdicts["function-condition-collapse"].status == "pass"
    assert verdicts["function-implies-relation"].status == "pass"
    assert verdicts["error-linear-satisfies-conditions"].status == "pass"
    assert verdicts["equal-distances-are-metrics"].status == "pass"


def test_conditions_on_toy(toy):
    verdicts = by_name(check_conditions(toy))
    # the lemma-backed equivalence holds on every channel
    assert verdicts["refined-symmetry-equivalence"].status == "pass"
    assert verdicts["error-linear-satisfies-conditions"].status == "not-applicable"
    # conclusions are only asserted when a condition holds on every pair
    for name in ("relation-condition-collapse", "function-condition-collapse"):
        assert verdicts[name].status in ("pass", "not-applicable")


def test_decoder_checks(toy, repetition):
    for ch in (toy, repetition):
        verdicts = check_decoders(ch)
        assert all(v.status in ("pass", "not-applicable") for v in verdicts)
        assert by_name(verdicts)["radius-zero-decoding"].status == "pass"


def test_run_all_toy_ledger(toy):
    ledger = run_all(toy)
    assert ledger.passed
    assert not ledger.failures()
    names = {v.check for v in ledger.verdicts}
    assert "weight-axioms" in names
    assert "balanced-split-identity" in names
    assert ledger.notes["error_linear"] is False
    assert ledger.notes["min_d1_d0_ratio"] == round(2 / 3, 4)
    text = ledger.render_text()
    assert "overall: pass" in text


def test_run_all_linear(repetition):
    ledger = run_all(repetition)
    assert ledger.passed
    assert ledger.notes["error_linear"] is True and ledger.notes["linear"] is True
    by = by_name(ledger.verdicts)
    assert by["all-distances-coincide"].status == "pass"
    assert by["refined-constant-sum"].status == "pass"


def test_corrupted_report_fails_with_counterexample(toy):
    report = minimum_distances(toy)
    corrupted = dataclasses.replace(report, d1={k: 0 for k in report.d1})
    verdicts = by_name(check_bounds(toy, corrupted))
    bad = verdicts["detection-floor-bound"]
    assert bad.status == "fail"
    assert bad.counterexample is not None


def test_decoder_checks_fail_on_inflated_minima(toy):
    report = minimum_distances(toy)
    inflated = dataclasses.replace(report, d0_min=7, d1_min=5)
    verdicts = by_name(check_decoders(toy, inflated))
    for name in ("half-distance-correctable", "under-min-detectable"):
        assert verdicts[name].status == "fail", name
        assert verdicts[name].counterexample is not None, name


def test_metric_scans_a_corrupted_report_afresh(hamming_code_channel):
    ch = hamming_code_channel
    assert run_all(ch).passed
    report = minimum_distances(ch)
    d1 = dict(report.d1)
    d1[0, 1] += 1
    bumped = dataclasses.replace(report, d1=d1)
    bad = check_metric(ch, "d1", bumped)
    assert bad.symmetry.status == "fail"
    assert bad.symmetry.counterexample is not None
    assert check_metric(ch, "d1").all_pass


def assert_metric_matches_oracle(ch, which, report):
    got = check_metric(ch, which, report)
    expected = naive_metric(getattr(report, which), len(ch.codewords))
    for axiom, verdict in (("nonnegativity", got.nonnegativity),
                           ("symmetry", got.symmetry), ("triangle", got.triangle)):
        first = expected[axiom]
        assert verdict.status == ("pass" if first is None else "fail"), (which, axiom)
        assert verdict.counterexample == first, (which, axiom)
    return expected


def test_check_metric_matches_naive_metric():
    """Status and counterexample of every axiom against the all-triples scan,
    on random table channels with 3-4 codewords, where the triangle fails."""
    triangle_fails = {"d0": 0, "d2": 0}
    for seed in range(100):
        rng = random.Random(seed)
        ch = random_table_channel(rng, Field((2, 3)[seed % 2]),
                                  n_codewords=rng.choice([3, 4]),
                                  error_length=2, output_length=2)
        report = minimum_distances(ch)
        for which in ("d0", "d1", "d2"):
            if not all(map(is_finite, getattr(report, which).values())):
                assert all(v.status == "not-applicable"
                           for v in check_metric(ch, which, report).verdicts)
                continue
            expected = assert_metric_matches_oracle(ch, which, report)
            if which in triangle_fails and expected["triangle"] is not None:
                triangle_fails[which] += 1
    assert all(triangle_fails.values()), triangle_fails


@pytest.mark.parametrize("lowered", [False, True], ids=["raised", "lowered"])
def test_check_metric_matches_naive_metric_on_a_bumped_entry(hamming_code_channel,
                                                             lowered):
    """One d0 entry set far above its true value on the [7,4] code (one k
    breaks the triangle), or below it on a 4-word code where k = 2 and
    k = 3 both do, so the counterexample pins the order of the k search."""
    if lowered:
        ch = classical_channel(Field(2), [(0,) * 6, (1, 1, 1, 0, 0, 0), (1,) * 6,
                                          (1, 1, 1, 1, 1, 0)])
        pair, value = (0, 1), 1
    else:
        ch, pair, value = hamming_code_channel, (0, 5), 13
    report = minimum_distances(ch)
    bumped = dataclasses.replace(report, d0={**report.d0, pair: value})
    expected = assert_metric_matches_oracle(ch, "d0", bumped)
    assert expected["symmetry"] == pair and expected["triangle"] is not None
    assert check_metric(ch, "d0").all_pass


def test_checks_read_a_report_with_a_larger_tau(repetition):
    """A report whose tau and cstar run past the engine report's w_max+2
    d2[c] entries gets longer rows, so every check reads it without an index
    error and fails where the thresholds are wrong."""
    report = minimum_distances(repetition)
    w = repetition.w_max
    wide = dataclasses.replace(report, tau={**report.tau, (0, 1): w + 5},
                               cstar={**report.cstar, (0, 1): w + 4})
    verdicts = by_name(check_refined(repetition, wide)
                       + check_error_linear_suite(repetition, wide)
                       + check_conditions(repetition, wide))
    for name in ("refined-zero-threshold", "balanced-split-parity",
                 "refined-constant-sum"):
        assert verdicts[name].status == "fail", name
        assert verdicts[name].counterexample[:2] == (0, 1), name


def test_random_table_channels_regression():
    rng = random.Random(20240)
    for q in (2, 3):
        f = Field(q)
        for _ in range(3):
            ch = random_table_channel(rng, f, n_codewords=rng.choice([2, 3, 4]),
                                      error_length=rng.choice([2, 3]),
                                      output_length=2)
            ledger = run_all(ch, seed=3)
            assert ledger.passed, ledger.render_text()


def test_random_linear_channels_regression():
    rng = random.Random(77)
    gf2, gf3 = Field(2), Field(3)
    channels = [
        random_linear_channel(rng, gf2, msg_length=2, error_length=3, output_length=3),
        random_linear_channel(rng, gf3, msg_length=1, error_length=2, output_length=2),
        random_rank_channel(rng, gf2, rows=2, msg_cols=1, err_cols=2, out_cols=2),
        random_sum_rank_channel(rng, gf2, rows=1, msg_blocks=(1, 1),
                                err_blocks=(1, 1), out_blocks=(1, 1)),
    ]
    for ch in channels:
        verdict = classify(ch)
        assert verdict.error_linear and verdict.linear
        ledger = run_all(ch, seed=5)
        assert ledger.passed, ledger.render_text()


def test_extension_field_channels():
    gf4 = Field(2, 2)
    rng = random.Random(2468)
    table_ch = random_table_channel(rng, gf4, n_codewords=3, error_length=2,
                                    output_length=2)
    assert run_all(table_ch, seed=0).passed
    lin_ch = random_linear_channel(rng, gf4, msg_length=1, error_length=2,
                                   output_length=2)
    verdict = classify(lin_ch)
    assert verdict.error_linear and verdict.linear
    assert run_all(lin_ch, seed=0).passed


def test_random_sum_rank_needs_matching_blocks():
    rng = random.Random(1)
    gf2 = Field(2)
    ch = random_sum_rank_channel(rng, gf2, rows=2, msg_blocks=(1, 1),
                                 err_blocks=(1, 1), out_blocks=(1, 1))
    assert ch.errors.measure.blocks == (1, 1)


def test_ledger_serialization(toy):
    ledger = run_all(toy)
    doc = ledger.to_dict()
    assert doc["passed"] is True
    assert all(set(v) == {"check", "status", "detail", "counterexample"}
               for v in doc["verdicts"])


def test_a_wrong_cached_weight_fails_separability():
    """One wrong entry in a Hamming channel's cached weight list fails the
    ledger's weight-axioms verdict with the separability counterexample
    (error, cached weight, symbol sum) of that error; of two wrong entries
    the one first in weight order is named."""
    for positions, witness in (((100,), ((0, 0, 2, 0, 2, 0, 0, 0, 0), 3, 2)),
                               ((5,), ((0, 0, 0, 0, 0, 0, 1, 0, 0), 2, 1)),
                               ((19682, 100), ((0, 0, 2, 0, 2, 0, 0, 0, 0), 3, 2))):
        ch = toy_channel()
        order, cached = ch._weight_order()
        for p in positions:
            cached[p] += 1
        verdict = by_name(run_all(ch, seed=1).verdicts)["weight-axioms"]
        assert verdict.status == "fail"
        assert verdict.counterexample == ("separability", witness)
        assert witness[0] == list(ch.errors.space.elements())[order[min(positions)]]


def test_a_weight_its_splits_disagree_with_fails_the_ledger(monkeypatch):
    """A rank weight that disagrees with the measure's split construction
    fails the ledger's weight-axioms verdict with that split as the
    decomposability witness; run_all does not raise."""
    rank = weights.rank_weight
    monkeypatch.setattr(weights, "rank_weight",
                        lambda f, a: rank(f, a) + (a == ((1, 0), (0, 0))))
    ch = random_rank_channel(random.Random(3), Field(2))
    assert ch.errors.space.shape == (2, 2)
    verdict = by_name(run_all(ch, seed=1).verdicts)["weight-axioms"]
    assert verdict.status == "fail"
    assert verdict.counterexample == ("decomposability", (((1, 0), (0, 0)), 0, 2))


def test_ledger_deterministic():
    rng = random.Random(9)
    ch = random_table_channel(rng, Field(3), n_codewords=3, error_length=3,
                              output_length=2)
    assert run_all(ch, seed=4).to_dict() == run_all(ch, seed=4).to_dict()


def _network_channel(rng, extra):
    """A random nonlinear GF(3) DAG s -> v1..v3 -> t with 4 + extra edges (so
    3^(4 + extra) errors) and three codewords whose clean outputs differ."""
    gf3 = Field(3)
    while True:
        spec = random_dag(rng, 3, inner=3, extra=extra)
        program, sinks, m = _validate_and_order(spec, 3)
        transfer = _evaluator(program, sinks, len(spec.edges), gf3.add_table)
        zero = (0,) * len(spec.edges)
        clean = {}
        for x in itertools.product(range(3), repeat=m):
            clean.setdefault(transfer(x, zero), x)
        if len(clean) >= 3:
            return compile_network(gf3, spec, sorted(clean.values())[:3])


def test_weight_axioms_cover_every_network_error(monkeypatch):
    """On nonlinear-network-sized DAGs and on the toy network the ledger's
    Hamming axiom check compares the cached weight of every error with its
    symbol sum, a superset of the sampled check's errors, splits only
    GF(3)^1's symbols: the zero symbol once, each nonzero symbol two ways,
    2q - 1 = 5 splits in all, however large the error space, and builds no
    list of error tuples."""
    rng, seed = random.Random(2187), 21
    separable, symbol_sums = weights.verify_separable_axioms, weights.symbol_sums
    decompose = weights.decompose_hamming
    for ch, size in ((_network_channel(rng, 3), 3 ** 7), (_network_channel(rng, 2), 3 ** 6),
                     (toy_channel(), 3 ** 9)):
        compared, summed, splits = [], [], []

        def recording_separable(errors, order, cached):
            compared.append(len(cached))
            return separable(errors, order, cached)

        def recording_symbol_sums(symbol_weights, n):
            sums = symbol_sums(symbol_weights, n)
            summed.append(len(sums))
            return sums

        def recording_decompose(z, c1, c2):
            splits.append(z)
            return decompose(z, c1, c2)

        with monkeypatch.context() as patch:
            patch.setattr(properties, "verify_separable_axioms", recording_separable)
            patch.setattr(weights, "symbol_sums", recording_symbol_sums)
            patch.setattr(weights, "decompose_hamming", recording_decompose)
            verdict = by_name(run_all(ch, seed).verdicts)["weight-axioms"]

        assert compared == summed == [size]
        assert "errors_by_weight" not in ch._cache
        assert set(splits) <= {(s,) for s in range(3)} and len(splits) <= 2 * 3 - 1
        # the seeded sample the ledger once checked these weights on
        sample = random.Random(seed).sample([z for z, _ in ch._errors_by_weight()],
                                            weights.AXIOM_ELEMENT_BUDGET)
        if ch.errors.space.zero() not in sample:
            sample[0] = ch.errors.space.zero()
        assert len(sample) == weights.AXIOM_ELEMENT_BUDGET < size
        sampled = verify_weight_axioms(ch.field, sample, ch.errors.measure)
        assert sampled.passed and verdict.status == "pass"
        assert verdict.detail == ("nonnegativity, subadditivity, inverse invariance, "
                                  "decomposability")
