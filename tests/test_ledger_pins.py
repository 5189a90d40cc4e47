"""The theorem ledger's failing verdicts, pinned whole.

Each case corrupts one distance report so that several claims fail, then
pins the sha256 of the ``repr`` of every ``(check, status, detail,
counterexample)`` that the five check groups return on it.  A failure's
counterexample is the first one in the check's instance order, so a
change to that order, to a detail string or to which claims apply shows
here, not only a change of status.  The disjoint-images channel's full
``run_all`` ledger pins the not-applicable paths (infinite distances, no
intersecting balls).
"""

import dataclasses
import hashlib

import pytest

from conftest import disjoint_images_channel
from gnetcode import (check_bounds, check_conditions, check_decoders,
                      check_error_linear_suite, check_refined, minimum_distances,
                      run_all)


def rows(verdicts):
    return [(v.check, v.status, v.detail, v.counterexample) for v in verdicts]


def digest(verdicts) -> str:
    return hashlib.sha256(repr(rows(verdicts)).encode()).hexdigest()


def ledger_groups(ch, report):
    return (check_bounds(ch, report) + check_refined(ch, report)
            + check_error_linear_suite(ch, report) + check_conditions(ch, report)
            + check_decoders(ch, report))


def d1_all_zero(report, ch):
    return dataclasses.replace(report, d1={k: 0 for k in report.d1})


def d1_bumped(report, ch):
    return dataclasses.replace(report, d1={**report.d1, (0, 1): report.d1[0, 1] + 1})


def thresholds_widened(report, ch):
    return dataclasses.replace(report, tau={**report.tau, (0, 1): ch.w_max + 5},
                               cstar={**report.cstar, (0, 1): ch.w_max + 4})


def minima_inflated(report, ch):
    return dataclasses.replace(report, d0_min=7, d1_min=5)


def d0_raised(report, ch):
    return dataclasses.replace(report, d0={**report.d0, (0, 5): 13})


CASES = {
    "toy-d1-zero": ("toy", d1_all_zero,
                    "2dfa0a1a006367f600585f22c76f22dcdd363ff89860b93e3f4624c84b4a8ee7"),
    "repetition-d1-bumped": ("repetition", d1_bumped,
                             "07b129a299ae50ab86317ee8b6eaa3e922f625339d49e586270a4a8a5688b80b"),
    "repetition-thresholds-widened": ("repetition", thresholds_widened,
                                      "eb58ff194310caa1795738790e78845d0c78a98b1f76b50ebe1c6e457250b669"),
    "toy-minima-inflated": ("toy", minima_inflated,
                            "8873ac5836ab6b78e9d7cdce7be36ee91f2eb8b27443853674d540b5a18c0f04"),
    "hamming-d0-raised": ("hamming_code_channel", d0_raised,
                          "d18872ddffabdd09f72bd3e919734f3d213c158ca755005353603f6a2b0b60f5"),
}

DISJOINT_IMAGES = "f55d695a20d39632c3676f2c9cfef39f7500919f20e4e5fc83bd5e71238bd93d"


@pytest.mark.parametrize("case", sorted(CASES))
def test_failing_ledger_is_pinned(request, case):
    fixture, corrupt, expected = CASES[case]
    ch = request.getfixturevalue(fixture)
    verdicts = ledger_groups(ch, corrupt(minimum_distances(ch), ch))
    assert any(v.status == "fail" for v in verdicts)
    assert digest(verdicts) == expected, rows(verdicts)


def test_disjoint_images_ledger_is_pinned():
    verdicts = run_all(disjoint_images_channel()).verdicts
    assert any(v.status == "not-applicable" for v in verdicts)
    assert digest(verdicts) == DISJOINT_IMAGES, rows(verdicts)
