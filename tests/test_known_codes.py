"""Known answers from algebra, not from the engine.

Every oracle in ``tests/oracles.py`` shares the engine's definitions
(balls, weights, field tables), so a bug in a shared definition passes
both.  These codes have their distances fixed by algebra instead:

* Reed-Solomon codes are MDS, so their Hamming distance is n - k + 1;
* Gabidulin codes are MRD, so their rank distance is n - k + 1.

Both are linear codes over linear channels, so the distances collapse:
d0 = d1 = d2 = d, and the capability is ((d - 1) // 2, d - 1).  Each code
is built through the public API only.
"""

import itertools

import pytest

from gnetcode import (Field, WeightMeasure, RANK, capability, classical_channel, classify,
                      matrix_channel, minimum_distances, run_all)
from gnetcode import matrices as mx


def reed_solomon_gf5():
    """RS over GF(5), n = 4, k = 2: the evaluations of a + b*t at t = 0..3."""
    f = Field(5)
    generator = ((1, 1, 1, 1), (0, 1, 2, 3))
    codewords = sorted({mx.vec_mat_mul(f, msg, generator)
                        for msg in itertools.product(range(5), repeat=2)})
    return classical_channel(f, codewords)


def gabidulin_k1():
    """Gabidulin over GF(8)/GF(2), n = m = 3, k = 1, g = (1, a, a^2).

    The codeword of u in GF(8) is (u, u*a, u*a^2), each entry expanded into
    its three GF(2) coefficients down one column, so a 3x3 binary matrix.
    It goes through the identity channel F(X, Z) = X*I + Z*I under the rank
    weight.
    """
    ext, base = Field(2, 3), Field(2)
    alpha = 2  # the element x of GF(2)[x]/(x^3 + x + 1)
    g = (1, alpha, ext.mul(alpha, alpha))
    codewords = []
    for u in range(ext.q):
        cols = [ext.coeffs(ext.mul(u, gj)) for gj in g]
        codewords.append(mx.transpose(tuple(cols)))
    eye = mx.identity(3)
    return matrix_channel(base, codewords, eye, eye, WeightMeasure(RANK))


@pytest.mark.parametrize("build", [reed_solomon_gf5, gabidulin_k1],
                         ids=["reed-solomon-gf5", "gabidulin-k1"])
def test_design_distance_and_collapse(build):
    ch = build()
    report = minimum_distances(ch)
    assert (report.d0_min, report.d1_min, report.d2_min) == (3, 3, 3)
    cap = capability(ch)
    assert (cap.max_correctable, cap.max_detectable) == (1, 2)
    verdict = classify(ch)
    assert verdict.error_linear and verdict.linear
    ledger = run_all(ch)
    assert ledger.failures() == [], [v.check for v in ledger.failures()]


def test_codes_have_the_textbook_size():
    assert len(reed_solomon_gf5().codewords) == 25
    ch = gabidulin_k1()
    assert len(ch.codewords) == 8 and ch.errors.space.size == 512
