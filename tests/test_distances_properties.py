"""Property-based check of the distance engine against the cache-free
oracles on tiny random table channels over GF(2) and GF(3)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gnetcode import INFINITE, Field, is_finite, minimum_distances, random_table_channel
from oracles import naive_d0, naive_d2_refined
from test_distances import assert_engine_matches_oracle

FIELDS = {2: Field(2), 3: Field(3)}


@st.composite
def tiny_table_channels(draw):
    """2-4 codewords, errors of length 1-3 and outputs of length 1-2; the
    output space must hold one clean output per codeword."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    output_length = draw(st.integers(1, 2))
    n_codewords = draw(st.integers(2, min(4, q ** output_length)))
    error_length = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    return random_table_channel(rng, FIELDS[q], n_codewords=n_codewords,
                                error_length=error_length, output_length=output_length)


@settings(max_examples=200, deadline=None)
@given(tiny_table_channels())
def test_engine_equals_the_naive_oracles(ch):
    assert_engine_matches_oracle(ch)
    report = minimum_distances(ch)
    naive = {}
    for (i, j) in report.pairs():
        x1, x2 = ch.codewords[i], ch.codewords[j]
        d0 = naive_d0(ch, x1, x2)
        tau = (d0 + 1) // 2 if is_finite(d0) else None
        assert report.tau[i, j] == tau
        assert report.cstar[i, j] == (d0 // 2 if is_finite(d0) else None)
        naive[i, j] = [naive_d2_refined(ch, x1, x2, c) for c in range((tau or 0) + 1)]
        assert report.d2_refined[i, j] == (tuple(naive[i, j]) if tau is not None
                                           else (INFINITE,))
    c_hi = max((t for t in report.tau.values() if t is not None), default=0)
    assert report.d2_min_refined == tuple(
        min(naive_d2_refined(ch, ch.codewords[i], ch.codewords[j], c) for (i, j) in naive)
        for c in range(c_hi + 1))
