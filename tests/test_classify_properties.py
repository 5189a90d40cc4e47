"""Property-based check of classify against the all-pairs oracle on tiny
separable table channels, F(x, z) = F(x, 0) + h(z)."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import naive_classify
from gnetcode import Field, classify, table_channel
from gnetcode import matrices as mx

FIELDS = (Field(2), Field(3), Field(2, 2))
H_KINDS = ("linear", "perturbed", "coordinate-sum", "random")


@st.composite
def separable_table_channels(draw):
    """A table channel whose error map h is linear, linear with one entry
    moved, a sum of per-coordinate maps, or arbitrary (h(0) = 0 always)."""
    f = draw(st.sampled_from(FIELDS))
    q = f.q
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    errors = list(itertools.product(range(q), repeat=n))
    outputs = list(itertools.product(range(q), repeat=m))
    symbol = st.integers(0, q - 1)
    output = st.sampled_from(outputs)
    kind = draw(st.sampled_from(H_KINDS))
    if kind == "random":
        h = {z: draw(output) if any(z) else outputs[0] for z in errors}
    elif kind == "coordinate-sum":
        phi = [[outputs[0]] + [draw(output) for _ in range(q - 1)] for _ in range(n)]
        h = {}
        for z in errors:
            hz = outputs[0]
            for phi_t, a in zip(phi, z):
                hz = mx.vec_add(f, hz, phi_t[a])
            h[z] = hz
    else:
        b = tuple(tuple(draw(symbol) for _ in range(m)) for _ in range(n))
        h = {z: mx.vec_mat_mul(f, z, b) for z in errors}
        if kind == "perturbed":
            z = draw(st.sampled_from(errors[1:]))
            h[z] = mx.vec_add(f, h[z], draw(output))
    size = draw(st.integers(2, min(3, len(outputs))))
    clean = draw(st.lists(output, min_size=size, max_size=size, unique=True))
    words = list(itertools.product(range(q), repeat=2))
    codewords = draw(st.lists(st.sampled_from(words), min_size=size, max_size=size,
                              unique=True))
    table = {(x, z): mx.vec_add(f, y, h[z])
             for x, y in zip(codewords, clean) for z in errors}
    return table_channel(f, codewords, n, m, table)


@settings(max_examples=300, deadline=None)
@given(separable_table_channels())
def test_classify_equals_the_all_pairs_oracle(ch):
    assert classify(ch) == naive_classify(ch)
