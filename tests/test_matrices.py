import itertools

from gnetcode import Field
from gnetcode import matrices as mx
from gnetcode.channel import MatrixSpace, VectorSpace


def test_adder_matches_checked_addition():
    gf4, gf2 = Field(2, 2), Field(2)
    vectors = list(VectorSpace(gf4, 2).elements())
    add = mx.adder(gf4, (2,))
    for u, v in itertools.product(vectors, repeat=2):
        assert add(u, v) == mx.vec_add(gf4, u, v)
    matrices = list(MatrixSpace(gf2, 2, 2).elements())
    add = mx.adder(gf2, (2, 2))
    for a, b in itertools.product(matrices, repeat=2):
        assert add(a, b) == mx.mat_add(gf2, a, b)
