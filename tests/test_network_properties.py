"""Property-based checks of the network row kernel against the per-pair
evaluator, and of the reach kernel against the row, on small random DAGs
over GF(2), GF(3) and GF(2^2)."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gnetcode import Field, NetworkSpec
from gnetcode.channel import VectorSpace
from gnetcode.codec import Codec
from gnetcode.network import _evaluator, _kernels, _validate_and_order

FIELDS = (Field(2), Field(3), Field(2, 2))
PAIR_CAP = 2 ** 13  # messages x errors evaluated per draw


@st.composite
def random_networks(draw):
    """A DAG s -> v1..vk -> t with random total tables, plus a direct s -> t
    edge and a dead-end node ``x`` whose one in-edge nobody reads.  Nodes
    and edges are declared in shuffled order, so the program order and the
    declared edge order usually differ."""
    f = draw(st.sampled_from(FIELDS))
    q = f.q
    inner = draw(st.integers(1, {2: 3, 3: 2, 4: 1}[q]))
    chain = ["s"] + [f"v{i}" for i in range(1, inner + 1)] + ["t"]
    edges = {(draw(st.sampled_from(chain[:i])), chain[i]) for i in range(1, len(chain))}
    edges |= {("s", "t"), (draw(st.sampled_from(chain[1:-1])), "x")}
    free = [pair for pair in itertools.combinations(chain, 2) if pair not in edges]
    extras = draw(st.lists(st.sampled_from(free), max_size=3, unique=True)) if free else []

    def pairs(es):  # messages times errors
        return q ** (len(es) + sum(tail == "s" for tail, _ in es))

    while extras and pairs(edges | set(extras)) > PAIR_CAP:
        extras.pop()
    edges |= set(extras)
    edges = draw(st.permutations(sorted(edges)))
    nodes = draw(st.permutations(chain + ["x"]))
    spec = NetworkSpec(nodes=tuple(nodes), edges=tuple(edges), source="s", sink="t")
    for tail, head in edges:
        if tail != "s":
            keys = list(itertools.product(range(q), repeat=len(spec.incoming(tail))))
            values = draw(st.lists(st.integers(0, q - 1), min_size=len(keys),
                                   max_size=len(keys)))
            spec.local_functions[tail, head] = dict(zip(keys, values))
    return f, spec


@settings(max_examples=120, deadline=None)
@given(random_networks())
def test_row_kernel_equals_the_per_pair_evaluator(network):
    f, spec = network
    program, sinks, m = _validate_and_order(spec, f.q)
    nedges = len(spec.edges)
    transfer = _evaluator(program, sinks, nedges, f.add_table)
    row, _ = _kernels(program, sinks, nedges, f.add_table)
    errors = list(VectorSpace(f, nedges).elements())
    codec = Codec(VectorSpace(f, len(sinks)))
    for x in VectorSpace(f, m).elements():
        assert list(map(codec.decode, row(x, codec))) == [transfer(x, z) for z in errors]


@settings(max_examples=120, deadline=None)
@given(random_networks())
def test_reach_kernel_equals_the_row_derived_map(network):
    """Each message's DP reach map is its row's: every code at the least
    Hamming weight of an error giving it, iterating in nondecreasing weight."""
    f, spec = network
    program, sinks, m = _validate_and_order(spec, f.q)
    nedges = len(spec.edges)
    row, reach = _kernels(program, sinks, nedges, f.add_table)
    weights = [sum(map(bool, z)) for z in VectorSpace(f, nedges).elements()]
    by_weight = sorted(range(len(weights)), key=weights.__getitem__)
    codec = Codec(VectorSpace(f, len(sinks)))
    for x in VectorSpace(f, m).elements():
        codes, expected = row(x, codec), {}
        for i in by_weight:
            expected.setdefault(codes[i], weights[i])
        got = reach(x, codec)
        assert got == expected
        assert list(got.values()) == sorted(got.values())
