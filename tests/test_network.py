import itertools
import random
from pathlib import Path

import pytest

from gnetcode import (Field, NetworkSpec, NonlinearNetworkError, compile_network,
                      linear_transfer_matrices, toy_example,
                      ConstructionError, mwd_bounded, matrix_channel, classify,
                      minimum_distances, capability, run_all, toy_channel)
from gnetcode import matrices as mx
from gnetcode.channel import VectorSpace
from gnetcode.codec import Codec
from gnetcode.config import channel_from_config
from gnetcode.network import _evaluator, _kernels, _validate_and_order


def copy_table(q):
    return {(v,): v for v in range(q)}


def routing_network():
    """s -> a -> t plus a direct s -> t edge; pure copies."""
    gf2 = Field(2)
    spec = NetworkSpec(
        nodes=("s", "a", "t"),
        edges=(("s", "a"), ("s", "t"), ("a", "t")),
        source="s", sink="t",
        local_functions={("a", "t"): copy_table(2)},
    )
    return gf2, spec


def butterfly_like_network():
    """One relay computes the sum of two upstream symbols over GF(2)."""
    gf2 = Field(2)
    add_table = {(a, b): (a + b) % 2 for a in range(2) for b in range(2)}
    spec = NetworkSpec(
        nodes=("s", "a", "b", "m", "t"),
        edges=(("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
               ("a", "t"), ("m", "t"), ("b", "t")),
        source="s", sink="t",
        local_functions={
            ("a", "m"): copy_table(2), ("a", "t"): copy_table(2),
            ("b", "m"): copy_table(2), ("b", "t"): copy_table(2),
            ("m", "t"): add_table,
        },
    )
    return gf2, spec


def declared_order_network():
    """Edges declared out of topological order; a->t doubles over GF(3)."""
    gf3 = Field(3)
    spec = NetworkSpec(nodes=("s", "a", "t"),
                       edges=(("a", "t"), ("s", "a"), ("s", "t")),
                       source="s", sink="t",
                       local_functions={("a", "t"): {(v,): 2 * v % 3 for v in range(3)}})
    return gf3, spec


LINEAR_RELAY_CONFIG = (Path(__file__).resolve().parent.parent
                       / "demos" / "configs" / "linear_relay_network.ini")


def linear_relay_network():
    """The demo config linear_relay_network.ini: the toy's topology whose
    relays b->d and d->t add their inputs over GF(3), with the code
    {000, 111, 222}."""
    gf3, toy_spec, _ = toy_example()
    add3 = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    spec = NetworkSpec(nodes=toy_spec.nodes, edges=toy_spec.edges, source="s", sink="t",
                       local_functions={**toy_spec.local_functions,
                                        ("b", "d"): add3, ("d", "t"): add3})
    return gf3, spec, ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_single_edge_network(gf2):
    spec = NetworkSpec(nodes=("s", "t"), edges=(("s", "t"),),
                       source="s", sink="t")
    ch = compile_network(gf2, spec, [(0,), (1,)])
    for x in ((0,), (1,)):
        for z in ((0,), (1,)):
            assert ch.evaluate(x, z) == ((x[0] + z[0]) % 2,)


def test_toy_zero_error_rows(toy):
    assert toy.evaluate((0, 0, 0), (0,) * 9) == (0, 0, 0)
    assert toy.evaluate((1, 1, 1), (0,) * 9) == (1, 1, 1)


def test_toy_double_error_collapses_onto_zero(toy):
    # value-2 errors on the first and third source edges
    z = (2, 0, 2, 0, 0, 0, 0, 0, 0)
    assert toy.evaluate((1, 1, 1), z) == (0, 0, 0)


def test_toy_edge_order():
    _, spec, code = toy_example()
    assert spec.edges == (("s", "a"), ("s", "b"), ("s", "c"), ("a", "b"),
                          ("b", "d"), ("c", "d"), ("a", "t"), ("d", "t"),
                          ("c", "t"))
    assert code == ((0, 0, 0), (1, 1, 1))


def test_cycle_detected(gf2):
    spec = NetworkSpec(nodes=("s", "a", "b", "t"),
                       edges=(("s", "a"), ("a", "b"), ("b", "a"), ("a", "t")),
                       source="s", sink="t",
                       local_functions={("a", "b"): {}, ("b", "a"): {},
                                        ("a", "t"): {}})
    with pytest.raises(ConstructionError, match="cycle through a -> b -> a"):
        compile_network(gf2, spec, [(0,), (1,)])


def test_partial_table_rejected(gf2):
    spec = NetworkSpec(nodes=("s", "a", "t"),
                       edges=(("s", "a"), ("a", "t")),
                       source="s", sink="t",
                       local_functions={("a", "t"): {(0,): 0}})
    with pytest.raises(ConstructionError, match="total"):
        compile_network(gf2, spec, [(0,), (1,)])


def test_missing_table_rejected(gf2):
    spec = NetworkSpec(nodes=("s", "a", "t"),
                       edges=(("s", "a"), ("a", "t")),
                       source="s", sink="t")
    with pytest.raises(ConstructionError, match="local function"):
        compile_network(gf2, spec, [(0,), (1,)])


def test_isolated_interior_node_rejected(gf2):
    spec = NetworkSpec(nodes=("s", "a", "t"),
                       edges=(("s", "t"), ("a", "t")),
                       source="s", sink="t",
                       local_functions={("a", "t"): copy_table(2)})
    with pytest.raises(ConstructionError, match="incoming"):
        compile_network(gf2, spec, [(0,), (1,)])


def test_codeword_length_must_match_source_degree(gf2):
    spec = NetworkSpec(nodes=("s", "t"), edges=(("s", "t"),),
                       source="s", sink="t")
    with pytest.raises(ConstructionError, match="source out-edges"):
        compile_network(gf2, spec, [(0, 0), (1, 1)])


def test_routing_network_matrices():
    gf2, spec = routing_network()
    f_st, h_t = linear_transfer_matrices(gf2, spec)
    assert all(v in (0, 1) for row in f_st for v in row)
    assert all(v in (0, 1) for row in h_t for v in row)
    ch = compile_network(gf2, spec, [(0, 0), (1, 1)])
    for x in ch.codewords:
        for z in ch.errors.space.elements():
            assert ch.evaluate(x, z) == mx.vec_add(
                gf2, mx.vec_mat_mul(gf2, x, f_st), mx.vec_mat_mul(gf2, z, h_t))


def test_butterfly_matrices_agree_exhaustively():
    gf2, spec = butterfly_like_network()
    f_st, h_t = linear_transfer_matrices(gf2, spec)
    ch = compile_network(gf2, spec, list(itertools.product(range(2), repeat=2)))
    for x in ch.codewords:
        for z in ch.errors.space.elements():
            assert ch.evaluate(x, z) == mx.vec_add(
                gf2, mx.vec_mat_mul(gf2, x, f_st), mx.vec_mat_mul(gf2, z, h_t))


def test_matrices_follow_declared_edge_order():
    """Edges declared out of topological order: H_t row e is edge e's row."""
    gf3, spec = declared_order_network()
    f_st, h_t = linear_transfer_matrices(gf3, spec)
    assert f_st == ((2, 0), (0, 1))
    assert h_t == ((1, 0), (2, 0), (0, 1))


def _linear_networks():
    for net_field, spec in (routing_network(), butterfly_like_network(),
                            declared_order_network()):
        m = len(spec.outgoing(spec.source))
        yield net_field, spec, list(VectorSpace(net_field, m).elements())
    yield linear_relay_network()


@pytest.mark.parametrize("net_field, spec, code", list(_linear_networks()),
                         ids=["routing", "butterfly", "declared-order", "linear-relay"])
def test_transfer_matrices_answer_as_the_network(net_field, spec, code):
    """Two independent row kernels, the network's and the matrix channel's
    over (F_st, H_t), give the same code rows and the same answers through
    the whole engine: F(x, z) = x*F_st + z*H_t on every (x, z)."""
    f_st, h_t = linear_transfer_matrices(net_field, spec)
    net = compile_network(net_field, spec, code)
    lin = matrix_channel(net_field, code, f_st, h_t)
    for x in code:
        assert net._code_row(x) == lin._code_row(x)
    assert minimum_distances(net).to_dict() == minimum_distances(lin).to_dict()
    assert capability(net).to_dict() == capability(lin).to_dict()
    assert classify(net) == classify(lin)
    assert run_all(net).to_dict() == run_all(lin).to_dict()


def test_linear_relay_network_is_the_demo_config():
    net_field, spec, code = linear_relay_network()
    net = compile_network(net_field, spec, code)
    demo = channel_from_config(LINEAR_RELAY_CONFIG.read_text())
    assert demo.codewords == code
    for x in code:
        assert demo._code_row(x) == net._code_row(x)


def test_copy_chains_need_no_pair_budget():
    """Three copy chains of 6 edges from s to t over GF(2): 2^3 * 2^18 pairs,
    past the default pair budget, yet the matrices take 3 + 18 evaluations."""
    nodes, edges = ["s"], []
    for chain in range(3):
        path = ["s", *(f"c{chain}{k}" for k in range(1, 6)), "t"]
        nodes += path[1:-1]
        edges += zip(path, path[1:])
    gf2 = Field(2)
    spec = NetworkSpec(nodes=(*nodes, "t"), edges=tuple(edges), source="s", sink="t",
                       local_functions={e: copy_table(2) for e in edges if e[0] != "s"})
    f_st, h_t = linear_transfer_matrices(gf2, spec)
    assert f_st == mx.identity(3)
    assert h_t == tuple(mx.identity(3)[e // 6] for e in range(18))


def test_masked_nonlinear_table_rejected():
    """The global map is linear (b drops the squared symbol), but the
    table on a->b is not, and every local table must be linear."""
    gf3 = Field(3)
    spec = NetworkSpec(
        nodes=("s", "a", "b", "t"),
        edges=(("s", "a"), ("s", "b"), ("a", "b"), ("b", "t"), ("a", "t")),
        source="s", sink="t",
        local_functions={
            ("a", "b"): {(v,): v * v % 3 for v in range(3)},
            ("b", "t"): {(u, v): u for u in range(3) for v in range(3)},
            ("a", "t"): copy_table(3),
        })
    with pytest.raises(NonlinearNetworkError, match=r"node 'a'.*\('a', 'b'\)"):
        linear_transfer_matrices(gf3, spec)


def test_toy_network_is_nonlinear():
    gf3, spec, _ = toy_example()
    with pytest.raises(NonlinearNetworkError, match=r"node 'b'.*\('b', 'd'\)"):
        linear_transfer_matrices(gf3, spec)


def test_evaluation_order_independent():
    """A functional, recursion-based evaluator must agree with the compiled
    one regardless of node declaration order."""
    gf3, spec, code = toy_example()
    shuffled = NetworkSpec(nodes=("t", "d", "c", "b", "a", "s"),
                           edges=spec.edges, source="s", sink="t",
                           local_functions=spec.local_functions)
    ch = compile_network(gf3, spec, code)
    ch2 = compile_network(gf3, shuffled, code)

    def recursive_eval(x, z):
        memo = {}

        def symbol(ei):
            if ei in memo:
                return memo[ei]
            tail, _ = spec.edges[ei]
            if tail == spec.source:
                base = x[spec.outgoing(spec.source).index(ei)]
            else:
                ins = tuple(symbol(j) for j in spec.incoming(tail))
                base = spec.local_functions[spec.edges[ei]][ins]
            memo[ei] = gf3.add(base, z[ei])
            return memo[ei]

        return tuple(symbol(ei) for ei in spec.incoming(spec.sink))

    rng = random.Random(11)
    for _ in range(300):
        x = code[rng.randrange(2)]
        z = tuple(rng.randrange(3) for _ in range(9))
        want = recursive_eval(x, z)
        assert ch.evaluate(x, z) == want
        assert ch2.evaluate(x, z) == want


def test_zero_error_decodes_uniquely(toy, repetition):
    for ch in (toy, repetition):
        for x in ch.codewords:
            assert mwd_bounded(ch, 0, ch.zero_output(x)).codeword == x


def test_source_edge_with_local_function_rejected(gf2):
    spec = NetworkSpec(nodes=("s", "t"), edges=(("s", "t"),),
                       source="s", sink="t",
                       local_functions={("s", "t"): copy_table(2)})
    with pytest.raises(ConstructionError, match="source edge"):
        compile_network(gf2, spec, [(0,), (1,)])


def random_dag(rng, q, inner, extra):
    """A random DAG s -> v1..v_inner -> t with random total tables, its
    edges declared in a shuffled (non-topological) order.

    Its spanning tree leaves inner*(inner+1)//2 forward node pairs free, so
    ``extra`` may be at most that; a larger one raises ValueError.
    """
    room = inner * (inner + 1) // 2
    if not 0 <= extra <= room:
        raise ValueError(f"extra = {extra} edges do not fit: {inner} inner nodes "
                         f"leave room for at most {room}")
    nodes = ["s"] + [f"v{i}" for i in range(1, inner + 1)] + ["t"]
    edges = {(rng.choice(nodes[:i]), nodes[i]) for i in range(1, len(nodes))}
    while len(edges) < len(nodes) - 1 + extra:
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        edges.add((nodes[i], nodes[j]))
    edges = sorted(edges)
    rng.shuffle(edges)
    spec = NetworkSpec(nodes=tuple(nodes), edges=tuple(edges), source="s", sink="t")
    for tail, head in edges:
        if tail != "s":
            ins = spec.incoming(tail)
            spec.local_functions[tail, head] = {
                key: rng.randrange(q) for key in itertools.product(range(q), repeat=len(ins))}
    return spec


@pytest.mark.parametrize("inner, extra", [(1, 2), (2, 4), (3, 7), (2, -1)])
def test_random_dag_rejects_extra_edges_that_do_not_fit(inner, extra):
    with pytest.raises(ValueError, match=f"at most {inner * (inner + 1) // 2}"):
        random_dag(random.Random(0), 2, inner, extra)


def test_random_dag_fills_every_node_pair():
    """At the limit every forward pair of s, v1..v_inner, t is an edge."""
    for inner in (1, 2, 3):
        spec = random_dag(random.Random(inner), 2, inner, inner * (inner + 1) // 2)
        assert len(spec.edges) == (inner + 2) * (inner + 1) // 2


def _dead_edge_network():
    """The toy plus a ->x and x ->y: nobody reads x ->y, so a ->x, read
    only by it, is dead too."""
    gf3, spec, code = toy_example()
    spec = NetworkSpec(nodes=spec.nodes + ("x", "y"), edges=spec.edges + (("a", "x"), ("x", "y")),
                       source="s", sink="t",
                       local_functions={**spec.local_functions, ("a", "x"): copy_table(3),
                                        ("x", "y"): {(v,): v * v % 3 for v in range(3)}})
    return gf3, spec, code


def _source_to_sink_network():
    """The toy plus an edge s ->t that the sink reads straight off the source."""
    gf3, spec, _ = toy_example()
    spec = NetworkSpec(nodes=spec.nodes, edges=spec.edges + (("s", "t"),),
                       source="s", sink="t", local_functions=spec.local_functions)
    return gf3, spec, ((0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 1))


def _row_networks():
    """(field, spec, messages): every message of the toy and three random
    DAGs, and the code of two toy variants, one with dead steps and one
    whose sink reads a source edge (3^11 and 3^10 errors)."""
    yield toy_example()[:2] + (None,)
    rng = random.Random(2011)
    for _ in range(3):
        yield Field(3), random_dag(rng, 3, inner=3, extra=3), None
    for network in (_dead_edge_network, _source_to_sink_network):
        yield network()


@pytest.mark.parametrize("net_field, spec, messages", list(_row_networks()),
                         ids=["toy", "dag-a", "dag-b", "dag-c", "dead-edge", "source-to-sink"])
def test_row_kernel_matches_per_pair_evaluation(net_field, spec, messages):
    program, sinks, m = _validate_and_order(spec, net_field.q)
    # the declared edge index, not the program position, orders the errors
    assert [ei for ei, _, _, _ in program] != list(range(len(spec.edges)))
    nedges = len(spec.edges)
    transfer = _evaluator(program, sinks, nedges, net_field.add_table)
    row, _ = _kernels(program, sinks, nedges, net_field.add_table)
    errors = list(VectorSpace(net_field, nedges).elements())
    codec = Codec(VectorSpace(net_field, len(sinks)))
    for x in messages or VectorSpace(net_field, m).elements():
        assert list(map(codec.decode, row(x, codec))) == [transfer(x, z) for z in errors]


def _row_reach(ch, x):
    """x's reach map read off its weight-ordered code row: each code at the
    weight of its first position."""
    reach = {}
    for code, w in zip(ch._code_row(x), ch._weight_order()[1]):
        reach.setdefault(code, w)
    return reach


def assert_reach_kernel_matches_rows(ch):
    """The DP's map equals the row-derived one for every codeword, and
    iterates in nondecreasing weight."""
    assert ch._reach is not None
    for x in ch.codewords:
        reach = ch._reach(x, ch._codec())
        assert reach == _row_reach(ch, x), x
        assert list(reach.values()) == sorted(reach.values()), x


DEMO_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "demos" / "configs").glob("*.ini"))


def test_reach_kernel_matches_rows_on_the_toy_and_the_demo_networks():
    networks = [channel_from_config(path.read_text()) for path in DEMO_CONFIGS]
    networks = [ch for ch in networks if ch.kind == "network"]
    assert len(networks) >= 2
    for ch in [toy_channel()] + networks:
        assert_reach_kernel_matches_rows(ch)


def _random_dag_channels(count):
    """``count`` seeded random_dag networks over GF(2) and GF(3) whose
    program order differs from the declared edge order, each with up to four
    messages of distinct zero-error outputs as its code."""
    found, seed = [], 0
    while len(found) < count:
        seed += 1
        rng = random.Random(seed)
        q = (2, 3)[seed % 2]
        inner = rng.randint(1, 4 if q == 2 else 3)
        spec = random_dag(rng, q, inner, rng.randint(0, min(3, inner * (inner + 1) // 2)))
        program, sinks, m = _validate_and_order(spec, q)
        if [ei for ei, _, _, _ in program] == list(range(len(spec.edges))):
            continue
        transfer = _evaluator(program, sinks, len(spec.edges), Field(q).add_table)
        zero = (0,) * len(spec.edges)
        code = {}
        for x in itertools.product(range(q), repeat=m):
            code.setdefault(transfer(x, zero), x)
        if len(code) >= 2:
            found.append(compile_network(Field(q), spec, list(code.values())[:4]))
    return found


def test_reach_kernel_matches_rows_on_random_dags():
    channels = _random_dag_channels(50)
    assert {ch.field.q for ch in channels} == {2, 3}
    for ch in channels:
        assert_reach_kernel_matches_rows(ch)


@pytest.mark.parametrize("network", [_dead_edge_network, _source_to_sink_network],
                         ids=["dead-edge", "source-to-sink"])
def test_reach_kernel_matches_rows_on_edge_cases(network):
    assert_reach_kernel_matches_rows(compile_network(*network()))


def test_kernels_share_one_compiled_program_in_any_call_order():
    """Reach then row, row then reach, and a second codec of the same output
    space (which rebuilds the final state map) give the same rows and maps
    as a fresh pair of kernels per call."""
    gf3, spec, _ = toy_example()
    program, sinks, m = _validate_and_order(spec, 3)
    nedges = len(spec.edges)
    messages = list(VectorSpace(gf3, m).elements())
    codec, other = (Codec(VectorSpace(gf3, len(sinks))) for _ in range(2))

    def kernels():
        return _kernels(program, sinks, nedges, gf3.add_table)

    rows = {x: kernels()[0](x, codec) for x in messages}
    maps = {x: kernels()[1](x, codec) for x in messages}
    row, reach = kernels()
    for x in messages:
        assert reach(x, codec) == maps[x] and row(x, codec) == rows[x]
    row, reach = kernels()
    for x in messages:
        assert row(x, codec) == rows[x] and reach(x, codec) == maps[x]
    for x in messages:  # alternating codecs rebuild the final map each call
        assert row(x, other) == rows[x] and reach(x, codec) == maps[x]
        assert reach(x, other) == maps[x] and row(x, codec) == rows[x]


def test_distances_and_capability_build_no_row_on_a_network():
    ch = toy_channel()
    minimum_distances(ch)
    capability(ch)
    assert "code_rows" not in ch._cache and "weight_order" not in ch._cache
