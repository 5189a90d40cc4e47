"""Coherent single-source single-sink DAG networks.

A network carries one field symbol per edge.  Source out-edges emit the
codeword coordinates in declared edge order; every other edge's symbol is
produced by a total local table over the tail node's incoming symbols
(tables may be nonlinear).  The error vector adds one field symbol per
edge: z_e is added, in the field, to whatever the node put on edge e, and
downstream nodes read the corrupted symbol.  The received word is the
tuple of symbols on the sink's incoming edges, in declared order.

Compiling a network yields a :class:`~gnetcode.channel.Channel` whose
error space is F_q^|E| under the Hamming weight.  Edges are evaluated in a
deterministic topological order; no result depends on which one, since
errors and sink symbols are indexed by declared edge position.  A linear
network's transfer matrices are read off the same evaluator.  Whole rows
and each codeword's reach map (sink code -> least error weight) are two
walks of one compiled live-edge frontier program; the reach walk builds no row.

The built-in :func:`toy_example` is a 6-node, 9-edge network over GF(3)
with two nonlinear node tables and the two-word code {(0,0,0), (1,1,1)}.
Its interest is that the error-correction and error-detection distances
differ (3 versus 2), so it exercises every nonlinear code path.  Note the
edge list includes (a,b) and the edges into the sink are (a,t), (d,t),
(c,t); error vectors are indexed by this declared edge order.
"""

from __future__ import annotations

import graphlib
import itertools
from dataclasses import dataclass, field as dc_field
from operator import add

from .field import Field
from .channel import (Channel, ConstructionError, ErrorModel, VectorSpace,
                      DEFAULT_PAIR_BUDGET)
from .weights import WeightMeasure, HAMMING
from . import matrices as mx

Edge = tuple[str, str]


class NonlinearNetworkError(ValueError):
    """A local table is not linear over the field."""


@dataclass(frozen=True)
class NetworkSpec:
    """Topology plus per-edge local encoding tables.

    ``local_functions`` maps each non-source edge (tail, head) to a total
    table from the tuple of the tail's incoming symbols (incoming edges in
    declared edge-list order) to one field symbol.  Source out-edges carry
    codeword coordinates directly and take no table.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str
    local_functions: dict = dc_field(default_factory=dict)

    def incoming(self, node: str) -> list[int]:
        return [i for i, (_, head) in enumerate(self.edges) if head == node]

    def outgoing(self, node: str) -> list[int]:
        return [i for i, (tail, _) in enumerate(self.edges) if tail == node]


def _validate_and_order(spec: NetworkSpec, q: int):
    """Spec checks plus a deterministic edge processing order.

    The order is ``graphlib.TopologicalSorter``'s static order over the
    nodes, seeded in declaration order, each node's out-edges in declared
    order.  It is one topological order among possibly many, and no result
    depends on which: evaluators index errors by declared edge index.

    Returns (program, sink_inputs, source_out_count) where program is a
    list of (edge_index, coord_or_None, table_or_None, input_edge_indices).
    """
    names = set(spec.nodes)
    if len(names) != len(spec.nodes):
        raise ConstructionError("duplicate node names")
    for who, node in (("source", spec.source), ("sink", spec.sink)):
        if node not in names:
            raise ConstructionError(f"{who} {node!r} is not a declared node")
    for tail, head in spec.edges:
        if tail not in names or head not in names:
            raise ConstructionError(f"edge ({tail}, {head}) references an unknown node")
        if tail == head:
            raise ConstructionError(f"self-loop on node {tail!r}")
    if len(set(spec.edges)) != len(spec.edges):
        raise ConstructionError("duplicate edges (parallel edges are not supported)")

    sorter = graphlib.TopologicalSorter()
    for node in spec.nodes:
        sorter.add(node)
    for tail, head in spec.edges:
        sorter.add(head, tail)
    try:
        order = list(sorter.static_order())
    except graphlib.CycleError as exc:
        raise ConstructionError(
            f"network graph has a cycle through {' -> '.join(exc.args[1])}") from None

    for node in spec.nodes:
        if node in (spec.source, spec.sink):
            continue
        if not spec.incoming(node):
            raise ConstructionError(f"node {node!r} has no incoming edge")
    sink_inputs = spec.incoming(spec.sink)
    if not sink_inputs:
        raise ConstructionError(f"sink {spec.sink!r} has no incoming edge")

    source_out = spec.outgoing(spec.source)
    if not source_out:
        raise ConstructionError(f"source {spec.source!r} has no outgoing edge")

    program = []
    symbols = set(range(q))
    for node in order:
        ins = spec.incoming(node)
        for ei in spec.outgoing(node):
            edge = spec.edges[ei]
            if node == spec.source:
                program.append((ei, source_out.index(ei), None, ()))
                continue
            table = spec.local_functions.get(edge)
            if table is None:
                raise ConstructionError(f"no local function for edge {edge}")
            table = {tuple(k): v for k, v in table.items()}
            expected = q ** len(ins)
            if len(table) != expected:
                raise ConstructionError(
                    f"local table for edge {edge} must be total over "
                    f"{expected} input tuples, has {len(table)}")
            if not (mx.all_vectors(q, table, len(ins)) and set(table.values()) <= symbols):
                for key, value in table.items():  # name the first bad row
                    if len(key) != len(ins) or any(not 0 <= s < q for s in key):
                        raise ConstructionError(f"bad input tuple {key} in table for {edge}")
                    if not 0 <= value < q:
                        raise ConstructionError(f"bad output {value} in table for {edge}")
            program.append((ei, None, table, tuple(ins)))
    for edge in spec.local_functions:
        if tuple(edge) not in spec.edges:
            raise ConstructionError(f"local function for unknown edge {edge}")
        if tuple(edge) in {spec.edges[ei] for ei in source_out}:
            raise ConstructionError(f"source edge {edge} carries a codeword "
                                    "coordinate and takes no local function")
    return program, sink_inputs, len(source_out)


def _evaluator(program, sink_inputs, nedges: int, add_table):
    """The network's transfer (x, z) -> sink symbols, on raw symbol tables."""

    def transfer(x, z):
        sym = [0] * nedges
        for ei, coord, table, ins in program:
            base = x[coord] if table is None else table[tuple(sym[i] for i in ins)]
            sym[ei] = add_table[base][z[ei]]
        return tuple(sym[i] for i in sink_inputs)

    return transfer


def _kernels(program, sink_inputs, nedges: int, add_table):
    """The network's row and reach kernels, two walks of one frontier program.

    The program is compiled on the first call of either kernel.  An edge
    is live if the sink or a live edge's table reads it; a dead edge's
    error reaches no output.  Before each live step the frontier is the
    live edges written and still to be read, and a state is their symbols,
    coded as base-q digits (frontier position i the digit of q^i).  A step
    drops the inputs it reads last, recoding the kept digits by ``keep``
    (None if it drops none), and puts its edge's symbol on top, the digit
    of ``top`` = q^|kept|: the base symbol (the codeword coordinate, or the
    table's entry in ``symbols`` at the state) plus the error.  After the
    last step the frontier is the sink's inputs, and ``final`` maps each
    state to its output code, once per codec.  Each walk builds its own
    lists on its first call, about q^|frontier| entries per step.

    ``row(x, codec)`` is x's output codes under every error, in enumeration
    order.  It keeps one state per error prefix, the first program edge's
    error the most significant digit: a dead step repeats each state q
    times, and a live step maps each state through the tuple of its q
    successors, one per error symbol.  The error space enumerates z at
    sum(z_e * q^(n-1-e)) over the declared edge index e, so when the
    program order differs from the declared one, the first row builds the
    permutation into enumeration order and every row is permuted by it.

    ``reach(x, codec)`` is x's map from output code to least error weight,
    iterating in nondecreasing weight: a min-plus DP that builds no row.
    Layer w holds the states whose least error weight over the steps so
    far is exactly w.  Error 0 writes the base symbol at no weight, any
    other error any other symbol at weight 1.  So new layer w is layer w's
    weight-0 successors, plus every symbol written on layer w-1's kept
    digits, less the states of the layers below (which drops the base
    symbol's, already in new layer w-1).  A layer advances by C-level maps
    over ``keep`` and ``base`` (the kept digits plus the symbol on top).
    """
    q = len(add_table)  # b + d runs over every symbol as d does: no sum is needed
    order = [ei for ei, _, _, _ in program]
    in_order = order == list(range(nedges))
    flat = itertools.chain.from_iterable
    built = {}

    def digits(frontier: list, i: int) -> list:
        """Edge i's symbol in every state of the frontier, by state code."""
        p = frontier.index(i)
        return list(flat(map(itertools.repeat, range(q), itertools.repeat(q ** p)))) * (
            q ** (len(frontier) - p - 1))

    def compiled() -> dict:
        """Per live step (coord, keep, symbols, top, size), size = q^|frontier|;
        each program step's liveness; and the last frontier."""
        if "steps" in built:
            return built
        live = set(sink_inputs)
        for ei, _, _, ins in reversed(program):
            if ei in live:
                live.update(ins)
        live_program = [step for step in program if step[0] in live]
        last_reader = {i: k for k, (_, _, _, ins) in enumerate(live_program) for i in ins}
        last_reader.update((i, len(live_program)) for i in sink_inputs)
        steps, frontier = [], []
        for k, (ei, coord, table, ins) in enumerate(live_program):
            kept = [i for i in frontier if last_reader[i] != k]
            size = q ** len(frontier)
            keep = symbols = None
            if len(kept) < len(frontier):
                keep = [0] * size
                for p, i in enumerate(kept):
                    keep = list(map(add, keep, map((q ** p).__mul__, digits(frontier, i))))
            if table is not None:
                symbols = list(map(table.__getitem__, zip(*(digits(frontier, i) for i in ins))))
            steps.append((coord, keep, symbols, q ** len(kept), size))
            frontier = kept + [ei]
        built.update(steps=steps, frontier=frontier, live=[ei in live for ei in order])
        return built

    def final(codec) -> list:
        if built.get("codec") is not codec:
            frontier = compiled()["frontier"]
            n = len(frontier)
            at = [n - 1 - frontier.index(i) for i in sink_inputs]  # product puts q^(n-1) first
            built["final"] = codec.encode_all(
                tuple(map(s.__getitem__, at)) for s in itertools.product(range(q), repeat=n))
            built["codec"] = codec
        return built["final"]

    def walk() -> list:
        """Per program step: None if dead, else (coord, successors by state
        code), the successors listed per coordinate symbol on a source step."""
        if "walk" not in built:
            steps = iter(compiled()["steps"])
            built["walk"] = out = []
            for live in built["live"]:
                if not live:
                    out.append(None)
                    continue
                coord, keep, symbols, top, size = next(steps)
                tops = [tuple(map(top.__mul__, add_table[b])) for b in range(q)]
                kept = keep or range(size)
                if coord is None:
                    succ = [tuple(map(k.__add__, tops[b])) for k, b in zip(kept, symbols)]
                else:
                    succ = [[tuple(map(k.__add__, t)) for k in kept] for t in tops]
                out.append((coord, succ))
        return built["walk"]

    def row(x, codec):
        states = [0]
        for step in walk():
            if step is None:  # zip(*[states] * q) yields each state q times
                states = list(flat(zip(*[states] * q)))
            else:
                coord, succ = step
                succ = succ if coord is None else succ[x[coord]]
                states = list(flat(map(succ.__getitem__, states)))
        out = list(map(final(codec).__getitem__, states))
        if in_order:
            return out
        if "perm" not in built:  # enumeration index -> program index
            place = {ei: q ** (nedges - 1 - k) for k, ei in enumerate(order)}
            digit = [[d * place[ei] for d in range(q)] for ei in range(nedges)]
            built["perm"] = list(map(sum, itertools.product(*digit)))
        return list(map(out.__getitem__, built["perm"]))

    def dp() -> list:
        """Per live step (coord, keep, base, top, shifts), shifts adding each
        nonzero symbol on top."""
        if "dp" not in built:
            built["dp"] = [
                (coord, keep, None if symbols is None else
                 list(map(add, keep or range(size), map(top.__mul__, symbols))),
                 top, tuple((v * top).__add__ for v in range(1, q)))
                for coord, keep, symbols, top, size in compiled()["steps"]]
        return built["dp"]

    def reach(x, codec):
        layers = [{0}]
        for coord, keep, base, top, shifts in dp():
            step = base.__getitem__ if coord is None else (x[coord] * top).__add__
            new, seen = [], set()
            for here, below in zip(layers + [()], [()] + layers):
                if keep is not None:
                    below = set(map(keep.__getitem__, below))
                layer = set(map(step, here))
                layer.update(below, *(map(shift, below) for shift in shifts))
                layer -= seen
                seen |= layer
                new.append(layer)
            while not new[-1]:
                new.pop()
            layers = new
        codes = final(codec)
        out = {}
        for w, layer in enumerate(layers):
            out.update(zip(map(codes.__getitem__, layer), itertools.repeat(w)))
        return out

    return row, reach


def compile_network(net_field: Field, spec: NetworkSpec, codewords,
                    pair_budget: int = DEFAULT_PAIR_BUDGET) -> Channel:
    """Compile a network into a channel over F_q^|E| with Hamming errors."""
    program, sink_inputs, m = _validate_and_order(spec, net_field.q)
    codewords = tuple(tuple(x) for x in codewords)
    for x in codewords:
        if len(x) != m or any(not 0 <= s < net_field.q for s in x):
            raise ConstructionError(
                f"codeword {x!r} must assign one symbol to each of the "
                f"{m} source out-edges")
    nedges = len(spec.edges)
    transfer = _evaluator(program, sink_inputs, nedges, net_field.add_table)
    row, reach = _kernels(program, sink_inputs, nedges, net_field.add_table)
    errors = ErrorModel(VectorSpace(net_field, nedges), WeightMeasure(HAMMING))
    outputs = VectorSpace(net_field, len(sink_inputs))
    return Channel(net_field, codewords, errors, outputs, transfer,
                   kind="network", pair_budget=pair_budget, row=row, reach=reach)


def linear_transfer_matrices(net_field: Field, spec: NetworkSpec):
    """Transfer matrices (F_st, H_t) of a linear network.

    Every local table must be a linear map over the field (checked
    exhaustively per table, in program order); otherwise a
    :class:`NonlinearNetworkError` names the offending node and edge.  F is
    then a composition of linear maps, so F(x, z) = x*F_st + z*H_t holds
    exactly: row i of F_st is F(e_i, 0) and row e of H_t is F(0, e_e) (e
    indexing the declared edge list), m + |E| evaluations.  The tests pin
    the exhaustive agreement with the row kernel through the whole engine.
    """
    program, sink_inputs, m = _validate_and_order(spec, net_field.q)
    nedges = len(spec.edges)
    for ei, _, table, ins in program:
        if table is not None:
            _check_linear(net_field, spec.edges[ei], table, len(ins))

    transfer = _evaluator(program, sink_inputs, nedges, net_field.add_table)
    x0, z0 = (0,) * m, (0,) * nedges
    f_st = tuple(transfer(x, z0) for x in mx.identity(m))
    h_t = tuple(transfer(x0, z) for z in mx.identity(nedges))
    return f_st, h_t


def _check_linear(net_field: Field, edge: Edge, table: dict, indeg: int) -> None:
    """Raise NonlinearNetworkError unless a local table is linear; sums run on
    raw field tables, as ``_validate_and_order`` checked its keys and values."""
    zero_in = (0,) * indeg
    if table[zero_in] != 0:
        raise NonlinearNetworkError(
            f"local function at node {edge[0]!r} for edge {edge} maps 0 to "
            f"{table[zero_in]}, so it is not linear")
    add, mul = net_field.add_table, net_field.mul_table
    lam = [mul[table[unit]] for unit in mx.identity(indeg)]
    for key in itertools.product(range(net_field.q), repeat=indeg):
        acc = 0
        for li, s in zip(lam, key):
            acc = add[acc][li[s]]
        if table[key] != acc:
            raise NonlinearNetworkError(
                f"local function at node {edge[0]!r} for edge {edge} is not "
                f"linear: fails at inputs {key}")


def toy_example() -> tuple[Field, NetworkSpec, tuple]:
    """The built-in nonlinear fixture network over GF(3).

    Topology: source s feeds a, b, c; a copies its symbol to b and to the
    sink; c copies to d and to the sink; b combines (s->b, a->b) through a
    nonlinear table onto b->d; d combines (b->d, c->d) through a second
    nonlinear table onto d->t.  Edge order (and so error coordinate order):
    (s,a), (s,b), (s,c), (a,b), (b,d), (c,d), (a,t), (d,t), (c,t).
    The code is {(0,0,0), (1,1,1)}.
    """
    gf3 = Field(3)
    copy1 = {(v,): v for v in range(3)}
    b_table = {(0, 0): 0, (0, 1): 0, (0, 2): 0,
               (1, 0): 2, (1, 1): 1, (1, 2): 0,
               (2, 0): 0, (2, 1): 0, (2, 2): 0}
    d_table = {(0, 0): 0, (0, 1): 0, (0, 2): 0,
               (1, 0): 1, (1, 1): 1, (1, 2): 0,
               (2, 0): 0, (2, 1): 1, (2, 2): 0}
    spec = NetworkSpec(
        nodes=("s", "a", "b", "c", "d", "t"),
        edges=(("s", "a"), ("s", "b"), ("s", "c"), ("a", "b"), ("b", "d"),
               ("c", "d"), ("a", "t"), ("d", "t"), ("c", "t")),
        source="s",
        sink="t",
        local_functions={
            ("a", "b"): copy1, ("a", "t"): copy1,
            ("c", "d"): copy1, ("c", "t"): copy1,
            ("b", "d"): b_table,
            ("d", "t"): d_table,
        },
    )
    return gf3, spec, ((0, 0, 0), (1, 1, 1))


def toy_channel(pair_budget: int = DEFAULT_PAIR_BUDGET) -> Channel:
    """The toy network compiled into a channel."""
    gf3, spec, code = toy_example()
    return compile_network(gf3, spec, code, pair_budget=pair_budget)
