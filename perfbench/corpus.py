"""Seeded channel corpora for the benchmark, written as gnetcode INI configs.

Each workload is a fixed list of slots.  Slot ``S`` of workload ``W`` is
one channel drawn from ``random.Random("W/S")``, the same in every run, so
every run does the same work and run-to-run spread is the host's alone.
The run's seed picks, per slot, one of ``POOL`` sets of received words
for the decode calls, drawn from ``random.Random("W/S/v")``; every config
and every word a seed can yield has its answers recorded in
``expected.json``.

The generator does not import gnetcode: it writes configs and CLI
arguments only, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

POOL = 8
WORKLOADS = ("linear-ledger", "nonlinear-network", "small-sweep")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``label`` names it in the answer table, ``argv`` follows
    the global options (``--config FILE --format structured``)."""

    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Item:
    """One channel of a corpus, with the operations run against it.

    ``variant`` is which of the slot's POOL word sets the decode calls use.
    """

    workload: str
    slot: str
    variant: int
    config: str
    ops: tuple[Op, ...]

    @property
    def digest(self) -> str:
        return config_digest(self.config)

    @property
    def name(self) -> str:
        return f"{self.slot}#{self.variant}"


@dataclass(frozen=True)
class Spec:
    """What a slot builder returns: config text, field size and output shape."""

    config: str
    q: int
    out_shape: tuple[int, ...]  # (length,) for vectors, (rows, cols) for matrices


def config_digest(text: str) -> str:
    """sha256 prefix of the config text, as the CLI reports it in ``source``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- INI writing ---------------------------------------------------------------

def _vec(v) -> str:
    return ",".join(str(s) for s in v)


def _lines(rows) -> str:
    return "".join(f"\n    {_vec(r)}" for r in rows)


def _ini(sections) -> str:
    """sections: list of (name, [(key, value)]); multiline values start with \\n."""
    out = []
    for name, items in sections:
        out.append(f"[{name}]")
        out.extend(f"{k} ={v}" if v.startswith("\n") else f"{k} = {v}" for k, v in items)
        out.append("")
    return "\n".join(out)


def _field(p: int, k: int = 1):
    return ("field", [("p", str(p)), ("k", str(k))])


# -- small exact helpers (independent of gnetcode) -----------------------------

def _systematic(rng: random.Random, q: int, k: int, n: int):
    """k x n matrix [I | R] with shuffled columns: full row rank over any field."""
    cols = [tuple(1 if r == c else 0 for r in range(k)) for c in range(k)]
    cols += [tuple(rng.randrange(q) for _ in range(k)) for _ in range(n - k)]
    rng.shuffle(cols)
    return tuple(tuple(col[r] for col in cols) for r in range(k))


def _random_matrix(rng: random.Random, q: int, rows: int, cols: int):
    return tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows))


def _invertible_gf2(rng: random.Random, n: int):
    """L*U over GF(2) with unit diagonals (determinant 1), rows then shuffled."""
    lower = [[1 if i == j else (rng.randrange(2) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randrange(2) if j > i else 0) for j in range(n)]
             for i in range(n)]
    prod = [tuple(sum(lower[i][t] * upper[t][j] for t in range(n)) % 2 for j in range(n))
            for i in range(n)]
    rng.shuffle(prod)
    return tuple(prod)


def _block_diag(blocks):
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[r0 + i][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    return tuple(tuple(r) for r in out)


# -- slot builders -------------------------------------------------------------

def _classical(p: int, k: int, codewords) -> Spec:
    return Spec(_ini([_field(p, k), ("channel", [("kind", "classical")]),
                      ("code", [("codewords", _lines(codewords))])]),
                p ** k, (len(codewords[0]),))


def _classical_generator(p: int, k: int, gen) -> Spec:
    return Spec(_ini([_field(p, k), ("channel", [("kind", "classical")]),
                      ("code", [("generator", _lines(gen))])]),
                p ** k, (len(gen[0]),))


def _repetition(p: int, n: int):
    return lambda rng: _classical(p, 1, [(s,) * n for s in range(p)])


def _vector_matrix(p: int, k: int, msg: int, err: int, out: int):
    """x*A + z*B on vector words under the Hamming weight, code = all messages."""
    def build(rng):
        q = p ** k
        a = _systematic(rng, q, msg, out)
        b = _random_matrix(rng, q, err, out)
        return Spec(_ini([_field(p, k),
                          ("channel", [("kind", "matrix"), ("a", _lines(a)), ("b", _lines(b))]),
                          ("code", [("space", str(msg))])]),
                    q, (out,))
    return build


def _rank_gf2(rng):
    """GF(2) rank channel F(X, Z) = X A + Z B on all 16 2x2 codewords and 2x2 errors.

    A is full rank and B = M A for an invertible M, so every pair of balls
    meets and every distance is finite.
    """
    a = _systematic(rng, 2, 2, 3)
    m = _invertible_gf2(rng, 2)
    b = tuple(tuple(sum(m[i][t] * a[t][j] for t in range(2)) % 2 for j in range(3))
              for i in range(2))
    return Spec(_ini([_field(2), ("weight", [("kind", "rank")]),
                      ("channel", [("kind", "matrix"), ("a", _lines(a)), ("b", _lines(b))]),
                      ("code", [("rows", "2"), ("space", "2x2")])]),
                2, (2, 3))


def _rank(p: int, rows: int, msg: int, err: int, out: int):
    def build(rng):
        a = _systematic(rng, p, msg, out)
        b = _random_matrix(rng, p, err, out)
        return Spec(_ini([_field(p), ("weight", [("kind", "rank")]),
                          ("channel", [("kind", "matrix"), ("a", _lines(a)), ("b", _lines(b))]),
                          ("code", [("rows", str(rows)), ("space", f"{rows}x{msg}")])]),
                    p, (rows, out))
    return build


def _sum_rank(p: int, rows: int, msg_blocks, err_blocks, out_blocks):
    def build(rng):
        a = _block_diag([_systematic(rng, p, m, n) for m, n in zip(msg_blocks, out_blocks)])
        b = _block_diag([_random_matrix(rng, p, u, n) for u, n in zip(err_blocks, out_blocks)])
        msg = sum(msg_blocks)
        return Spec(_ini([_field(p), ("weight", [("kind", "sum-rank"),
                                                 ("blocks", _vec(err_blocks))]),
                          ("channel", [("kind", "matrix"), ("a", _lines(a)), ("b", _lines(b))]),
                          ("code", [("rows", str(rows)), ("space", f"{rows}x{msg}")])]),
                    p, (rows, sum(out_blocks)))
    return build


def _table(p: int, n_codewords: int, cw_len: int, err_len: int, out_len: int):
    """Random total table; zero-error outputs drawn without replacement."""
    def build(rng):
        cw_space = list(itertools.product(range(p), repeat=cw_len))
        out_space = list(itertools.product(range(p), repeat=out_len))
        codewords = rng.sample(cw_space, n_codewords)
        clean = rng.sample(out_space, n_codewords)
        rows = []
        for x, y0 in zip(codewords, clean):
            for z in itertools.product(range(p), repeat=err_len):
                y = y0 if not any(z) else rng.choice(out_space)
                rows.append((f"{_vec(x)} ; {_vec(z)}", _vec(y)))
        return Spec(_ini([_field(p),
                          ("channel", [("kind", "table"), ("error_length", str(err_len)),
                                       ("output_length", str(out_len))]),
                          ("code", [("codewords", _lines(codewords))]),
                          ("transfer", rows)]),
                    p, (out_len,))
    return build


def _random_code(p: int, k: int, n: int, size: int):
    """Random nonlinear code: ``size`` distinct words of GF(p^k)^n."""
    def build(rng):
        q = p ** k
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randrange(q) for _ in range(n)))
        return _classical(p, k, sorted(words))
    return build


def _random_linear_code(p: int, k: int, dim: int, n: int):
    """Linear code from a random generator whose first row is nonzero."""
    def build(rng):
        q = p ** k
        gen = _random_matrix(rng, q, dim, n)
        if not any(gen[0]):
            gen = ((1,) + gen[0][1:],) + gen[1:]
        return _classical_generator(p, k, gen)
    return build


# -- networks ------------------------------------------------------------------

@dataclass(frozen=True)
class _Net:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    tables: dict          # non-source edge -> {input tuple: symbol}
    codewords: tuple

    def incoming(self, node):
        return [i for i, (_, h) in enumerate(self.edges) if h == node]

    def evaluate(self, x):
        """Sink symbols at zero error, nodes in declared (topological) order."""
        sym = {}
        source_out = [i for i, (t, _) in enumerate(self.edges) if t == "s"]
        for node in self.nodes:
            ins = tuple(sym[i] for i in self.incoming(node))
            for ei, (tail, _) in enumerate(self.edges):
                if tail == node:
                    sym[ei] = (x[source_out.index(ei)] if node == "s"
                               else self.tables[self.edges[ei]][ins])
        return tuple(sym[i] for i in self.incoming("t"))

    def config(self) -> str:
        sections = [("field", [("p", "3")]),
                    ("channel", [("kind", "network"), ("nodes", ", ".join(self.nodes)),
                                 ("source", "s"), ("sink", "t"),
                                 ("edges", "".join(f"\n    {t} {h}" for t, h in self.edges))]),
                    ("code", [("codewords", _lines(self.codewords))])]
        for edge in self.edges:
            if edge[0] != "s":
                sections.append((f"function {edge[0]} {edge[1]}",
                                 [(_vec(k), str(v)) for k, v in sorted(self.tables[edge].items())]))
        return _ini(sections)


def _affine(table) -> bool:
    """Is the GF(3) table x -> T(x) of the form T(0) + (linear map)?"""
    zero = tuple(0 for _ in next(iter(table)))
    for a in table:
        for b in table:
            ab = tuple((u + v) % 3 for u, v in zip(a, b))
            if (table[ab] - table[zero]) % 3 != (table[a] + table[b] - 2 * table[zero]) % 3:
                return False
    return True


def _try_shape(rng: random.Random, n_edges: int, m: int):
    """One draw of a DAG s -> v1..vk -> t with m source edges; None if it misses."""
    k = rng.randint(3, 5)
    inner = [f"v{i}" for i in range(1, k + 1)]
    edges = [("s", v) for v in inner[:m]]
    indeg = {v: 0 for v in inner + ["t"]}
    for _, h in edges:
        indeg[h] += 1
    for i in range(m, k):
        for tail in rng.sample(inner[:i], min(i, rng.randint(1, 2))):
            edges.append((tail, inner[i]))
            indeg[inner[i]] += 1
    for v in rng.sample(inner, rng.randint(2, 3)):
        edges.append((v, "t"))
        indeg["t"] += 1
    for v in inner:
        if not any(t == v for t, _ in edges):
            edges.append((v, "t"))
            indeg["t"] += 1
    for _ in range(100):
        if len(edges) >= n_edges:
            break
        a, b = sorted(rng.sample(range(k + 1), 2))
        head = inner[b] if b < k else "t"
        cand = (inner[a], head)
        if cand not in edges and indeg[head] < (3 if head == "t" else 2):
            edges.append(cand)
            indeg[head] += 1
    if len(edges) != n_edges or indeg["t"] > 3:
        return None
    order = {n: i for i, n in enumerate(["s"] + inner + ["t"])}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return ("s",) + tuple(inner) + ("t",), tuple(edges), indeg


def _try_fill(rng: random.Random, shape, m: int, n_codewords: int):
    """Random local tables and a code on a fixed DAG; None if the code won't fit."""
    nodes, edges, indeg = shape
    tables = {}
    for tail, head in edges:
        if tail == "s":
            continue
        keys = list(itertools.product(range(3), repeat=indeg[tail]))
        if head != "t" and len(keys) == 3 and rng.random() < 0.5:
            tables[(tail, head)] = {key: key[0] for key in keys}  # copy
            continue
        # tables into the sink are never affine, so the error map is nonlinear
        table = {key: rng.randrange(3) for key in keys}
        while head == "t" and _affine(table):
            table = {key: rng.randrange(3) for key in keys}
        tables[(tail, head)] = table
    net = _Net(nodes, edges, tables, ())
    by_output = {}
    for x in itertools.product(range(3), repeat=m):
        by_output.setdefault(net.evaluate(x), []).append(x)
    if len(by_output) < n_codewords:
        return None
    reps = [rng.choice(xs) for _, xs in sorted(by_output.items())]
    return _Net(nodes, edges, tables, tuple(sorted(rng.sample(reps, n_codewords))))


def _retry(draw, key: str):
    """draw(rng) with rng seeded from key/0, key/1, ... until it returns a value."""
    for attempt in range(1000):
        got = draw(random.Random(f"{key}/{attempt}"))
        if got is not None:
            return got
    raise RuntimeError(f"no draw fits {key}")  # pragma: no cover


def _network(n_edges: int, m: int, n_codewords: int):
    """Random GF(3) DAG; a failed draw retries with the next derived seed."""
    def build(rng):
        key = str(rng.random())
        shape = _retry(lambda r: _try_shape(r, n_edges, m), f"{key}/shape")
        net = _retry(lambda r: _try_fill(r, shape, m, n_codewords), f"{key}/fill")
        return Spec(net.config(), 3, (len(net.incoming("t")),))
    return build


# -- workloads -----------------------------------------------------------------

_SLOTS = {
    # error-linear channels with many codewords: classify, ledger and pair tables
    "linear-ledger": [
        ("rank-gf2", _rank_gf2),
        ("rep4-gf3", _repetition(3, 4)),
        ("code63-gf2", _random_linear_code(2, 1, 3, 6)),
        ("linear-gf4", _vector_matrix(2, 2, 1, 3, 3)),
        ("rep10", _repetition(2, 10)),
    ],
    # nonlinear DAG networks: thousands of errors, few codewords
    "nonlinear-network": [
        ("net7", _network(7, 2, 3)),
        ("net6", _network(6, 2, 4)),
    ],
    # a few dozen tiny channels: fixed per-call cost (parse, field, validate, JSON)
    "small-sweep": [
        ("table-a", _table(2, 2, 2, 3, 3)),
        ("table-b", _table(2, 3, 2, 4, 3)),
        ("table-c", _table(3, 2, 2, 2, 2)),
        ("table-d", _table(3, 3, 1, 3, 3)),
        ("matrix-gf2", _vector_matrix(2, 1, 2, 4, 4)),
        ("matrix-gf3", _vector_matrix(3, 1, 1, 3, 3)),
        ("matrix-gf4", _vector_matrix(2, 2, 1, 2, 3)),
        ("matrix-gf5", _vector_matrix(5, 1, 1, 2, 2)),
        ("rank-gf2-a", _rank(2, 2, 1, 2, 2)),
        ("rank-gf2-b", _rank(2, 3, 1, 1, 2)),
        ("rank-gf3", _rank(3, 2, 1, 1, 2)),
        ("sumrank-gf2", _sum_rank(2, 2, (1, 1), (1, 1), (1, 1))),
        ("sumrank-gf3", _sum_rank(3, 1, (1, 1), (1, 1), (1, 1))),
        ("code-gf2-a", _random_linear_code(2, 1, 2, 5)),
        ("code-gf2-b", _random_code(2, 1, 5, 4)),
        ("code-gf3-a", _random_linear_code(3, 1, 1, 3)),
        ("code-gf3-b", _random_code(3, 1, 3, 4)),
        ("code-gf4", _random_code(2, 2, 2, 4)),
        ("code-gf8-a", _random_linear_code(2, 3, 1, 2)),
        ("code-gf8-b", _random_code(2, 3, 2, 3)),
    ],
}


def _word(rng: random.Random, q: int, shape: tuple[int, ...], bad: bool = False) -> str:
    """A received word in the output space, or (bad) one symbol outside it."""
    rows = shape[0] if len(shape) == 2 else 1
    cols = shape[-1]
    syms = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    if bad:
        syms[0][0] = q
    return ";".join(_vec(r) for r in syms)


def build_item(workload: str, slot: str, variant: int) -> Item:
    """Slot ``slot``'s channel with word set ``variant`` for its decode calls."""
    slot_rng = random.Random(f"{workload}/{slot}")
    spec = dict(_SLOTS[workload])[slot](slot_rng)
    radius = str(slot_rng.randint(0, 1))
    rng = random.Random(f"{workload}/{slot}/{variant}")
    ops = (Op("distances", ("distances",)),
           Op("capability", ("capability",)),
           Op("classify", ("classify",)),
           Op("verify", ("verify",)),
           Op("decode", ("decode", _word(rng, spec.q, spec.out_shape))),
           Op("decode-bounded", ("decode", "--bounded", radius,
                                 _word(rng, spec.q, spec.out_shape))),
           Op("decode-outside", ("decode", _word(rng, spec.q, spec.out_shape, bad=True))))
    return Item(workload, slot, variant, spec.config, ops)


def slots(workload: str) -> list[str]:
    return [name for name, _ in _SLOTS[workload]]


def corpus(workload: str, seed: int) -> list[Item]:
    """The corpus one run uses: every slot, with a word set chosen by the seed."""
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/seed/{seed}")
    return [build_item(workload, slot, rng.randrange(POOL)) for slot in slots(workload)]


def pool(workload: str) -> list[Item]:
    """Every word set of every slot: the inputs whose answers are recorded."""
    return [build_item(workload, slot, v) for slot in slots(workload) for v in range(POOL)]
