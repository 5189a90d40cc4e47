"""Decoding balls and the four code distances, by exact enumeration.

The decoding ball of radius c around a codeword x is the set of received
words reachable from x under errors of weight at most c.  Four distances
between codewords x1, x2 are derived from ball intersections:

* correction distance   d0: min c1+c2 over intersecting balls with the
  radii balanced (|c1-c2| <= 1);
* detection distance    d1: min c with the zero-radius ball of x1 meeting
  the radius-c ball of x2 (asymmetric in general);
* joint distance        d2: min c1+c2 over intersecting balls with
  unconstrained radii (symmetric);
* refined joint distance d2[c]: min c' with the radius-c ball of x1
  meeting the radius-(c+c') ball of x2, for a fixed correction radius c.

For channels whose codeword images are disjoint no radii ever intersect;
such distances are reported as the distinguished value :data:`INFINITE`
(the ordinary definitions silently assume intersections exist).  INFINITE
propagates through minima, and the thresholds tau = floor((d0+1)/2) and
cstar = floor(d0/2) are undefined for it.

The engine stores, per codeword x_i, its reach map y -> W_i(y) =
min{wt(z) : F(x_i, z) = y}, keyed by y's integer code (see
:mod:`gnetcode.codec`).  :func:`_reach` is its one producer: a channel
with a reach kernel (every network, see
:func:`gnetcode.network._kernels`) computes it with no transfer
row, and any other channel reads it off x_i's row.  So ``distances``
and ``capability`` build no row on a network.  Either way the map
iterates in nondecreasing weight.  Per ordered pair (i, j) the engine
stores the meet table m[c], c = 0..w_max, a tuple: the least radius of
x_j's ball meeting x_i's radius-c ball.  Then ball(x_i, c) =
{y : W_i(y) <= c}, d1 = m[0] = W_j(F(x_i, 0)) (the zero error is the
only weight-0 error), d2 = min_c (c + m[c]), d2[c] = max(0, m[min(c,
w_max)] - c) (infinite when that m is), and d0 = min of c + max(m[c],
c-1) over the c with m[c] <= c+1, attained at the first such c.

:func:`minimum_distances` is the one producer of the meet tables: one
scan of the smaller reach map of an unordered pair gives both of its
tables (:func:`_meets`), and the report keeps them on the
:class:`DistanceReport`.  Many pairs share a table, so every entry
above is derived once per distinct table and each pair's is looked up;
the report's :meth:`~DistanceReport.refined_rows` (d2[c] extended for
the theorem ledger) and the pair fragments of its
:meth:`~DistanceReport.to_dict` are likewise built once per distinct
table or entry.  The single-pair functions (:func:`dist_d0` and the
rest) take the first table of their pair's scan.  The reach maps and the
distance report are memoized per channel.  The balls of one radius,
which only the decoders and the ledger read, are read off the rows, each
a weight-<= c prefix kept as a set of codes, and cached per radius,
together with the verdict whether they are pairwise disjoint; only
:func:`decoding_ball` decodes members to tuples.
The test suite anchors this engine against a cache-free brute-force
oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add

from .channel import Channel

INFINITE = float("inf")


def is_finite(value) -> bool:
    return value != INFINITE


class ThresholdUndefinedError(ValueError):
    """tau/cstar requested for a codeword pair with no intersecting balls."""


@dataclass(frozen=True)
class DecodingBall:
    codeword: tuple
    radius: int
    members: frozenset


def _cw_index(ch: Channel, x) -> int:
    try:
        return ch.codewords.index(x)
    except ValueError:
        raise ValueError(f"{x!r} is not a codeword of this channel") from None


def _reach(ch: Channel, xi: int) -> dict:
    """Received word's code -> least error weight reaching it from codeword xi.

    The one producer of reach maps, cached per codeword.  Every map
    iterates in nondecreasing weight, which ``capability`` relies on.  A
    channel with a reach kernel (a network) computes the map without a
    row.  Otherwise it is read off the row, whose errors come in
    nondecreasing weight: ``dict.fromkeys`` places the words in the order
    of their first occurrence, and the update from the reversed row leaves
    each at the weight of that occurrence.
    """
    store = ch._cache.setdefault("reach", {})
    reach = store.get(xi)
    if reach is None:
        x = ch.codewords[xi]
        if ch._reach is not None:
            reach = ch._reach(x, ch._codec())
        else:
            row = ch._code_row(x)
            reach = dict.fromkeys(row)
            reach.update(zip(reversed(row), reversed(ch._weight_order()[1])))
        store[xi] = reach
    return reach


def _meets(reach_i: dict, reach_j: dict, w_max: int) -> tuple[tuple, tuple]:
    """(m_ij, m_ji) off one scan of the smaller reach map.

    m_ij[c], c = 0..w_max, is the least radius of j's ball meeting i's
    radius-c ball: the least W_j over the words i reaches at exactly
    weight c, then a prefix minimum over c.  Each word both reach gives
    W_j(y) to m_ij at W_i(y) and W_i(y) to m_ji at W_j(y).
    """
    swap = len(reach_j) < len(reach_i)
    if swap:
        reach_i, reach_j = reach_j, reach_i
    m_ij, m_ji = [INFINITE] * (w_max + 1), [INFINITE] * (w_max + 1)
    get = reach_j.get
    for y, wi in reach_i.items():
        wj = get(y)
        if wj is None:
            continue
        if wj < m_ij[wi]:
            m_ij[wi] = wj
        if wi < m_ji[wj]:
            m_ji[wj] = wi
    m_ij, m_ji = tuple(accumulate(m_ij, min)), tuple(accumulate(m_ji, min))
    return (m_ji, m_ij) if swap else (m_ij, m_ji)


def _balls(ch: Channel, c: int) -> list:
    """Each codeword's radius-c ball as a set of codes, in codeword order.

    Rows run in nondecreasing error weight, so a ball is the set of a row's
    weight-<= c prefix.  Built once per radius; a radius above w_max is
    w_max's.
    """
    c = min(c, ch.w_max)
    store = ch._cache.setdefault("balls", {})
    balls = store.get(c)
    if balls is None:
        end = bisect_right(ch._weight_order()[1], c)
        balls = store[c] = [frozenset(ch._code_row(x)[:end]) for x in ch.codewords]
    return balls


def _disjoint(ch: Channel, c: int) -> bool:
    """Are the radius-c balls pairwise disjoint?  They are iff their union is
    as large as the sum of their sizes.  Decided once per radius."""
    c = min(c, ch.w_max)
    store = ch._cache.setdefault("disjoint", {})
    verdict = store.get(c)
    if verdict is None:
        balls = _balls(ch, c)
        verdict = store[c] = len(frozenset().union(*balls)) == sum(map(len, balls))
    return verdict


def decoding_ball(ch: Channel, x, c: int) -> DecodingBall:
    """The decoding ball of radius c around codeword x, its members as tuples."""
    if c < 0:
        raise ValueError("radius must be nonnegative")
    i = _cw_index(ch, x)
    members = _balls(ch, c)[i]
    return DecodingBall(x, c, frozenset(map(ch._codec().decode, members)))


def _pair_meet(ch: Channel, x1, x2) -> tuple:
    return _meets(_reach(ch, _cw_index(ch, x1)), _reach(ch, _cw_index(ch, x2)), ch.w_max)[0]


def _d0(m: tuple):
    # x2's least meeting radius within c-1..c+1 is max(m[c], c-1) if m[c] <= c+1;
    # the first such c is least, since later ones cost at least 2c-1
    return next((c + max(r, c - 1) for c, r in enumerate(m) if r <= c + 1), INFINITE)


def _d2(m: tuple):
    return min(map(add, range(len(m)), m))


def _refined_row(m: tuple, hi: int) -> list:
    """d2[c] = max(0, m[min(c, w_max)] - c) for c = 0..hi, off one meet table."""
    padded = m[:hi + 1] + m[-1:] * (hi + 1 - len(m))
    return [r - c if r > c else 0 for c, r in enumerate(padded)]  # inf stays inf


def _entry(m: tuple) -> tuple:
    """(d0, d1, d2, d2_refined, tau, cstar) off one meet table.

    d1 = m[0]: the zero error is the only weight-0 error under every
    measure, so x_i's radius-0 ball is {F(x_i, 0)}.
    """
    d0 = _d0(m)
    if not is_finite(d0):
        return d0, m[0], _d2(m), (INFINITE,), None, None
    tau = (d0 + 1) // 2
    return d0, m[0], _d2(m), tuple(_refined_row(m, tau)), tau, d0 // 2


def dist_d0(ch: Channel, x1, x2):
    """Error correction distance: balanced-radii ball intersection."""
    return _d0(_pair_meet(ch, x1, x2))


def dist_d1(ch: Channel, x1, x2):
    """Error detection distance: first radius of x2's ball reaching F(x1, 0)."""
    return _pair_meet(ch, x1, x2)[0]


def dist_d2(ch: Channel, x1, x2):
    """Joint distance: unconstrained-radii ball intersection."""
    return _d2(_pair_meet(ch, x1, x2))


def dist_d2_refined(ch: Channel, x1, x2, c: int):
    """Refined joint distance for a fixed correction radius c."""
    if c < 0:
        raise ValueError("correction radius must be nonnegative")
    return max(0, _pair_meet(ch, x1, x2)[min(c, ch.w_max)] - c)  # stays infinite


def tau_and_cstar(ch: Channel, x1, x2) -> tuple[int, int]:
    """Radius thresholds floor((d0+1)/2) and floor(d0/2) for a pair."""
    d0 = dist_d0(ch, x1, x2)
    if not is_finite(d0):
        raise ThresholdUndefinedError(
            f"the balls of {x1!r} and {x2!r} never intersect, so the "
            "radius thresholds are undefined")
    return (d0 + 1) // 2, d0 // 2


@dataclass
class DistanceReport:
    """All distances of a channel, per ordered codeword pair plus minima.

    Pair tables are keyed by codeword index pairs (i, j), i != j.  Refined
    tables hold d2[c] for c = 0..tau(pair) (a single c=0 entry when the
    pair's distances are infinite).  The scalar ``d2_min_refined`` covers
    c = 0..max tau.  Infinite entries are reported as the float infinity.

    ``meets`` holds each pair's meet table, a tuple, which every entry
    above is read from; pairs with equal tables get their entries from one
    derivation.  An altered copy (``dataclasses.replace``) shares the
    tables, but builds its own :meth:`refined_rows` and ``check_metric``
    memo, and :meth:`to_dict` shares a pair fragment only between pairs
    whose entries are equal, so a copy serializes its own values.
    """

    codewords: tuple
    d0: dict
    d1: dict
    d2: dict
    d2_refined: dict
    tau: dict
    cstar: dict
    d0_min: float
    d1_min: float
    d2_min: float
    d2_min_refined: tuple
    meets: dict = field(repr=False, compare=False)
    _rows: dict | None = field(default=None, init=False, repr=False, compare=False)
    _metrics: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pairs(self):
        n = len(self.codewords)
        return [(i, j) for i in range(n) for j in range(n) if i != j]

    def to_dict(self) -> dict:
        def enc(v):
            if is_finite(v):
                return {"value": int(v), "infinite": False}
            return {"value": None, "infinite": True}

        def fragment(d0, d1, d2, refined, tau, cstar):
            return {"d0": enc(d0), "d1": enc(d1), "d2": enc(d2),
                    "d2_refined": [enc(v) for v in refined], "tau": tau, "cstar": cstar}

        pairs = self.pairs()
        entries = list(zip(*(map(t.__getitem__, pairs) for t in (
            self.d0, self.d1, self.d2, self.d2_refined, self.tau, self.cstar))))
        fragments = {entry: fragment(*entry) for entry in set(entries)}
        return {
            "codewords": [list(x) if not isinstance(x[0], tuple)
                          else [list(r) for r in x] for x in self.codewords],
            "pairs": {f"{i},{j}": fragments[entry] for (i, j), entry in zip(pairs, entries)},
            "d0_min": enc(self.d0_min),
            "d1_min": enc(self.d1_min),
            "d2_min": enc(self.d2_min),
            "d2_min_refined": [enc(v) for v in self.d2_min_refined],
        }

    def render_text(self) -> str:
        def fmt(v):
            return "inf" if not is_finite(v) else str(v)

        lines = ["pair distances (x1 -> x2):"]
        for (i, j) in self.pairs():
            refined = ", ".join(fmt(v) for v in self.d2_refined[i, j])
            tau = self.tau[i, j]
            lines.append(
                f"  {self.codewords[i]} -> {self.codewords[j]}: "
                f"d0={fmt(self.d0[i, j])} d1={fmt(self.d1[i, j])} "
                f"d2={fmt(self.d2[i, j])} tau={tau if tau is not None else '-'} "
                f"cstar={self.cstar[i, j] if self.cstar[i, j] is not None else '-'} "
                f"d2[c]=[{refined}]")
        lines.append(f"minima: d0_min={fmt(self.d0_min)} d1_min={fmt(self.d1_min)} "
                     f"d2_min={fmt(self.d2_min)}")
        lines.append("d2_min[c]: " + ", ".join(
            f"c={c}:{fmt(v)}" for c, v in enumerate(self.d2_min_refined)))
        return "\n".join(lines)

    def refined_rows(self) -> dict:
        """(i, j) -> [d2[c] for c = 0..hi] off each meet table, built once.

        One row is built per distinct table, and each pair gets its own
        copy of it.  hi covers every c the theorem ledger reads: w_max+2 (a
        finite d0 is at most 2*w_max+1, so tau+1 <= w_max+2), and the tau+1
        and cstar of each pair, which an altered copy may set higher.
        """
        if self._rows is None:
            tables = set(self.meets.values())
            hi = max([len(m) + 1 for m in tables]
                     + [t + 1 for t in self.tau.values() if t is not None]
                     + [c for c in self.cstar.values() if c is not None])
            rows = {m: _refined_row(m, hi) for m in tables}
            self._rows = {pair: rows[m][:] for pair, m in self.meets.items()}
        return self._rows


def minimum_distances(ch: Channel) -> DistanceReport:
    """Compute every distance table and the code minima (memoized).

    One scan per unordered pair builds both of its meet tables, which the
    report keeps; the entries are derived once per distinct table and
    filled in per pair, in :meth:`DistanceReport.pairs` order.  Minima
    are taken over ordered distinct pairs throughout; for the symmetric d0
    and d2 this coincides with the unordered minima.  A minimum is
    infinite only when every entry is.
    """
    cached = ch._cache.get("distance_report")
    if cached is not None:
        return cached
    n = len(ch.codewords)
    reaches = [_reach(ch, j) for j in range(n)]
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j], table[j, i] = _meets(reaches[i], reaches[j], ch.w_max)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    meets = {pair: table[pair] for pair in pairs}
    entries = {m: _entry(m) for m in set(meets.values())}
    d0, d1, d2, refined, tau, cstar = (
        dict(zip(pairs, column)) for column in zip(*map(entries.__getitem__, meets.values())))
    c_hi = max((t for t in tau.values() if t is not None), default=0)
    column_min = _refined_row(tuple(map(min, zip(*entries))), c_hi)
    report = ch._cache["distance_report"] = DistanceReport(
        codewords=ch.codewords,
        d0=d0, d1=d1, d2=d2, d2_refined=refined, tau=tau, cstar=cstar,
        d0_min=min(d0.values()), d1_min=min(d1.values()), d2_min=min(d2.values()),
        d2_min_refined=tuple(column_min), meets=meets)
    return report
