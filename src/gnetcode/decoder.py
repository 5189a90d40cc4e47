"""Minimum weight decoding and code capability classification.

A decoder reads one received word off the codewords' transfer rows, which
run in nondecreasing error weight (see :mod:`gnetcode.distances`); it
builds no table of every reached word.  The word is encoded once, at the
boundary; a word outside the output space has no code and no solution,
so it is detected.  MWD has one rule, :func:`_solution`, on the
codewords' least weights W_i(y) = min{wt(z) : F(x_i, z) = y} for y's
code: it gives ``(least, owner, runner_up)``, the least W_i(y), the
lowest codeword index attaining it, and the least W_j(y) over the other
codewords (INFINITE if none reaches y), so a tie shows as ``runner_up ==
least``.  The decoders read W_i(y) off the rows, as the weight at y's
first position in x_i's row.  MWD decodes y to its owner iff ``least <
runner_up``, otherwise (also for an unreached word, possible for
non-surjective table channels) it declares a detection.  The bounded
variant MWD(c) is defined only when the radius-c balls {y : W_i(y) <=
c} are pairwise disjoint, a verdict cached per radius beside the balls;
then it decodes y to the codeword whose ball holds it.

An error z is correctable when MWD returns x_i from F(x_i, z), for every
codeword x_i.  It is detectable when MWD(0) returns x_i or declares a
detection, that is when F(x_i, z) never lands on a *different*
codeword's clean output; nonlinear node maps can swallow an error
entirely.  Both predicates read F(x_i, z)'s code off x_i's row at z's
position (z's enumeration index mapped through the inverse weight order,
cached per channel), with no per-error transfer.  :func:`is_correctable`
then looks the code up in every codeword's reach map (one dict lookup
each) and applies MWD's rule; :func:`is_detectable` looks it up in the
radius-0 balls, as MWD(0) does.  :func:`capability` reads only the
reach maps, which a network computes without any row (see
:func:`gnetcode.distances._reach`): the least uncorrectable weight is
the least second-smallest W_i(y) over the words two codewords reach, and
the least undetectable weight the least W_i of another codeword's clean
code.  A code corrects c errors while detecting c' more exactly when the
refined joint minimum d2_min[c] is at least c'+1, so
:func:`is_joint_correcting` reads that one memoized column of
:func:`gnetcode.distances.minimum_distances`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .channel import Channel
from .distances import INFINITE, _balls, _disjoint, _reach, minimum_distances, is_finite


class InvalidDecoderError(ValueError):
    """Bounded decoding requested at a radius where balls overlap."""


class InternalConsistencyError(AssertionError):
    """Two supposedly equivalent computations disagreed (a bug signal)."""


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a decoded codeword or a detected-error verdict."""

    codeword: tuple | None = None

    @property
    def detected(self) -> bool:
        return self.codeword is None

    def __repr__(self) -> str:
        return "Detected" if self.detected else f"Decoded({self.codeword})"


DETECTED = DecodeOutcome(None)


def _solution(least_weights):
    """(least, owner, runner_up) of one output code y from each codeword's
    least weight W_i(y), in codeword order (None where x_i does not reach
    y); None if no codeword reaches it."""
    least = runner_up = INFINITE
    owner = None
    for xi, w in enumerate(least_weights):
        if w is None:
            continue
        if w < least:
            least, owner, runner_up = w, xi, least
        elif w < runner_up:
            runner_up = w
    return None if owner is None else (least, owner, runner_up)


def _row_weights(rows: list, weights: list, code: int):
    """Each codeword's W_i for a code, off its code row and the weights of
    the row's positions: the weight at the code's first position, since
    rows run in nondecreasing weight (None if the row does not hold it)."""
    for row in rows:
        try:
            yield weights[row.index(code)]
        except ValueError:
            yield None


def _mwd_owner(least_weights):
    """MWD's rule for one output code, given each codeword's W_i for it: the
    index of its unique least-weight codeword, or None (a detection) when
    no codeword reaches it or two tie."""
    got = _solution(least_weights)
    return None if got is None or got[0] == got[2] else got[1]


def _ball_owner(balls: list, code: int):
    """MWD(c)'s rule on disjoint balls: the index of the ball holding the
    code, or None (a detection)."""
    return next((i for i, ball in enumerate(balls) if code in ball), None)


def _row_position(ch: Channel, z) -> int:
    """z's position in every codeword's weight-ordered row.

    z's enumeration index reads its symbols as base-q digits, the first
    coordinate most significant and a matrix's entries row-major (see
    :func:`gnetcode.channel._is_additive`); the inverse of the weight
    order, built once per channel, maps it to the position.
    """
    positions = ch._cache.get("row_positions")
    if positions is None:
        order = ch._weight_order()[0]
        positions = ch._cache["row_positions"] = [0] * len(order)
        for position, index in enumerate(order):
            positions[index] = position
    q, index = ch.field.q, 0
    for s in (chain.from_iterable(z) if len(ch.errors.space.shape) == 2 else z):
        index = index * q + s
    return positions[index]


def mwd(ch: Channel, y) -> DecodeOutcome:
    """Minimum weight decoding of a received word.

    Every codeword's row is built first (so a custom channel's output
    outside the space raises :class:`~gnetcode.channel.ConstructionError`);
    then a word outside the output space is detected, as it has no
    solution; then y is decoded off the rows.
    """
    rows = list(map(ch._code_row, ch.codewords))
    if not ch.outputs.contains(y):
        return DETECTED
    owner = _mwd_owner(_row_weights(rows, ch._weight_order()[1], ch._codec().encode(y)))
    return DETECTED if owner is None else DecodeOutcome(ch.codewords[owner])


def mwd_bounded(ch: Channel, c: int, y) -> DecodeOutcome:
    """Bounded-distance decoding over disjoint radius-c balls.

    After a negative radius is rejected, every codeword's row is built
    into its radius-c ball; then the radius is checked
    (:class:`InvalidDecoderError` if two balls meet); then a word outside
    the output space is detected; then y decodes to the ball holding it.
    """
    if c < 0:
        raise ValueError("radius must be nonnegative")
    if not _disjoint(ch, c):
        # the first code, over the rows in codeword order, that two balls hold
        balls, rows = _balls(ch, c), list(map(ch._code_row, ch.codewords))
        held = Counter(chain.from_iterable(balls))
        shared = next(code for code in chain.from_iterable(rows) if held[code] > 1)
        a = _solution(_row_weights(rows, ch._weight_order()[1], shared))[1]
        b = next(j for j, ball in enumerate(balls) if j != a and shared in ball)
        raise InvalidDecoderError(
            f"radius-{c} balls of {ch.codewords[a]!r} and {ch.codewords[b]!r} "
            f"intersect at {ch._codec().decode(shared)!r}; bounded decoding is "
            "undefined at this radius")
    if not ch.outputs.contains(y):
        return DETECTED
    owner = _ball_owner(_balls(ch, c), ch._codec().encode(y))
    return DETECTED if owner is None else DecodeOutcome(ch.codewords[owner])


def is_correctable(ch: Channel, z) -> bool:
    """Does minimum weight decoding recover every transmission under z?

    Each F(x_i, z) is read at z's row position and decoded by MWD's rule,
    on the codewords' W_j for it, looked up in their reach maps.
    """
    if not ch.errors.space.contains(z):
        raise ValueError(f"{z!r} is not in the error space")
    at = _row_position(ch, z)
    lookups = [_reach(ch, j).get for j in range(len(ch.codewords))]
    return all(_mwd_owner(get(ch._code_row(x)[at]) for get in lookups) == i
               for i, x in enumerate(ch.codewords))


def is_detectable(ch: Channel, z) -> bool:
    """Is z never mistaken for a different codeword's clean output?

    Each F(x_i, z) is read at z's row position and decided on the radius-0
    balls, as MWD(0) does.  They are the clean outputs, which
    construction keeps apart, so MWD(0) is always defined.
    """
    if not ch.errors.space.contains(z):
        raise ValueError(f"{z!r} is not in the error space")
    if z == ch.errors.space.zero():
        raise ValueError("detectability is defined for nonzero errors only")
    balls, at = _balls(ch, 0), _row_position(ch, z)
    return all(_ball_owner(balls, ch._code_row(x)[at]) in (None, i)
               for i, x in enumerate(ch.codewords))


@dataclass(frozen=True)
class CapabilityReport:
    """How many errors the code corrects and detects, plus joint verdicts.

    ``max_correctable``/``max_detectable`` are one below the least weight
    of an uncorrectable / undetectable error, read off the reach maps.
    ``all_correctable`` flags codes that correct the entire error space.
    ``joint`` maps (c, c') to the joint error-correction verdict
    d2_min[c] >= c'+1 on a small grid.
    """

    max_correctable: int
    max_detectable: int
    all_correctable: bool
    all_detectable: bool
    joint: dict

    def to_dict(self) -> dict:
        return {
            "max_correctable": self.max_correctable,
            "max_detectable": self.max_detectable,
            "all_correctable": self.all_correctable,
            "all_detectable": self.all_detectable,
            "joint": {f"{c},{cp}": v for (c, cp), v in sorted(self.joint.items())},
        }


def capability(ch: Channel, joint_grid: tuple[int, int] | None = None) -> CapabilityReport:
    """Capabilities read off the reach maps alone: no row, no ball.

    An error of weight w is uncorrectable iff it moves some codeword onto
    a word another codeword reaches at weight at most w, that is into two
    radius-w balls.  So the least uncorrectable weight is the least
    second-smallest W_i(y) over the words y that two codewords reach: the
    least radius at which the balls meet.  An undetectable one lands on
    another codeword's clean output, so the least undetectable weight is
    the least W_i of another codeword's clean code.  The capabilities
    must equal floor((d0_min - 1)/2) and d1_min - 1 wherever those minima
    are finite, else :class:`InternalConsistencyError` is raised.
    """
    if joint_grid is not None and min(joint_grid) < 0:
        raise ValueError("joint grid bounds must be nonnegative")
    reaches = [_reach(ch, i) for i in range(len(ch.codewords))]
    # least uncorrectable weight: the least radius c at which a word lies
    # within c of two codewords.  Reach maps iterate in nondecreasing
    # weight, so radius c adds each map's weight-c shell to the union of
    # the balls; the balls meet once the union is smaller than their sizes
    shells = [(list(reach), list(reach.values())) for reach in reaches]
    bad_c, union, held = ch.w_max + 1, set(), 0
    for c in range(ch.w_max + 1):
        for words, weights in shells:
            lo, hi = bisect_left(weights, c), bisect_right(weights, c)
            union.update(words[lo:hi])
            held += hi - lo
        if len(union) < held:
            bad_c = c
            break
    # least undetectable weight: the least W_i of another codeword's clean code
    clean = [ch._codec().encode(ch.zero_output(x)) for x in ch.codewords]
    bad_d = ch.w_max + 1
    for own, reach in zip(clean, reaches):
        hits = reach.keys() & clean
        hits.discard(own)
        bad_d = min(bad_d, min(map(reach.__getitem__, hits), default=bad_d))
    t_c, t_d = bad_c - 1, bad_d - 1

    report = minimum_distances(ch)
    if is_finite(report.d0_min) and t_c != (int(report.d0_min) - 1) // 2:
        raise InternalConsistencyError(
            f"correction capability {t_c} disagrees with "
            f"floor((d0_min-1)/2) = {(int(report.d0_min) - 1) // 2}")
    if is_finite(report.d1_min) and t_d != int(report.d1_min) - 1:
        raise InternalConsistencyError(
            f"detection capability {t_d} disagrees with d1_min-1 = "
            f"{int(report.d1_min) - 1}")

    if joint_grid is None:
        taus = [t for t in report.tau.values() if t is not None]
        hi = min(ch.w_max, max(taus + [t_c, t_d, 1]) + 1)
        joint_grid = (hi, hi)
    joint = {}
    for c in range(joint_grid[0] + 1):
        for cp in range(joint_grid[1] + 1):
            joint[(c, cp)] = is_joint_correcting(ch, c, cp)
    return CapabilityReport(t_c, t_d, bad_c > ch.w_max, bad_d > ch.w_max, joint)


def is_joint_correcting(ch: Channel, c: int, cprime: int) -> bool:
    """(c, c') joint error-correction verdict: d2_min[c] >= c' + 1.

    ``d2_min_refined`` stops at the largest tau = floor((d0+1)/2), and
    reading its last entry for larger c is exact: a finite pair's meet
    radius m[c] is at most c from its own tau on, so its d2[c] is 0 there,
    while a pair with infinite d0 has infinite d2[c] at every c (a code
    with no finite pair stores ``(INFINITE,)``).
    """
    if c < 0 or cprime < 0:
        raise ValueError("radii must be nonnegative")
    refined = minimum_distances(ch).d2_min_refined
    return refined[min(c, len(refined) - 1)] >= cprime + 1
