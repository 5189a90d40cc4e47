"""Minimum weight decoding and code capability classification.

A decoder reads one received word off the codewords' transfer rows, which
run in nondecreasing error weight (see :mod:`gnetcode.distances`); it
builds no table of every reached word.  The word is encoded once, at the
boundary; a word outside the output space has no code and no solution,
so it is detected.  For y's code the rows give ``(least, owner,
runner_up)``: the least W_i(y) = min{wt(z) : F(x_i, z) = y}, which is the
weight at y's first position in x_i's row, the lowest codeword index
attaining it, and the least W_j(y) over the other codewords (INFINITE if
none reaches y), so a tie shows as ``runner_up == least``.  MWD decodes y
to its owner iff ``least < runner_up``, otherwise (also for an unreached
word, possible for non-surjective table channels) it declares a
detection.  The bounded variant MWD(c) is defined only when the radius-c
balls {y : W_i(y) <= c}, cached per radius, are pairwise disjoint, that
is when their union is as large as the sum of their sizes; then it decodes
y to the codeword whose ball holds it.

:func:`capability` and the per-error predicates read one solution index,
built once per channel in one pass over the reach maps: each reached
word's code -> its ``(least, owner, runner_up)``.  An error z is
correctable when x_i alone attains F(x_i, z) at its least weight, for
every codeword x_i.  It is detectable when the received word never lands
on a *different* codeword's weight-0 solution (its clean output), so the
radius-0 decoder either flags the error or returns x_i unchanged;
nonlinear node maps can swallow an error entirely.  Both verdicts depend
on z only through (x_i, F(x_i, z)), so :func:`capability` reads the least
failing weights off the index: the least runner-up over all words and
over the clean outputs.  A code corrects c errors while detecting c' more
exactly when the refined joint minimum d2_min[c] is at least c'+1, so
:func:`is_joint_correcting` reads that one memoized column of
:func:`gnetcode.distances.minimum_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Channel
from .distances import INFINITE, _balls, _reach, minimum_distances, is_finite


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


def _solution_index(ch: Channel) -> tuple[dict, float]:
    """(index, least runner-up): the index maps y's code -> (least solution
    weight, lowest codeword index attaining it, least weight over the other
    codewords or INFINITE), and the least runner-up is the least third
    entry over the whole index.  Built once per channel.
    """
    cached = ch._cache.get("solution_index")
    if cached is None:
        index = {}
        for xi in range(len(ch.codewords)):
            for y, w in _reach(ch, xi).items():
                got = index.get(y)
                if got is None:
                    index[y] = (w, xi, INFINITE)
                elif w < got[0]:
                    index[y] = (w, xi, got[0])
                elif w < got[2]:
                    index[y] = (got[0], got[1], w)
        cached = ch._cache["solution_index"] = (index, min(got[2] for got in index.values()))
    return cached


def _solution(rows: list, weights: list, code: int):
    """(least, owner, runner_up) of one output code, read off the codewords'
    code rows and the weights of their positions; None if no row holds it.
    A codeword's least weight for the code is the weight at its first
    position in the row, since rows run in nondecreasing weight.
    """
    least = runner_up = INFINITE
    owner = None
    for xi, row in enumerate(rows):
        try:
            w = weights[row.index(code)]
        except ValueError:
            continue
        if w < least:
            least, owner, runner_up = w, xi, least
        elif w < runner_up:
            runner_up = w
    return None if owner is None else (least, owner, runner_up)


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
    got = _solution(rows, ch._weight_order()[1], ch._codec().encode(y))
    if got is None or got[0] == got[2]:
        return DETECTED
    return DecodeOutcome(ch.codewords[got[1]])


def mwd_bounded(ch: Channel, c: int, y) -> DecodeOutcome:
    """Bounded-distance decoding over disjoint radius-c balls.

    After a negative radius is rejected, every codeword's row is built
    into its radius-c ball; then the radius is checked
    (:class:`InvalidDecoderError` if two balls meet); then a word outside
    the output space is detected; then y decodes to the ball holding it.
    """
    if c < 0:
        raise ValueError("radius must be nonnegative")
    balls = _balls(ch, c)
    if len(frozenset().union(*balls)) < sum(map(len, balls)):
        index, _ = _solution_index(ch)
        shared = next(code for code, got in index.items() if got[2] <= c)
        a = index[shared][1]
        b = next(j for j in range(len(ch.codewords))
                 if j != a and _reach(ch, j).get(shared, INFINITE) <= c)
        raise InvalidDecoderError(
            f"radius-{c} balls of {ch.codewords[a]!r} and {ch.codewords[b]!r} "
            f"intersect at {ch._codec().decode(shared)!r}; bounded decoding is "
            "undefined at this radius")
    if not ch.outputs.contains(y):
        return DETECTED
    code = ch._codec().encode(y)
    return next((DecodeOutcome(x) for x, ball in zip(ch.codewords, balls) if code in ball),
                DETECTED)


def is_correctable(ch: Channel, z) -> bool:
    """Does minimum weight decoding recover every transmission under z?"""
    if not ch.errors.space.contains(z):
        raise ValueError(f"{z!r} is not in the error space")
    # F(x, z) is reachable from x, so MWD returns x iff x alone attains it
    index, encode = _solution_index(ch)[0], ch._codec().encode
    for xi, x in enumerate(ch.codewords):
        least, owner, runner_up = index[encode(ch._transfer(x, z))]
        if owner != xi or least == runner_up:
            return False
    return True


def is_detectable(ch: Channel, z) -> bool:
    """Is z never mistaken for a different codeword's clean output?"""
    if not ch.errors.space.contains(z):
        raise ValueError(f"{z!r} is not in the error space")
    if z == ch.errors.space.zero():
        raise ValueError("detectability is defined for nonzero errors only")
    index, encode = _solution_index(ch)[0], ch._codec().encode
    for xi, x in enumerate(ch.codewords):
        least, owner, _ = index[encode(ch._transfer(x, z))]
        if least == 0 and owner != xi:  # another codeword's clean output
            return False
    return True


@dataclass(frozen=True)
class CapabilityReport:
    """How many errors the code corrects and detects, plus joint verdicts.

    ``max_correctable``/``max_detectable`` are one below the least weight
    of an uncorrectable / undetectable error, read off the solution index.
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
    """Capabilities read off the solution index.

    An uncorrectable error of least weight lands on a word y at y's
    runner-up weight, so the least uncorrectable weight is the least
    runner-up over the index.  An undetectable one lands on a codeword's
    clean output, so the least undetectable weight is the least runner-up
    over the clean outputs.  The capabilities must equal
    floor((d0_min - 1)/2) and d1_min - 1 wherever those minima are finite,
    else :class:`InternalConsistencyError` is raised.
    """
    if joint_grid is not None and min(joint_grid) < 0:
        raise ValueError("joint grid bounds must be nonnegative")
    index, least_runner_up = _solution_index(ch)
    encode = ch._codec().encode
    # least uncorrectable / undetectable weight
    bad_c = min(ch.w_max + 1, least_runner_up)
    bad_d = min(ch.w_max + 1, *(index[encode(ch.zero_output(x))][2] for x in ch.codewords))
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
