"""Minimum weight decoding and code capability classification.

Every verdict here is read off the codewords' reach maps (see
:mod:`gnetcode.distances`), y -> W_i(y), the least weight of an error z
with F(x_i, z) = y, in nondecreasing weight, keyed by y's integer code.
The minimum weight decoder folds them into one solution index, y -> the
least W_i(y) and the codewords attaining it.  It decodes to a sole such
codeword, otherwise (also when no solution exists, possible for
non-surjective table channels) declares a detection.  A received word is
encoded once, at the boundary; a word outside the output space has no
code and no solution, so it is detected too.  The bounded variant MWD(c)
decodes inside the radius-c balls {y : W_i(y) <= c} and is only defined
when those balls are pairwise disjoint.

An error z is correctable when x_i alone attains F(x_i, z) at its least
weight, for every codeword x_i.  It is detectable when the received word
never lands on a *different* codeword's weight-0 solution (its clean
output), so the radius-0 decoder either flags the error or returns x_i
unchanged; nonlinear node maps can swallow an error entirely.  Both
verdicts depend on z only through (x_i, F(x_i, z)), so :func:`capability`
reads the least failing weights off the reach maps.  A code corrects c
errors while detecting c' more exactly when the refined joint minimum
d2_min[c] is at least c'+1, so :func:`is_joint_correcting` reads that one
memoized column of :func:`gnetcode.distances.minimum_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Channel
from .distances import _reach, minimum_distances, is_finite


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


def _solution_index(ch: Channel) -> dict:
    """y's code -> (minimum solution weight, codeword indices attaining it)."""
    index = ch._cache.get("solution_index")
    if index is None:
        index = {}
        for xi in range(len(ch.codewords)):
            for y, w in _reach(ch, xi).items():
                best = index.get(y)
                if best is None or w < best[0]:
                    index[y] = (w, {xi})
                elif w == best[0]:
                    best[1].add(xi)
        ch._cache["solution_index"] = index
    return index


def mwd(ch: Channel, y) -> DecodeOutcome:
    """Minimum weight decoding of a received word.

    A word outside the output space has no solution, so it is detected.
    """
    index = _solution_index(ch)
    if not ch.outputs.contains(y):
        return DETECTED
    best = index.get(ch._codec().encode(y))
    if best is None or len(best[1]) != 1:
        return DETECTED
    return DecodeOutcome(ch.codewords[next(iter(best[1]))])


def _bounded_map(ch: Channel, c: int) -> dict:
    """y's code -> codeword index map of the radius-c balls; errors if they overlap."""
    maps = ch._cache.setdefault("bounded_maps", {})
    got = maps.get(c)
    if got is None:
        got = {}
        for xi in range(len(ch.codewords)):
            for y, w in _reach(ch, xi).items():
                if w > c:
                    break
                other = got.get(y)
                if other is not None and other != xi:
                    raise InvalidDecoderError(
                        f"radius-{c} balls of {ch.codewords[other]!r} and "
                        f"{ch.codewords[xi]!r} intersect at "
                        f"{ch._codec().decode(y)!r}; bounded decoding is "
                        "undefined at this radius")
                got[y] = xi
        maps[c] = got
    return got


def mwd_bounded(ch: Channel, c: int, y) -> DecodeOutcome:
    """Bounded-distance decoding over disjoint radius-c balls."""
    if c < 0:
        raise ValueError("radius must be nonnegative")
    balls = _bounded_map(ch, c)
    if not ch.outputs.contains(y):
        return DETECTED
    xi = balls.get(ch._codec().encode(y))
    return DETECTED if xi is None else DecodeOutcome(ch.codewords[xi])


def is_correctable(ch: Channel, z) -> bool:
    """Does minimum weight decoding recover every transmission under z?"""
    if not ch.errors.space.contains(z):
        raise ValueError(f"{z!r} is not in the error space")
    # F(x, z) is reachable from x, so MWD returns x iff x alone attains it
    index, encode = _solution_index(ch), ch._codec().encode
    return all(index[encode(ch._transfer(x, z))][1] == {xi}
               for xi, x in enumerate(ch.codewords))


def is_detectable(ch: Channel, z) -> bool:
    """Is z never mistaken for a different codeword's clean output?"""
    if not ch.errors.space.contains(z):
        raise ValueError(f"{z!r} is not in the error space")
    if z == ch.errors.space.zero():
        raise ValueError("detectability is defined for nonzero errors only")
    index, encode = _solution_index(ch), ch._codec().encode
    for xi, x in enumerate(ch.codewords):
        least, owners = index[encode(ch._transfer(x, z))]
        if least == 0 and owners != {xi}:  # another codeword's clean output
            return False
    return True


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
    """Capabilities from one pass over each codeword x_i's reach map.

    The least uncorrectable weight is the least W_i(y) over the words y
    that x_i alone does not attain at their least solution weight; the
    least undetectable weight takes only those whose least solution weight
    is 0.  A map runs in weight order, so its pass stops at the least
    undetectable weight found so far.  The capabilities must equal
    floor((d0_min - 1)/2) and d1_min - 1 wherever those minima are finite,
    else :class:`InternalConsistencyError` is raised.
    """
    if joint_grid is not None and min(joint_grid) < 0:
        raise ValueError("joint grid bounds must be nonnegative")
    index = _solution_index(ch)
    bad_c = bad_d = ch.w_max + 1  # least uncorrectable / undetectable weight
    for xi in range(len(ch.codewords)):
        mine = {xi}
        for y, w in _reach(ch, xi).items():
            if w >= bad_d:
                break
            least, owners = index[y]
            if owners != mine:
                bad_c = min(bad_c, w)
                if least == 0:
                    bad_d = w
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
