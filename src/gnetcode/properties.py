"""Mechanical verification of the distance theorems on a concrete channel.

Every check quantifies exhaustively over codeword pairs (and triples for
the metric axioms) and returns verdicts rather than raising, all by one
rule (:func:`_verdict`): ``not-applicable`` exactly when no instance meets
the claim's hypotheses (a nonlinear channel for the linear-collapse suite,
infinite distances for threshold claims), else ``fail`` with the first
counterexample in instance order (on a channel satisfying the hypotheses
this is an implementation bug, never a refutation), else ``pass``.

``run_all`` aggregates the bound checks, the refined-distance identities,
the error-linear collapse suite, the metric reports, the two sufficient
conditions for distance collapse, the decoder sufficiency checks, and the
weight axioms into one deterministic ledger.  Each fact is read from one
place: d2[c] from the distance report's rows, the metric axioms from its
memo of :func:`check_metric`, the capabilities from one capability scan.

Per-pair claims are judged once per distinct pair key, a pair's entry
(d0, d1, d2, tau, cstar, meet table) with its reverse's: pairs of one
key read the same values, so a claim scans the first pair of each key
(:func:`_key_pairs`, built once per report), and the first failing one
is its first failing pair.  Equal distance matrices share one metric
scan, so an error-linear channel's d0 = d1 = d2 is scanned once.

The module also provides seeded random channel generators (table-defined
and linear matrix channels); the general claims hold for *all* channels,
so randomized instances are legitimate regression tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field, replace
from operator import add, itemgetter, sub

from .field import Field
from . import matrices as mx
from .channel import Channel, ChannelClass, classify, matrix_channel, table_channel
from .weights import (WeightMeasure, HAMMING, RANK, SUM_RANK,
                      verify_rank_axioms, verify_separable_axioms)
from .distances import is_finite, minimum_distances, DistanceReport
from . import decoder as dec

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class TheoremVerdict:
    check: str
    status: str
    detail: str = ""
    counterexample: tuple | None = None


@dataclass(frozen=True)
class MetricReport:
    """Axiom-by-axiom verdicts for one distance viewed as a metric."""

    distance: str
    nonnegativity: TheoremVerdict
    symmetry: TheoremVerdict
    triangle: TheoremVerdict

    @property
    def verdicts(self) -> list[TheoremVerdict]:
        return [self.nonnegativity, self.symmetry, self.triangle]

    @property
    def all_pass(self) -> bool:
        return all(v.status == PASS for v in self.verdicts)


def _verdict(check: str, instances, failures, detail: str = "",
             why: str | None = None) -> TheoremVerdict:
    """The ledger's one verdict rule.

    ``instances`` are what the claim quantifies over once its hypotheses
    hold (pairs, radii, minima); with none the claim is not-applicable,
    for the reason ``why`` when given.  Otherwise it fails with the first
    counterexample of ``failures``, a lazy scan in instance order, and
    passes when the scan yields none.

    A per-pair claim quantifies over pairs but is judged once per distinct
    pair key (see :func:`_key_pairs`): its instances and failures scan the
    first pair of each key, in pair order.  Pairs of one key carry every
    value a claim reads, so they pass or fail together, and the first
    failing key's first pair is the first failing pair.
    """
    if not instances:
        return TheoremVerdict(check, NOT_APPLICABLE,
                              why or f"{detail}; no pair satisfies the hypotheses")
    first = next(iter(failures), None)
    if first is not None:
        return TheoremVerdict(check, FAIL, detail, tuple(first))
    return TheoremVerdict(check, PASS, detail)


def _key_pairs(report: DistanceReport) -> tuple[list, list]:
    """The first pair of each distinct pair key, in pair order: over every
    pair, and over the pairs i < j.  Built once per report.

    A pair's key is its entry and its reverse's, an entry being (d0, d1,
    d2, tau, cstar, meet table); the meet table stands for the refined row
    built from it.  Every per-pair claim reads no more than that, so it is
    decided on these pairs alone.  Entries are numbered first, so a key is
    a pair of numbers.  Memoized on the report, so an altered copy
    (``dataclasses.replace``) keys its own values.
    """
    if report._keys is None:
        pairs = report.pairs()
        numbers = {}
        entries = [numbers.setdefault(e, len(numbers)) for e in zip(*(
            map(t.__getitem__, pairs) for t in (report.d0, report.d1, report.d2,
                                                report.tau, report.cstar, report.meets)))]
        reverse = zip(map(itemgetter(1), pairs), map(itemgetter(0), pairs))
        keys = list(zip(entries, map(dict(zip(pairs, entries)).__getitem__, reverse)))
        upper = [i < j for (i, j) in pairs]
        report._keys = (_firsts(keys, pairs), _firsts(list(itertools.compress(keys, upper)),
                                                      list(itertools.compress(pairs, upper))))
    return report._keys


def _firsts(keys: list, pairs: list) -> list:
    """Each distinct key's first pair, in pair order."""
    first = dict(zip(reversed(keys), reversed(pairs)))
    return list(map(first.__getitem__, dict.fromkeys(keys)))


def _balanced_split(report: DistanceReport) -> list:
    """((i, j), d2[cstar], d2[cstar] of (j, i)) per key of the pairs i < j
    with a defined cstar."""
    refined = report.refined_rows()
    return [((i, j), refined[i, j][cs], refined[j, i][cs])
            for (i, j) in _key_pairs(report)[1]
            if (cs := report.cstar[i, j]) is not None]


def _even_sums(row: list, hi: int):
    """2c + d2[c] for c = 0..hi, off one refined row."""
    return map(add, range(0, 2 * hi + 1, 2), row)


def check_bounds(ch: Channel, report: DistanceReport | None = None) -> list[TheoremVerdict]:
    """Bounds tying the detection and joint distances to the correction one."""
    report = report or minimum_distances(ch)
    d0, d1, d2 = report.d0, report.d1, report.d2
    pairs = _key_pairs(report)[0]
    finite = [(i, j) for (i, j) in pairs if is_finite(d0[i, j])]
    minima = [report.d0_min] if is_finite(report.d0_min) else []
    return [
        _verdict("detection-floor-bound", finite,
                 ((i, j, d1[i, j], d0[i, j]) for (i, j) in finite
                  if d1[i, j] < d0[i, j] // 2 + 1),
                 "d1 >= floor(d0/2)+1 per pair"),
        _verdict("joint-under-correction", pairs,
                 ((i, j) for (i, j) in pairs if d0[i, j] < d2[i, j]), "d0 >= d2 per pair"),
        _verdict("joint-under-detection", pairs,
                 ((i, j) for (i, j) in pairs if d1[i, j] < d2[i, j]), "d1 >= d2 per pair"),
        _verdict("joint-halving-bound", finite,
                 ((i, j, d2[i, j], d0[i, j]) for (i, j) in finite
                  if d2[i, j] < -(-int(d0[i, j]) // 2)),
                 "d2 >= ceil(d0/2) per pair"),
        _verdict("min-detection-floor-bound", minima,
                 ((report.d1_min, m) for m in minima if report.d1_min < int(m) // 2 + 1),
                 "d1_min >= floor(d0_min/2)+1", why="d0_min is infinite"),
        _verdict("min-joint-bounds", minima,
                 ((m, report.d2_min) for m in minima
                  if not (m >= report.d2_min >= -(-int(m) // 2))),
                 "d0_min >= d2_min >= ceil(d0_min/2)", why="d0_min is infinite"),
    ]


def check_refined(ch: Channel, report: DistanceReport | None = None) -> list[TheoremVerdict]:
    """Identities satisfied by the refined joint distance."""
    report = report or minimum_distances(ch)
    refined = report.refined_rows()
    d1, tau = report.d1, report.tau
    pairs, upper = _key_pairs(report)

    probed = {}
    for (i, j) in pairs:
        probe = tau[i, j] + 1 if tau[i, j] is not None else min(ch.w_max, 2)
        probed[i, j] = refined[i, j][:probe + 1]

    def from_refined(i, j):
        hi = tau[i, j] if tau[i, j] is not None else min(ch.w_max, 2)
        return min(min(_even_sums(refined[i, j], hi)), min(_even_sums(refined[j, i], hi)))

    thresholds = [(i, j, tau[i, j]) for (i, j) in pairs if tau[i, j] is not None]
    split = _balanced_split(report)
    bests = [min(2 * c + v for c, v in enumerate(report.d2_min_refined))]
    return [
        _verdict("refined-equals-detection-at-zero", pairs,
                 ((i, j, refined[i, j][0], d1[i, j]) for (i, j) in pairs
                  if refined[i, j][0] != d1[i, j]),
                 "d2[0] == d1 per pair"),
        _verdict("refined-at-most-detection", probed,
                 ((i, j, next(c for c, v in enumerate(values) if v > d1[i, j]))
                  for (i, j), values in probed.items() if max(values) > d1[i, j]),
                 "d2[c] <= d1 per pair"),
        _verdict("refined-nonincreasing", probed,
                 ((i, j, tuple(values)) for (i, j), values in probed.items()
                  if any(a < b for a, b in zip(values, values[1:]))),
                 "d2[c] nonincreasing in c per pair"),
        _verdict("refined-zero-threshold", thresholds,
                 ((i, j, c, t) for i, j, t in thresholds
                  for c in range(min(t + 1, ch.w_max) + 1)
                  if (refined[i, j][c] == 0) != (c >= t)),
                 "d2[c] == 0 exactly when c >= tau"),
        _verdict("balanced-split-parity", split,
                 ((i, j, fwd, bwd) for (i, j), fwd, bwd in split
                  if ((fwd, bwd) != (0, 0) if int(report.d0[i, j]) % 2 == 0
                      else min(fwd, bwd) != 1)),
                 "d2[cstar]: both zero for even d0, min one for odd"),
        _verdict("balanced-split-identity", split,
                 ((i, j, total, report.d0[i, j]) for (i, j), *v in split
                  if (total := 2 * report.cstar[i, j] + min(v)) != report.d0[i, j]),
                 "2*cstar + min(d2[cstar], both orders) == d0"),
        _verdict("joint-from-refined", upper,
                 ((i, j, best, report.d2[i, j]) for (i, j) in upper
                  if (best := from_refined(i, j)) != report.d2[i, j]),
                 "d2 == min over both orders of min_c {2c + d2[c]}"),
        _verdict("min-joint-from-refined", bests,
                 ((b, report.d2_min) for b in bests if b != report.d2_min),
                 "d2_min == min_c {2c + d2_min[c]}"),
    ]


def check_metric(ch: Channel, which: str,
                 report: DistanceReport | None = None) -> MetricReport:
    """Exhaustive metric axioms for one of the distances d0, d1, d2.

    Requires finite distances; with any infinite entry the axioms are
    reported not-applicable (the distance is not real-valued there).  The
    n x n distance matrix is built once.  Its diagonal is zero, so
    nonnegativity and symmetry read pair entries alone and scan one pair
    per pair key (see :func:`_key_pairs`).  The triangle axiom fails at
    (i, j) exactly when some k has d(i, k) - d(j, k) > d(i, j), so each
    (i, j) costs one C-level scan of two matrix rows, and k is searched
    only for the first failing (i, j): the counterexample is the
    lexicographically first failing triple (i, j, k).  Memoized per
    distance on the report, so an altered copy is scanned afresh.  Equal
    distance tables share one scan: a distance whose table equals an
    already scanned one takes its verdicts under its own check names, so
    on an error-linear channel d0, d1 and d2 cost one scan.
    """
    report = report or minimum_distances(ch)
    memo = report._metrics
    if which in memo:
        return memo[which]
    tables = {"d0": report.d0, "d1": report.d1, "d2": report.d2}
    table = tables[which]
    twin = next((memo[w] for w in memo if tables[w] == table), None)
    if twin is not None:
        prefix = len(f"metric-{twin.distance}")
        result = MetricReport(which, *(replace(v, check=f"metric-{which}{v.check[prefix:]}")
                                       for v in twin.verdicts))
    elif not all(map(is_finite, table.values())):
        na = _verdict(f"metric-{which}", (), (), why="infinite distances")
        result = MetricReport(which, na, na, na)
    else:
        n = len(ch.codewords)
        dist = [[0 if i == j else table[i, j] for j in range(n)] for i in range(n)]
        pairs = _key_pairs(report)[0]
        result = MetricReport(
            which,
            _verdict(f"metric-{which}-nonnegativity", dist,
                     ((i, j) for (i, j) in pairs if table[i, j] <= 0),
                     "zero exactly on the diagonal"),
            _verdict(f"metric-{which}-symmetry", pairs,
                     ((i, j) for (i, j) in pairs if table[i, j] != table[j, i]),
                     "d(x,y) == d(y,x)"),
            _verdict(f"metric-{which}-triangle", dist,
                     ((i, j, k) for i, di in enumerate(dist) for j, dj in enumerate(dist)
                      if max(map(sub, di, dj)) > di[j]
                      for k in range(n) if di[j] + dj[k] < di[k]),
                     "d(x,z) <= d(x,y) + d(y,z)"))
    memo[which] = result
    return result


def _metric_failures(ch: Channel, report: DistanceReport, names):
    """(distance, counterexample) for each failing metric axiom of the named
    distances, lazily: a distance's metric report is read only when reached."""
    return ((which, v.counterexample) for which in names
            for v in check_metric(ch, which, report).verdicts if v.status == FAIL)


def check_error_linear_suite(ch: Channel, report: DistanceReport | None = None,
                             classification: ChannelClass | None = None
                             ) -> list[TheoremVerdict]:
    """Distance collapse and metric structure of error-linear channels.

    The constant-sum identity 2c + d2[c] == d2 is asserted for
    0 <= c <= cstar; at c = tau it fails for odd d0 (the radius-tau ball
    pair already intersects, making d2[tau] = 0 while 2*tau = d0 + 1).
    """
    classification = classification or classify(ch)
    if not classification.error_linear:
        why = f"channel is not error-linear (witness: {classification.witness!r})"
        return [_verdict(name, (), (), why=why) for name in (
            "correction-equals-detection", "all-distances-coincide", "metric-d0",
            "metric-d1", "metric-d2", "refined-constant-sum", "min-refined-constant-sum")]
    report = report or minimum_distances(ch)
    refined = report.refined_rows()
    d0, d1, d2 = report.d0, report.d1, report.d2
    pairs = _key_pairs(report)[0]
    out = [
        _verdict("correction-equals-detection", pairs,
                 ((i, j, d0[i, j], d1[i, j]) for (i, j) in pairs if d0[i, j] != d1[i, j]),
                 "d0 == d1 per pair"),
        _verdict("all-distances-coincide", pairs,
                 ((i, j) for (i, j) in pairs if not d0[i, j] == d1[i, j] == d2[i, j]),
                 "d0 == d1 == d2 per pair"),
    ]
    for which in ("d0", "d1", "d2"):
        axioms = [v for v in check_metric(ch, which, report).verdicts
                  if v.status != NOT_APPLICABLE]
        out.append(_verdict(f"metric-{which}", axioms,
                            (v.counterexample for v in axioms if v.status == FAIL),
                            "nonnegativity, symmetry, triangle", why="infinite distances"))

    balanced = [(i, j, cs) for (i, j) in pairs if (cs := report.cstar[i, j]) is not None]
    minima = [report.d2_min] if is_finite(report.d2_min) else []
    out.append(_verdict("refined-constant-sum", balanced,
                        ((i, j, c) for i, j, cs in balanced for c in range(cs + 1)
                         if 2 * c + refined[i, j][c] != d2[i, j]),
                        "2c + d2[c] == d2 for c <= cstar per pair"))
    out.append(_verdict("min-refined-constant-sum", minima,
                        ((c,) for m in minima for c in range(int(m) // 2 + 1)
                         if 2 * c + report.d2_min_refined[c] != m),
                        "2c + d2_min[c] == d2_min for c <= floor(d2_min/2)",
                        why="d2_min is infinite"))
    return out


def check_conditions(ch: Channel, report: DistanceReport | None = None,
                     classification: ChannelClass | None = None
                     ) -> list[TheoremVerdict]:
    """The two sufficient conditions for distance collapse, and their links.

    The relation condition asks d2 == 2*cstar + d2[cstar] == d1 per pair;
    the function condition asks d2[cstar] <= 1 with g(c) = 2c + d2[c]
    minimized at both c = 0 and c = cstar.  When one holds on every pair
    its collapse conclusion is asserted; the function condition must imply
    the relation condition; and an error-linear channel must satisfy both.
    """
    report = report or minimum_distances(ch)
    classification = classification or classify(ch)
    refined = report.refined_rows()
    d0, d1, d2 = report.d0, report.d1, report.d2
    pairs = _key_pairs(report)[0]

    # On pairs whose balls never intersect the conditions reference an
    # undefined cstar, so those pairs are left out; the quantified claims
    # below become not-applicable when any such pair exists.
    relation, function = {}, {}
    for (i, j) in pairs:
        cs, tau = report.cstar[i, j], report.tau[i, j]
        if cs is None:
            continue
        mid = refined[i, j][cs]
        relation[i, j] = (d2[i, j] == 2 * cs + mid == d1[i, j])
        g = list(_even_sums(refined[i, j], tau))
        function[i, j] = (mid <= 1 and g[0] == g[cs] == min(g))
    defined = len(relation) == len(pairs)
    not_evaluable = "some pair has no intersecting balls, so the condition is undefined"

    def holding(name: str, condition: dict):
        """Every pair when the condition holds on all of them, else none and why not."""
        if not defined:
            return [], not_evaluable
        if not all(condition.values()):
            return [], f"{name} condition does not hold on every pair"
        return pairs, None

    def collapse(held):
        return itertools.chain(
            ((i, j) for (i, j) in held if not d0[i, j] == d1[i, j] == d2[i, j]),
            _metric_failures(ch, report, ("d0", "d1", "d2")))

    split = _balanced_split(report)
    by_relation, relation_why = holding("relation", relation)
    by_function, function_why = holding("function", function)
    linear = pairs if classification.error_linear and defined else []
    equal = all(d1[i, j] == d2[i, j] and is_finite(d1[i, j]) for (i, j) in pairs)
    return [
        _verdict("refined-symmetry-equivalence", split,
                 ((i, j, fwd, bwd) for (i, j), fwd, bwd in split
                  if (fwd <= 1 and bwd <= 1) != (fwd == bwd)),
                 "both d2[cstar] <= 1 iff the two orders agree"),
        _verdict("relation-condition-collapse", by_relation, collapse(by_relation),
                 "relation condition holds on every pair, so the distances coincide "
                 "and are metrics", why=relation_why),
        _verdict("function-condition-collapse", by_function, collapse(by_function),
                 "function condition holds on every pair, so the distances coincide "
                 "and are metrics", why=function_why),
        _verdict("function-implies-relation", by_function,
                 ((i, j) for (i, j) in by_function if not relation[i, j]),
                 "the function condition implies the relation condition", why=function_why),
        _verdict("error-linear-satisfies-conditions", linear,
                 ((i, j, relation[i, j], function[i, j]) for (i, j) in linear
                  if not (relation[i, j] and function[i, j])),
                 "an error-linear channel satisfies both conditions",
                 why=not_evaluable if classification.error_linear
                 else "channel is not error-linear"),
        _verdict("equal-distances-are-metrics", pairs if equal else [],
                 _metric_failures(ch, report, ("d1", "d2")),
                 "d1 == d2 on every pair forces both to be metrics",
                 why="d1 and d2 differ on some pair (or are infinite)"),
    ]


def check_decoders(ch: Channel, report: DistanceReport | None = None
                   ) -> list[TheoremVerdict]:
    """Decoder guarantees implied by the distance minima.

    A capability is one below the least weight of a failing error, so
    every error up to weight thr passes exactly when the capability is at
    least thr.  A failure's counterexample is (capability, thr).
    """
    report = report or minimum_distances(ch)
    cap = dec.capability(ch, joint_grid=(0, 0))
    t_c, t_d = cap.max_correctable, cap.max_detectable
    decoded = ((x, dec.mwd_bounded(ch, 0, ch.zero_output(x))) for x in ch.codewords)
    correct = [(int(report.d0_min) - 1) // 2 if is_finite(report.d0_min) else ch.w_max]
    detect = [int(report.d1_min) - 1 if is_finite(report.d1_min) else ch.w_max]
    grid = range(min(ch.w_max, 3) + 1)
    sufficient = [(c, cp) for c in grid for cp in grid if report.d2_min >= 2 * c + cp + 1]
    extremes = [("correct", t_c, (t_c, 0)), ("detect", t_d, (0, t_d))]
    return [
        _verdict("radius-zero-decoding", ch.codewords,
                 ((x, got) for x, got in decoded if got.codeword != x),
                 "the radius-0 decoder returns every cleanly received codeword"),
        _verdict("half-distance-correctable", correct,
                 ((t_c, thr) for thr in correct if t_c < thr),
                 "every error of weight <= floor((d0_min-1)/2) is correctable"),
        _verdict("under-min-detectable", detect,
                 ((t_d, thr) for thr in detect if t_d < thr),
                 "every nonzero error of weight <= d1_min - 1 is detectable"),
        _verdict("joint-sufficiency-from-min", sufficient,
                 ((c, cp) for c, cp in sufficient if not dec.is_joint_correcting(ch, c, cp)),
                 "d2_min >= 2c + c' + 1 forces (c, c') joint correction"),
        _verdict("capability-joint-consistency", extremes,
                 ((kind, t) for kind, t, grid_point in extremes
                  if not dec.is_joint_correcting(ch, *grid_point)),
                 "(t_c, 0) and (0, t_d) joint correction both hold"),
    ]


@dataclass
class VerdictLedger:
    """Deterministic collection of theorem verdicts for one channel."""

    verdicts: list[TheoremVerdict]
    notes: dict = dc_field(default_factory=dict)

    def failures(self) -> list[TheoremVerdict]:
        return [v for v in self.verdicts if v.status == FAIL]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "verdicts": [{
                "check": v.check,
                "status": v.status,
                "detail": v.detail,
                "counterexample": repr(v.counterexample) if v.counterexample else None,
            } for v in self.verdicts],
            "notes": dict(self.notes),
            "passed": self.passed,
        }

    def render_text(self) -> str:
        width = max(len(v.check) for v in self.verdicts)
        lines = [f"  {v.check.ljust(width)}  {v.status}"
                 + (f"  ({v.detail})" if v.status != PASS and v.detail else "")
                 for v in self.verdicts]
        for key, value in self.notes.items():
            lines.append(f"  note: {key} = {value}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_all(ch: Channel, seed: int = 0) -> VerdictLedger:
    """Run every check against one channel and aggregate the verdicts.

    The weight axioms are decided by the measure's kind.  A Hamming weight
    is a sum of symbol weights, so
    :func:`~gnetcode.weights.verify_separable_axioms` checks it over the
    whole error space: separability on every error (one comparison on the
    cached weight list), the four axioms once on all of GF(q)^1's pairs,
    at any field size.  Rank and sum-rank weights take
    :func:`~gnetcode.weights.verify_rank_axioms` on the cached weight list:
    nonnegativity, inverse invariance and decomposability on every error
    (one row reduction each), subadditivity on every pair of errors when
    there are at most :data:`~gnetcode.weights.AXIOM_ELEMENT_BUDGET`, else
    on every pair of a sample of that many drawn with ``seed``; O(|E|) plus
    those pairs.
    The ledger also records the smallest observed d1/d0 ratio (no claim is
    attached to it; a lower bound on d0 in terms of d1 is not available).
    """
    report = minimum_distances(ch)
    classification = classify(ch)
    verdicts: list[TheoremVerdict] = []

    measure = ch.errors.measure
    if measure.kind == HAMMING:
        axioms = verify_separable_axioms(ch.errors, *ch._weight_order())
    else:
        axioms = verify_rank_axioms(ch.errors, *ch._weight_order(), seed)
    checks = [(name, check) for name in (
        "separability", "nonnegativity", "subadditivity", "inverse_invariance",
        "decomposability") if (check := getattr(axioms, name)) is not None]
    verdicts.append(_verdict("weight-axioms", checks,
                             ((name, check.witness) for name, check in checks
                              if not check.passed),
                             "nonnegativity, subadditivity, inverse invariance, "
                             "decomposability"))

    verdicts.extend(check_bounds(ch, report))
    verdicts.extend(check_refined(ch, report))
    verdicts.extend(check_error_linear_suite(ch, report, classification))
    verdicts.extend(check_conditions(ch, report, classification))
    verdicts.extend(check_decoders(ch, report))

    # Exploratory only: on non-error-linear channels the metric axioms carry
    # no claim, so their outcomes are recorded as notes, never as failures.
    notes = {"error_linear": classification.error_linear,
             "linear": classification.linear}
    if not classification.error_linear:
        notes["metric_axioms_observed"] = {
            which: check_metric(ch, which, report).all_pass
            for which in ("d0", "d1", "d2")}
    ratios = [report.d1[i, j] / report.d0[i, j] for (i, j) in _key_pairs(report)[0]
              if is_finite(report.d0[i, j]) and is_finite(report.d1[i, j])]
    if ratios:
        notes["min_d1_d0_ratio"] = round(min(ratios), 4)
    return VerdictLedger(verdicts, notes)


# -- seeded random channels for regression ------------------------------------

def random_table_channel(rng: random.Random, fld: Field, n_codewords: int = 2,
                         error_length: int = 2, output_length: int = 2,
                         codeword_length: int = 2) -> Channel:
    """A random total table channel satisfying zero-error injectivity.

    Codewords are distinct random vectors; the zero-error column is drawn
    without replacement so construction never needs rejection sampling.
    """
    q = fld.q
    if q ** codeword_length < n_codewords or q ** output_length < n_codewords:
        raise ValueError("codeword or output space too small for the requested code")
    cw_space = list(itertools.product(range(q), repeat=codeword_length))
    out_space = list(itertools.product(range(q), repeat=output_length))
    codewords = rng.sample(cw_space, n_codewords)
    clean = rng.sample(out_space, n_codewords)
    zero = (0,) * error_length
    table = {}
    for x, y0 in zip(codewords, clean):
        for z in itertools.product(range(q), repeat=error_length):
            table[(x, z)] = y0 if z == zero else rng.choice(out_space)
    return table_channel(fld, codewords, error_length, output_length, table)


def _random_full_row_rank(rng: random.Random, fld: Field, rows: int, cols: int) -> mx.Matrix:
    if rows > cols:
        raise ValueError("cannot have full row rank with more rows than columns")
    while True:
        cand = tuple(tuple(rng.randrange(fld.q) for _ in range(cols))
                     for _ in range(rows))
        if mx.rank(fld, cand) == rows:
            return cand


def random_linear_channel(rng: random.Random, fld: Field, msg_length: int = 2,
                          error_length: int = 2, output_length: int = 2) -> Channel:
    """Random x*A + z*B channel on vector words under the Hamming weight.

    The code is the full message space, so A is drawn with full row rank to
    keep clean outputs distinct.
    """
    a = _random_full_row_rank(rng, fld, msg_length, output_length)
    b = tuple(tuple(rng.randrange(fld.q) for _ in range(output_length))
              for _ in range(error_length))
    codewords = list(itertools.product(range(fld.q), repeat=msg_length))
    return matrix_channel(fld, codewords, a, b)


def random_rank_channel(rng: random.Random, fld: Field, rows: int = 2,
                        msg_cols: int = 1, err_cols: int = 2, out_cols: int = 2) -> Channel:
    """Random matrix-codeword channel under the rank weight."""
    a = _random_full_row_rank(rng, fld, msg_cols, out_cols)
    b = tuple(tuple(rng.randrange(fld.q) for _ in range(out_cols))
              for _ in range(err_cols))
    codewords = [tuple(flat[i * msg_cols:(i + 1) * msg_cols] for i in range(rows))
                 for flat in itertools.product(range(fld.q), repeat=rows * msg_cols)]
    return matrix_channel(fld, codewords, a, b, WeightMeasure(RANK))


def random_sum_rank_channel(rng: random.Random, fld: Field, rows: int = 2,
                            msg_blocks: tuple[int, ...] = (1, 1),
                            err_blocks: tuple[int, ...] = (1, 1),
                            out_blocks: tuple[int, ...] = (1, 1)) -> Channel:
    """Random block-diagonal channel under the sum-rank weight."""
    a = mx.block_diag([_random_full_row_rank(rng, fld, k, n)
                       for k, n in zip(msg_blocks, out_blocks, strict=True)])
    b = mx.block_diag([tuple(tuple(rng.randrange(fld.q) for _ in range(n))
                             for _ in range(u))
                       for u, n in zip(err_blocks, out_blocks, strict=True)])
    k = sum(msg_blocks)
    codewords = [tuple(flat[i * k:(i + 1) * k] for i in range(rows))
                 for flat in itertools.product(range(fld.q), repeat=rows * k)]
    return matrix_channel(fld, codewords, a, b,
                          WeightMeasure(SUM_RANK, tuple(err_blocks)))
