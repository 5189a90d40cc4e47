"""Summarise one result set, or compare two (parent vs. change).

    python3 perfbench/compare.py RESULTS            # medians, quartiles, spread
    python3 perfbench/compare.py PARENT CHANGE      # plus a verdict per metric

A result set is a directory of run outputs named ``<workload>-<seed>.out``
(the stdout of run.py, as sweep.py writes them).  Metrics, units,
directions and bounds come from BENCHMARK.json; ``failed_ops`` and the
cold sums ``cold.setup_s`` and ``cold.pass_s`` (unscaled, first call in a
fresh process; see run.py) are read from the lines run.py prints before
its result and judged with the bounds of ``setup_s`` and ``pass_s``.

Verdicts, per workload and end-to-end metric, with runs paired by seed:

improved            the change wins at least 9/10 of the pairs (ties count
                    for neither side) and the medians differ by more than
                    the parent's interquartile spread;
worse-beyond-bound  the change's median is worse than the parent's by more
                    than the metric's bound (a share of the parent median);
unresolved          neither, and the parent's own spread is wider than the
                    bound, unless every change run beats every parent run;
within-bound        none of the above.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"^(?P<workload>.+)-(?P<seed>\d+)\.out$")
_FAILED_OPS = re.compile(r"^metric failed_ops (\S+) share")
_COLD = re.compile(r"^cold (.*)$")
COLD = ("setup_s", "pass_s")

IMPROVED, WORSE, UNRESOLVED, WITHIN = ("improved", "worse-beyond-bound", "unresolved",
                                       "within-bound")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_output(text: str) -> dict:
    """One run's stdout -> {"result": final JSON object, "failed_ops": share or
    None, "cold": {name: unscaled cold seconds}}."""
    lines = text.strip().splitlines()
    failed_ops, cold = None, {}
    for line in lines:
        match = _FAILED_OPS.match(line)
        if match:
            failed_ops = float(match.group(1))
        match = _COLD.match(line)
        if match:
            cold = {k: float(v) for k, v in (f.split("=") for f in match.group(1).split())}
    return {"result": json.loads(lines[-1]), "failed_ops": failed_ops, "cold": cold}


def load_set(directory) -> dict:
    """workload -> {seed: parsed run output}."""
    runs: dict = {}
    for path in sorted(Path(directory).iterdir()):
        match = _NAME.match(path.name)
        if match:
            runs.setdefault(match["workload"], {})[int(match["seed"])] = parse_output(
                path.read_text())
    return runs


def values(runs: dict, metric: str) -> dict:
    """seed -> metric value, for the runs that report it."""
    out = {}
    for seed, run in runs.items():
        if metric == "failed_ops":
            if run["failed_ops"] is not None:
                out[seed] = run["failed_ops"]
        elif metric.startswith("cold."):
            if metric[5:] in run["cold"]:
                out[seed] = run["cold"][metric[5:]]
        elif metric in run["result"]["metrics"]:
            out[seed] = run["result"]["metrics"][metric]["value"]
    return out


def quartiles(vals) -> tuple[float, float, float]:
    vals = list(vals)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """parent, change: seed -> value.  See the module docstring."""
    sign = 1 if better == "lower" else -1
    pairs = [(parent[s], change[s]) for s in sorted(parent.keys() & change.keys())]
    if not pairs:  # no common seeds: pair in order
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, p_med, q3 = quartiles(parent.values())
    c_med = statistics.median(change.values())
    gain = sign * (p_med - c_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return IMPROVED
    if -gain > bound * abs(p_med):
        return WORSE
    all_better = all(sign * (p - c) > 0 for p in parent.values() for c in change.values())
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return UNRESOLVED
    return WITHIN


def _metrics(spec: dict):
    yield from spec["end_to_end"]
    yield {"name": "failed_ops", "unit": "share", "better": "lower", "bound": 0.0}
    for m in spec["end_to_end"]:
        if m["name"] in COLD:
            yield {**m, "name": f"cold.{m['name']}"}


def summarise(results: dict, spec: dict) -> list[str]:
    lines = [f"{'workload':18} {'metric':14} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>7} {'bound':>6}  unit"]
    for workload, runs in sorted(results.items()):
        for m in _metrics(spec):
            vals = values(runs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals.values())
            spr = spread(vals.values()) if med else 0.0
            lines.append(f"{workload:18} {m['name']:14} {len(vals):3d} {med:12.6g} {q1:12.6g} "
                         f"{q3:12.6g} {spr:7.4f} {m['bound']:6.3f}  {m['unit']}")
    return lines


def compare(parent: dict, change: dict, spec: dict) -> list[str]:
    lines = [f"{'workload':18} {'metric':14} {'parent median [q1, q3]':>36} "
             f"{'change median [q1, q3]':>36}  verdict"]
    for workload in sorted(parent.keys() & change.keys()):
        for m in _metrics(spec):
            pv, cv = values(parent[workload], m["name"]), values(change[workload], m["name"])
            if not pv or not cv:
                continue
            p1, pm, p3 = quartiles(pv.values())
            c1, cm, c3 = quartiles(cv.values())
            lines.append(f"{workload:18} {m['name']:14} "
                         f"{pm:>12.6g} [{p1:.6g}, {p3:.6g}]".ljust(70)
                         + f"{cm:>12.6g} [{c1:.6g}, {c3:.6g}]".ljust(38)
                         + f"{verdict(pv, cv, m['better'], m['bound'])}  ({m['unit']})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(d) for d in argv]
    lines = summarise(sets[0], spec) if len(sets) == 1 else compare(sets[0], sets[1], spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
