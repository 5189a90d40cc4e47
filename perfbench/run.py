"""gnetcode benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed (corpus.py), writes every
channel as an INI config under perfbench/_work/, and calls
``gnetcode.cli.main`` in-process on each, single-threaded.

--trace 0  times whole CLI calls.  WORKERS processes, one after another,
           share --seconds; each repeats passes over every operation on
           every channel, each call building its channel afresh as a real
           invocation does.  Reports the end-to-end metrics: each
           operation's best time over all passes, summed per command and
           scaled to the reference speed (ops.reference_scale).
--trace 1  times the public function of each layer, one channel at a time
           (layers.py), in this process, and reports the per-layer metrics.

Every answer is checked against expected.json (ops.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The lines
before it name each channel's config digest, give the unscaled seconds
(with --trace 0 each operation's cold and best time; with --trace 1 the
corpus-size context counts and the spans that raised) and print every
metric with its unit, ``failed_ops`` included.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import ops

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("distances", "capability", "classify", "verify", "decode")

WORKERS = 3
HARD_SECONDS = 170  # a run must end within 180 s; a hung worker is killed before that

END_TO_END_UNITS = {"setup_s": "s", **{f"{c}_s": "s" for c in COMMANDS},
                    "pass_s": "s", "peak_rss_mb": "MB"}


def timed_pass(cli, config, items, paths, best: dict, first: dict, probes: list):
    """One pass: build every config once, then run every operation.

    Keeps each operation's best time in ``best`` and its first time in
    ``first``, and appends a speed probe after each channel to ``probes``;
    returns (set-up seconds, results)."""
    gc.collect()
    start = time.perf_counter()
    for item in items:
        config.channel_from_config(item.config)
    setup_s = time.perf_counter() - start
    results = []
    for item in items:
        for op in item.ops:
            code, out, seconds = ops.run_cli(cli.main, paths[item], op.argv)
            best[item, op] = min(best.get((item, op), seconds), seconds)
            first.setdefault((item, op), seconds)
            results.append((item, op, code, out))
        probes.append(ops.probe())
    return setup_s, results


def judge_pass(results, expected, tally, sources):
    for item, op, code, out in results:
        payload = ops.parse_payload(out)
        entry = expected[item.digest][ops.op_key(op.argv)]
        verdict = ops.judge(entry, ops.gated(code, payload))
        tally.add(item, op, verdict, ops.payload_digest(payload) == entry["payload"])
        if payload is not None:
            sources.setdefault(item, payload.get("source"))


def run_part(cli, config, items, paths, expected, deadline) -> dict:
    """One worker's passes, while another fits before the deadline (at least
    one); its raw timings and judged answers as a JSON-ready dict."""
    tally, sources, best, first, probes, setups = ops.Tally(), {}, {}, {}, [], []
    start = time.perf_counter()
    while True:
        setup_s, results = timed_pass(cli, config, items, paths, best, first, probes)
        judge_pass(results, expected, tally, sources)
        del results
        setups.append(setup_s)
        if time.perf_counter() + (time.perf_counter() - start) / len(setups) > deadline:
            break
    def named(times):
        return {f"{item.name} {ops.op_key(op.argv)}": t for (item, op), t in times.items()}

    return {"best": named(best), "first": named(first),
            "probe_s": min(probes), "setups": setups, "counts": tally.counts,
            "payload_changed": tally.payload_changed, "failures": tally.failures,
            "sources": {item.name: src for item, src in sources.items()}}


def run_untraced(args, deadline, hard_deadline):
    """WORKERS processes, one after another, share the run's time.

    Contention on a shared host only ever adds time, and a process can be
    slow throughout, so each operation counts its best time over every
    worker's passes; ``pass_s`` is their sum, the time to every answer.
    ``setup_s`` is the median over all passes of the corpus's set-up time.
    All are scaled to the reference speed (ops.reference_scale).

    Best-of-passes credits any state a process keeps between calls, which
    a real invocation never sees, so the notes also give, unscaled, each
    operation's cold time (its first call in a fresh worker, median over
    the workers) beside its best, and the cold sums per command.  Returns
    (metrics, raw seconds, tally, sources, passes, notes).
    """
    parts = []
    for k in range(WORKERS):
        share = (deadline - time.perf_counter()) / (WORKERS - k)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", f"{max(share, 0.0):.3f}", "--worker"],
            capture_output=True, text=True,
            timeout=max(1.0, hard_deadline - time.perf_counter()))
        if done.returncode != 0:
            raise RuntimeError(f"worker {k} failed:\n{done.stderr}")
        parts.append(json.loads(done.stdout))

    best: dict = {}
    for part in parts:
        for key, seconds in part["best"].items():
            best[key] = min(best.get(key, seconds), seconds)
    setups = [s for part in parts for s in part["setups"]]
    cold = {key: statistics.median(part["first"][key] for part in parts) for key in best}
    raw = {"setup_s": statistics.median(setups)}
    cold_sums = {"setup_s": statistics.median(part["setups"][0] for part in parts)}
    for sums, times in ((raw, best), (cold_sums, cold)):
        sums.update({f"{c}_s": 0.0 for c in COMMANDS})
        for key, seconds in times.items():
            sums[f"{key.split()[1]}_s"] += seconds
        sums["pass_s"] = sum(times.values())
    notes = [f"op {key} best={best[key]:.6g} cold={cold[key]:.6g}" for key in best]
    notes.append("cold " + " ".join(f"{name}={value:.6g}" for name, value in cold_sums.items()))
    raw["probe_s"] = min(part["probe_s"] for part in parts)
    scale = ops.reference_scale([raw["probe_s"]])
    metrics = {name: value * scale for name, value in raw.items() if name != "probe_s"}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    tally = ops.Tally()
    for part in parts:
        for verdict, n in part["counts"].items():
            tally.counts[verdict] += n
        tally.payload_changed += part["payload_changed"]
        tally.failures.extend(part["failures"])
    return metrics, raw, tally, parts[0]["sources"], len(setups), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + args.seconds
    cli = ops.load_cli(ROOT)
    if cli is None:
        print(f"error: no gnetcode program under {ROOT / 'src'}", file=sys.stderr)
        return 1
    from gnetcode import config

    items = corpus.corpus(args.workload, args.seed)
    expected = ops.load_expected(args.workload)
    missing = [f"{item.name} {ops.op_key(op.argv)}" for item in items for op in item.ops
               if ops.op_key(op.argv) not in expected.get(item.digest, {})]
    if missing:
        print(f"error: no recorded answers for {missing}", file=sys.stderr)
        return 1
    if not args.trace and not args.worker:
        metrics, raw, tally, sources, passes, notes = run_untraced(
            args, deadline, started + HARD_SECONDS)
        units = END_TO_END_UNITS
    else:
        workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            paths = ops.write_configs(items, workdir)
            if args.worker:
                print(json.dumps(run_part(cli, config, items, paths, expected, deadline)))
                return 0
            import layers
            metrics, raw, tally, sources, passes, notes = layers.traced_run(
                items, expected, args.seed, deadline, workdir.parent)
            units = layers.UNITS
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    inputs = hashlib.sha256("".join(
        item.digest + "".join(ops.op_key(op.argv) for op in item.ops) for item in items
    ).encode()).hexdigest()[:16]
    print(f"corpus {args.workload} seed={args.seed} channels={len(items)} inputs={inputs} "
          f"passes={passes} wall_s={time.perf_counter() - started:.2f}")
    for item in items:
        print(f"channel {item.name} config={item.digest} source={sources.get(item.name)}")
    for name in tally.failures:
        print(f"failed {name}")
    print(f"metric failed_ops {tally.failed_ops:.6f} share "
          f"(known-defect {tally.counts[ops.KNOWN_DEFECT]}, unexpected {tally.failed}, "
          f"attempted {tally.attempted}, payload-changed {tally.payload_changed})")
    print("raw " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    for line in notes:
        print(line)
    for name in units:
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
