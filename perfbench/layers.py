"""Traced run: one span around the public function of each layer.

Channels are traced one at a time.  On each, the layer calls run in
cache-filling order (errors, transfer rows, balls, tables, classify,
decoder, ledger checks), so each span is roughly that layer's self time:
later calls find the earlier layers' results in the channel cache.
``config.build_s`` is the exception; it includes parsing and the field.

Spans carry name, start, end, parent, channel and whether the call
raised.  They are kept in memory and written to perfbench/_work/ when the
run ends.  Each per-layer time is a sum over the corpus, the best over
the run's passes, scaled to the reference speed as in run.py.  The
context counts are computed beside the spans from the public API, never
from inside a timed call, and are printed, not reported as metrics.

The answers of distances, capability, classify and verify are rebuilt
from the library results and judged like CLI answers (any exception
counts as exit 2); decode answers are checked by the untraced run only.
"""

from __future__ import annotations

import json
import random
import time

import ops

# per-layer metric name -> unit, in report order
UNITS = {
    "config.parse_s": "s", "field.build_s": "s", "config.build_s": "s",
    "channel.errors_s": "s", "weights.weight_s": "s",
    "channel.transfer_rows_s": "s", "channel.transfer_evals_per_s": "1/s",
    "distances.balls_s": "s", "distances.tables_s": "s", "channel.classify_s": "s",
    "decoder.index_s": "s", "decoder.capability_s": "s",
    "properties.bounds_s": "s", "properties.refined_s": "s",
    "properties.metric_s": "s", "properties.error_linear_s": "s",
    "properties.conditions_s": "s", "properties.decoders_s": "s", "weights.axioms_s": "s",
    "properties.ledger_s": "s", "cli.serialize_s": "s",
    "trace.wall_s": "s", "trace.overhead": "ratio",
}
SPAN_NAMES = [name for name, unit in UNITS.items()
              if unit == "s" and not name.startswith("trace.")]

# Corpus-size context, printed before the result but not in it: each is
# worked out from the input sizes or fixed by the gated answers, so no
# change to the program that keeps its answers can move it.
CONTEXT = ("channel.errors", "channel.transfer_evals", "distances.pairs",
           "distances.ball_members", "distances.distinct_output_ratio", "channel.hom_pairs",
           "properties.metric_triples", "channel.cache_entries", "trace.spans")

LEDGER_SEED = 1  # the CLI's default --seed, which run_all receives


class Spans:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[dict] = []

    def open(self, name: str, channel: str, parent: int | None) -> dict:
        span = {"id": len(self.spans), "name": name, "channel": channel,
                "parent": parent, "start": time.perf_counter(), "end": None,
                "failed": False}
        self.spans.append(span)
        return span

    def call(self, name: str, channel: str, parent: int, fn, *args):
        """Run fn(*args) inside a span; None (span marked failed) if it raised."""
        span = self.open(name, channel, parent)
        try:
            return fn(*args)
        except Exception:  # a raising layer is recorded, and the trace goes on
            span["failed"] = True
            return None
        finally:
            span["end"] = time.perf_counter()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def _span_cost() -> float:
    """Seconds one span costs the recorder, measured on empty calls."""
    probe = Spans()
    n = 2000
    start = time.perf_counter()
    for _ in range(n):
        probe.call("probe", "probe", 0, int)
    return (time.perf_counter() - start) / n


def _field(gn, parsed):
    sec = parsed["field"]
    modulus = tuple(int(t) for t in sec["modulus"].split(",")) if "modulus" in sec else None
    fld = gn.Field(int(sec["p"]), int(sec.get("k", "1")), modulus)
    return fld.add(1, 1), fld.mul(1, 1)


def _axiom_sample(ch, errors, budget: int = 256):
    """The error sample run_all checks the weight axioms on."""
    elements = [z for z, _ in errors]
    if len(elements) <= budget:
        return elements
    sample = random.Random(LEDGER_SEED).sample(elements, budget)
    zero = ch.errors.space.zero()
    if zero not in sample:
        sample[0] = zero
    return sample


def _hom_pairs(cls, errors) -> int:
    """Error pairs classify's homomorphism scan examined."""
    if cls is None:
        return 0
    if cls.error_linear:
        return len(errors) ** 2
    if cls.witness and cls.witness[0] == "error-map-not-homomorphic":
        index = {z: i for i, (z, _) in enumerate(errors)}
        return index[cls.witness[1]] * len(errors) + index[cls.witness[2]] + 1
    return 0


def _serialize(report, cap, cls, ledger) -> dict:
    """The CLI payloads of the four checked commands, rendered as the CLI does."""
    payloads = {}
    if report is not None:
        payloads["distances"] = {"command": "distances", "distances": report.to_dict()}
    if cap is not None:
        payloads["capability"] = {"command": "capability", "capability": cap.to_dict()}
    if cls is not None:
        payloads["classify"] = {"command": "classify", "classification": {
            "error_linear": cls.error_linear, "linear": cls.linear}}
    if ledger is not None:
        payloads["verify"] = {"command": "verify", "ledger": ledger.to_dict()}
    for payload in payloads.values():
        json.dumps(payload, indent=2)
    return payloads


def trace_channel(gn, item, spans: Spans, counts: dict, answers: dict) -> None:
    root = spans.open("channel", item.name, None)
    rid = root["id"]

    def call(name, fn, *args):
        return spans.call(name, item.name, rid, fn, *args)

    parsed = call("config.parse_s", gn.config.parse_config, item.config)
    call("field.build_s", _field, gn, parsed)
    ch = call("config.build_s", gn.config.channel_from_config, item.config)
    if ch is None:
        root["end"] = time.perf_counter()
        return
    n = len(ch.codewords)
    errors = call("channel.errors_s", gn.enumerate_errors_up_to, ch, ch.w_max)
    call("weights.weight_s", lambda: [ch.errors.weight(z) for z, _ in errors])
    call("channel.transfer_rows_s", lambda: [gn.decoding_ball(ch, x, 0) for x in ch.codewords])
    balls = call("distances.balls_s",
                 lambda: [gn.decoding_ball(ch, x, ch.w_max) for x in ch.codewords])
    report = call("distances.tables_s", gn.minimum_distances, ch)
    cls = call("channel.classify_s", gn.classify, ch)
    call("decoder.index_s", gn.mwd, ch, ch.zero_output(ch.codewords[0]))
    cap = call("decoder.capability_s", gn.capability, ch)
    call("properties.bounds_s", gn.check_bounds, ch, report)
    call("properties.refined_s", gn.check_refined, ch, report)
    metric = call("properties.metric_s",
                  lambda: [gn.check_metric(ch, d, report) for d in ("d0", "d1", "d2")])
    call("properties.error_linear_s", gn.check_error_linear_suite, ch, report, cls)
    call("properties.conditions_s", gn.check_conditions, ch, report, cls)
    call("properties.decoders_s", gn.check_decoders, ch, report)
    call("weights.axioms_s", gn.verify_weight_axioms, ch.field, _axiom_sample(ch, errors or []),
         ch.errors.measure, 100_000, LEDGER_SEED)
    ledger = call("properties.ledger_s", gn.run_all, ch, LEDGER_SEED)

    payloads = call("cli.serialize_s", _serialize, report, cap, cls, ledger) or {}
    root["end"] = time.perf_counter()

    for command in ("distances", "capability", "classify", "verify"):
        payload = payloads.get(command)
        code = 2 if payload is None else (1 if command == "verify" and not ledger.passed else 0)
        answers[command] = ops.gated(code, payload)

    size = len(errors or [])
    counts["channel.errors"] += size
    counts["channel.transfer_evals"] += n * size
    counts["distances.pairs"] += n * (n - 1)
    counts["distances.ball_members"] += sum(len(b.members) for b in balls or [])
    counts["channel.hom_pairs"] += _hom_pairs(cls, errors or [])
    counts["properties.metric_triples"] += sum(
        n ** 3 for m in metric or [] if m.triangle.status != "not-applicable")
    counts["channel.cache_entries"] += n * size + sum(
        len(gn.decoding_ball(ch, x, c).members)
        for x in ch.codewords for c in range(ch.w_max + 1))


def traced_pass(gn, items, expected, spans: Spans, tally, probes: list) -> dict:
    """Trace every channel once; the pass's span sums in seconds, the
    calls that raised per span (``<span>.failed``) and the context counts."""
    first = len(spans.spans)
    counts = dict.fromkeys(("channel.errors", "channel.transfer_evals", "distances.pairs",
                            "distances.ball_members", "channel.hom_pairs",
                            "properties.metric_triples", "channel.cache_entries"), 0)
    start = time.perf_counter()
    for item in items:
        answers: dict = {}
        trace_channel(gn, item, spans, counts, answers)
        for op in item.ops:
            if op.label in answers:
                entry = expected[item.digest][ops.op_key(op.argv)]
                tally.add(item, op, ops.judge(entry, answers[op.label]), None)
        probes.append(ops.probe())
    wall = time.perf_counter() - start

    metrics = dict.fromkeys(SPAN_NAMES, 0.0)
    metrics.update({f"{name[:-2]}.failed": 0 for name in SPAN_NAMES})
    for span in spans.spans[first:]:
        if span["name"] in metrics:
            metrics[span["name"]] += span["end"] - span["start"]
            metrics[f"{span['name'][:-2]}.failed"] += span["failed"]
    metrics.update(counts)
    evals = counts["channel.transfer_evals"]
    metrics["distances.distinct_output_ratio"] = (
        counts["distances.ball_members"] / evals if evals else 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(spans.spans) - first
    return metrics


def traced_run(items, expected, seed: int, deadline: float, workdir):
    """Traced passes while another fits before the deadline (at least one).

    Each time is its best over the passes, scaled to the reference speed
    as in the untraced run.  Returns (metrics, raw seconds, tally, sources,
    passes, notes); the notes are the lines printed before the result:
    the context counts, the spans that raised, and the first (cold) pass's
    unscaled span sums.  The spans of every pass are written to
    ``workdir``.
    """
    import gnetcode as gn
    import gnetcode.config  # binds gn.config

    spans, tally, passes, probes = Spans(), ops.Tally(), [], []
    start = time.perf_counter()
    while True:
        passes.append(traced_pass(gn, items, expected, spans, tally, probes))
        typical = (time.perf_counter() - start) / len(passes)
        if time.perf_counter() + typical > deadline:
            break
    spans.write(workdir / f"spans-{items[0].workload}-{seed}.json")
    best = {name: min(p[name] for p in passes) for name in SPAN_NAMES + ["trace.wall_s"]}
    scale = ops.reference_scale(probes)
    metrics = {name: value * scale for name, value in best.items()}
    rows_s = metrics["channel.transfer_rows_s"]
    metrics["channel.transfer_evals_per_s"] = (
        passes[0]["channel.transfer_evals"] / rows_s if rows_s else 0.0)
    metrics["trace.overhead"] = passes[0]["trace.spans"] * _span_cost() / best["trace.wall_s"]
    raw = {name: best[name] for name in ("trace.wall_s", "channel.transfer_rows_s")}
    raw["probe_s"] = min(probes)

    raised = [f"{name[:-2]}={max(p[f'{name[:-2]}.failed'] for p in passes)}"
              for name in SPAN_NAMES if any(p[f"{name[:-2]}.failed"] for p in passes)]
    notes = [f"context {name} {passes[0][name]:.6g}" for name in CONTEXT]
    notes.append("raised " + (" ".join(raised) or "none"))
    notes.append("cold " + " ".join(f"{name}={passes[0][name]:.6g}"
                                    for name in SPAN_NAMES + ["trace.wall_s"]))
    return metrics, raw, tally, {}, len(passes), notes
