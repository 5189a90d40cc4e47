"""Command-line front end.

Thin adapter over the engine: every number printed comes straight from
the corresponding library call on the configured channel.  Subcommands:

    distances     per-pair and minimum distance tables
    capability    correction/detection capabilities and a joint grid
    joint         one (c, c') joint error-correction verdict
    verify        run the full theorem ledger; exit nonzero on any failure
    decode        minimum weight decoding of a received word
    classify      error-linearity / linearity verdicts

The channel comes either from ``--config FILE`` or from ``--toy-example``
(the built-in nonlinear network fixture).  ``--format structured`` emits
one line of compact JSON that parses back losslessly (unindented, so that
CPython's C encoder writes it); the default is readable text.  The argument
parser is built once per process, on the first call of :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable

from .channel import Channel, BudgetError, classify
from .config import channel_from_config, config_digest
from .network import toy_channel
from .distances import minimum_distances
from .decoder import capability, is_joint_correcting, mwd, mwd_bounded
from .properties import run_all

DEFAULT_SEED = 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnetcode",
        description="Exact distance analysis for generalized network channels")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="channel configuration file")
    source.add_argument("--toy-example", action="store_true",
                        help="use the built-in nonlinear network fixture")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for sampled checks (default {DEFAULT_SEED})")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the enumeration pair budget")
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        help="output format (structured = JSON)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("distances", help="distance tables and minima")
    sub.add_parser("capability", help="correction/detection capability report")
    joint = sub.add_parser("joint", help="joint error-correction verdict")
    joint.add_argument("--c", type=int, required=True, help="correction radius")
    joint.add_argument("--cprime", type=int, required=True, help="detection margin")
    sub.add_parser("verify", help="run the theorem ledger")
    decode = sub.add_parser("decode", help="decode a received word")
    decode.add_argument("received", help="received word, e.g. 1,0,2 "
                                         "(rows ;-separated for matrix outputs)")
    decode.add_argument("--bounded", type=int, default=None, metavar="C",
                        help="use the bounded decoder at radius C")
    sub.add_parser("classify", help="error-linearity verdicts")
    return parser


def _load_channel(args) -> tuple[Channel, str]:
    if args.toy_example:
        budget = args.budget
        return (toy_channel(pair_budget=budget) if budget is not None else toy_channel(),
                "toy-example")
    text = Path(args.config).read_text()
    ch = channel_from_config(text, pair_budget=args.budget)
    return ch, f"config:{config_digest(text)}"


def _parse_received(text: str):
    try:
        rows = [tuple(int(t) for t in part.split(",")) for part in text.split(";")]
    except ValueError:
        raise ValueError(f"received word {text!r} is not comma-separated symbols") from None
    return tuple(rows) if len(rows) > 1 else rows[0]


def _run(args) -> tuple[dict, Callable[[], str], int]:
    """Returns (report payload, text rendering thunk, exit code).

    The text is rendered only when it is printed, so a structured call
    never builds it.
    """
    ch, source = _load_channel(args)
    # "parallelism" is fixed at 1 (the engine is single-process); the payload
    # digests recorded in perfbench/expected.json still include the key
    payload = {"command": args.command, "source": source, "seed": args.seed,
               "parallelism": 1}
    code = 0

    if args.command == "distances":
        report = minimum_distances(ch)
        payload["distances"] = report.to_dict()
        text = report.render_text
    elif args.command == "capability":
        cap = capability(ch)
        payload["capability"] = cap.to_dict()
        text = lambda: (f"corrects {cap.max_correctable} error(s)"
                        + (" (the whole error space)" if cap.all_correctable else "")
                        + f", detects {cap.max_detectable} error(s)"
                        + (" (the whole error space)" if cap.all_detectable else "")
                        + "\njoint (c, c') verdicts: "
                        + ", ".join(f"({c},{cp})={'yes' if v else 'no'}"
                                    for (c, cp), v in sorted(cap.joint.items())))
    elif args.command == "joint":
        verdict = is_joint_correcting(ch, args.c, args.cprime)
        payload["joint"] = {"c": args.c, "cprime": args.cprime, "verdict": verdict}
        text = lambda: (f"({args.c}, {args.cprime}) joint error correction: "
                        f"{'yes' if verdict else 'no'}")
    elif args.command == "verify":
        ledger = run_all(ch, seed=args.seed)
        payload["ledger"] = ledger.to_dict()
        text = ledger.render_text
        code = 0 if ledger.passed else 1
    elif args.command == "decode":
        y = _parse_received(args.received)
        outcome = mwd(ch, y) if args.bounded is None else mwd_bounded(ch, args.bounded, y)
        payload["decode"] = {
            "received": args.received,
            "bounded": args.bounded,
            "outcome": "detected" if outcome.detected else "decoded",
            "codeword": None if outcome.detected else list(outcome.codeword),
        }
        text = lambda: repr(outcome)
    else:  # classify
        verdict = classify(ch)
        payload["classification"] = {
            "error_linear": verdict.error_linear,
            "linear": verdict.linear,
            "witness": repr(verdict.witness) if verdict.witness else None,
        }
        text = lambda: (f"error_linear={verdict.error_linear} linear={verdict.linear}"
                        + (f"\nwitness: {verdict.witness!r}" if verdict.witness else ""))
    return payload, text, code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload, text, code = _run(args)
    except (BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload["elapsed_s"] = round(time.perf_counter() - started, 4)
    if args.format == "structured":
        print(json.dumps(payload))
    else:
        print(text())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
