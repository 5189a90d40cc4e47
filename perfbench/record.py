"""Record the expected answer of every pool operation into expected.json.

    python3 perfbench/record.py

Runs every slot of every workload, with every word set, through the CLI
of the program in ``src/`` and stores the gated-answer and payload digests
(see ops.py).  Run it only on a program whose answers are trusted: the
benchmark's correctness gate is exactly what this writes.  It takes under
a minute on one core.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import corpus
import ops

ROOT = Path(__file__).resolve().parent.parent


def record(cli, workload: str, workdir: Path) -> dict:
    items = corpus.pool(workload)
    paths = ops.write_configs(items, workdir)
    table: dict = {}
    for item in items:
        entries = table.setdefault(item.digest, {})
        for op in item.ops:
            key = ops.op_key(op.argv)
            if key in entries:
                continue
            code, out, _ = ops.run_cli(cli.main, paths[item], op.argv)
            payload = ops.parse_payload(out)
            entries[key] = ops.record_entry(item.slot, op.label, ops.gated(code, payload),
                                            payload)
        print(f"{workload} {item.name} recorded", file=sys.stderr)
    return table


def main() -> int:
    cli = ops.load_cli(ROOT)
    if cli is None:
        print("error: no gnetcode program under src/", file=sys.stderr)
        return 1
    workdir = ROOT / "perfbench" / "_work" / "record"
    try:
        doc = {"pool": corpus.POOL,
               "workloads": {w: record(cli, w, workdir / w) for w in corpus.WORKLOADS}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops.EXPECTED_PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
