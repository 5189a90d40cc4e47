"""Run every workload over several seeds and print every end-to-end metric.

    python3 perfbench/sweep.py --out DIR [--seeds 1 2 3]

Each run is a separate ``run.py --trace 0`` process of BENCHMARK.json's
``run_seconds``, one at a time, its stdout saved as
``DIR/<workload>-<seed>.out``.  Seeds go in the outer loop, so the
workloads alternate.  Afterwards the set is summarised as compare.py
does; ``compare.py PARENT_DIR CHANGE_DIR`` then compares two such sets.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import compare
import corpus

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = compare.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        for workload in corpus.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            (args.out / f"{workload}-{seed}.out").write_text(done.stdout)
            print(done.stdout.strip().splitlines()[-1][:160], file=sys.stderr)
    print("\n".join(compare.summarise(compare.load_set(args.out), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
