"""Running one CLI operation in-process and gating its answer.

The gate compares only the answers the project promises to keep
identical: the full distance and capability dicts, the classification
booleans, the ledger's ``passed`` flag and its ``fail`` count, and the
decode outcome and codeword, each together with the exit code.  Witness
reprs, ``parallelism``, ``elapsed_s`` and error messages stay out of it.

``expected.json`` holds, per config digest and operation, the sha256
prefix of the gated answer recorded from the program (``gate``) and of the
whole payload without ``elapsed_s`` (``payload``, for diffing only).  For
the known defects listed in ``KNOWN_DEFECTS`` the ``gate`` is the answer
the project promises instead, and ``seed_gate`` the defective answer the
recording program gave.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

OK, KNOWN_DEFECT, FAILED = "ok", "known-defect", "failed"

# (slot or "*", op label) -> (promised gated answer, reason)
KNOWN_DEFECTS = {
    ("rep10", "classify"): (
        {"exit": 0, "answer": {"error_linear": True, "linear": True}},
        "classify raises BudgetError on 1024^2 error pairs for a 2,048-pair channel"),
    ("rep10", "verify"): (
        {"exit": 0, "answer": {"passed": True, "fail": 0}},
        "run_all inherits the classify BudgetError"),
    ("*", "decode-outside"): (
        {"exit": 2},
        "a received word outside the output space is decoded as Detected, exit 0"),
}


def known_defect(slot: str, label: str):
    return KNOWN_DEFECTS.get((slot, label)) or KNOWN_DEFECTS.get(("*", label))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(main, config_path, argv) -> tuple[object, str, float]:
    """Call ``main`` (gnetcode.cli.main) in-process; (exit, stdout, seconds)."""
    args = ["--config", str(config_path), "--format", "structured", *argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught error is a wrong answer, not a crash
        code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), time.perf_counter() - start


def gated(code, payload: dict | None) -> dict:
    """The part of an answer the gate compares."""
    if code not in (0, 1) or payload is None:
        return {"exit": code}
    command = payload.get("command")
    if command == "distances":
        answer = payload["distances"]
    elif command == "capability":
        answer = payload["capability"]
    elif command == "classify":
        cls = payload["classification"]
        answer = {"error_linear": cls["error_linear"], "linear": cls["linear"]}
    elif command == "verify":
        ledger = payload["ledger"]
        answer = {"passed": ledger["passed"],
                  "fail": sum(v["status"] == "fail" for v in ledger["verdicts"])}
    elif command == "decode":
        answer = {"outcome": payload["decode"]["outcome"],
                  "codeword": payload["decode"]["codeword"]}
    else:
        answer = None
    return {"exit": code, "answer": answer}


def parse_payload(stdout: str) -> dict | None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def payload_digest(payload: dict | None) -> str | None:
    if payload is None:
        return None
    return digest({k: v for k, v in payload.items() if k != "elapsed_s"})


def load_expected(workload: str) -> dict:
    """config digest -> op argv string -> recorded entry."""
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["workloads"][workload]


def op_key(argv) -> str:
    return " ".join(argv)


def judge(entry: dict, answer: dict) -> str:
    """ok, known-defect (the recorded defective answer) or failed."""
    got = digest(answer)
    if got == entry["gate"]:
        return OK
    if got == entry.get("seed_gate"):
        return KNOWN_DEFECT
    return FAILED


def record_entry(slot: str, label: str, answer: dict, payload: dict | None) -> dict:
    """The expected.json entry for an answer given by the recording program."""
    entry = {"gate": digest(answer), "payload": payload_digest(payload)}
    defect = known_defect(slot, label)
    if defect is not None and digest(defect[0]) != entry["gate"]:
        entry["seed_gate"] = entry["gate"]
        entry["gate"] = digest(defect[0])
        entry["defect"] = defect[1]
    return entry


class Tally:
    """Counts of judged operations, and the first failures by name."""

    def __init__(self):
        self.counts = {OK: 0, KNOWN_DEFECT: 0, FAILED: 0}
        self.payload_changed = 0
        self.failures: list[str] = []

    def add(self, item, op, verdict: str, payload_matches: bool | None = True):
        self.counts[verdict] += 1
        if payload_matches is False:
            self.payload_changed += 1
        if verdict == FAILED and len(self.failures) < 20:
            self.failures.append(f"{item.name} {op_key(op.argv)}")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts[FAILED]

    @property
    def failed_ops(self) -> float:
        """Share of operations whose answer differs from the expected one."""
        return (self.counts[FAILED] + self.counts[KNOWN_DEFECT]) / max(1, self.attempted)


# The probe's best time on the host the benchmark was tuned on (see README).
REFERENCE_PROBE_S = 0.002


def probe() -> float:
    """Seconds for a fixed pure-Python workload of tuples and dict lookups."""
    start = time.perf_counter()
    table = {}
    for i in range(6000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key[::-1], 0) + i % 7
    return time.perf_counter() - start


def reference_scale(probes) -> float:
    """Factor that turns this run's seconds into seconds at the reference speed.

    Host speed drifts by tens of per cent over minutes; the best probe of
    the run tracks it, as the best time of each operation does.
    """
    return REFERENCE_PROBE_S / min(probes)


def load_cli(root: Path):
    """Import gnetcode.cli from ``root/src``; None when the checkout has no program."""
    src = (root / "src").resolve()
    if not (src / "gnetcode" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from gnetcode import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        return None
    return cli


def write_configs(items, workdir: Path) -> dict:
    """Write each item's config under ``workdir``; item -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item in items:
        path = workdir / f"{item.slot}-{item.variant}.ini"
        path.write_text(item.config)
        paths[item] = path
    return paths
