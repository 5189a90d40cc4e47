"""Tests of the benchmark itself: generator, answer gate, comparison tool."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import corpus  # noqa: E402
import ops  # noqa: E402


# -- generator -----------------------------------------------------------------

@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = corpus.corpus(workload, 7)
    again = corpus.corpus(workload, 7)
    assert [(i.digest, i.ops) for i in first] == [(i.digest, i.ops) for i in again]
    assert [i.slot for i in first] == corpus.slots(workload)


def test_seeds_change_the_inputs():
    def inputs(seed):
        return [(i.digest, i.ops) for w in corpus.WORKLOADS for i in corpus.corpus(w, seed)]
    assert inputs(1) != inputs(2)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_pool_config_has_recorded_answers(workload):
    expected = ops.load_expected(workload)
    for item in corpus.pool(workload):
        entries = expected[item.digest]
        for op in item.ops:
            assert ops.op_key(op.argv) in entries, (item.name, op.argv)


# -- answer gate ---------------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    found = ops.load_cli(HERE.parent)
    assert found is not None
    return found


def _answer(cli, tmp_path, item, label):
    op = next(op for op in item.ops if op.label == label)
    path = tmp_path / "channel.ini"
    path.write_text(item.config)
    code, out, _ = ops.run_cli(cli.main, path, op.argv)
    entry = ops.load_expected(item.workload)[item.digest][ops.op_key(op.argv)]
    return code, json.loads(out) if out else None, entry


def test_gate_accepts_the_program_and_flags_a_tampered_distance(cli, tmp_path):
    item = corpus.build_item("small-sweep", "code-gf3-a", 0)
    code, payload, entry = _answer(cli, tmp_path, item, "distances")
    assert ops.judge(entry, ops.gated(code, payload)) == ops.OK
    assert ops.payload_digest(payload) == entry["payload"]

    payload["elapsed_s"] = 123.0        # timing is not an answer
    payload["parallelism"] = 9
    assert ops.judge(entry, ops.gated(code, payload)) == ops.OK

    pair = next(iter(payload["distances"]["pairs"].values()))
    pair["d0"]["value"] += 1
    assert ops.judge(entry, ops.gated(code, payload)) == ops.FAILED


def test_gate_flags_a_tampered_decode_and_exit_code(cli, tmp_path):
    item = corpus.build_item("small-sweep", "code-gf2-a", 1)
    code, payload, entry = _answer(cli, tmp_path, item, "decode")
    assert ops.judge(entry, ops.gated(code, payload)) == ops.OK
    decode = payload["decode"]
    decode["outcome"], decode["codeword"] = (
        ("decoded", [0] * 6) if decode["outcome"] == "detected" else ("detected", None))
    assert ops.judge(entry, ops.gated(code, payload)) == ops.FAILED
    assert ops.judge(entry, {"exit": 2}) == ops.FAILED


def test_gate_separates_known_defects_from_failures():
    # an entry as record.py writes it when the program gives the defective answer
    entry = ops.record_entry("rep10", "classify", {"exit": 2}, None)
    assert ops.judge(entry, {"exit": 2}) == ops.KNOWN_DEFECT
    fixed = {"command": "classify",
             "classification": {"error_linear": True, "linear": True, "witness": None}}
    assert ops.judge(entry, ops.gated(0, fixed)) == ops.OK
    fixed["classification"]["linear"] = False
    assert ops.judge(entry, ops.gated(0, fixed)) == ops.FAILED
    assert ops.judge(entry, {"exit": 1}) == ops.FAILED


def test_tally_counts_known_defects_in_failed_ops_only():
    tally = ops.Tally()
    item = corpus.build_item("small-sweep", "table-a", 0)
    for verdict in (ops.OK, ops.OK, ops.KNOWN_DEFECT, ops.FAILED):
        tally.add(item, item.ops[0], verdict)
    assert (tally.attempted, tally.failed, tally.failed_ops) == (4, 1, 0.5)


# -- comparison tool -----------------------------------------------------------

def _runs(values):
    return dict(enumerate(values, start=1))


PARENT = _runs([10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05])


def test_compare_improved_when_nine_of_ten_pairs_win_beyond_the_spread():
    change = _runs([v * 0.8 for v in PARENT.values()])
    change[3] = 11.0                        # one lost pair still leaves 9/10
    assert compare.verdict(PARENT, change, "lower", 0.1) == compare.IMPROVED


def test_compare_worse_beyond_bound():
    change = _runs([v * 1.2 for v in PARENT.values()])
    assert compare.verdict(PARENT, change, "lower", 0.1) == compare.WORSE
    assert compare.verdict(PARENT, change, "higher", 0.1) == compare.IMPROVED


def test_compare_within_bound_and_unresolved():
    change = _runs([v * 1.03 for v in PARENT.values()])
    assert compare.verdict(PARENT, change, "lower", 0.1) == compare.WITHIN
    noisy = _runs([5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0])
    assert compare.verdict(noisy, _runs(list(noisy.values())[::-1]), "lower", 0.1) \
        == compare.UNRESOLVED


def test_compare_parses_run_output():
    text = ("corpus x\nmetric failed_ops 0.250000 share (known-defect 1)\n"
            "cold setup_s=0.5 pass_s=2.25\n"
            + json.dumps({"correct": True, "attempted": 4, "failed": 0,
                          "metrics": {"pass_s": {"value": 1.5, "unit": "s"}}}))
    run = compare.parse_output(text)
    assert run["failed_ops"] == 0.25
    assert compare.values({1: run}, "pass_s") == {1: 1.5}
    assert compare.values({1: run}, "cold.pass_s") == {1: 2.25}
