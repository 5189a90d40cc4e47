import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnetcode
from gnetcode import minimum_distances, capability
from gnetcode.cli import main
from test_config import INI_SYNTAX_ERRORS, REPETITION
from test_golden import CONFIGS, GOLDEN, payload_digest


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_toy_distances_text(capsys):
    code, out, _ = run_cli(capsys, "--toy-example", "distances")
    assert code == 0
    assert "d0_min=3" in out and "d1_min=2" in out and "d2_min=2" in out


def test_toy_distances_structured_matches_engine(capsys, toy):
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "distances")
    assert code == 0
    assert doc["distances"] == minimum_distances(toy).to_dict()
    assert doc["source"] == "toy-example"


def test_structured_output_round_trips(capsys):
    _, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                         "capability")
    assert json.loads(json.dumps(doc)) == doc


def test_toy_capability(capsys, toy):
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "capability")
    assert code == 0
    assert doc["capability"]["max_correctable"] == 1
    assert doc["capability"]["max_detectable"] == 1
    assert doc["capability"] == capability(toy).to_dict()


def test_toy_joint(capsys):
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "joint", "--c", "0", "--cprime", "1")
    assert code == 0 and doc["joint"]["verdict"] is True
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "joint", "--c", "1", "--cprime", "0")
    assert code == 0 and doc["joint"]["verdict"] is True
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "joint", "--c", "0", "--cprime", "2")
    assert code == 0 and doc["joint"]["verdict"] is False


def test_joint_negative_radius_exits_2(capsys):
    code, out, err = run_cli(capsys, "--toy-example", "joint", "--c", "-1",
                             "--cprime", "0")
    assert code == 2 and out == "" and "nonnegative" in err


def test_toy_decode(capsys):
    code, out, _ = run_cli(capsys, "--toy-example", "decode", "0,0,0")
    assert code == 0 and "Decoded((0, 0, 0))" in out
    code, out, _ = run_cli(capsys, "--toy-example", "decode", "1,0,0",
                           "--bounded", "1")
    assert code == 0 and "Decoded((0, 0, 0))" in out
    code, out, _ = run_cli(capsys, "--toy-example", "decode", "2,2,2",
                           "--bounded", "1")
    assert code == 0 and "Detected" in out


def test_toy_verify_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "--toy-example", "verify")
    assert code == 0
    assert "overall: pass" in out


def test_linear_matrix_config_verify(capsys, tmp_path):
    from test_config import MATRIX_RANK
    cfg = tmp_path / "rank.ini"
    cfg.write_text(MATRIX_RANK)
    code, doc, _ = run_json(capsys, "--config", str(cfg), "--format",
                            "structured", "verify")
    assert code == 0
    assert doc["ledger"]["passed"] is True
    states = {v["check"]: v["status"] for v in doc["ledger"]["verdicts"]}
    assert states["all-distances-coincide"] == "pass"


def test_toy_classify(capsys):
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "classify")
    assert code == 0
    assert doc["classification"]["error_linear"] is False
    assert doc["classification"]["witness"] is not None


def test_config_distances(capsys, tmp_path):
    cfg = tmp_path / "repetition.ini"
    cfg.write_text(REPETITION)
    code, doc, _ = run_json(capsys, "--config", str(cfg), "--format",
                            "structured", "distances")
    assert code == 0
    for key in ("d0_min", "d1_min", "d2_min"):
        assert doc["distances"][key] == {"value": 3, "infinite": False}
    assert doc["source"].startswith("config:")


def test_config_parse_error(capsys, tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(REPETITION.replace("p = 2", "p = 6"))
    code, out, err = run_cli(capsys, "--config", str(cfg), "distances")
    assert code == 2
    assert "error:" in err and "prime" in err


@pytest.mark.parametrize("case", sorted(INI_SYNTAX_ERRORS))
def test_ini_syntax_error_exits_2(capsys, tmp_path, case):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(INI_SYNTAX_ERRORS[case])
    code, out, err = run_cli(capsys, "--config", str(cfg), "distances")
    assert (code, out) == (2, "")
    assert err.startswith("error: config parse error")


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "--config", "/nonexistent.ini", "distances")
    assert code == 2


def test_unreadable_config_exits_2(capsys, tmp_path):
    """A config path that cannot be read is a usage error, not a failing ledger."""
    code, out, err = run_cli(capsys, "--config", str(tmp_path), "distances")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_bad_received_word(capsys):
    code, _, err = run_cli(capsys, "--toy-example", "decode", "abc")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("word", ["1,,2", ""], ids=["empty-symbol", "empty-word"])
def test_empty_received_symbol_exits_2(capsys, word):
    code, out, err = run_cli(capsys, "--toy-example", "decode", word)
    assert code == 2 and out == "" and "error:" in err


def test_nonpositive_code_rows_exit_2(capsys, tmp_path):
    from test_config import MATRIX_RANK
    cfg = tmp_path / "rank.ini"
    cfg.write_text(MATRIX_RANK.replace("space = 2x1", "codewords =\n    0,1\n    1,0")
                   .replace("rows = 2", "rows = 0"))
    code, out, err = run_cli(capsys, "--config", str(cfg), "distances")
    assert code == 2 and out == "" and "error: [code] rows" in err


@pytest.mark.parametrize("case", ["prime-field-modulus", "table-rows", "two-code-forms"])
def test_keys_the_build_would_ignore_exit_2(capsys, tmp_path, case):
    from test_config import IGNORED_BY_THE_BUILD
    cfg = tmp_path / "ignored.ini"
    cfg.write_text(IGNORED_BY_THE_BUILD[case][0])
    code, out, err = run_cli(capsys, "--config", str(cfg), "distances")
    assert code == 2 and out == "" and "error: " in err


@pytest.mark.parametrize("case", ["function-row", "transfer-row", "function-section",
                                  "stray-transfer-row"])
def test_one_key_twice_or_stray_row_exits_2(capsys, tmp_path, case):
    from test_config import ONE_KEY_TWICE, STRAY_TRANSFER_ROWS, TABLE
    cfg = tmp_path / "rows.ini"
    cfg.write_text(TABLE + STRAY_TRANSFER_ROWS["symbol-5"] + "\n"
                   if case == "stray-transfer-row" else ONE_KEY_TWICE[case][0])
    code, out, err = run_cli(capsys, "--config", str(cfg), "distances")
    assert code == 2 and out == "" and "error: " in err


def test_table_config_with_foreign_codeword_exits_2(capsys, tmp_path):
    from test_config import TABLE
    cfg = tmp_path / "table.ini"
    # codewords 0 and 1,1 with a table total over both
    cfg.write_text(TABLE.replace("    1\n\n[transfer]", "    1,1\n\n[transfer]")
                   .replace("1 ; 0 = 1,0\n1 ; 1 = 1,1", "1,1 ; 0 = 1,0\n1,1 ; 1 = 1,1"))
    for command in ("classify", "verify"):
        code, out, err = run_cli(capsys, "--config", str(cfg), command)
        assert code == 2 and out == "" and "(1, 1) is not a length-1 vector" in err


def test_invalid_bounded_radius(capsys, tmp_path):
    cfg = tmp_path / "repetition.ini"
    cfg.write_text(REPETITION)
    code, _, err = run_cli(capsys, "--config", str(cfg), "decode", "0,0,0",
                           "--bounded", "2")
    assert code == 2 and "intersect" in err
    # the toy's witness comes off its reach maps, and names the word the rows did
    code, out, err = run_cli(capsys, "--toy-example", "decode", "1,0,0", "--bounded", "2")
    assert (code, out) == (2, "")
    assert err == ("error: radius-2 balls of (0, 0, 0) and (1, 1, 1) intersect at "
                   "(0, 0, 0); bounded decoding is undefined at this radius\n")


def test_decode_builds_no_transfer_row_on_a_network(capsys, monkeypatch):
    """decode on the toy and the network configs answers off the reach maps:
    the channel it loaded holds no row and no weight order afterwards."""
    from gnetcode import cli

    load_channel, loaded = cli._load_channel, []

    def load(args):
        loaded.append(load_channel(args))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_channel", load)
    sources = [("--toy-example",)] + [("--config", str(CONFIGS / name))
                                      for name in ("toy_network.ini", "linear_relay_network.ini")]
    for source in sources:
        for argv in (("1,0,0",), ("--bounded", "0", "1,0,0"), ("--bounded", "1", "1,0,0")):
            run_cli(capsys, *source, "decode", *argv)
            ch, _ = loaded.pop()
            assert ch.kind == "network"
            assert not {"code_rows", "weight_order"} & ch._cache.keys(), (source, argv)


def test_toy_budget_honoured(capsys):
    code, _, err = run_cli(capsys, "--toy-example", "--budget", "0", "classify")
    assert code == 2 and "budget" in err


def test_verify_fails_on_corrupted_engine(capsys, monkeypatch):
    import gnetcode.properties as props

    real = props.minimum_distances

    def corrupted(ch):
        report = real(ch)
        import dataclasses
        return dataclasses.replace(report, d1={k: 0 for k in report.d1})

    monkeypatch.setattr(props, "minimum_distances", corrupted)
    code, out, _ = run_cli(capsys, "--toy-example", "verify")
    assert code == 1
    assert "fail" in out


def test_cli_is_thin_adapter(capsys, toy):
    # numbers printed by the CLI must be the engine's, byte for byte
    _, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                         "distances")
    engine = minimum_distances(toy).to_dict()
    assert json.dumps(doc["distances"], sort_keys=True) == json.dumps(
        engine, sort_keys=True)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    """The parser is built once per process; a --bounded left by one call
    does not reach the next, which answers as a fresh process does."""
    run_json(capsys, "--toy-example", "--format", "structured",
             "decode", "--bounded", "1", "1,0,0")
    _, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                         "decode", "1,0,0")
    env = dict(os.environ, PYTHONPATH=str(Path(gnetcode.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "gnetcode.cli", "--toy-example", "--format",
         "structured", "decode", "1,0,0"],
        env=env, capture_output=True, text=True, check=True)
    first = json.loads(fresh.stdout)
    assert doc["decode"]["bounded"] is None
    assert doc["decode"] == first["decode"]
    assert payload_digest(fresh.stdout) == GOLDEN["toy", "decode 1,0,0"][1]


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--toy-example", "joint", "--c", "0"])
    assert exc.value.code == 2
    assert "--cprime" in capsys.readouterr().err
    code, doc, _ = run_json(capsys, "--toy-example", "--format", "structured",
                            "joint", "--c", "0", "--cprime", "1")
    assert code == 0 and doc["joint"] == {"c": 0, "cprime": 1, "verdict": True}


@pytest.mark.parametrize("command", [c for s, c in GOLDEN if s == "toy" and GOLDEN[s, c][1]])
def test_structured_output_is_one_line_of_the_pinned_payload(capsys, command):
    code, out, _ = run_cli(capsys, "--toy-example", "--format", "structured",
                           *command.split())
    assert out.endswith("\n") and out.count("\n") == 1
    assert (code, payload_digest(out)) == GOLDEN["toy", command]
