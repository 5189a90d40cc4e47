import configparser
import itertools
import re
from pathlib import Path

import pytest

from gnetcode import minimum_distances, classify
from gnetcode.config import ConfigError, channel_from_config, config_digest, parse_config
from oracles import configparser_sections

REPETITION = """
[field]
p = 2
k = 1

[weight]
kind = hamming

[channel]
kind = classical

[code]
codewords =
    0,0,0
    1,1,1
"""

MATRIX_RANK = """
[field]
p = 2

[weight]
kind = rank

[channel]
kind = matrix
a =
    1,0
b =
    1,0
    0,1

[code]
rows = 2
space = 2x1
"""

TOY_NETWORK = """
[field]
p = 3

[channel]
kind = network
nodes = s, a, b, c, d, t
source = s
sink = t
edges =
    s a
    s b
    s c
    a b
    b d
    c d
    a t
    d t
    c t

[code]
codewords =
    0,0,0
    1,1,1

[function a b]
0 = 0
1 = 1
2 = 2

[function a t]
0 = 0
1 = 1
2 = 2

[function c d]
0 = 0
1 = 1
2 = 2

[function c t]
0 = 0
1 = 1
2 = 2

[function b d]
0,0 = 0
0,1 = 0
0,2 = 0
1,0 = 2
1,1 = 1
1,2 = 0
2,0 = 0
2,1 = 0
2,2 = 0

[function d t]
0,0 = 0
0,1 = 0
0,2 = 0
1,0 = 1
1,1 = 1
1,2 = 0
2,0 = 0
2,1 = 1
2,2 = 0
"""

TABLE = """
[field]
p = 2

[channel]
kind = table
error_length = 1
output_length = 2

[code]
codewords =
    0
    1

[transfer]
0 ; 0 = 0,0
0 ; 1 = 0,1
1 ; 0 = 1,0
1 ; 1 = 1,1
"""


def test_classical_config():
    ch = channel_from_config(REPETITION)
    report = minimum_distances(ch)
    assert (report.d0_min, report.d1_min, report.d2_min) == (3, 3, 3)


def test_matrix_rank_config():
    ch = channel_from_config(MATRIX_RANK)
    assert ch.errors.measure.kind == "rank"
    assert len(ch.codewords) == 4
    verdict = classify(ch)
    assert verdict.error_linear and verdict.linear


def test_network_config_matches_builtin_fixture(toy):
    ch = channel_from_config(TOY_NETWORK)
    assert minimum_distances(ch).to_dict() == minimum_distances(toy).to_dict()


def test_table_config():
    ch = channel_from_config(TABLE)
    assert ch.evaluate((1,), (1,)) == (1, 1)


def test_generator_code():
    text = REPETITION.replace(
        "codewords =\n    0,0,0\n    1,1,1", "generator =\n    1,1,1")
    ch = channel_from_config(text)
    assert set(ch.codewords) == {(0, 0, 0), (1, 1, 1)}


def test_space_code():
    text = REPETITION.replace("codewords =\n    0,0,0\n    1,1,1", "space = 2")
    ch = channel_from_config(text)
    assert len(ch.codewords) == 4


LISTED = "codewords =\n    0,1\n    1,0"


@pytest.mark.parametrize("text, key", [
    (MATRIX_RANK.replace("space = 2x1", LISTED).replace("rows = 2", "rows = 0"), "rows"),
    (MATRIX_RANK.replace("space = 2x1", LISTED).replace("rows = 2", "rows = -1"), "rows"),
    (MATRIX_RANK.replace("rows = 2\n", "").replace("2x1", "0x1"), "space"),
    (MATRIX_RANK.replace("rows = 2\n", "").replace("2x1", "-2x1"), "space"),
    (REPETITION.replace("codewords =\n    0,0,0\n    1,1,1", "space = -1"), "space"),
], ids=["rows=0", "rows=-1", "space=0x1", "space=-2x1", "vector-space=-1"])
def test_code_sizes_must_be_positive(text, key):
    with pytest.raises(ConfigError, match=rf"\[code\] {key} = .*positive"):
        channel_from_config(text)


@pytest.mark.parametrize("line", ["error_length = 1", "output_length = 2"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_table_lengths_must_be_positive(line, value):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"^\[channel\] {key} = '{value}' is not a "
                                          "positive integer$"):
        channel_from_config(TABLE.replace(line, f"{key} = {value}"))


SUM_RANK = MATRIX_RANK.replace("kind = rank", "kind = sum-rank\nblocks = 1,1")


@pytest.mark.parametrize("text, good, bad, where", [
    (REPETITION, "0,0,0", "0,0,,0", r"\[code\] codewords = '0,0,,0'"),
    (REPETITION, "1,1,1", "1,1,1,", r"\[code\] codewords = '1,1,1,'"),
    (MATRIX_RANK, "0,1", "0, ,1", r"\[channel\] b = '0, ,1'"),
    (SUM_RANK, "blocks = 1,1", "blocks = 1,,1", r"\[weight\] blocks = '1,,1'"),
], ids=["codeword", "trailing-comma", "matrix-row", "blocks"])
def test_empty_entries_rejected(text, good, bad, where):
    channel_from_config(text)  # the same config without the empty entry builds
    with pytest.raises(ConfigError, match=where + " has an empty entry"):
        channel_from_config(text.replace(good, bad))


IGNORED_BY_THE_BUILD = {
    "prime-field-modulus": (REPETITION.replace("p = 2\nk = 1", "p = 3\nk = 1\nmodulus = 1,0,1"),
                            r"^\[field\] GF\(3\) is a prime field and takes no modulus"),
    "classical-rows": (REPETITION.replace("[code]\n", "[code]\nrows = 2\n"),
                       r"^unknown key\(s\) \['rows'\] in section \[code\]$"),
    "table-rows": (TABLE.replace("[code]\n", "[code]\nrows = 5\n"),
                   r"^unknown key\(s\) \['rows'\] in section \[code\]$"),
    "two-code-forms": (REPETITION.replace("codewords =\n    0,0,0\n    1,1,1",
                                          "generator =\n    1,1,1\nspace = 5"),
                       r"^\[code\] takes one of codewords, space or generator, "
                       r"got \['space', 'generator'\]$"),
}


@pytest.mark.parametrize("case", sorted(IGNORED_BY_THE_BUILD))
def test_keys_the_build_would_ignore_are_rejected(case):
    """A modulus on a prime field, [code] rows off a matrix channel, and a
    second code form used to be dropped silently; each is an error now."""
    text, message = IGNORED_BY_THE_BUILD[case]
    with pytest.raises(ConfigError, match=message):
        channel_from_config(text)


B_D = "[function b d]\n0,0 = 0\n"
ONE_KEY_TWICE = {
    # without the check the later row or section silently won: toy
    # d0_min 3 -> 2 (both network cases) and TABLE d0_min inf -> 1
    "function-row": (TOY_NETWORK.replace(B_D, B_D + "0, 0 = 2\n"),
                     r"^\[function b d\] rows '0,0' and '0, 0' parse to the same key$"),
    "transfer-row": (TABLE + "0 ;0 = 1,1\n",
                     r"^\[transfer\] rows '0 ; 0' and '0 ;0' parse to the same key$"),
    "function-section": (TOY_NETWORK + "\n[function b  d]\n"
                         + "".join(f"{i},{j} = 0\n" for i in range(3) for j in range(3)),
                         r"^sections 'function b d' and 'function b  d' parse to the same key$"),
}


@pytest.mark.parametrize("case", sorted(ONE_KEY_TWICE))
def test_one_key_twice_is_rejected(case):
    """Two rows of a section, or two [function] sections, whose keys parse
    equal are an error naming both spellings, not a silent overwrite."""
    text, message = ONE_KEY_TWICE[case]
    with pytest.raises(ConfigError, match=message):
        channel_from_config(text)


STRAY_TRANSFER_ROWS = {"foreign-codeword": "0,1 ; 1 = 0,0",
                       "long-error": "0 ; 1,1 = 0,0",
                       "symbol-5": "5 ; 0 = 0,0"}


@pytest.mark.parametrize("case", sorted(STRAY_TRANSFER_ROWS))
def test_stray_transfer_rows_are_rejected(case):
    """[transfer] holds exactly the codewords x errors; a row outside them
    used to be ignored."""
    with pytest.raises(ConfigError, match=r"^table has an entry for .* outside the "
                                          r"codewords x length-1 errors$"):
        channel_from_config(TABLE + STRAY_TRANSFER_ROWS[case] + "\n")


MATRIX_HAMMING = MATRIX_RANK.replace("kind = rank", "kind = hamming").replace(
    "rows = 2\nspace = 2x1", "codewords =\n    0\n    1")


@pytest.mark.parametrize("text, message", [
    (MATRIX_HAMMING.replace("b =\n    1,0", "b =\n    1,2"),
     r"^B must be a 2x2 matrix over GF\(2\)$"),
    (REPETITION.replace("kind = hamming", "kind = x"),
     r"^\[weight\] unknown weight kind 'x'; expected one of \("),
], ids=["matrix-symbol", "weight-kind"])
def test_constructor_checks_reach_the_config(text, message):
    """Config leaves these checks to matrix_channel and WeightMeasure."""
    with pytest.raises(ConfigError, match=message):
        channel_from_config(text)


INI_SYNTAX_ERRORS = {
    "duplicate-section": REPETITION + "\n[field]\np = 3\n",
    "duplicate-key": REPETITION.replace("p = 2\n", "p = 2\np = 3\n"),
    "key-before-header": "p = 2\n" + REPETITION,
    "line-without-equals": REPETITION.replace("kind = classical\n",
                                              "kind = classical\nclassical\n"),
    "empty-key": REPETITION.replace("[code]\n", "[code]\n= 1\n"),
}


@pytest.mark.parametrize("case", sorted(INI_SYNTAX_ERRORS))
def test_ini_syntax_errors_are_parse_errors(case):
    """Only the prefix is pinned: the wording past it names the line."""
    with pytest.raises(ConfigError, match=r"^config parse error"):
        channel_from_config(INI_SYNTAX_ERRORS[case])


# the line each error names, and what it reads
INI_SYNTAX_ERROR_LINES = {"duplicate-section": (17, "[field]"), "duplicate-key": (4, "p = 3"),
                          "key-before-header": (1, "p = 2"),
                          "line-without-equals": (11, "classical"), "empty-key": (13, "= 1")}


@pytest.mark.parametrize("case", sorted(INI_SYNTAX_ERRORS))
def test_ini_syntax_errors_name_their_line(case):
    text = INI_SYNTAX_ERRORS[case]
    number, line = INI_SYNTAX_ERROR_LINES[case]
    assert text.split("\n")[number - 1] == line
    with pytest.raises(ConfigError, match=rf"^config parse error: line {number}: "):
        parse_config(text)
    with pytest.raises(configparser.Error):  # the standard reader rejects it too
        configparser_sections(text)


ROOT = Path(__file__).parent.parent
README_EXAMPLE = re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]


def test_readme_example_builds():
    assert channel_from_config(README_EXAMPLE).codewords == ((0, 0, 0), (1, 1, 1))


CONFIG_TEXTS = {
    "README_EXAMPLE": README_EXAMPLE, "REPETITION": REPETITION, "MATRIX_RANK": MATRIX_RANK,
    "TOY_NETWORK": TOY_NETWORK, "TABLE": TABLE, "SUM_RANK": SUM_RANK,
    "MATRIX_HAMMING": MATRIX_HAMMING,
    **{path.name: path.read_text() for path in (ROOT / "demos" / "configs").glob("*.ini")},
}
INI_VARIANTS = {
    "as-written": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr-only": lambda text: text.replace("\n", "\r"),  # one line: only "\n" ends a line
    "tab-indent": lambda text: re.sub(r"(?m)^ +(?=\S)", "\t", text),
    # after every continuation line a blank line and two comments, the
    # second indented like a value line
    "comments-in-values": lambda text: re.sub(r"(?m)^([ \t]+\S.*)$", r"\1\n\n# note\n    ; note",
                                              text),
    "trailing-whitespace": lambda text: text.replace("\n", " \t\n"),
}
INI_VARIANTS["all"] = lambda text: INI_VARIANTS["crlf"](INI_VARIANTS["trailing-whitespace"](
    INI_VARIANTS["comments-in-values"](INI_VARIANTS["tab-indent"](text))))


@pytest.mark.parametrize("variant", sorted(INI_VARIANTS))
@pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
def test_reader_matches_configparser(name, variant):
    text = INI_VARIANTS[variant](CONFIG_TEXTS[name])
    assert parse_config(text) == configparser_sections(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        channel_from_config(REPETITION.replace("kind = hamming",
                                               "kind = hamming\nblocc = 1"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        channel_from_config(REPETITION + "\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        channel_from_config(REPETITION + "\n[DEFAULT]\n")
    with pytest.raises(ConfigError, match="only applies"):
        channel_from_config(REPETITION + "\n[transfer]\n0 ; 0 = 0\n")
    with pytest.raises(ConfigError, match="only applies"):
        channel_from_config(REPETITION + "\n[function a b]\n0 = 0\n")


def test_single_codeword_rejected():
    with pytest.raises(ConfigError, match="two codewords"):
        channel_from_config(REPETITION.replace("    1,1,1\n", ""))


def test_bad_field_rejected():
    with pytest.raises(ConfigError, match="prime"):
        channel_from_config(REPETITION.replace("p = 2", "p = 6"))


def test_bad_symbol_rejected():
    with pytest.raises(ConfigError, match="symbols"):
        channel_from_config(REPETITION.replace("1,1,1", "1,2,1"))


def test_weight_channel_mismatch():
    with pytest.raises(ConfigError, match="hamming"):
        channel_from_config(REPETITION.replace("kind = hamming", "kind = rank"))


def test_missing_section():
    with pytest.raises(ConfigError, match=r"\[field\]"):
        channel_from_config("[channel]\nkind = classical\n")


def test_budget_override():
    from gnetcode import BudgetError
    with pytest.raises(BudgetError, match="exceeds"):
        channel_from_config(REPETITION, pair_budget=3)


LISTED_REPETITION = "codewords =\n    0,0,0\n    1,1,1"
IDENTITY_8 = "\n".join("    " + ",".join("1" if j == i else "0" for j in range(8))
                       for i in range(8))


@pytest.mark.parametrize("text", [
    REPETITION.replace(LISTED_REPETITION, "space = 8"),
    REPETITION.replace(LISTED_REPETITION, "generator =\n" + IDENTITY_8),
    MATRIX_RANK.replace("rows = 2", "rows = 8").replace("space = 2x1", "space = 8x1"),
], ids=["space", "generator", "matrix-space"])
def test_oversized_code_rejected_before_enumeration(monkeypatch, text):
    """A code of 256 words is past a 255-pair budget on its own (each word
    meets at least the zero error), so it exits before it is enumerated."""
    from gnetcode import BudgetError

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the code was enumerated")
    with monkeypatch.context() as patch:
        patch.setattr(itertools, "product", no_enumeration)
        with pytest.raises(BudgetError, match=r"2\^8 codewords exceeds the pair budget 255"):
            channel_from_config(text + "\n[budgets]\nmax_pairs = 255\n")
    # at 256 the code fits, and the channel's own |C|·|E| check rejects it
    with pytest.raises(BudgetError, match="256 codewords x .* exceeds the pair budget"):
        channel_from_config(text + "\n[budgets]\nmax_pairs = 256\n")


def test_rank_deficient_generator_spans_its_row_space():
    text = REPETITION.replace(LISTED_REPETITION,
                              "generator =\n    1,1,1\n    1,1,1\n    0,0,0")
    assert channel_from_config(text).codewords == ((0, 0, 0), (1, 1, 1))
    zero = REPETITION.replace(LISTED_REPETITION, "generator =\n    0,0,0")
    with pytest.raises(ConfigError, match="two codewords"):
        channel_from_config(zero)


def test_digest_is_stable():
    assert config_digest(REPETITION) == config_digest(REPETITION)
    assert config_digest(REPETITION) != config_digest(TABLE)
