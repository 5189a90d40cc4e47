"""Channel configuration files.

The format is INI-style: named sections with ``key = value`` lines,
chosen over a binary format so test fixtures diff cleanly.  Field symbols
are written as integer indices into the field's canonical element order;
vectors are comma-separated symbols, matrices one comma-separated row per
line (multiline values).  Unknown sections or keys are rejected outright.

The syntax, read line by line (a line ends at ``\n`` only, so a ``\r``
before it is trailing whitespace):

- ``[name]`` starts section ``name`` (anything after the last ``]`` is
  dropped); every other line before the first header must be blank or a
  comment.
- ``key = value`` splits at the first ``=``; key and value are stripped of
  surrounding whitespace, and keys are case-sensitive.
- A line indented deeper than its key line continues the value: each such
  line, stripped, is one more line of it.  Blank lines inside a value are
  kept, blank lines at its end are dropped.
- A line whose first non-blank character is ``#`` or ``;`` is a comment,
  inside a value too.  There are no inline comments: ``p = 3 ; odd`` sets
  p to ``3 ; odd``.
- A section named twice, a key named twice in one section, an empty key
  and any other line (one with no ``=``, say) are errors, each raised as
  ``config parse error: line N: ...``.  ``[DEFAULT]`` is a section like
  any other, and so is rejected as unknown.

Sections::

    [field]     p, k, optional modulus when k > 1 (degree k, constant first)
    [weight]    kind = hamming | rank | sum-rank, optional blocks
    [channel]   kind = classical | matrix | network | table, plus kind keys
    [code]      one of codewords (one per line) | space = N or RxC | generator
    [budgets]   max_field_size, max_pairs

Matrix channels take ``a`` and ``b`` matrices in [channel]; matrix
codewords declare ``rows`` in [code] and list each codeword flattened
row-major.  Network channels declare ``nodes``, ``source``, ``sink`` and
``edges`` (one ``tail head`` pair per line) in [channel] and one
``[function tail head]`` section per non-source edge whose rows map a
comma-separated input tuple to an output symbol.  Table channels declare
``error_length`` and ``output_length`` and list in a ``[transfer]``
section one ``x ; z = y`` row for each codeword x and error z, and no
other.  A section holds one row per parsed key, so ``0,0`` and ``0, 0``
in one section are an error, as are two [function] sections for one edge.
"""

from __future__ import annotations

import hashlib
import itertools

from .field import Field, DEFAULT_MAX_FIELD_SIZE, power_exceeds
from .weights import WeightMeasure, HAMMING
from .channel import (BudgetError, Channel, classical_channel, matrix_channel,
                      table_channel, DEFAULT_PAIR_BUDGET)
from .network import NetworkSpec, compile_network
from . import matrices as mx


class ConfigError(ValueError):
    """A configuration file could not be interpreted."""


_SECTION_KEYS = {
    "field": {"p", "k", "modulus"},
    "weight": {"kind", "blocks"},
    "channel": {"kind", "a", "b", "nodes", "source", "sink", "edges",
                "error_length", "output_length"},
    "code": {"codewords", "space", "generator", "rows"},
    "budgets": {"max_field_size", "max_pairs"},
}
_CHANNEL_KEYS = {
    "classical": {"kind"},
    "matrix": {"kind", "a", "b"},
    "network": {"kind", "nodes", "source", "sink", "edges"},
    "table": {"kind", "error_length", "output_length"},
}


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _positive(section: str, key: str, raw: str) -> int:
    n = _int(section, key, raw)
    if n < 1:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a positive integer")
    return n


def _space_dims(spec: str) -> tuple[int, int]:
    """The (R, C) of ``[code] space = RxC``, both positive."""
    try:
        r, c = (int(t) for t in spec.split("x"))
    except ValueError:
        raise ConfigError(f"[code] space = {spec!r} is not RxC") from None
    if r < 1 or c < 1:
        raise ConfigError(f"[code] space = {spec!r} needs positive sizes R and C")
    return r, c


def _int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, raw.split(",")))
    except ValueError:
        # only a failed read is told apart, to name what is wrong
        if any(not tok.strip() for tok in raw.split(",")):
            raise ConfigError(f"[{section}] {key} = {raw!r} has an empty entry") from None
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a comma-separated "
                          "integer list") from None


def _matrix(section: str, key: str, raw: str) -> mx.Matrix:
    rows = [line.strip() for line in raw.splitlines() if line.strip()]
    if not rows:
        raise ConfigError(f"[{section}] {key} is empty")
    out = tuple(_int_list(section, key, line) for line in rows)
    if len({len(r) for r in out}) != 1:
        raise ConfigError(f"[{section}] {key} has ragged rows")
    return out


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` from config text, in the syntax of the
    module docstring; each syntax error raises :class:`ConfigError`
    naming its line."""
    sections: dict[str, dict[str, list[str]]] = {}
    body = None  # the current section's keys
    lines = None  # the current key's value lines, None until a section's first key
    indent = 0  # the indentation of the last header or key line
    for number, line in enumerate(text.split("\n"), 1):
        value = line.strip()
        if not value:
            if lines is not None:
                lines.append("")
            continue
        if value[0] in "#;":
            continue
        level = len(line) - len(line.lstrip())
        if lines is not None and level > indent:
            lines.append(value)
            continue
        indent = level
        end = value.rfind("]")
        if value[0] == "[" and end > 1:
            name = value[1:end]
            if name in sections:
                raise _syntax_error(number, f"section [{name}] appears twice")
            body = sections[name] = {}
            lines = None
            continue
        if body is None:
            raise _syntax_error(number, f"{value!r} comes before any [section] header")
        key, eq, rest = value.partition("=")
        key = key.rstrip()
        if not eq:
            raise _syntax_error(number, f"{value!r} is not a 'key = value' line")
        if not key:
            raise _syntax_error(number, f"{value!r} has an empty key")
        if key in body:
            raise _syntax_error(number, f"key {key!r} appears twice in [{name}]")
        lines = body[key] = [rest.lstrip()]
    return {name: {key: "\n".join(lines).rstrip() for key, lines in body.items()}
            for name, body in sections.items()}


def _syntax_error(number: int, what: str) -> ConfigError:
    return ConfigError(f"config parse error: line {number}: {what}")


def _reject_unknown(parsed: dict) -> None:
    kind = parsed.get("channel", {}).get("kind")
    for section, body in parsed.items():
        if section in _SECTION_KEYS:
            allowed = _SECTION_KEYS[section]
            if section == "channel" and kind in _CHANNEL_KEYS:
                allowed = _CHANNEL_KEYS[kind]
            elif section == "code" and kind in _CHANNEL_KEYS and kind != "matrix":
                allowed = allowed - {"rows"}  # only matrix codewords have rows
            unknown = body.keys() - allowed
            if unknown:
                raise ConfigError(
                    f"unknown key(s) {sorted(unknown)} in section [{section}]")
        elif section.startswith("function "):
            if kind != "network":
                raise ConfigError(f"[{section}] only applies to network channels")
        elif section == "transfer":
            if kind != "table":
                raise ConfigError("[transfer] only applies to table channels")
        else:
            raise ConfigError(f"unknown section [{section}]")
    for required in ("field", "channel"):
        if required not in parsed:
            raise ConfigError(f"missing required section [{required}]")
    code = parsed.get("code", {})
    forms = [key for key in ("codewords", "space", "generator") if key in code]
    if len(forms) > 1:
        raise ConfigError(f"[code] takes one of codewords, space or generator, got {forms}")


def channel_from_config(text: str,
                        pair_budget: int | None = None) -> Channel:
    """Build a channel from configuration text.

    Referential and dimensional integrity is checked here, before any
    engine call; ``pair_budget`` overrides the [budgets] section.
    """
    parsed = parse_config(text)
    _reject_unknown(parsed)

    budget_sec = parsed.get("budgets", {})
    max_field = _int("budgets", "max_field_size", budget_sec.get(
        "max_field_size", str(DEFAULT_MAX_FIELD_SIZE)))
    budget = pair_budget if pair_budget is not None else _int(
        "budgets", "max_pairs", budget_sec.get("max_pairs", str(DEFAULT_PAIR_BUDGET)))

    fsec = parsed["field"]
    p = _int("field", "p", fsec.get("p", ""))
    k = _int("field", "k", fsec.get("k", "1"))
    modulus = _int_list("field", "modulus", fsec["modulus"]) if "modulus" in fsec else None
    try:
        fld = Field(p, k, modulus, max_size=max_field)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"[field] {exc}") from None

    measure = _parse_weight(parsed)
    kind = parsed["channel"].get("kind")
    if kind not in _BUILDERS:
        raise ConfigError(f"[channel] kind must be classical, matrix, network or "
                          f"table, got {kind!r}")
    if kind != "matrix" and measure.kind != HAMMING:
        raise ConfigError(f"{kind} channels use the hamming weight")
    return _wrap(lambda: _BUILDERS[kind](parsed, fld, measure, budget))


def _wrap(build):
    try:
        return build()
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from None


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_weight(parsed) -> WeightMeasure:
    if "weight" not in parsed:
        return WeightMeasure(HAMMING)
    wsec = parsed["weight"]
    blocks = _int_list("weight", "blocks", wsec["blocks"]) if "blocks" in wsec else None
    try:
        return WeightMeasure(wsec.get("kind", HAMMING), blocks)
    except ValueError as exc:
        raise ConfigError(f"[weight] {exc}") from None


def _symbols_ok(fld: Field, vectors) -> bool:
    """Are all entries of ``vectors`` (integer tuples) symbols of ``fld``?"""
    return set(itertools.chain.from_iterable(vectors)) <= set(range(fld.q))


def _check_code_size(fld: Field, n: int, budget: int) -> None:
    """A code of ``q^n`` codewords meets at least one error each, so past
    the pair budget it is rejected before it is enumerated."""
    if power_exceeds(fld.q, n, budget):
        raise BudgetError(f"{fld.q}^{n} codewords exceeds the pair budget {budget}")


def _parse_code(parsed, fld: Field, budget: int, rows: int | None = None):
    """The [code] codewords: vectors, or with ``rows`` matrices of that many
    rows, each read as a row-major flat vector and reshaped."""
    if "code" not in parsed:
        raise ConfigError("missing required section [code]")
    csec = parsed["code"]
    if "codewords" in csec:
        flat = [_int_list("code", "codewords", line)
                for line in csec["codewords"].splitlines() if line.strip()]
        if rows is None and not _symbols_ok(fld, flat):
            x = next(x for x in flat if not _symbols_ok(fld, [x]))
            raise ConfigError(f"[code] codeword {x} has symbols outside {fld}")
    elif "space" in csec:
        spec = csec["space"].strip()
        if rows is None:
            if "x" in spec:
                raise ConfigError("[code] space = RxC needs a matrix channel")
            n = _positive("code", "space", spec)
        else:
            r, c = _space_dims(spec)
            if r != rows:
                raise ConfigError(f"[code] space rows {r} disagree with rows = {rows}")
            n = r * c
        _check_code_size(fld, n, budget)
        flat = itertools.product(range(fld.q), repeat=n)
    elif "generator" in csec and rows is None:
        g = _matrix("code", "generator", csec["generator"])
        if not _symbols_ok(fld, g):
            raise ConfigError(f"[code] generator entries must be symbols of {fld}")
        # the code is g's row space, enumerated over a row basis (a zero
        # generator spans the zero word alone)
        basis = [g[i] for i in mx.pivot_columns(fld, mx.transpose(g))] or [g[0]]
        _check_code_size(fld, len(basis), budget)
        times = mx.multiplier(fld, basis, (len(basis),))
        flat = sorted(set(map(times, itertools.product(range(fld.q), repeat=len(basis)))))
    else:
        raise ConfigError("[code] needs codewords, space or generator" if rows is None else
                          "[code] matrix codewords need codewords lines or space = RxC")
    if rows is None:
        return list(flat)
    out = []
    for v in flat:
        if len(v) % rows:
            raise ConfigError(f"[code] codeword {v} does not fill {rows} rows")
        cols = len(v) // rows
        out.append(tuple(v[i * cols:(i + 1) * cols] for i in range(rows)))
    return out


def _keyed_rows(items, parse_key, where: str):
    """Yield ``(raw key, parsed key, value)`` for each ``(raw key, value)``
    item, rejecting two raw keys that parse to the same key."""
    seen = {}
    for raw, value in items:
        key = parse_key(raw)
        if key in seen:
            raise ConfigError(f"{where} {seen[key]!r} and {raw!r} parse to the same key")
        seen[key] = raw
        yield raw, key, value


def _classical_from_config(parsed, fld: Field, measure: WeightMeasure, budget: int):
    return classical_channel(fld, _parse_code(parsed, fld, budget), pair_budget=budget)


def _matrix_from_config(parsed, fld: Field, measure: WeightMeasure, budget: int):
    csec = parsed["channel"]
    if "a" not in csec or "b" not in csec:
        raise ConfigError("[channel] matrix channels need both a and b")
    a = _matrix("channel", "a", csec["a"])
    b = _matrix("channel", "b", csec["b"])
    code = parsed.get("code", {})
    rows = code.get("rows")
    if rows is not None:
        rows = _positive("code", "rows", rows)
    elif measure.kind != HAMMING:
        spec = code.get("space", "")
        if "x" not in spec:
            raise ConfigError("[code] rank/sum-rank codes need rows or space = RxC")
        rows = _space_dims(spec.strip())[0]
    codewords = _parse_code(parsed, fld, budget, rows)
    return matrix_channel(fld, codewords, a, b, measure, pair_budget=budget)


def _edge(section: str) -> tuple[str, str]:
    parts = section.split()
    if len(parts) != 3:
        raise ConfigError(f"[{section}] must be [function tail head]")
    return parts[1], parts[2]


def _network_from_config(parsed, fld: Field, measure: WeightMeasure, budget: int):
    csec = parsed["channel"]
    for key in ("nodes", "source", "sink", "edges"):
        if key not in csec:
            raise ConfigError(f"[channel] network channels need {key}")
    nodes = tuple(tok.strip() for tok in csec["nodes"].split(",") if tok.strip())
    edges = []
    for line in csec["edges"].splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"[channel] edge line {line!r} is not 'tail head'")
        edges.append((parts[0], parts[1]))
    functions = ((s, body) for s, body in parsed.items() if s.startswith("function "))
    local = {}
    for section, edge, body in _keyed_rows(functions, _edge, "sections"):
        local[edge] = {ins: _int(section, key, value) for key, ins, value in _keyed_rows(
            body.items(), lambda key: _int_list(section, key, key), f"[{section}] rows")}
    spec = NetworkSpec(nodes=nodes, edges=tuple(edges),
                       source=csec["source"].strip(), sink=csec["sink"].strip(),
                       local_functions=local)
    codewords = _parse_code(parsed, fld, budget)
    return compile_network(fld, spec, codewords, pair_budget=budget)


def _transfer_key(key: str):
    halves = key.split(";")
    if len(halves) != 2:
        raise ConfigError(f"[transfer] row key {key!r} is not 'x ; z'")
    return tuple(_int_list("transfer", key, half) for half in halves)


def _table_from_config(parsed, fld: Field, measure: WeightMeasure, budget: int):
    csec = parsed["channel"]
    for key in ("error_length", "output_length"):
        if key not in csec:
            raise ConfigError(f"[channel] table channels need {key}")
    err_len = _positive("channel", "error_length", csec["error_length"])
    out_len = _positive("channel", "output_length", csec["output_length"])
    if "transfer" not in parsed:
        raise ConfigError("table channels need a [transfer] section")
    table = {xz: _int_list("transfer", key, value) for key, xz, value in _keyed_rows(
        parsed["transfer"].items(), _transfer_key, "[transfer] rows")}
    codewords = _parse_code(parsed, fld, budget)
    return table_channel(fld, codewords, err_len, out_len, table, pair_budget=budget)


_BUILDERS = {"classical": _classical_from_config, "matrix": _matrix_from_config,
             "network": _network_from_config, "table": _table_from_config}
