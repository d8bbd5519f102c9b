"""The report store and its three text writers: JSON, CSV and table.

A report section is a Section: an ordered list of blocks, each a dict of
plain keys or a Grid of group labels and named columns, read as one dict
whose keys run in block order.  A section is built once and never written
to; _regroup files the "<group>:<field>" keys of a dict, or of a grid whose
labels repeat, in Grids.  Grid runners fill whole columns from arrays,
and the writers read the blocks as they are: each column is formatted
once and the lines are zipped point by point, without building a dict of
a section or a Multivector per row.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator

import numpy as np

from .clifford import BASIS_LABELS, Multivector


def _fmt(x: float) -> str:
    """The 12-significant-digit text of a float, as every report prints it."""
    return f"{x:.12g}"


def _json_number(x: float) -> str:
    """JSON text of x rounded to 12 significant digits: the shortest repr of
    the rounded value, with NaN and Infinity for non-finite values.

    Exponent and non-finite forms are tested first, because repr writes
    1e12 <= |x| < 1e16 in positional notation where _fmt uses an exponent."""
    t = _fmt(x)
    if "e" in t or "n" in t:
        return json.dumps(float(t))
    return t if "." in t else t + ".0"


def _fmt_all(values: list[float]) -> list[str]:
    """_fmt of each value: "%.12g" % x is the same text, made faster."""
    return ["%.12g" % x for x in values]


def _json_numbers(values: list[float]) -> list[str]:
    """_json_number of each value; plain positional text is kept as it is."""
    return [t if "." in t and "e" not in t else _json_number(x)
            for x, t in zip(values, _fmt_all(values))]


@dataclass
class Grid:
    """A block of report entries: one row per group label, one column per
    field.  Its keys are "<label>:<field>", point by point with the fields
    in column order.  Labels hold no ":".  A column is a list of values, a
    1-D numpy array holding the values its tolist() gives, or an (N, 8)
    coefficient array holding Multivectors."""

    labels: list[str]
    columns: dict

    @functools.cached_property
    def rows(self) -> dict[str, int]:
        """Label -> row."""
        return dict(zip(self.labels, range(len(self.labels))))


def _grid_keys(grid: Grid, field: str) -> list[str]:
    return [f"{label}:{field}" for label in grid.labels]


def _values(column) -> list:
    if isinstance(column, np.ndarray):
        return [Multivector(row) for row in column.tolist()] if column.ndim == 2 else column.tolist()
    return column


def _keys(block) -> Iterable[str]:
    if isinstance(block, dict):
        return iter(block)
    return itertools.chain.from_iterable(zip(*[_grid_keys(block, f) for f in block.columns]))


def _items(block) -> Iterable[tuple[str, object]]:
    """A block's (key, value) entries, in key order."""
    if isinstance(block, dict):
        return block.items()
    values = zip(*map(_values, block.columns.values()))
    return zip(_keys(block), itertools.chain.from_iterable(values))


def _regroup(entries: dict) -> list:
    """The entries as blocks, in key order: each run of plain keys in a
    dict, and each run of consecutive points ("<label>:<field>" keys of one
    label) that have the same fields in one Grid."""
    blocks: list = []
    shape = None  # the fields of the last block, () for a dict
    split = ((*key.partition(":"), value) for key, value in entries.items())
    for (label, grouped), run in itertools.groupby(split, operator.itemgetter(0, 1)):
        if not grouped:
            if shape != ():
                blocks.append({})
                shape = ()
            blocks[-1].update((key, value) for key, _, _, value in run)
            continue
        point = {field: value for _, _, field, value in run}
        if tuple(point) != shape:
            blocks.append(Grid([], {field: [] for field in point}))
            shape = tuple(point)
        blocks[-1].labels.append(label)
        for column, value in zip(blocks[-1].columns.values(), point.values()):
            column.append(value)
    return blocks


class Section(Mapping):
    """A report section: a list of blocks (dicts and Grids) that hold
    distinct keys, read as one dict whose keys run in block order.

    It is built from a dict, a list of blocks or None, and is read-only.
    Every "<group>:<field>" key is kept in a Grid and every plain key in a
    dict: a dict holding grouped keys and a grid whose labels repeat (grid
    points equal to 12 digits) are refiled by _regroup, a repeated key
    keeping its first position and its last value."""

    def __init__(self, entries: dict | list | None = None):
        self.blocks: list = []
        for block in entries if isinstance(entries, list) else [entries or {}]:
            if (not any(":" in key for key in block) if isinstance(block, dict)
                    else len(set(block.labels)) == len(block.labels)):
                self.blocks.append(block)
            else:
                self.blocks.extend(_regroup(dict(_items(block))))

    def __getitem__(self, key: str):
        label, grouped, field = key.partition(":")
        for block in self.blocks:
            if isinstance(block, dict):
                if key in block:
                    return block[key]
            elif grouped and field in block.columns and label in block.rows:
                row = block.rows[label]
                return _values(block.columns[field][row:row + 1])[0]
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(map(_keys, self.blocks))

    def __len__(self) -> int:
        return sum(len(b) if isinstance(b, dict) else len(b.labels) * len(b.columns)
                   for b in self.blocks)


def _render_rows(coeffs: np.ndarray) -> list[str]:
    """Multivector(row).render() of each row of an (N, 8) coefficient array."""
    terms = [[f" {'-' if c < 0 else '+'} {abs(c):.12g}·{label}" if c != 0.0 else "" for c in column]
             for column, label in zip(coeffs.T.tolist(), BASIS_LABELS) if any(column)]
    return [(text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"
            for text in map("".join, zip(*terms))] if terms else ["0"] * len(coeffs)


def _grid_texts(grid: Grid, text: Callable, numbers: Callable) -> dict[str, list[str]]:
    """Field -> text of each value in its column: numbers(list) of a float
    array, "true"/"false" of a bool mask, text() of anything else, with a
    coefficient array's rows rendered first.  A column that several fields
    share is formatted once."""
    def texts(column) -> list[str]:
        if not isinstance(column, np.ndarray):
            return list(map(text, column))
        if column.ndim == 2:
            return list(map(text, _render_rows(column)))
        if column.dtype == bool:
            return ["true" if v else "false" for v in column.tolist()]
        values = column.tolist()
        return numbers(values) if column.dtype == np.float64 else list(map(text, values))

    done: dict[int, list[str]] = {}
    return {f: done[id(c)] if id(c) in done else done.setdefault(id(c), texts(c))
            for f, c in grid.columns.items()}


def _block_lines(block, prefix: str, quote: Callable, text: Callable,
                 numbers: Callable) -> Iterable[str]:
    """'<prefix><quote(key)>: <text>' of each entry of a block, in key order."""
    if isinstance(block, dict):
        return (f"{prefix}{quote(k)}: {text(v)}" for k, v in block.items())
    columns = [[f"{prefix}{key}: {t}" for key, t in zip(map(quote, _grid_keys(block, f)), texts)]
               for f, texts in _grid_texts(block, text, numbers).items()]
    return itertools.chain.from_iterable(zip(*columns))


def _json_object(blocks: list, indent: str) -> str:
    """JSON text of the object of the blocks' entries, as json.dumps(indent=2)."""
    inner = indent + "  "
    text = functools.partial(_json_value, indent=inner)
    items = ",\n".join(itertools.chain.from_iterable(
        _block_lines(block, inner, encode_basestring, text, _json_numbers) for block in blocks))
    return f"{{\n{items}\n{indent}}}" if items else "{}"


def _json_value(value, indent: str) -> str:
    """JSON text of one report value, laid out as json.dumps(indent=2).

    Floats (numpy floats included) are rounded to 12 significant digits,
    numpy integers become ints and Multivectors their render() string."""
    if isinstance(value, (float, np.floating)):
        return _json_number(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, Multivector):
        return encode_basestring(value.render())
    if value is None:
        return "null"
    if isinstance(value, (dict, Section)):
        return _json_object(value.blocks if isinstance(value, Section) else [value], indent)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = ",\n".join([inner + _json_value(v, inner) for v in value])
        return f"[\n{items}\n{indent}]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text(value) -> str:
    """CSV and table text of one report value."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, Multivector):
        return value.render()
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _param_text(value) -> str:
    return " ".join(map(_text, value)) if isinstance(value, (list, tuple)) else _text(value)


def _split_groups(report):
    """Report entries as a table of per-group rows, column by column, and
    a list of scenario-level (name, text) pairs.

    Each Grid feeds one row per group label.  Each column starts with its
    header: "point", the fields in order of first appearance, and
    "verdict" (the group's verdicts that hold); the table is empty when no
    key is grouped.
    """
    rows: dict[str, int] = {}
    cells: dict[str, dict[int, str]] = {}  # field -> row -> text
    plain: list[tuple[str, str]] = []

    def file(blocks: list, prefix: str = "") -> None:
        for block in blocks:
            if isinstance(block, dict):
                plain.extend((prefix + key, _text(value)) for key, value in block.items())
                continue
            at = [rows.setdefault(g, len(rows)) for g in block.labels]
            for name, texts in _grid_texts(block, _text, _fmt_all).items():
                cells.setdefault(name, {}).update(zip(at, texts))

    file(report.exact_results.blocks)
    for key, m in report.mc_results.items():
        sep = ":" if ":" in key else "."
        file(_regroup({f"{key}{sep}estimate": m.estimate,
                       f"{key}{sep}standard_error": m.standard_error,
                       f"{key}{sep}samples": str(m.samples)}))
    # keep grouped fields as-is; label scenario-level ones as references
    file(report.qm_reference.blocks, "qm.")
    holding: dict[int, list[str]] = {}
    for block in report.verdicts.blocks:
        if isinstance(block, dict):
            plain.extend((key, _text(value)) for key, value in block.items())
            continue
        at = [rows.get(g) for g in block.labels]
        for name, column in block.columns.items():
            for row, holds in zip(at, map(bool, _values(column))):
                if holds and row is not None:
                    holding.setdefault(row, []).append(name)

    if not rows:
        return [], plain
    every = range(len(rows))
    return [["point", *rows], *([name, *map(cell.get, every, itertools.repeat(""))]
                                for name, cell in cells.items()),
            ["verdict", *map(";".join, map(holding.get, every, itertools.repeat(())))]], plain


def emit_csv(report) -> str:
    """The ScenarioReport as CSV: the per-group table, then name,value rows."""
    table, plain = _split_groups(report)
    lines = list(map(",".join, zip(*table)))
    if table and plain:
        lines.append("")
    if plain or not table:
        lines.append("name,value")
        lines.extend(f"{name},{value}" for name, value in plain)
    return "\n".join(lines) + "\n"


def emit_table(report, passed: bool) -> str:
    """The ScenarioReport as aligned text; `passed` is report.gate_passed()."""
    table, plain = _split_groups(report)
    lines = [f"scenario: {report.scenario_name}", f"seed: {report.seed}", "parameters:"]
    for block in report.parameters.blocks:
        lines.extend(_block_lines(block, "  ", str, _param_text, _fmt_all))

    if table:
        for column in table[:-1]:  # the last column's padding would be stripped
            width = max(map(len, column))
            column[:] = [text.ljust(width) for text in column]
        lines.append("")
        lines.extend("  ".join(row).rstrip() for row in zip(*table))

    if plain:
        lines.append("")
        lines.append("results:")
        for name, value in plain:
            lines.append(f"  {name}: {value}")

    lines.append("")
    lines.append(f"gate: {'PASS' if passed else 'FAIL'}")
    if "consistent_assignments" in report.exact_results:
        count = int(report.exact_results["consistent_assignments"])
        lines.append(f"consistent assignments: {count}")
    return "\n".join(lines) + "\n"
