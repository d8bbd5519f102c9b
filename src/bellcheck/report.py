"""The report store and its three text writers: JSON, CSV and table.

A report section is a Section: an ordered list of blocks, each a dict of
plain keys or a Grid of group labels and named columns, read as one dict
whose keys run in block order.  A section is built once and never written
to; _regroup files the "<group>:<field>" keys of a dict in Grids, and a
grid whose labels repeat keeps one row per label.  The writers read the
blocks as they are: each column is formatted once and _joined lays out
SLICE lines at a time by strided slice assignment, without building a
string per line, a dict of a section or a Multivector per row.  Each label
list is checked, quoted and placed once.
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

from .clifford import Multivector, render_rows


def _fmt_all(values: list[float]) -> list[str]:
    """The 12-significant-digit text of each value, as every report prints it."""
    return ["%.12g" % x for x in values]


def _json_numbers(values: list[float]) -> list[str]:
    """JSON text of each value rounded to 12 significant digits: the shortest
    repr of the rounded value, with NaN and Infinity for non-finite values.
    Exponent and non-finite texts are parsed back, because repr writes
    1e12 <= |x| < 1e16 in positional notation where %.12g uses an exponent."""
    return [json.dumps(float(t)) if "e" in t or "n" in t else t if "." in t else t + ".0"
            for t in _fmt_all(values)]


SLICE = 1 << 12  # lines joined into one string: bounds the pieces a writer holds at once


def _joined(sep: str, parts: list, n: int) -> Iterator[str]:
    """n lines separated by sep, SLICE to a string, so that sep joins the
    strings too: line r joins the parts, each a str or a list whose r-th item
    is taken, placed between the separators by strided slice assignment."""
    for start in range(0, n, SLICE):
        m = min(SLICE, n - start)
        pieces = [sep] * ((len(parts) + 1) * m)
        for k, part in enumerate(parts, 1):
            pieces[k::len(parts) + 1] = [part] * m if isinstance(part, str) else part[start:start + m]
        yield "".join(pieces[1:])


def _indexed(index: dict, obj, make: Callable):
    """make(obj), once per object (a label list or a column) and make: index
    holds each result with its object, whose id is then not reused."""
    key = id(obj), make
    return (index[key] if key in index else index.setdefault(key, (obj, make(obj))))[1]


def _distinct(labels: list[str]) -> bool:
    return len(set(labels)) == len(labels)


def _json_labels(labels: list[str]) -> list[str]:
    """The JSON text of each label less its quotes: the list itself if none needs an escape."""
    joined = "".join(labels)
    return labels if len(encode_basestring(joined)) == len(joined) + 2 else [
        encode_basestring(label)[1:-1] for label in labels]


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


def _regroup(entries: dict) -> list:
    """A flat dict's entries as blocks, in key order: each run of plain keys in a
    dict, and each run of points ("<label>:<field>" keys) with the same fields in a Grid."""
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
    dict: _regroup refiles a dict holding grouped keys, and a grid whose
    labels repeat (points equal to 12 digits) keeps each label's first
    position and last row, column by column, as a dict keeps a repeated
    key.  The sections of a report share one index (see _indexed)."""

    def __init__(self, entries: dict | list | None = None, index: dict | None = None):
        self.blocks: list = []
        self.index = {} if index is None else index
        for block in entries if isinstance(entries, list) else [entries or {}]:
            if isinstance(block, dict):
                self.blocks.extend(_regroup(block) if ":" in "".join(block) else [block])
            elif _indexed(self.index, block.labels, _distinct):
                self.blocks.append(block)
            else:  # each label at its first row, with its last row's values
                rows = list(block.rows.values())
                self.blocks.append(Grid(list(block.rows), {
                    f: c[rows] if isinstance(c, np.ndarray) else [c[r] for r in rows]
                    for f, c in block.columns.items()}))

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


def _grid_texts(grid: Grid, text: Callable, numbers: Callable, quote: Callable) -> dict:
    """Field -> text of each value in its column: numbers(list) of a float
    array, "true"/"false" of a bool mask, quote() of each row a coefficient
    array renders, text() of anything else.  A column that several fields
    share, or a float column of one bit pattern, is formatted once."""
    def texts(column) -> list[str]:
        if not isinstance(column, np.ndarray):
            return list(map(text, column))
        if column.dtype == np.float64 and len(column) > 1 and (
                column.view(np.int64) == column[:1].view(np.int64)).all():
            return texts(column[:1]) * len(column)
        if column.ndim == 2:
            return list(map(quote, render_rows(column)))
        if column.dtype == bool:
            return ["true" if v else "false" for v in column.tolist()]
        values = column.tolist()
        return numbers(values) if column.dtype == np.float64 else list(map(text, values))

    done: dict = {}
    return {f: _indexed(done, c, texts) for f, c in grid.columns.items()}


def _block_lines(block, prefix: str, sep: str, quote: Callable, text: Callable,
                 numbers: Callable, index: dict) -> Iterable[str]:
    """'<prefix><quote(key)>: <text>' of each entry of a block, in key order,
    separated by sep; quote (str or JSON's) escapes char by char, so a grid
    quotes its label list once (index holds it) and ":<field>" once."""
    if isinstance(block, dict):
        return _joined(sep, [prefix, list(map(quote, block)), ": ", list(map(text, block.values()))],
                       len(block))
    cut = len(quote("")) // 2  # 1 for JSON: a key's opening mark, and its closing one
    labels = _indexed(index, block.labels, _json_labels) if cut else block.labels
    parts = [part for field, texts in _grid_texts(block, text, numbers, quote).items()
             for part in (sep, prefix + quote("")[:cut], labels, quote(":" + field)[cut:] + ": ", texts)]
    return _joined(sep, parts[1:], len(labels))


def _json_object(blocks: list, indent: str, index: dict) -> str:
    """JSON text of the object of the blocks' entries, as json.dumps(indent=2)."""
    inner = indent + "  "
    text = functools.partial(_json_value, indent=inner)
    items = ",\n".join(itertools.chain.from_iterable(
        _block_lines(block, inner, ",\n", encode_basestring, text, _json_numbers, index)
        for block in blocks))
    return f"{{\n{items}\n{indent}}}" if items else "{}"


def _json_value(value, indent: str) -> str:
    """JSON text of one report value, laid out as json.dumps(indent=2).

    Floats (numpy floats included) are rounded to 12 significant digits,
    numpy integers and booleans as ints and bools, Multivectors as render()."""
    if isinstance(value, (float, np.floating)):
        return _json_numbers([float(value)])[0]
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (str, Multivector)):
        return encode_basestring(_text(value))
    if value is None:
        return "null"
    if isinstance(value, (dict, Section)):  # a dict is one block, of no label list
        return _json_object(getattr(value, "blocks", [value]), indent, getattr(value, "index", {}))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = (_json_numbers(value) if all(isinstance(v, float) for v in value)
                 else [_json_value(v, inner) for v in value])
        return "[\n" + inner + (",\n" + inner).join(items) + f"\n{indent}]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text(value) -> str:
    """CSV and table text of one report value."""
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _param_text(value) -> str:
    if not isinstance(value, (list, tuple)):
        return _text(value)
    return " ".join(_fmt_all(value) if all(isinstance(v, float) for v in value) else map(_text, value))


def _split_groups(report):
    """Report entries as a table of per-group rows, column by column, and
    a list of scenario-level (name, text) pairs.

    Each Grid feeds one row per group label, found once per label list (the
    first list's rows are its own order), and puts each column's texts at
    those rows, or takes them as they are if one grid holds them in row
    order.  Each column starts with its header: "point", the fields in order
    of first appearance, and "verdict" (the group's verdicts that hold); the
    table is empty when no key is grouped.
    """
    order: list[str] = []  # the label of each row
    rows: dict[str, int] = {}  # label -> row, built once a second label list is met
    at: dict = {}  # label list -> its rows
    placed: dict[str, list] = {}  # field -> (rows, texts) of each grid holding it
    plain: list[tuple[str, str]] = []

    def where(labels: list[str]) -> np.ndarray:  # a grid's labels are distinct
        if not order:
            order.extend(labels)
            return np.arange(len(labels))
        rows.update(zip(order[len(rows):], itertools.count(len(rows))))
        order.extend(g for g in labels if g not in rows)
        rows.update(zip(order[len(rows):], itertools.count(len(rows))))
        return np.fromiter(map(rows.get, labels), int, len(labels))

    def file(blocks: list, prefix: str = "") -> None:
        for block in blocks:
            if isinstance(block, dict):
                plain.extend((prefix + key, _text(value)) for key, value in block.items())
                continue
            at_rows = _indexed(at, block.labels, where)
            for name, texts in _grid_texts(block, _text, _fmt_all, str).items():
                placed.setdefault(name, []).append((at_rows, texts))

    file(report.exact_results.blocks)
    for key, m in report.mc_results.items():
        sep = ":" if ":" in key else "."
        file(_regroup({f"{key}{sep}{field}": value for field, value in vars(m).items()}))
    # keep grouped fields as-is; label scenario-level ones as references
    file(report.qm_reference.blocks, "qm.")
    points = order[:]  # a verdict's label that no result holds gets a row past these
    holding = np.full(len(points), "", dtype=object)  # "<verdict>;" of each that holds
    for block in report.verdicts.blocks:
        if isinstance(block, dict):
            plain.extend((key, _text(value)) for key, value in block.items())
            continue
        known = _indexed(at, block.labels, where)
        for name, column in block.columns.items():
            holds = np.fromiter(map(bool, _values(column)), bool, len(known))
            holding[known[holds & (known < len(points))]] += name + ";"

    if not points:
        return [], plain
    table = [["point", *points]]
    for name, cells in placed.items():
        if len(cells) == 1 and np.array_equal(cells[0][0], np.arange(len(points))):
            table.append([name, *cells[0][1]])
            continue
        texts = np.full(len(points), "", dtype=object)
        for at_rows, values in cells:
            texts[at_rows] = values
        table.append([name, *texts.tolist()])
    return [*table, ["verdict", *[text[:-1] for text in holding.tolist()]]], plain


def emit_csv(report) -> str:
    """The ScenarioReport as CSV: the per-group table, then name,value rows."""
    table, plain = _split_groups(report)
    parts = [part for column in table for part in (",", column)][1:]
    lines = [*_joined("\n", parts, len(table and table[0])), *[""] * bool(table and plain)]
    if plain or not table:
        lines += ["name,value", *(f"{name},{value}" for name, value in plain)]
    return "\n".join([*lines, ""])


def emit_table(report, passed: bool) -> str:
    """The ScenarioReport as aligned text; `passed` is report.gate_passed()."""
    table, plain = _split_groups(report)
    lines = [f"scenario: {report.scenario_name}", f"seed: {report.seed}", "parameters:"]
    for block in report.parameters.blocks:
        lines.extend(_block_lines(block, "  ", "\n", str, _param_text, _fmt_all, {}))

    if table:
        # Each column but the last padded to its width: that padding would be stripped.
        form = "".join(f"%-{max(map(len, column))}s  " for column in table[:-1]) + "%s"
        lines += ["", *((form % row).rstrip() for row in zip(*table))]
        del table  # the rows hold its cells' text now: free them before the join
    if plain:
        lines.extend(["", "results:", *(f"  {name}: {value}" for name, value in plain)])
    lines += ["", f"gate: {'PASS' if passed else 'FAIL'}"]
    if "consistent_assignments" in report.exact_results:
        lines.append(f"consistent assignments: {int(report.exact_results['consistent_assignments'])}")
    return "\n".join([*lines, ""])
