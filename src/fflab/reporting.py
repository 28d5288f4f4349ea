"""Run records and their lossless serialization.

Every task emits a stream of ReportRecord rows.  Values stay exact in
memory (ints, Fractions, cyclotomic integers) and are written losslessly:
rationals as "num/den", cyclotomic values as their power-basis coefficient
vector "[c_0,...,c_{p-2}]", integer tuples as "(a,b,c)".  Wall-clock timing
is tracked on the record for operators but never written to report files,
so a rerun with the same config and seed produces byte-identical output.

CSV columns are task, then input columns in first-seen order, then output
columns in first-seen order, then passed and budget_spent.  An empty record
stream still yields the fixed header.  JSONL rows carry the same serialized
strings under the same keys; a key a record does not have is left out of
its JSONL row and is empty in its CSV row.

A report is serialized a column at a time (_columns), top to bottom, before
anything is written: each value's text comes from a lookup on its exact
type, and an object repeated down a column, such as the shared inputs of
a sweep's rows, is serialized once.  A JSONL line is joined from the JSON
of its cells, each distinct text of a column encoded once.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import CyclotomicValue
from .errors import ConfigError

__all__ = ["FORMATS", "ReportRecord", "serialize_value", "parse_value",
           "flatten_records", "emit_report", "write_report", "read_rows"]

FORMATS = ("csv", "jsonl")

_INT_RE = re.compile(r"-?\d+\Z")
_FRAC_RE = re.compile(r"-?\d+/-?\d+\Z")
_FLOAT_RE = re.compile(r"-?(\d+\.\d*|\.\d+|\d+)(e[+-]?\d+)?\Z", re.IGNORECASE)


def serialize_value(value) -> str:
    """Exact text form of one report value.  Rejects lossy types loudly.

    The text comes from a lookup on the value's exact type (_TEXT); a
    subclass or an unknown type goes through the isinstance chain
    (_serialize_by_isinstance), so an IntEnum keeps its int text and an
    np.int64 raises TypeError."""
    return _TEXT.get(type(value), _serialize_by_isinstance)(value)


def _serialize_by_isinstance(value) -> str:
    for kind, text in _TEXT.items():
        if isinstance(value, kind):
            return text(value)
    raise TypeError(f"cannot serialize report value of type {type(value).__name__}")


def _fraction_text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cyclotomic_text(value) -> str:
    return "[" + ",".join(map(_fraction_text, value.coeffs)) + "]"


def _sequence_text(value) -> str:
    # the entries of one exact type in _TEXT share its text function
    kinds = set(map(type, value))
    text = _TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    return "(" + ",".join(map(text or serialize_value, value)) + ")"


# In the order of the isinstance chain: bool before int.
_TEXT = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    int: str,
    Fraction: _fraction_text,
    float: repr,
    CyclotomicValue: _cyclotomic_text,
    tuple: _sequence_text,
    list: _sequence_text,
    str: lambda value: value,
}


def parse_value(text: str):
    """Inverse of serialize_value on the types the tasks emit.

    Plain strings that look like numbers would be reparsed as numbers; task
    labels never do, so the round trip is exact on real reports."""
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FRAC_RE.match(text):
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if text.startswith("[") and text.endswith("]"):
        parts = [p for p in text[1:-1].split(",") if p]
        coeffs = [parse_value(p) for p in parts]
        return CyclotomicValue(len(coeffs) + 1, coeffs)
    if text.startswith("(") and text.endswith(")"):
        parts = [p for p in text[1:-1].split(",") if p]
        return tuple(parse_value(p) for p in parts)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


@dataclass
class ReportRecord:
    """One emitted row: a task name, echoed inputs, exact outputs, a pass
    flag, and bookkeeping that stays out of the report files."""
    task: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    passed: bool = True
    seconds: float = 0.0
    budget_spent: int = 0


_ABSENT = object()      # the entry of a key that a record does not have


def _column(values) -> list:
    """The texts of one column, top to bottom.  An object repeated down the
    column is serialized once; an absent key's entry is None."""
    texts = []
    last, text = _ABSENT, None
    for value in values:
        if value is not last:
            last = value
            text = None if value is _ABSENT else serialize_value(value)
        texts.append(text)
    return texts


def _columns(records):
    """(names, cols): the column names in their stable order and, per
    column, the serialized texts of every record."""
    records = list(records)
    ins, outs = {}, {}
    for rec in records:       # update keeps a key where it was first seen
        ins.update(rec.inputs)
        outs.update(rec.outputs)
    names = (["task"] + [f"in.{key}" for key in ins]
             + [f"out.{key}" for key in outs] + ["passed", "budget_spent"])
    cols = ([[rec.task for rec in records]]
            + [_column([rec.inputs.get(key, _ABSENT) for rec in records])
               for key in ins]
            + [_column([rec.outputs.get(key, _ABSENT) for rec in records])
               for key in outs]
            + [_column([rec.passed for rec in records]),
               _column([rec.budget_spent for rec in records])])
    return names, cols


def _rows(names, cols):
    """One {column: text} dict per record, without its absent keys."""
    return [{name: text for name, text in zip(names, row) if text is not None}
            for row in zip(*cols)]


def flatten_records(records):
    """(columns, rows): stable column order plus fully serialized rows."""
    names, cols = _columns(records)
    return names, _rows(names, cols)


def _check_format(fmt: str):
    if fmt not in FORMATS:
        raise ConfigError(f"unknown report format {fmt!r}; use one of {FORMATS}")


def _emit(names, cols, stream, fmt: str) -> int:
    """Write serialized columns to an open text stream as rows."""
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*cols))
    else:
        cells = []      # `"name": "text"` per cell, None where absent
        for name, col in zip(names, cols):
            head = json.dumps(name) + ": "
            json_of = {text: head + json.dumps(text)
                       for text in set(col) - {None}}
            cells.append(list(map(json_of.get, col)))
        stream.writelines("{" + ", ".join(filter(None, row)) + "}\n"
                          for row in zip(*cells))
    return len(cols[0])


def emit_report(records, stream, fmt: str = "csv") -> int:
    """Write records to an open text stream; returns the row count."""
    _check_format(fmt)
    return _emit(*_columns(records), stream, fmt)


def write_report(records, path: str, fmt: str = "csv") -> str:
    """Write a report file atomically.

    Every value is serialized before the file is opened, so a value that
    cannot be serialized leaves nothing on disk.  Data goes to
    `path + ".partial"` first and is renamed into place only after a clean
    finish; a write that raises removes the partial file, and a process
    killed mid-write leaves its incomplete output clearly marked instead of
    masquerading as a finished report."""
    _check_format(fmt)
    names, cols = _columns(records)
    partial = path + ".partial"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fh = open(partial, "w", encoding="utf-8", newline="")
    try:
        with fh:
            _emit(names, cols, fh, fmt)
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise
    return path


def read_rows(path: str, fmt: str = "csv"):
    """Read an emitted report back as a list of {column: string} dicts."""
    _check_format(fmt)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            return [dict(row) for row in csv.DictReader(fh)]
        return [json.loads(line) for line in fh if line.strip()]
