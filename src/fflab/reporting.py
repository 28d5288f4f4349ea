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
strings under the same keys.
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
    """Exact text form of one report value.  Rejects lossy types loudly."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, CyclotomicValue):
        inner = ",".join(f"{c.numerator}/{c.denominator}" for c in value.coeffs)
        return f"[{inner}]"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(serialize_value(v) for v in value) + ")"
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize report value of type {type(value).__name__}")


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

    def flat(self) -> dict:
        row = {"task": self.task}
        for key, val in self.inputs.items():
            row[f"in.{key}"] = serialize_value(val)
        for key, val in self.outputs.items():
            row[f"out.{key}"] = serialize_value(val)
        row["passed"] = serialize_value(self.passed)
        row["budget_spent"] = serialize_value(self.budget_spent)
        return row


def flatten_records(records):
    """(columns, rows): stable column order plus fully serialized rows."""
    rows = [rec.flat() for rec in records]
    keys = dict.fromkeys(key for row in rows for key in row)
    columns = (["task"] + [k for k in keys if k.startswith("in.")]
               + [k for k in keys if k.startswith("out.")]
               + ["passed", "budget_spent"])
    return columns, rows


def emit_report(records, stream, fmt: str = "csv") -> int:
    """Write records to an open text stream; returns the row count."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown report format {fmt!r}; use one of {FORMATS}")
    columns, rows = flatten_records(records)
    if fmt == "csv":
        writer = csv.DictWriter(stream, fieldnames=columns, restval="",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        for row in rows:
            ordered = {c: row[c] for c in columns if c in row}
            stream.write(json.dumps(ordered, ensure_ascii=True))
            stream.write("\n")
    return len(rows)


def write_report(records, path: str, fmt: str = "csv") -> str:
    """Write a report file atomically.

    Data goes to `path + ".partial"` first and is renamed into place only
    after a clean finish, so an interrupted run leaves its incomplete output
    clearly marked instead of masquerading as a finished report."""
    partial = path + ".partial"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(partial, "w", encoding="utf-8", newline="") as fh:
        emit_report(records, fh, fmt)
    os.replace(partial, path)
    return path


def read_rows(path: str, fmt: str = "csv"):
    """Read an emitted report back as a list of {column: string} dicts."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown report format {fmt!r}; use one of {FORMATS}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            return [dict(row) for row in csv.DictReader(fh)]
        return [json.loads(line) for line in fh if line.strip()]
