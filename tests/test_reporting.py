import csv
import enum
import filecmp
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from fflab import reporting
from fflab.cyclotomic import CyclotomicValue
from fflab.errors import ConfigError
from fflab.reporting import (ReportRecord, emit_report, flatten_records,
                             parse_value, read_rows, serialize_value,
                             write_report)


# -- the row-wise oracle: one dict per record, an isinstance chain per value,
# rows through csv.DictWriter -------------------------------------------------


def oracle_value(value) -> str:
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
        return "(" + ",".join(oracle_value(v) for v in value) + ")"
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize report value of type {type(value).__name__}")


def oracle_flat(rec) -> dict:
    row = {"task": rec.task}
    for key, val in rec.inputs.items():
        row[f"in.{key}"] = oracle_value(val)
    for key, val in rec.outputs.items():
        row[f"out.{key}"] = oracle_value(val)
    row["passed"] = oracle_value(rec.passed)
    row["budget_spent"] = oracle_value(rec.budget_spent)
    return row


def oracle_emit(records, fmt) -> str:
    stream = io.StringIO()
    rows = [oracle_flat(rec) for rec in records]
    keys = dict.fromkeys(key for row in rows for key in row)
    columns = (["task"] + [k for k in keys if k.startswith("in.")]
               + [k for k in keys if k.startswith("out.")]
               + ["passed", "budget_spent"])
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
    return stream.getvalue()


class Level(enum.IntEnum):
    LOW = 3


SAMPLES = [
    (None, ""),
    (True, "true"),
    (False, "false"),
    (0, "0"),
    (-17, "-17"),
    (Fraction(3, 4), "3/4"),
    (Fraction(5), "5/1"),
    (0.04, "0.04"),
    ((0, 2, 1), "(0,2,1)"),
    ("straddles-first-minimum", "straddles-first-minimum"),
]


@pytest.mark.parametrize("value,text", SAMPLES)
def test_serialize_round_trip(value, text):
    assert serialize_value(value) == text
    back = parse_value(text)
    if isinstance(value, bool) or not isinstance(value, float):
        assert back == value
    else:
        assert back == pytest.approx(value)


def test_cyclotomic_round_trip():
    val = CyclotomicValue(5, [Fraction(116, 5), 0, -1, Fraction(2)])
    text = serialize_value(val)
    assert text == "[116/5,0/1,-1/1,2/1]"
    assert parse_value(text) == val


def test_serialize_rejects_unknown_types():
    with pytest.raises(TypeError):
        serialize_value(object())


def test_column_order_is_first_seen():
    records = [
        ReportRecord("t", inputs={"a": 1}, outputs={"x": 2}),
        ReportRecord("t", inputs={"a": 1, "b": 2}, outputs={"y": 3, "x": 4}),
    ]
    columns, rows = flatten_records(records)
    assert columns == ["task", "in.a", "in.b", "out.x", "out.y",
                       "passed", "budget_spent"]
    assert rows[0]["out.x"] == "2"
    assert "in.b" not in rows[0]


def test_empty_stream_yields_header_only_csv(tmp_path):
    path = write_report([], str(tmp_path / "empty.csv"), "csv")
    with open(path) as fh:
        assert fh.read() == "task,passed,budget_spent\n"


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ConfigError):
        write_report([], str(tmp_path / "x.bin"), "bin")
    with pytest.raises(ConfigError):
        read_rows(str(tmp_path / "x.bin"), "bin")


def _records():
    return [
        ReportRecord("demo", inputs={"q": 5, "tail": (0, 2)},
                     outputs={"ratio": Fraction(1, 25), "holds": True},
                     budget_spent=625),
        ReportRecord("demo", inputs={"q": 5, "tail": (1, 0)},
                     outputs={"ratio": Fraction(2, 5), "holds": False},
                     passed=False),
    ]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_file_round_trip(tmp_path, fmt):
    path = write_report(_records(), str(tmp_path / f"r.{fmt}"), fmt)
    rows = read_rows(path, fmt)
    assert len(rows) == 2
    assert parse_value(rows[0]["out.ratio"]) == Fraction(1, 25)
    assert parse_value(rows[1]["in.tail"]) == (1, 0)
    assert parse_value(rows[1]["passed"]) is False
    assert parse_value(rows[0]["budget_spent"]) == 625


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_rerun_is_byte_identical(tmp_path, fmt):
    a = write_report(_records(), str(tmp_path / f"a.{fmt}"), fmt)
    b = write_report(_records(), str(tmp_path / f"b.{fmt}"), fmt)
    assert filecmp.cmp(a, b, shallow=False)


def test_no_partial_left_behind(tmp_path):
    path = write_report(_records(), str(tmp_path / "r.csv"), "csv")
    assert not (tmp_path / "r.csv.partial").exists()
    assert (tmp_path / "r.csv").exists()


def test_timing_never_serialized(tmp_path):
    rec = ReportRecord("demo", outputs={"x": 1}, seconds=12.5)
    path = write_report([rec], str(tmp_path / "r.csv"), "csv")
    with open(path) as fh:
        content = fh.read()
    assert "12.5" not in content
    assert "seconds" not in content


# -- the columnar route against the oracle ------------------------------------

_SHARED = (0, (1, -2), [Fraction(-3, 7), "a,b"])
_ONES = [True, 1, 1.0, Fraction(1), None]


def _random_value(rng, depth=0):
    kind = rng.randrange(12 if depth < 2 else 10)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice(_ONES)
    if kind == 2:
        return -rng.randrange(10 ** 6)
    if kind == 3:
        return rng.choice((-1, 1)) * rng.randrange(10 ** 99, 10 ** 100)
    if kind == 4:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-30, 30)
    if kind == 5:
        return Fraction(rng.randrange(-99, 99), rng.randrange(1, 99))
    if kind == 6:
        p = rng.choice((2, 3, 5, 7))
        return CyclotomicValue(p, [Fraction(rng.randrange(-9, 9),
                                            rng.randrange(1, 9))
                                   for _ in range(p - 1)])
    if kind == 7:
        return rng.choice(('a,b', 'say "x"', "two\nlines", "", "plain",
                           "label-7"))
    if kind == 8:
        return _SHARED
    if kind == 9:
        return rng.choice((False, 0, 0.0, Fraction(0), -0.0))
    return (tuple if kind == 10 else list)(
        _random_value(rng, depth + 1) for _ in range(rng.randrange(4)))


def _random_fields(rng, keys):
    chosen = rng.sample(keys, rng.randrange(len(keys) + 1))
    return {key: (rng.choice(_ONES) if key == "ones"
                  else _SHARED if key == "shared"
                  else _random_value(rng)) for key in chosen}


def _random_stream(rng):
    keys = ["ones", "shared", "a", "b", "c", "tail"]
    return [ReportRecord(rng.choice(("t", "other")),
                         inputs=_random_fields(rng, keys),
                         outputs=_random_fields(rng, keys + ["x"]),
                         passed=rng.choice((True, False)),
                         budget_spent=rng.choice((0, 0, 7, 10 ** 30)))
            for _ in range(rng.randrange(12))]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_columnar_report_matches_the_row_wise_oracle(fmt):
    rng = random.Random(2016)
    for _ in range(300):
        records = _random_stream(rng)
        stream = io.StringIO()
        assert emit_report(records, stream, fmt) == len(records)
        assert stream.getvalue() == oracle_emit(records, fmt)


def test_one_column_keeps_true_one_float_and_fraction_apart():
    records = [ReportRecord("t", inputs={"v": v})
               for v in (True, 1, 1, 1.0, 1.0, Fraction(1), True, None, 1)]
    columns, rows = flatten_records(records)
    assert [row["in.v"] for row in rows] == [
        "true", "1", "1", "1.0", "1.0", "1/1", "true", "", "1"]


def test_absent_keys_stay_absent():
    records = [ReportRecord("t", outputs={"x": None}),
               ReportRecord("t", outputs={"y": 2})]
    stream = io.StringIO()
    emit_report(records, stream, "jsonl")
    first, second = map(json.loads, stream.getvalue().splitlines())
    assert first["out.x"] == "" and "out.y" not in first
    assert "out.x" not in second
    stream = io.StringIO()
    emit_report(records, stream, "csv")
    assert stream.getvalue().splitlines()[1:] == ["t,,,true,0", "t,,2,true,0"]


def test_subclasses_keep_their_old_text():
    assert serialize_value(Level.LOW) == oracle_value(Level.LOW) == "3"
    assert serialize_value((Level.LOW, 4)) == "(3,4)"
    records = [ReportRecord("t", inputs={"level": Level.LOW})]
    assert (flatten_records(records)[1][0]["in.level"] == "3")


def test_numpy_integers_are_refused():
    with pytest.raises(TypeError):
        serialize_value(np.int64(3))
    with pytest.raises(TypeError):
        serialize_value((1, np.int64(3)))
    with pytest.raises(TypeError):
        emit_report([ReportRecord("t", outputs={"n": np.int64(3)})],
                    io.StringIO())


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_unserializable_value_leaves_nothing_on_disk(tmp_path, fmt):
    path = tmp_path / f"r.{fmt}"
    records = _records() + [ReportRecord("demo", outputs={"n": np.int64(3)})]
    with pytest.raises(TypeError):
        write_report(records, str(path), fmt)
    assert not path.exists()
    assert not (tmp_path / f"r.{fmt}.partial").exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_failed_write_leaves_nothing_on_disk(tmp_path, monkeypatch, fmt):
    emit = reporting._emit

    def half_written(names, cols, stream, fmt):
        emit(names, cols, stream, fmt)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(reporting, "_emit", half_written)
    path = tmp_path / f"r.{fmt}"
    with pytest.raises(OSError):
        write_report(_records(), str(path), fmt)
    assert not path.exists()
    assert not (tmp_path / f"r.{fmt}.partial").exists()
