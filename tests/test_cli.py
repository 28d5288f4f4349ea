import filecmp
import textwrap

import pytest

from fflab.cli import main
from fflab.reporting import parse_value, read_rows


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


CONE = """
    [field]
    p = 5

    [problem]
    d = 3
    n = 2
    e = 1

    [task]
    name = count-cone
"""


def test_pass_run_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONE)
    code = main(["count-cone", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "count-cone: pass" in out
    rows = read_rows(str(tmp_path / "o" / "count-cone.csv"))
    assert parse_value(rows[0]["out.cone"]) == 24


def test_jsonl_format_flag(tmp_path):
    cfg = write_cfg(tmp_path, CONE)
    code = main(["count-cone", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "jsonl"])
    assert code == 0
    rows = read_rows(str(tmp_path / "o" / "count-cone.jsonl"), "jsonl")
    assert parse_value(rows[0]["out.cone"]) == 24


def test_config_error_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONE.replace("p = 5", "p = 3"))
    code = main(["count-cone", "--config", cfg])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_task_mismatch_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONE)
    assert main(["major-arc", "--config", cfg]) == 2
    assert "command line" in capsys.readouterr().err


def test_unknown_task_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, CONE)
    with pytest.raises(SystemExit) as err:
        main(["count-everything", "--config", cfg])
    assert err.value.code == 2


def test_budget_exhaustion_exit_3(tmp_path):
    body = CONE.replace("name = count-cone", "name = dissect-verify") + \
        "\n    [run]\n    budget = 10\n"
    cfg = write_cfg(tmp_path, body)
    code = main(["dissect-verify", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    rows = read_rows(str(tmp_path / "o" / "dissect-verify.csv"))
    assert rows[0]["out.status"] == "budget-exhausted"


def test_env_overrides(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, CONE)
    monkeypatch.setenv("FFLAB_OUT", str(tmp_path / "env_out"))
    monkeypatch.setenv("FFLAB_WORKERS", "2")
    assert main(["count-cone", "--config", cfg]) == 0
    assert (tmp_path / "env_out" / "count-cone.csv").exists()


def test_env_workers_must_be_integer(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, CONE)
    monkeypatch.setenv("FFLAB_WORKERS", "many")
    assert main(["count-cone", "--config", cfg]) == 2
    assert "FFLAB_WORKERS" in capsys.readouterr().err


def test_flag_beats_env(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, CONE)
    monkeypatch.setenv("FFLAB_OUT", str(tmp_path / "env_out"))
    assert main(["count-cone", "--config", cfg,
                 "--out", str(tmp_path / "flag_out")]) == 0
    assert (tmp_path / "flag_out" / "count-cone.csv").exists()
    assert not (tmp_path / "env_out").exists()


def test_seeded_rerun_is_byte_identical(tmp_path):
    body = CONE.replace("name = count-cone",
                        "name = shrink-check\n    samples = 5") + \
        "\n    [run]\n    seed = 9\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["shrink-check", "--config", cfg,
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["shrink-check", "--config", cfg,
                 "--out", str(tmp_path / "b")]) == 0
    assert filecmp.cmp(str(tmp_path / "a" / "shrink-check.csv"),
                       str(tmp_path / "b" / "shrink-check.csv"),
                       shallow=False)


def test_moduli_cell_cap_exits_3(tmp_path):
    # the cone convolution needs more cells than the moduli cap allows
    body = CONE.replace("n = 2", "n = 3").replace("e = 1", "e = 2") + \
        "    ell = 3\n"
    cfg = write_cfg(tmp_path, body)
    code = main(["count-cone", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    rows = read_rows(str(tmp_path / "o" / "count-cone.csv"))
    assert rows[0]["out.status"] == "budget-exhausted"
    assert rows[0]["out.detail"] == "cone convolution"
