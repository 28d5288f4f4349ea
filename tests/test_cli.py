import filecmp
import os
import textwrap
import time

import pytest

from fflab import circle, cli, harness, moduli
from fflab.circle import CountingProblem
from fflab.errors import Budget
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


def test_dissection_refuses_its_sum_table_before_the_brute_count(
        tmp_path, monkeypatch):
    # Fermat n = 2, e = 1 over F_25 at a budget of 10^7: the block walk
    # (charged as the whole box, 25^4 = 390,625) fits, the sum table
    # (f B q^B p^2 = 2 x 4 x 25^4 x 5^2 = 78,125,000 adds) does not, and
    # the scalar count must not run
    def brute_count(self):
        raise AssertionError("brute_count ran before the budget refusal")
    monkeypatch.setattr(CountingProblem, "brute_count", brute_count)
    body = CONE.replace("name = count-cone", "name = dissect-verify") \
        .replace("p = 5", "p = 5\n    f = 2") + \
        "\n    [run]\n    budget = 10000000\n"
    cfg = write_cfg(tmp_path, body)
    code = main(["dissect-verify", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    rows = read_rows(str(tmp_path / "o" / "dissect-verify.csv"))
    assert rows[0]["out.detail"] == "sum table build"
    assert parse_value(rows[0]["out.needed"]) == 78_125_000
    assert parse_value(rows[0]["out.budget"]) == 10 ** 7 - 390_625


def test_dissection_charges_its_brute_count_before_any_transform(
        tmp_path, monkeypatch):
    # dissect_e2_q5 at a budget that pays the block walk (5^9), the sum
    # table (3 x 7 x 5^7 x 5^2 = 13,671,875 adds) and all but one of the
    # brute count's 5^9: the run is refused before the table is built
    transforms = []
    monkeypatch.setattr(circle, "_character_transform",
                        lambda *args: transforms.append(args))
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "dissect_e2_q5.cfg"), encoding="utf-8") as fh:
        body = fh.read()
    cfg = write_cfg(tmp_path, body + "\n[run]\nbudget = "
                    f"{2 * 5 ** 9 + 13_671_875 - 1}\n")
    code = main(["dissect-verify", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    [row] = read_rows(str(tmp_path / "o" / "dissect-verify.csv"))
    assert (row["out.needed"], row["out.budget"], row["out.detail"]) == (
        "1953125", "1953124", "brute-force count")
    assert transforms == []


def test_unwritable_output_directory_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONE)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["count-cone", "--config", cfg,
                 "--out", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("fflab: config error: cannot write report")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_output_directory_is_made_before_the_task_runs(tmp_path, capsys,
                                                        monkeypatch):
    def run_task(config):
        raise AssertionError("the task ran before its output directory")

    monkeypatch.setattr(cli, "run_task", run_task)
    cfg = write_cfg(tmp_path, CONE)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["count-cone", "--config", cfg,
                 "--out", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("fflab: config error: cannot write report")
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("task,n,budget,what", [
    # 5^(n (e+1) + 2 floor(Q)) = 5^30 arc histogram entries
    ("dissect-verify", 12, 10 ** 18, "arc histograms"),
    # a box of 5^14 points, whose square the autocorrelation holds; the
    # refusal comes before the tail sweep is charged
    ("weyl-check", 7, 10 ** 15, "autocorrelation"),
    ("weyl-check", 7, 100, "autocorrelation"),
    # a box of 5^56 points
    ("major-arc", 28, 10 ** 40, "S histograms"),
])
def test_int64_overflow_exits_2_before_any_charge(tmp_path, capsys,
                                                  monkeypatch, task, n,
                                                  budget, what):
    charged = []
    monkeypatch.setattr(Budget, "charge",
                        lambda self, cost, label: charged.append(label))
    body = CONE.replace("name = count-cone", f"name = {task}") \
        .replace("n = 2", f"n = {n}") + f"\n    [run]\n    budget = {budget}\n"
    cfg = write_cfg(tmp_path, body)
    code = main([task, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{what} would overflow int64 at q^" in capsys.readouterr().err
    assert charged == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("alpha", ["7,0,0,0", "0,0,0,-1"])
def test_weyl_alpha_digit_out_of_range_exit_2(tmp_path, capsys, alpha):
    body = CONE.replace("name = count-cone",
                        f"name = weyl-check\n    alpha = {alpha}")
    cfg = write_cfg(tmp_path, body)
    code = main(["weyl-check", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[task] alpha" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task,key,value,late", [
    ("cape-lemma", "a", "4/3", "random_symmetric_gammas"),
    ("shrink-check", "eta", "1/3", "check_shrink_batch")])
def test_task_value_refused_before_any_work_exit_2(tmp_path, capsys,
                                                   monkeypatch, task, key,
                                                   value, late):
    # a is not a half-integer; at e = 1, (e+1)(eta+1)/2 = 4/3 is not an
    # integer: both are refused, naming the file and key, before the task
    # draws its gammas or its tails
    def drawn(*args, **kwargs):
        raise AssertionError(f"{late} ran before [task] {key} was checked")

    monkeypatch.setattr(harness, late, drawn)
    body = CONE.replace("name = count-cone",
                        f"name = {task}\n    {key} = {value}")
    cfg = write_cfg(tmp_path, body)
    code = main([task, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{cfg}: [task] {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    # the cone convolution over F_125 pairs two blocks of 125^3 tuples:
    # about 3.8 10^12 support pairs, past the default budget of 10^9
    body = CONE.replace("n = 2", "n = 3").replace("e = 1", "e = 2") + \
        "    ell = 3\n"
    cfg = write_cfg(tmp_path, body)
    code = main(["count-cone", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    rows = read_rows(str(tmp_path / "o" / "count-cone.csv"))
    assert rows[0]["out.status"] == "budget-exhausted"
    assert rows[0]["out.detail"] == "cone convolution"
    assert parse_value(rows[0]["out.needed"]) == 125 ** 6


@pytest.mark.parametrize("task,name,left,what", [
    ("count-cone", "cone_fermat_q5", 10, "cone convolution"),
    # the factor route's e = 0 fold: 5 is spent on the first block's walk
    ("count-morphisms", "morphisms_surface_q5", 5, "cone convolution"),
    ("langweil-report", "langweil_surface_q5", 10, "cone convolution"),
    ("lattice-minima", "lattice_q5", 10, "ball count system"),
    ("ratio-lemma", "ratio_q5", 10, "ball count system"),
    ("cape-lemma", "cape_q5", 10, "ball count system"),
])
def test_moduli_and_lattice_tasks_charge_the_run_budget(tmp_path, task, name,
                                                        left, what):
    # every task charges [run] budget: the shipped config at budget = 10
    # exits 3 on the charge that overdraws it, with the same bytes at any
    # worker count
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        f"{name}.cfg")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if "[run]" in text:
        text = text.replace("[run]", "[run]\nbudget = 10")
    else:
        text += "\n[run]\nbudget = 10\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main([task, "--config", str(cfg), "--workers", workers,
                     "--out", str(out)]) == 3
        reports.append((out / f"{task}.csv").read_bytes())
    assert reports[0] == reports[1]
    [row] = read_rows(str(tmp_path / "1" / f"{task}.csv"))
    assert (row["out.status"], row["out.budget"], row["out.detail"]) == \
        ("budget-exhausted", str(left), what)


@pytest.mark.parametrize("ell", [5, 7])
def test_oversized_extension_exits_2_before_any_table(tmp_path, capsys, ell):
    # 5^(ell (e+1) n) >= 2^63 tuples: the int64 counts would overflow, and
    # F_5^7 also has more elements than int16 indices can name
    body = CONE.replace("n = 2", "n = 3") + f"    ell = {ell}\n"
    cfg = write_cfg(tmp_path, body)
    start = time.perf_counter()
    code = main(["count-cone", "--config", cfg, "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "overflow int64" in capsys.readouterr().err


def test_field_past_int16_indices_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONE.replace("p = 5", "p = 5\n    f = 7"))
    code = main(["count-cone", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[field] q = 5^7 = 78125 exceeds 2^15" in capsys.readouterr().err


def test_pointwise_beta_past_the_tail_depth_exits_2(tmp_path, capsys):
    body = CONE.replace("count-cone", "pointwise-measure") + \
        "    lemma = generic\n    r_degree = 2\n    beta = 99\n"
    cfg = write_cfg(tmp_path, body)
    code = main(["pointwise-measure", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[task] beta" in err and "<= 4" in err


def test_scalar_orbit_failure_exits_1(tmp_path, monkeypatch):
    # a coprime count that F_q^* does not divide is a failed invariant
    monkeypatch.setattr(moduli, "_coprime_solutions",
                        lambda spec, form, e, method, budget: 1)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "morphisms_surface_q5.cfg")
    code = main(["count-morphisms", "--config", cfg,
                 "--out", str(tmp_path)])
    assert code == 1
    rows = read_rows(str(tmp_path / "count-morphisms.csv"))
    assert rows[0]["out.status"] == "verification-failure"
    assert "scalar orbits" in rows[0]["out.detail"]


WEYL_LIMIT_2 = """
    [field]
    p = 5
    f = {f}

    [problem]
    d = {d}
    n = 2
    e = 1

    [task]
    name = weyl-check
    limit = 2
"""


@pytest.mark.parametrize("f,d,counts", [
    # N at the first two tails of the sweep, as the per-prefix route of
    # the approximate-zero counts reported them before it was removed
    (1, 4, [244140625, 58140625]),
    (2, 3, [152587890625, 937890625]),
])
def test_weyl_check_d4_and_f25_do_not_depend_on_workers(tmp_path, f, d,
                                                        counts):
    cfg = write_cfg(tmp_path, WEYL_LIMIT_2.format(f=f, d=d))
    for workers in ("1", "2"):
        assert main(["weyl-check", "--config", cfg, "--workers", workers,
                     "--out", str(tmp_path / workers)]) == 0
    assert filecmp.cmp(str(tmp_path / "1" / "weyl-check.csv"),
                       str(tmp_path / "2" / "weyl-check.csv"), shallow=False)
    rows = read_rows(str(tmp_path / "1" / "weyl-check.csv"))
    assert [parse_value(row["out.N"]) for row in rows[:-1]] == counts
    assert parse_value(rows[-1]["out.atoms"]) == 2
