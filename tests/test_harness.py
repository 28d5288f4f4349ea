import filecmp
import os
import textwrap
import tracemalloc
from fractions import Fraction

import pytest

from fflab.cli import main
from fflab.errors import ConfigError, VerificationFailure
from fflab.harness import (TASK_PARAMS, TASKS, _admissible_etas, _TASKS,
                           build_problem, load_config, run_task)
from fflab.reporting import ReportRecord, read_rows

BASE = """
    [field]
    p = 5

    [problem]
    d = 3
    n = 2
    e = 1

    [task]
    name = count-cone
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert (cfg.p, cfg.f, cfg.d, cfg.n, cfg.e) == (5, 1, 3, 2, 1)
    assert cfg.task == "count-cone"
    assert cfg.budget == 10 ** 9
    assert cfg.workers == 1 and cfg.seed == 0
    assert cfg.fmt == "csv" and cfg.out_dir == "out"


def test_cli_overrides_win(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE), workers=4,
                      out_dir="elsewhere", fmt="jsonl")
    assert cfg.workers == 4
    assert cfg.out_dir == "elsewhere"
    assert cfg.fmt == "jsonl"


@pytest.mark.parametrize("mangle,needle", [
    (lambda s: s.replace("p = 5", "p = 3"), "must exceed d"),
    (lambda s: s.replace("p = 5", ""), "missing required key 'p'"),
    (lambda s: s.replace("[field]", "[fields]"), "unknown section"),
    (lambda s: s.replace("n = 2", "n = 2\nstyle = fast"), "unknown key"),
    (lambda s: s.replace("count-cone", "count-everything"), "unknown task"),
    (lambda s: s + "    method = auto\n    zeta = 3\n", "not a parameter"),
    (lambda s: s.replace("count-cone", "count-morphisms")
     + "    crosscheck = always\n",
     "'crosscheck' is not a parameter of count-morphisms"),
    (lambda s: s.replace("count-cone", "langweil-report")
     + "    method = convolve\n",
     "'method' is not a parameter of langweil-report"),
    (lambda s: s.replace("e = 1", "e = one"), "expected an integer"),
    (lambda s: s.replace("e = 1", "e = 0"), "must be >= 1"),
])
def test_load_rejects_bad_configs(tmp_path, mangle, needle):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, mangle(BASE)))
    assert needle in str(err.value)


def test_task_argument_must_match_config_name(tmp_path):
    path = write_cfg(tmp_path, BASE)
    with pytest.raises(ConfigError) as err:
        load_config(path, task="major-arc")
    assert "command line" in str(err.value)
    assert load_config(path, task="count-cone").task == "count-cone"


def test_task_argument_fills_missing_name(tmp_path):
    text = BASE.replace("[task]\n    name = count-cone", "")
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError):
        load_config(path)
    assert load_config(path, task="major-arc").task == "major-arc"


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(str(tmp_path / "nope.cfg"))
    assert "cannot read" in str(err.value)


def test_form_file_resolved_relative_to_config(tmp_path):
    (tmp_path / "cubic.form").write_text("3 0 : 1\n0 3 : 2\n")
    cfg = load_config(write_cfg(
        tmp_path, BASE.replace("e = 1", "e = 1\n    form = cubic.form")))
    assert cfg.form_path == str(tmp_path / "cubic.form")
    prob = build_problem(cfg)
    assert prob.form.n == 2


def test_absent_form_file_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(
            tmp_path, BASE.replace("e = 1", "e = 1\n    form = ghost.form")))
    assert "file not found" in str(err.value)


def test_malformed_form_file_names_the_line(tmp_path):
    (tmp_path / "bad.form").write_text("3 0 : 1\n1 1 : 2\n")
    cfg = load_config(write_cfg(
        tmp_path, BASE.replace("e = 1", "e = 1\n    form = bad.form")))
    with pytest.raises(ConfigError) as err:
        build_problem(cfg)
    msg = str(err.value)
    assert "bad.form:2" in msg and "degree" in msg


def test_extension_field_config(tmp_path):
    text = BASE.replace("p = 5", "p = 5\n    f = 2")
    cfg = load_config(write_cfg(tmp_path, text))
    prob = build_problem(cfg)
    assert prob.spec.q == 25


def test_bad_modulus_rejected(tmp_path):
    text = BASE.replace("p = 5", "p = 5\n    f = 2\n    modulus = 1,x")
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text))
    assert "modulus" in str(err.value)


def test_param_parsers(tmp_path):
    text = BASE.replace("name = count-cone",
                        "name = count-cone\n    ell = 2\n    method = auto")
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.param_int("ell") == 2
    assert cfg.param_int("missing", default=7) == 7
    assert cfg.param_fraction("missing", default=Fraction(1, 2)) == Fraction(1, 2)
    assert cfg.param_choice("method", ("auto", "enumerate")) == "auto"
    with pytest.raises(ConfigError):
        cfg.param_int("ell", minimum=3)


def test_admissible_etas():
    assert _admissible_etas(1) == [Fraction(0), Fraction(1)]
    assert _admissible_etas(3) == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert _admissible_etas(2) == [Fraction(1, 3), Fraction(1)]


def test_every_task_has_a_builder():
    # one table: the task names and their [task] keys are read off it
    assert TASKS == tuple(_TASKS)
    assert TASK_PARAMS == {name: keys for name, (_, keys) in _TASKS.items()}
    assert all(callable(builder) for builder, _ in _TASKS.values())


def test_run_task_pass_status(tmp_path):
    result = run_task(load_config(write_cfg(tmp_path, BASE)))
    assert result.status == "pass"
    assert result.exit_code == 0
    [record] = result.records
    assert record.outputs["cone"] == 24
    assert record.outputs["divisible"] is True


def test_run_task_budget_status(tmp_path):
    text = BASE.replace("name = count-cone", "name = dissect-verify") + \
        "\n    [run]\n    budget = 10\n"
    result = run_task(load_config(write_cfg(tmp_path, text)))
    assert result.status == "budget-exhausted"
    assert result.exit_code == 3
    [record] = result.records
    assert record.outputs["status"] == "budget-exhausted"
    assert record.outputs["needed"] > 10


def test_run_task_fail_status(tmp_path, monkeypatch):
    def failing(config):
        return [ReportRecord(task=config.task, outputs={"holds": False},
                             passed=False)]
    monkeypatch.setitem(_TASKS, "count-cone",
                        (failing, TASK_PARAMS["count-cone"]))
    result = run_task(load_config(write_cfg(tmp_path, BASE)))
    assert result.status == "fail"
    assert result.exit_code == 1


def test_run_task_wraps_verification_failure(tmp_path, monkeypatch):
    def raising(config):
        raise VerificationFailure("identity broke")
    monkeypatch.setitem(_TASKS, "count-cone",
                        (raising, TASK_PARAMS["count-cone"]))
    result = run_task(load_config(write_cfg(tmp_path, BASE)))
    assert result.status == "fail"
    assert "identity broke" in result.records[0].outputs["detail"]


FERMAT_N5_MORPHISMS = BASE.replace("n = 2", "n = 5").replace(
    "count-cone", "count-morphisms")


def test_morphism_cross_check_runs_where_the_budget_allows(tmp_path):
    # 5^10 = 9,765,625 tuples: past the old fixed cap of 2*10^6, well within
    # the default budget once the factor route has spent its 17,010
    result = run_task(load_config(write_cfg(tmp_path, FERMAT_N5_MORPHISMS)))
    assert result.status == "pass"
    [record] = result.records
    assert record.outputs["morphisms"] == 6120
    assert record.outputs["enumerate_route"] == 6120
    assert record.outputs["routes_agree"] is True


def test_morphism_cross_check_never_overdraws_the_budget(tmp_path):
    # the enumeration's 5^10 no longer fits once the factor route has run:
    # the count passes on the factor route alone instead of exiting 3
    text = FERMAT_N5_MORPHISMS + "\n    [run]\n    budget = 9765625\n"
    result = run_task(load_config(write_cfg(tmp_path, text)))
    assert result.status == "pass"
    [record] = result.records
    assert record.outputs["morphisms"] == 6120
    assert "enumerate_route" not in record.outputs
    assert "routes_agree" not in record.outputs


def test_weyl_workers_do_not_change_rows(tmp_path):
    text = BASE.replace("name = count-cone",
                        "name = weyl-check\n    limit = 30")
    sweep = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "weyl_sweep_q5.cfg")
    for cfg in (write_cfg(tmp_path, text), sweep):
        outs = [str(tmp_path / f"{os.path.basename(cfg)}-{workers}")
                for workers in ("1", "2")]
        for out, workers in zip(outs, ("1", "2")):
            assert main(["weyl-check", "--config", cfg, "--workers", workers,
                         "--out", out]) == 0
        assert filecmp.cmp(os.path.join(outs[0], "weyl-check.csv"),
                           os.path.join(outs[1], "weyl-check.csv"),
                           shallow=False)


def test_weyl_budget_status_does_not_depend_on_workers(tmp_path):
    # the sweep charges its whole tail list before it fans out, so a chunk
    # cannot pass on a fresh budget what the whole sweep overdraws
    sweep = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "weyl_sweep_q5.cfg")
    with open(sweep, encoding="utf-8") as fh:
        text = fh.read() + "\n[run]\nbudget = 200000\n"
    cfg = tmp_path / "weyl.cfg"
    cfg.write_text(text)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"out-{workers}"
        assert main(["weyl-check", "--config", str(cfg), "--workers", workers,
                     "--out", str(out)]) == 3
        reports.append((out / "weyl-check.csv").read_bytes())
    assert reports[0] == reports[1]
    [row] = read_rows(str(tmp_path / "out-1" / "weyl-check.csv"))
    assert (row["out.status"], row["out.needed"], row["out.budget"],
            row["out.detail"]) == ("budget-exhausted", "625", "0",
                                   "approx-zero count")


def test_over_budget_weyl_sweep_is_refused_by_its_charge(tmp_path):
    # e = 3: 5^10 tails, refused by the sweep's own charge before the tail
    # list is built, at any worker count
    text = BASE.replace("e = 1", "e = 3").replace(
        "name = count-cone", "name = weyl-check") + \
        "\n    [run]\n    budget = 100\n"
    cfg = write_cfg(tmp_path, text)
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"out-{workers}"
        assert main(["weyl-check", "--config", cfg, "--workers", workers,
                     "--out", str(out)]) == 3
        reports.append((out / "weyl-check.csv").read_bytes())
    assert reports[0] == reports[1]
    [row] = read_rows(str(tmp_path / "out-1" / "weyl-check.csv"))
    assert (row["out.status"], row["out.needed"], row["out.budget"],
            row["out.detail"]) == ("budget-exhausted", str(5 ** 8), "100",
                                   "phase distribution build")


def _first_overdraft(charges, budget):
    """The (needed, budget, detail) of the first charge that overdraws."""
    spent = 0
    for cost, what in charges:
        if spent + cost > budget:
            return cost, budget - spent, what
        spent += cost
    return None


def _budget_record(path):
    result = run_task(load_config(path))
    assert result.status == "budget-exhausted"
    [record] = result.records
    out = record.outputs
    return out["needed"], out["budget"], out["detail"]


@pytest.mark.parametrize("short", [1, 390000])
def test_weyl_budget_record_follows_charge_order(tmp_path, short):
    # S once, before any count: the phase distribution, then the sum table
    # (f B q^B p^2 adds, which cost no more than the kernel on the full
    # sweep); then N per phase
    q, n, box = 5, 2, 2
    charges = [(q ** (box * n), "phase distribution build"),
               (4 * q ** 4 * q ** 2, "sum table build")]
    charges += [(q ** (box * n), "approx-zero count")] * q ** 4
    budget = sum(cost for cost, _ in charges) - short
    text = BASE.replace("name = count-cone", "name = weyl-check") + \
        f"\n    [run]\n    budget = {budget}\n"
    want = _first_overdraft(charges, budget)
    assert _budget_record(write_cfg(tmp_path, text)) == want


@pytest.mark.parametrize("short", [1, 4000])
def test_shrink_budget_record_follows_charge_order(tmp_path, short):
    # e = 1, eta in (0, 1); per sample: N, then N_eta (vacuous at eta = 0)
    samples, count = 5, 5 ** 4
    charges = []
    for eta in (0, 1):
        for _ in range(samples):
            charges.append((count, "approx-zero count"))
            if eta:
                charges.append((count, "approx-zero count"))
    budget = sum(cost for cost, _ in charges) - short
    text = BASE.replace("name = count-cone",
                        f"name = shrink-check\n    samples = {samples}") + \
        f"\n    [run]\n    budget = {budget}\n"
    want = _first_overdraft(charges, budget)
    assert _budget_record(write_cfg(tmp_path, text)) == want


@pytest.mark.parametrize("short,needed", [
    (1, 5 ** 4),                                    # the last N_eta
    (5 ** 4 + 1, 5 ** 8),                           # the last N
    (2 * (5 ** 8 + 5 ** 4) + 5 ** 4 + 1, 5 ** 8),   # the N of sample 3
])
def test_shrink_budget_record_with_unequal_costs(tmp_path, short, needed):
    # e = 3, eta = 1/2; per sample: N (boxes [4, 4], 5^8 prefix tuples),
    # then N_eta (boxes [2, 2], 5^4)
    samples = 5
    charges = [(cost, "approx-zero count") for _ in range(samples)
               for cost in (5 ** 8, 5 ** 4)]
    budget = sum(cost for cost, _ in charges) - short
    text = BASE.replace("e = 1", "e = 3").replace(
        "name = count-cone",
        f"name = shrink-check\n    eta = 1/2\n    samples = {samples}") + \
        f"\n    [run]\n    budget = {budget}\n"
    want = _first_overdraft(charges, budget)
    assert want[0] == needed
    assert _budget_record(write_cfg(tmp_path, text)) == want


@pytest.mark.parametrize("budget", [10 ** 6, 10 ** 8])
def test_weyl_limit_gates_and_lists_only_the_swept_tails(tmp_path, budget):
    # e = 3: 5^10 = 9,765,625 tails, of which limit = 1 sweeps the first.
    # The run charges 2 * 5^8 = 781,250 (the phase distribution and one
    # N), so it passes at 10^6, and it never lists the tails it skips
    text = BASE.replace("e = 1", "e = 3").replace(
        "name = count-cone", "name = weyl-check\n    limit = 1") + \
        f"\n    [run]\n    budget = {budget}\n"
    config = load_config(write_cfg(tmp_path, text))
    tracemalloc.start()
    try:
        result = run_task(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert [rec.inputs["alpha_tail"] for rec in result.records[:-1]] == \
        [(0,) * 10]
    assert peak < 1 << 28       # a list of all 5^10 tails takes over 1 GB
