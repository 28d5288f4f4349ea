"""Batch task runner: parse a run config, execute one task, collect records.

Config files are plain text key=value sections ('#' starts a comment):

    [field]    p (prime), f (extension degree, default 1), modulus
               (optional little-endian coefficients "c0,c1,...,1" of a
               monic irreducible over F_p)
    [problem]  d, n, e, form (optional path to a form file, resolved
               relative to the config file; default is the diagonal form
               x_1^d + ... + x_n^d)
    [task]     name plus task-specific parameters, see TASK_PARAMS
    [run]      budget (default 10^9), workers (1), seed (0), out ("out"),
               format ("csv")

All validation happens at load time and reports the file, section and key
of the offending value.  p > d is enforced here because every exactness
argument downstream needs the characteristic to exceed the degree.

Tasks return ReportRecord streams; run_task wraps one task execution and
classifies the outcome as "pass", "fail" (some asserted invariant is
false), or "budget-exhausted" (a predicted enumeration cost exceeded the
configured budget before any work was wasted).  Worker fan-out only ever
changes wall time: chunk results are combined in input order, and a single
process owns all output.
"""

from __future__ import annotations

import configparser
import functools
import itertools
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .audit import audit_minor_arcs, dims
from .circle import CountingProblem
from .errors import BudgetExceededError, ConfigError, VerificationFailure
from .fields import FieldSpec
from .forms import fermat_form, parse_form_file
from .laurent import LaurentElement
from .latgon import (SpecialLatticePair, check_cape, check_ratio_lemma,
                     check_sandwich, random_symmetric_gamma)
from .moduli import _is_diagonal, count_cone, count_morphisms, langweil_report
from .reporting import ReportRecord
from .weyl import (_charge_weyl, canonical_shape_report, check_shrink_batch,
                   check_weyl_batch)
from .work import map_reduce

__all__ = ["TASKS", "TASK_PARAMS", "RunConfig", "RunResult", "load_config",
           "build_spec", "build_problem", "run_task"]

TASKS = (
    "dissect-verify", "major-arc", "weyl-check", "shrink-check",
    "pointwise-measure", "lattice-minima", "ratio-lemma", "cape-lemma",
    "exponent-audit", "count-cone", "count-morphisms", "langweil-report",
)

# Allowed [task] keys per task, beyond "name".
TASK_PARAMS = {
    "dissect-verify": (),
    "major-arc": (),
    "weyl-check": ("alpha", "limit"),
    "shrink-check": ("eta", "samples"),
    "pointwise-measure": ("lemma", "r_degree", "beta"),
    "lattice-minima": ("count", "m"),
    "ratio-lemma": ("count", "z1", "z2"),
    "cape-lemma": ("count", "a", "z1", "z2"),
    "exponent-audit": (),
    "count-cone": ("ell", "method"),
    "count-morphisms": ("ell", "method", "crosscheck"),
    "langweil-report": ("ell_max", "method"),
}

_STATUS_CODES = {"pass": 0, "fail": 1, "budget-exhausted": 3}


# -- configuration ---------------------------------------------------------------


@dataclass
class RunConfig:
    path: str
    p: int
    f: int
    modulus: tuple
    d: int
    n: int
    e: int
    form_path: str
    task: str
    params: dict = field(default_factory=dict)
    budget: int = 10 ** 9
    workers: int = 1
    seed: int = 0
    out_dir: str = "out"
    fmt: str = "csv"

    def _param_raw(self, key: str):
        return self.params.get(key)

    def param_int(self, key: str, default=None, minimum=None):
        return _parse_int(self._param_raw(key), self.path, "task", key,
                          default, minimum)

    def param_fraction(self, key: str, default=None):
        raw = self._param_raw(key)
        if raw is None:
            return default
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{self.path}: [task] {key}: expected a rational like 1/2, "
                f"got {raw!r}")

    def param_choice(self, key: str, choices, default=None):
        raw = self._param_raw(key)
        if raw is None:
            return default
        if raw not in choices:
            raise ConfigError(
                f"{self.path}: [task] {key}: expected one of {choices}, "
                f"got {raw!r}")
        return raw

    def param_tail(self, key: str):
        """Comma separated field-index digits, or None if absent."""
        raw = self._param_raw(key)
        if raw is None:
            return None
        try:
            return tuple(int(tok) for tok in raw.split(","))
        except ValueError:
            raise ConfigError(
                f"{self.path}: [task] {key}: expected comma separated "
                f"integers, got {raw!r}")


def _get(cp, path, section, key, default=None, required=False):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if required:
        raise ConfigError(f"{path}: [{section}] is missing required key {key!r}")
    return default


def _parse_int(raw, path, section, key, default=None, minimum=None):
    """The integer value of [section] key (raw text, or None if absent)."""
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{path}: [{section}] {key}: expected an integer, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"{path}: [{section}] {key}: must be >= {minimum}, got {value}")
    return value


def _get_int(cp, path, section, key, default=None, required=False,
             minimum=None):
    return _parse_int(_get(cp, path, section, key, required=required), path,
                      section, key, default, minimum)


def load_config(path: str, task: str = None, workers: int = None,
                out_dir: str = None, fmt: str = None) -> RunConfig:
    """Parse and validate a run config.  Keyword arguments are overrides
    from the command line and win over the file."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#",),
                                   inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    if not read:
        raise ConfigError(f"{path}: cannot read config file")

    known = {"field", "problem", "task", "run"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
    for section, keys in (("field", ("p", "f", "modulus")),
                          ("run", ("budget", "workers", "seed", "out",
                                   "format")),
                          ("problem", ("d", "n", "e", "form"))):
        if not cp.has_section(section):
            continue
        for key in cp.options(section):
            if key not in keys:
                raise ConfigError(
                    f"{path}: [{section}] has unknown key {key!r}")

    p = _get_int(cp, path, "field", "p", required=True, minimum=2)
    f = _get_int(cp, path, "field", "f", default=1, minimum=1)
    modulus_raw = _get(cp, path, "field", "modulus")
    modulus = None
    if modulus_raw is not None:
        try:
            modulus = tuple(int(tok) for tok in modulus_raw.split(","))
        except ValueError:
            raise ConfigError(
                f"{path}: [field] modulus: expected comma separated "
                f"integers, got {modulus_raw!r}")

    d = _get_int(cp, path, "problem", "d", required=True, minimum=3)
    n = _get_int(cp, path, "problem", "n", required=True, minimum=1)
    e = _get_int(cp, path, "problem", "e", required=True, minimum=1)
    if p <= d:
        raise ConfigError(
            f"{path}: p = {p} must exceed d = {d}: the exact evaluator "
            f"needs the characteristic above the degree")
    form_path = _get(cp, path, "problem", "form")
    if form_path is not None:
        form_path = os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), form_path))
        if not os.path.isfile(form_path):
            raise ConfigError(
                f"{path}: [problem] form: file not found: {form_path}")

    name = _get(cp, path, "task", "name") if cp.has_section("task") else None
    if task is not None and name is not None and task != name:
        raise ConfigError(
            f"{path}: task {task!r} on the command line but the config "
            f"names {name!r}")
    task_name = task or name
    if task_name is None:
        raise ConfigError(f"{path}: no task given ([task] name or argument)")
    if task_name not in TASKS:
        raise ConfigError(
            f"{path}: unknown task {task_name!r}; known tasks: "
            f"{', '.join(TASKS)}")
    params = {}
    if cp.has_section("task"):
        allowed = TASK_PARAMS[task_name]
        for key in cp.options("task"):
            if key == "name":
                continue
            if key not in allowed:
                raise ConfigError(
                    f"{path}: [task] {key!r} is not a parameter of "
                    f"{task_name}; allowed: {allowed or '(none)'}")
            params[key] = cp.get("task", key).strip()

    budget = _get_int(cp, path, "run", "budget", default=10 ** 9, minimum=1)
    cfg_workers = _get_int(cp, path, "run", "workers", default=1, minimum=1)
    seed = _get_int(cp, path, "run", "seed", default=0, minimum=0)
    cfg_out = _get(cp, path, "run", "out", default="out")
    cfg_fmt = _get(cp, path, "run", "format", default="csv")

    final_fmt = fmt or cfg_fmt
    if final_fmt not in ("csv", "jsonl"):
        raise ConfigError(
            f"{path}: [run] format: expected csv or jsonl, got {final_fmt!r}")
    final_workers = workers if workers is not None else cfg_workers
    if final_workers < 1:
        raise ConfigError(f"{path}: workers must be >= 1, got {final_workers}")

    return RunConfig(path=path, p=p, f=f, modulus=modulus, d=d, n=n, e=e,
                     form_path=form_path, task=task_name, params=params,
                     budget=budget, workers=final_workers, seed=seed,
                     out_dir=out_dir or cfg_out, fmt=final_fmt)


# -- problem construction ---------------------------------------------------------


def build_spec(config: RunConfig) -> FieldSpec:
    try:
        return FieldSpec(config.p, config.f, modulus=config.modulus)
    except ValueError as exc:
        raise ConfigError(f"{config.path}: [field] {exc}")


def build_problem(config: RunConfig, spec: FieldSpec = None) -> CountingProblem:
    spec = spec or build_spec(config)
    if config.form_path:
        form = parse_form_file(config.form_path, spec, config.n, config.d)
    else:
        form = fermat_form(spec, config.n, config.d)
    return CountingProblem(spec, form, config.e, budget=config.budget)


def _base_inputs(config: RunConfig, spec: FieldSpec) -> dict:
    return {"q": spec.q, "d": config.d, "n": config.n, "e": config.e,
            "form": os.path.basename(config.form_path)
                    if config.form_path else "diagonal"}


# -- task builders ----------------------------------------------------------------


def _run_dissect(config: RunConfig):
    prob = build_problem(config)
    base = _base_inputs(config, prob.spec)
    brute = prob.brute_count()
    prob.sum_table()
    subtotals = {}
    arc_counts = {}
    for arc in prob.dissect():
        val = prob.integrate_arc(arc)
        deg = arc.deg_r
        subtotals[deg] = subtotals[deg] + val if deg in subtotals else val
        arc_counts[deg] = arc_counts.get(deg, 0) + 1
    records = []
    total = None
    for deg in sorted(subtotals):
        sub = subtotals[deg]
        total = sub if total is None else total + sub
        records.append(ReportRecord(
            task=config.task, inputs={**base, "deg_r": deg},
            outputs={"arcs": arc_counts[deg], "subtotal": sub}))
    holds = total == brute
    records.append(ReportRecord(
        task=config.task, inputs=base,
        outputs={"brute_count": brute, "dissection_total": total,
                 "identity_holds": holds},
        passed=holds, budget_spent=prob.budget_spent))
    return records


def _run_major(config: RunConfig):
    prob = build_problem(config)
    base = _base_inputs(config, prob.spec)
    mu_hat = dims(config.n, config.d, config.e).mu_hat
    expected = Fraction(prob.spec.q) ** mu_hat
    major = prob.major_total()
    holds = major == expected
    return [ReportRecord(
        task=config.task, inputs=base,
        outputs={"major_total": major, "mu_hat": mu_hat,
                 "expected": expected, "matches": holds},
        passed=holds, budget_spent=prob.budget_spent)]


def _problem_recipe(config: RunConfig) -> tuple:
    return (config.p, config.f, config.modulus, config.d, config.n,
            config.e, config.form_path, config.budget)


def _problem_from_recipe(recipe: tuple) -> CountingProblem:
    p, f, modulus, d, n, e, form_path, budget = recipe
    spec = FieldSpec(p, f, modulus=modulus)
    if form_path:
        form = parse_form_file(form_path, spec, n, d)
    else:
        form = fermat_form(spec, n, d)
    return CountingProblem(spec, form, e, budget=budget)


def _weyl_chunk(recipe: tuple, tails):
    prob = _problem_from_recipe(recipe)
    alphas = [LaurentElement.from_tail(prob.spec, tail) for tail in tails]
    return [(tail, rep.passed, rep.details["N"], rep.details["bound"],
             rep.details["cmp"])
            for tail, rep in zip(tails, check_weyl_batch(prob, alphas))]


def _run_weyl(config: RunConfig):
    prob = build_problem(config)
    spec = prob.spec
    base = _base_inputs(config, spec)
    depth = prob.char_depth
    single = config.param_tail("alpha")
    if single is not None:
        if len(single) != depth:
            raise ConfigError(
                f"{config.path}: [task] alpha: need {depth} digits, "
                f"got {len(single)}")
        tails = [single]
    else:
        sweep = spec.q ** depth
        if sweep > config.budget:
            raise BudgetExceededError(sweep, config.budget, "weyl tail sweep")
        tails = list(itertools.product(range(spec.q), repeat=depth))
        limit = config.param_int("limit", minimum=1)
        if limit is not None:
            tails = tails[:limit]
    _charge_weyl(prob, len(tails))
    fn = functools.partial(_weyl_chunk, _problem_recipe(config))
    results = map_reduce(fn, tails, workers=config.workers)
    records = []
    failures = 0
    for tail, ok, n_count, bound, cmp_sign in results:
        failures += 0 if ok else 1
        records.append(ReportRecord(
            task=config.task, inputs={**base, "alpha_tail": tail},
            outputs={"N": n_count, "bound": bound, "cmp": cmp_sign,
                     "holds": ok},
            passed=ok))
    records.append(ReportRecord(
        task=config.task, inputs=base,
        outputs={"atoms": len(results), "failures": failures},
        passed=failures == 0))
    return records


def _admissible_etas(e: int):
    """eta = k/(e+1) in [0, 1] with (e+1)(eta+1)/2 integral."""
    return [Fraction(k, e + 1) for k in range(e + 2)
            if (k + e + 1) % 2 == 0]


def _run_shrink(config: RunConfig):
    prob = build_problem(config)
    spec = prob.spec
    base = _base_inputs(config, spec)
    eta_param = config.param_fraction("eta")
    etas = [eta_param] if eta_param is not None else _admissible_etas(config.e)
    samples = config.param_int("samples", default=50, minimum=1)
    rng = random.Random(config.seed)
    records = []
    for eta in etas:
        tails = [tuple(rng.randrange(spec.q) for _ in range(prob.char_depth))
                 for _ in range(samples)]
        alphas = [LaurentElement.from_tail(spec, tail) for tail in tails]
        for tail, rep in zip(tails, check_shrink_batch(prob, alphas, eta)):
            records.append(ReportRecord(
                task=config.task,
                inputs={**base, "eta": eta, "alpha_tail": tail},
                outputs={"N": rep.details["N"], "N_eta": rep.details["N_eta"],
                         "rhs": rep.details["rhs"], "holds": rep.passed},
                passed=rep.passed))
    return records


_LEMMAS = ("generic", "deg-r-positive", "deg-r-zero")


def _run_pointwise(config: RunConfig):
    prob = build_problem(config)
    base = _base_inputs(config, prob.spec)
    lemma = config.param_choice("lemma", _LEMMAS, default="generic")
    default_r = 0 if lemma == "deg-r-zero" else 2
    r_degree = config.param_int("r_degree", default=default_r, minimum=0)
    if lemma == "deg-r-zero":
        beta = config.param_int("beta", default=config.d * config.e, minimum=1)
    else:
        beta = config.param_int("beta", minimum=1)
    rep = canonical_shape_report(prob, lemma, r_degree, beta)
    outputs = {"lemma": lemma, "r_degree": r_degree,
               "beta": "" if beta is None else beta,
               "hypothesis_ok": rep.hypothesis_ok, "reason": rep.reason,
               "power_denom": rep.power_denom}
    if rep.hypothesis_ok:
        outputs["sigma"] = rep.sigma
        outputs["s_value"] = rep.s_value
        outputs["ratio"] = rep.ratio_float()
    return [ReportRecord(task=config.task, inputs=base, outputs=outputs,
                         passed=rep.hypothesis_ok,
                         budget_spent=prob.budget_spent)]


def _run_lattice(config: RunConfig):
    spec = build_spec(config)
    base = _base_inputs(config, spec)
    count = config.param_int("count", default=100, minimum=1)
    m_fixed = config.param_int("m", minimum=1)
    records = []
    for i in range(count):
        m = m_fixed if m_fixed is not None else 1 + (i % 2)
        gamma = random_symmetric_gamma(spec, config.n, config.seed + i)
        inputs = {**base, "instance": i, "m": m}
        try:
            pair = SpecialLatticePair(spec, gamma, m)
        except ConfigError as exc:
            records.append(ReportRecord(
                task=config.task, inputs=inputs,
                outputs={"duality": False, "reason": str(exc)}, passed=False))
            continue
        duality = pair.check_duality()
        prof_red = pair.minima("M", convention="closed", method="reduce")
        prof_enum = pair.minima("M", convention="closed", method="enumerate")
        adj_prof = pair.minima("adjoint", convention="closed", method="reduce")
        agree = prof_red.exponents == prof_enum.exponents
        sym_closed = pair.check_minima_symmetry("closed", "reduce")
        sym_open = pair.check_minima_symmetry("open", "reduce")
        ok = bool(duality) and agree and bool(sym_closed) and bool(sym_open)
        records.append(ReportRecord(
            task=config.task, inputs=inputs,
            outputs={"profile": prof_red.exponents,
                     "adjoint_profile": adj_prof.exponents,
                     "methods_agree": agree, "duality": bool(duality),
                     "symmetry_closed": bool(sym_closed),
                     "symmetry_open": bool(sym_open)},
            passed=ok))
    return records


def _z_pairs(config: RunConfig, i: int):
    z1 = config.param_int("z1")
    z2 = config.param_int("z2")
    if z1 is not None or z2 is not None:
        if z1 is None or z2 is None or not z1 <= z2 <= 0:
            raise ConfigError(
                f"{config.path}: [task] z1/z2: need z1 <= z2 <= 0")
        return [(z1, z2)]
    top = -(i % 2)
    return [(top - gap, top) for gap in (0, 1, 2)]


def _run_ratio(config: RunConfig):
    spec = build_spec(config)
    base = _base_inputs(config, spec)
    count = config.param_int("count", default=100, minimum=1)
    records = []
    for i in range(count):
        m = 1 + (i % 2)
        gamma = random_symmetric_gamma(spec, config.n, config.seed + i)
        pair = SpecialLatticePair(spec, gamma, m)
        for z1, z2 in _z_pairs(config, i):
            rep = check_ratio_lemma(pair, z1, z2)
            det = rep.details
            records.append(ReportRecord(
                task=config.task,
                inputs={**base, "instance": i, "m": m, "z1": z1, "z2": z2},
                outputs={"count1": det["count1"], "count2": det["count2"],
                         "case": det["case"],
                         "bound_exponent": det["bound_exponent"],
                         "ratio_matches_formula": det["ratio_matches_formula"],
                         "counts_match_minima": det["counts_match_minima"],
                         "holds": rep.passed},
                passed=rep.passed))
    return records


def _run_cape(config: RunConfig):
    spec = build_spec(config)
    base = _base_inputs(config, spec)
    count = config.param_int("count", default=100, minimum=1)
    a_fixed = config.param_fraction("a")
    records = []
    for i in range(count):
        m = 1 + (i % 2)
        a = a_fixed if a_fixed is not None else m + Fraction(i % 2, 2)
        gamma = random_symmetric_gamma(spec, config.n, config.seed + i)
        inputs = {**base, "instance": i, "a": a}
        for z in (0, -1):
            sand = check_sandwich(spec, gamma, a, z)
            records.append(ReportRecord(
                task=config.task, inputs={**inputs, "z": z},
                outputs={"check": "sandwich", **sand.details,
                         "holds": sand.passed},
                passed=sand.passed))
        for z1, z2 in _z_pairs(config, i):
            cape = check_cape(spec, gamma, a, z1, z2)
            records.append(ReportRecord(
                task=config.task, inputs={**inputs, "z1": z1, "z2": z2},
                outputs={"check": "cape", **cape.details,
                         "holds": cape.passed},
                passed=cape.passed))
    return records


def _run_exponent(config: RunConfig):
    base = {"d": config.d, "n": config.n, "e": config.e}
    report = audit_minor_arcs(config.d, config.n, config.e)
    records = [ReportRecord(task=config.task, inputs=base, outputs=row)
               for row in report.to_rows()]
    min_saving = min((cell.saving for cell in report.cells), default=None)
    records.append(ReportRecord(
        task=config.task, inputs=base,
        outputs={"cells": len(report.cells), "min_saving": min_saving,
                 "all_positive": report.passed},
        passed=report.passed))
    return records


def _run_cone(config: RunConfig):
    prob = build_problem(config)
    base = _base_inputs(config, prob.spec)
    ell = config.param_int("ell", default=1, minimum=1)
    method = config.param_choice("method", ("auto", "convolve", "enumerate"),
                                 default="auto")
    cone = count_cone(prob, ell, method=method)
    q_ell = prob.spec.q ** ell
    divisible = cone % (q_ell - 1) == 0
    return [ReportRecord(
        task=config.task, inputs={**base, "ell": ell, "method": method},
        outputs={"cone": cone, "q_ell": q_ell,
                 "scalar_orbits": cone // (q_ell - 1) if divisible else "",
                 "divisible": divisible},
        passed=divisible)]


def _run_morphisms(config: RunConfig):
    prob = build_problem(config)
    base = _base_inputs(config, prob.spec)
    ell = config.param_int("ell", default=1, minimum=1)
    method = config.param_choice("method", ("auto", "factor", "enumerate"),
                                 default="auto")
    cross = config.param_choice("crosscheck", ("auto", "always", "never"),
                                default="auto")
    mor = count_morphisms(prob, ell, method=method)
    outputs = {"morphisms": mor, "method": method}
    passed = True
    tuple_space = prob.spec.q ** (ell * (config.e + 1) * config.n)
    want_cross = cross == "always" or (
        cross == "auto" and _is_diagonal(prob.form)
        and method != "enumerate" and tuple_space <= 2 * 10 ** 6)
    if want_cross:
        other = count_morphisms(prob, ell, method="enumerate")
        passed = mor == other
        outputs["enumerate_route"] = other
        outputs["routes_agree"] = passed
    return [ReportRecord(task=config.task, inputs={**base, "ell": ell},
                         outputs=outputs, passed=passed)]


def _run_langweil(config: RunConfig):
    prob = build_problem(config)
    base = _base_inputs(config, prob.spec)
    ell_max = config.param_int("ell_max", default=1, minimum=1)
    method = config.param_choice("method", ("auto", "convolve", "enumerate",
                                            "factor"), default="auto")
    records = []
    for rep in langweil_report(prob, ell_max, method=method):
        records.append(ReportRecord(
            task=config.task, inputs={**base, "ell": rep.ell},
            outputs={"cone": rep.raw_cone, "morphisms": rep.morphisms,
                     "ratio_cone": rep.ratio_cone,
                     "ratio_morphisms": rep.ratio_morphisms}))
    return records


_TASK_BUILDERS = {
    "dissect-verify": _run_dissect,
    "major-arc": _run_major,
    "weyl-check": _run_weyl,
    "shrink-check": _run_shrink,
    "pointwise-measure": _run_pointwise,
    "lattice-minima": _run_lattice,
    "ratio-lemma": _run_ratio,
    "cape-lemma": _run_cape,
    "exponent-audit": _run_exponent,
    "count-cone": _run_cone,
    "count-morphisms": _run_morphisms,
    "langweil-report": _run_langweil,
}


# -- driver -----------------------------------------------------------------------


@dataclass
class RunResult:
    status: str
    records: list
    seconds: float

    @property
    def exit_code(self) -> int:
        return _STATUS_CODES[self.status]


def run_task(config: RunConfig) -> RunResult:
    """Execute one task.  Config problems raise ConfigError; everything
    else is classified into the result status."""
    builder = _TASK_BUILDERS[config.task]
    start = time.perf_counter()
    status = "pass"
    try:
        records = builder(config)
    except BudgetExceededError as exc:
        records = [ReportRecord(
            task=config.task, inputs={},
            outputs={"status": "budget-exhausted", "needed": exc.needed,
                     "budget": exc.budget, "detail": exc.what},
            passed=False)]
        status = "budget-exhausted"
    except VerificationFailure as exc:
        records = [ReportRecord(
            task=config.task, inputs={},
            outputs={"status": "verification-failure", "detail": str(exc)},
            passed=False)]
        status = "fail"
    else:
        if any(not rec.passed for rec in records):
            status = "fail"
    elapsed = time.perf_counter() - start
    for rec in records:
        if not rec.seconds:
            rec.seconds = elapsed
    return RunResult(status=status, records=records, seconds=elapsed)
