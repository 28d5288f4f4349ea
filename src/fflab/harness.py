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
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .audit import audit_minor_arcs, dims
from .circle import CountingProblem
from .errors import (DEFAULT_BUDGET, Budget, BudgetExceededError, ConfigError,
                     VerificationFailure)
from .fields import FieldSpec
from .forms import fermat_form, parse_form_file
from .latgon import (SpecialLatticePair, _half, check_capes,
                     check_ratio_lemmas, check_sandwiches,
                     minima_by_enumeration, random_symmetric_gammas,
                     reduce_lattices)
from .moduli import count_cone, count_morphisms, langweil_report
from .reporting import ReportRecord
from .weyl import (_charge_weyl, _shrink_eta, _weyl_reports,
                   canonical_shape_report, check_shrink_batch)
from .work import map_reduce

__all__ = ["TASKS", "TASK_PARAMS", "RunConfig", "RunResult", "load_config",
           "build_spec", "build_problem", "run_task"]

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
    budget: int = DEFAULT_BUDGET
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

    def param_checked(self, key: str, check, *args):
        """check(*args), its ConfigError naming the file, section and key."""
        try:
            return check(*args)
        except ConfigError as exc:
            raise ConfigError(f"{self.path}: [task] {key}: {exc}") from None

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

    budget = _get_int(cp, path, "run", "budget", default=DEFAULT_BUDGET,
                      minimum=1)
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
    prob.charge_dissection()
    prob.sum_table(charged=True)    # degree_subtotals reads the built table
    subtotals = prob.degree_subtotals()
    brute = prob.brute_count(charged=True)
    records = []
    total = None
    for deg, (arcs, sub) in sorted(subtotals.items()):
        total = sub if total is None else total + sub
        records.append(ReportRecord(
            task=config.task, inputs={**base, "deg_r": deg},
            outputs={"arcs": arcs, "subtotal": sub}))
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


def _weyl_chunk(prob: CountingProblem, tails):
    """The reports of one chunk of a sweep, on the problem that charged the
    whole sweep; a worker process gets it pickled with its phase
    distribution and, when S is read off it, its sum table, so nothing is
    rebuilt or charged again."""
    return [(tail, rep.passed, rep.details["N"], rep.details["bound"],
             rep.details["cmp"])
            for tail, rep in zip(tails, _weyl_reports(prob, tails))]


def _run_weyl(config: RunConfig):
    single = config.param_tail("alpha")
    if single is not None and config.params.get("limit") is not None:
        raise ConfigError(
            f"{config.path}: [task] alpha, limit: limit bounds a sweep and "
            f"alpha names one tail; give at most one of them")
    prob = build_problem(config)
    spec = prob.spec
    base = _base_inputs(config, spec)
    depth = prob.char_depth
    if single is not None:
        if len(single) != depth:
            raise ConfigError(
                f"{config.path}: [task] alpha: need {depth} digits, "
                f"got {len(single)}")
        if not all(0 <= digit < spec.q for digit in single):
            raise ConfigError(
                f"{config.path}: [task] alpha: digits must lie in "
                f"0..{spec.q - 1}, got {single}")
        _charge_weyl(prob, 1)
        tails = [single]
    else:
        sweep = spec.q ** depth
        limit = config.param_int("limit", minimum=1)
        if limit is not None:
            sweep = min(sweep, limit)
        # each phase costs at least 1: an over-budget sweep stops here
        _charge_weyl(prob, sweep)
        tails = list(itertools.islice(
            itertools.product(range(spec.q), repeat=depth), sweep))
    fn = functools.partial(_weyl_chunk, prob)
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
    """Every eta = k/(e+1), k = 0..e+1, that _shrink_eta accepts."""
    etas = []
    for k in range(e + 2):
        try:
            etas.append(_shrink_eta(e, Fraction(k, e + 1)))
        except ConfigError:
            pass
    return etas


def _run_shrink(config: RunConfig):
    prob = build_problem(config)
    spec = prob.spec
    base = _base_inputs(config, spec)
    eta_param = config.param_fraction("eta")
    etas = ([config.param_checked("eta", _shrink_eta, config.e, eta_param)]
            if eta_param is not None else _admissible_etas(config.e))
    samples = config.param_int("samples", default=50, minimum=1)
    rng = random.Random(config.seed)
    records = []
    for eta in etas:
        tails = [tuple(rng.randrange(spec.q) for _ in range(prob.char_depth))
                 for _ in range(samples)]
        for tail, rep in zip(tails, check_shrink_batch(prob, tails, eta)):
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
    if beta is not None and beta > prob.char_depth:
        raise ConfigError(
            f"{config.path}: [task] beta: must be <= {prob.char_depth}, the "
            f"tail depth d*e + 1, got {beta}")
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


def _seeded_pairs(config: RunConfig, spec, ms) -> list:
    """One suite of lattice pairs, pair i with m = ms[i] and gamma drawn
    from seed [run] seed + i, all gammas in one batched draw."""
    seeds = range(config.seed, config.seed + len(ms))
    return SpecialLatticePair.suite(
        spec, random_symmetric_gammas(spec, config.n, seeds), ms)


def _run_lattice(config: RunConfig):
    spec = build_spec(config)
    base = _base_inputs(config, spec)
    count = config.param_int("count", default=100, minimum=1)
    m_fixed = config.param_int("m", minimum=1)
    ms = [m_fixed if m_fixed is not None else 1 + (i % 2)
          for i in range(count)]
    pairs = _seeded_pairs(config, spec, ms)
    minima = reduce_lattices([lat for pair in pairs
                              for lat in (pair.m_lattice,
                                          pair.adjoint_lattice)])
    enumerated = minima_by_enumeration([pair.m_lattice for pair in pairs],
                                       Budget(config.budget))
    records = []
    for i, (pair, m) in enumerate(zip(pairs, ms)):
        profile = minima[2 * i]
        agree = profile == tuple(enumerated[i])
        duality = pair.duality.passed
        sym_closed = _mirror_sums_are(profile, 0)
        sym_open = _mirror_sums_are([r + 1 for r in profile], 2)
        records.append(ReportRecord(
            task=config.task, inputs={**base, "instance": i, "m": m},
            outputs={"profile": profile, "adjoint_profile": minima[2 * i + 1],
                     "methods_agree": agree, "duality": duality,
                     "symmetry_closed": sym_closed,
                     "symmetry_open": sym_open},
            passed=duality and agree and sym_closed and sym_open))
    return records


def _mirror_sums_are(exps, target: int) -> bool:
    """R_v + R_{2n-v+1} == target for every v, exps = (R_1, ..., R_2n)."""
    return all(r + s == target for r, s in zip(exps, reversed(exps)))


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
    ms = [1 + (i % 2) for i in range(count)]
    pairs = _seeded_pairs(config, spec, ms)
    items = [(i, pair, z1, z2) for i, pair in enumerate(pairs)
             for z1, z2 in _z_pairs(config, i)]
    reps = check_ratio_lemmas([(pair, z1, z2) for _, pair, z1, z2 in items],
                              Budget(config.budget))
    records = []
    for (i, _, z1, z2), rep in zip(items, reps):
        det = rep.details
        records.append(ReportRecord(
            task=config.task,
            inputs={**base, "instance": i, "m": ms[i], "z1": z1, "z2": z2},
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
    if a_fixed is not None:
        if a_fixed < 1:
            raise ConfigError(
                f"{config.path}: [task] a: the sandwich needs a >= 1, "
                f"got {a_fixed}")
        config.param_checked("a", _half, a_fixed, "a")
    avals = [a_fixed if a_fixed is not None
             else 1 + (i % 2) + Fraction(i % 2, 2) for i in range(count)]
    # one pair per instance, with m = floor(a), serves both z of the sandwich
    pairs = _seeded_pairs(config, spec, [math.floor(a) for a in avals])
    budget = Budget(config.budget)
    sands = check_sandwiches([(pair, a, z) for pair, a in zip(pairs, avals)
                              for z in (0, -1)], budget)
    zpairs = [_z_pairs(config, i) for i in range(count)]
    capes = iter(check_capes(spec, [(pairs[i].gamma, avals[i], z1, z2)
                                    for i in range(count)
                                    for z1, z2 in zpairs[i]], budget))
    records = []
    for i, a in enumerate(avals):
        inputs = {**base, "instance": i, "a": a}
        for z, sand in zip((0, -1), sands[2 * i:2 * i + 2]):
            records.append(ReportRecord(
                task=config.task, inputs={**inputs, "z": z},
                outputs={"check": "sandwich", **sand.details,
                         "holds": sand.passed},
                passed=sand.passed))
        for (z1, z2), cape in zip(zpairs[i], capes):
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
    mor = count_morphisms(prob, ell, method=method)
    outputs = {"morphisms": mor, "method": method}
    passed = True
    # cross-check only where its charge fits what the first route left
    tuple_space = prob.spec.q ** (ell * (config.e + 1) * config.n)
    if (len(prob.form.blocks) > 1 and method != "enumerate"
            and tuple_space <= prob.budget.left):
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
    records = []
    for rep in langweil_report(prob, ell_max):
        records.append(ReportRecord(
            task=config.task, inputs={**base, "ell": rep.ell},
            outputs={"cone": rep.raw_cone, "morphisms": rep.morphisms,
                     "ratio_cone": rep.ratio_cone,
                     "ratio_morphisms": rep.ratio_morphisms}))
    return records


# Each task's builder and its allowed [task] keys, beyond "name".
_TASKS = {
    "dissect-verify": (_run_dissect, ()),
    "major-arc": (_run_major, ()),
    "weyl-check": (_run_weyl, ("alpha", "limit")),
    "shrink-check": (_run_shrink, ("eta", "samples")),
    "pointwise-measure": (_run_pointwise, ("lemma", "r_degree", "beta")),
    "lattice-minima": (_run_lattice, ("count", "m")),
    "ratio-lemma": (_run_ratio, ("count", "z1", "z2")),
    "cape-lemma": (_run_cape, ("count", "a", "z1", "z2")),
    "exponent-audit": (_run_exponent, ()),
    "count-cone": (_run_cone, ("ell", "method")),
    "count-morphisms": (_run_morphisms, ("ell", "method")),
    "langweil-report": (_run_langweil, ("ell_max",)),
}
TASKS = tuple(_TASKS)
TASK_PARAMS = {name: params for name, (_, params) in _TASKS.items()}


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
    builder, _ = _TASKS[config.task]
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
