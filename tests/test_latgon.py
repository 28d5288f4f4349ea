import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from fflab import latgon, linalg
from fflab.cli import main
from fflab.errors import (BudgetExceededError, ConfigError, PrecisionError,
                         VerificationFailure)
from fflab.fields import FieldSpec
from fflab.harness import load_config, run_task
from fflab.latgon import (FunctionFieldLattice, SpecialLatticePair,
                          ball_counts, check_capes, check_ratio_lemmas,
                          check_sandwiches, diagonal_lattice,
                          minima_by_enumeration, random_symmetric_gamma,
                          reduce_lattices, skew_counts)
from fflab.laurent import LaurentElement
from fflab.polys import Polynomial

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _zero(spec):
    return LaurentElement.zero(spec)


def test_identity_lattice_counts(spec5):
    lat = diagonal_lattice(spec5, [0, 0])
    assert ball_counts([(lat, 1), (lat, 0)]) == [25, 1]


def test_diagonal_pair_basics(spec5):
    pair = SpecialLatticePair(spec5, [[_zero(spec5)]], 2)     # gamma = 0, n = 1
    assert ball_counts([(pair.m_lattice, 0)]) == [25]
    closed = pair.minima("M", convention="closed")
    assert closed.exponents == (-2, 2)
    assert minima_by_enumeration([pair.m_lattice]) == [[-2, 2]]
    opened = pair.minima("M", convention="open")
    assert opened.exponents == (-1, 3)
    assert pair.check_minima_symmetry("closed").passed
    assert pair.check_minima_symmetry("open").passed
    assert pair.duality.passed


def test_ratio_lemma_straddles_first_minimum(spec5):
    pair = SpecialLatticePair(spec5, [[_zero(spec5)]], 1)
    [rep] = check_ratio_lemmas([(pair, -1, 0)])
    assert rep.passed
    det = rep.details
    assert (det["count1"], det["count2"]) == (1, 5)
    assert det["case"] == "straddles-first-minimum"
    assert det["ratio_matches_formula"] and det["counts_match_minima"]


def test_ratio_lemma_validates_z_order(spec5):
    pair = SpecialLatticePair(spec5, [[_zero(spec5)]], 1)
    with pytest.raises(ConfigError):
        check_ratio_lemmas([(pair, 0, -1)])
    with pytest.raises(ConfigError):
        check_ratio_lemmas([(pair, -1, 1)])


def test_count_NaZ_gamma_zero(spec5):
    assert skew_counts(spec5, [([[_zero(spec5)]], 1, 0)]) == [5]
    # at a = m the skew box coincides with the pair lattice box
    gamma = [[_zero(spec5)]]
    assert skew_counts(spec5, [(gamma, 2, z) for z in (0, -1, -2)]) == \
        [25, 5, 1]


def test_sandwich_gamma_zero(spec5):
    for a in (1, 2, Fraction(3, 2)):
        pair = SpecialLatticePair(spec5, [[_zero(spec5)]], math.floor(a))
        for rep in check_sandwiches([(pair, a, z) for z in (0, -1)]):
            assert rep.passed, rep.details


def test_sandwich_needs_a_at_least_one(spec5):
    pair = SpecialLatticePair(spec5, [[_zero(spec5)]], 1)
    with pytest.raises(ConfigError):
        check_sandwiches([(pair, Fraction(1, 2), 0)])


def test_seeded_suite_profiles_frozen(spec5):
    histogram = {}
    for seed in range(100):
        m = 1 + (seed % 2)
        gamma = random_symmetric_gamma(spec5, 2, seed)
        pair = SpecialLatticePair(spec5, gamma, m)
        assert pair.duality.passed
        assert pair.check_minima_symmetry("closed").passed
        assert pair.check_minima_symmetry("open").passed
        prof = pair.minima("M", convention="closed")
        [enum] = minima_by_enumeration([pair.m_lattice])
        assert prof.exponents == tuple(enum)
        key = prof.exponents
        histogram[key] = histogram.get(key, 0) + 1
    assert histogram == {(0, 0, 0, 0): 81, (-1, 0, 0, 1): 18,
                         (-1, -1, 1, 1): 1}


def test_seeded_ratio_and_cape_suite(spec5):
    for seed in range(25):
        m = 1 + (seed % 2)
        gamma = random_symmetric_gamma(spec5, 2, seed)
        pair = SpecialLatticePair(spec5, gamma, m)
        assert all(check_ratio_lemmas(
            [(pair, z1, z2) for z1, z2 in [(-1, 0), (-2, 0), (-2, -1),
                                           (0, 0)]]))
        a = m + Fraction(seed % 2, 2)
        assert all(check_capes(spec5, [(gamma, a, z1, z2)
                                       for z1, z2 in [(-1, 0), (-2, -1)]]))
        assert all(check_sandwiches([(pair, a, z) for z in (0, -1)]))


def test_problem_gamma_cape_instance(spec5):
    # alpha * Psi_i(v, e_k) for the diagonal cubic at v = (1 + 2t, t) and
    # alpha = 2 t^-2 + t^-3 + 3 t^-4: alpha * diag(1 + 2t, t)
    zero = _zero(spec5)
    gamma = [[LaurentElement(spec5, {-1: 4, -2: 4, -3: 2, -4: 3}), zero],
             [zero, LaurentElement(spec5, {-1: 2, -2: 1, -3: 3})]]
    [rep] = check_capes(spec5, [(gamma, 2, -1, 0)])
    assert rep.passed
    det = rep.details
    assert det["K"] == -1
    assert (det["count1"], det["count2"]) == (1, 5)
    assert det["bound_exponent"] == -2
    pair = SpecialLatticePair(spec5, gamma, 2)
    assert check_sandwiches([(pair, 2, -1)])[0].passed


def test_gamma_must_be_symmetric(spec5):
    t = LaurentElement.monomial(spec5, 1)
    zero = LaurentElement.zero(spec5)
    one = LaurentElement.monomial(spec5, 0)
    with pytest.raises(ConfigError):
        SpecialLatticePair(spec5, [[zero, t], [one, zero]], 1)


def test_singular_generator_rejected(spec5):
    one = LaurentElement.monomial(spec5, 0)
    with pytest.raises(ConfigError):
        FunctionFieldLattice(spec5, [[one, one], [one, one]])


def test_windowed_singularity_is_a_precision_error(spec5):
    windowed = LaurentElement.zero(spec5, floor=-3)
    with pytest.raises(PrecisionError):
        FunctionFieldLattice(spec5, [[windowed]])


def test_count_NaZ_below_window_is_a_precision_error(spec5):
    # a gamma entry truncated at t^-3 cannot certify a box that reads
    # coefficients at t^-5
    g = LaurentElement(spec5, {-1: 2}, floor=-3)
    assert skew_counts(spec5, [([[g]], 2, 0)])[0] >= 1
    with pytest.raises(PrecisionError):
        skew_counts(spec5, [([[g]], 3, 0)])


def test_gammas_of_two_sizes_share_one_call(spec5):
    # the top degrees come from one stack, the 1 x 1 gamma padded with
    # exact zeros
    one = random_symmetric_gamma(spec5, 1, 4)
    two = random_symmetric_gamma(spec5, 2, 5)
    requests = [(one, 1, 0), (two, Fraction(3, 2), -1), (one, 2, -1)]
    assert skew_counts(spec5, requests) == \
        [skew_counts(spec5, [request])[0] for request in requests]


def test_nonsquare_matrix_rejected(spec5):
    one = LaurentElement.monomial(spec5, 0)
    with pytest.raises(ConfigError):
        FunctionFieldLattice(spec5, [[one, one]])


def test_counts_past_the_unknowns_cap_are_budget_records(spec5):
    # 2 coordinates times 9000 coefficients each: 18000 unknowns, whose
    # elimination work 18000^3 is past the default budget of 10^9
    with pytest.raises(BudgetExceededError) as exc:
        ball_counts([(diagonal_lattice(spec5, [0, 0]), 9000)])
    assert (exc.value.needed, exc.value.budget, exc.value.what) == \
        (18000 ** 3, 10 ** 9, "ball count system")
    # |u| < q^9001 and |u'| < q^8999: 9001 + 8999 unknowns
    with pytest.raises(BudgetExceededError) as exc:
        skew_counts(spec5, [([[_zero(spec5)]], 1, 9000)])
    assert (exc.value.needed, exc.value.budget, exc.value.what) == \
        (18000 ** 3, 10 ** 9, "skew count system")


def test_field_indices_must_fit_int16():
    # the coefficient arrays hold field indices as int16; FieldSpec refuses
    # a larger field when it is constructed, before any table exists
    for p, f in ((32771, 1), (2, 16)):
        with pytest.raises(ValueError, match="int16"):
            FieldSpec(p, f)
    assert FieldSpec(2, 15).q == 1 << 15


def test_column_reduction_that_never_ends_is_a_failure(spec5, monkeypatch):
    # a nullspace that always offers the trivial move keeps the degree sum
    lat = diagonal_lattice(spec5, [0, 1])

    def trivial_move(spec, mats):
        basis = np.zeros((len(mats), 2, 2), dtype=np.int16)
        basis[:, 0, 0] = 1
        return basis, np.tile([True, False], (len(mats), 1))

    monkeypatch.setattr(latgon, "batched_nullspace", trivial_move)
    with pytest.raises(VerificationFailure):
        lat.successive_minima()


def test_extension_field_suite_reduction_matches_enumeration():
    # F_25, entries supported on t^-1..t: four minima profiles occur (the
    # histogram is the one the dict-based reduction gave)
    spec = FieldSpec(5, 2)
    pairs = SpecialLatticePair.suite(
        spec, [random_symmetric_gamma(spec, 2, seed, -1, 1)
               for seed in range(40)], [1 + seed % 2 for seed in range(40)])
    assert all(pair.duality.passed for pair in pairs)
    lattices = [lat for pair in pairs
                for lat in (pair.m_lattice, pair.adjoint_lattice)]
    reduce_lattices(lattices)
    for lat, enum in zip(lattices, minima_by_enumeration(lattices)):
        assert lat.successive_minima().exponents == tuple(enum)
    histogram = {}
    for pair in pairs:
        prof = pair.minima("M").exponents
        histogram[prof] = histogram.get(prof, 0) + 1
        assert pair.check_minima_symmetry("closed").passed
    assert histogram == {(0, 0, 0, 0): 19, (-1, -1, 1, 1): 19,
                         (-1, 0, 0, 1): 1, (-2, -1, 1, 2): 1}
    zs = (-2, -1, 0, 1)
    counts = ball_counts([(pair.m_lattice, z) for pair in pairs for z in zs])
    for k, pair in enumerate(pairs):
        exps = pair.minima("M").exponents
        for j, z in enumerate(zs):
            assert counts[k * len(zs) + j] == \
                spec.q ** sum(max(0, z - r) for r in exps)


def test_windowed_lattice_reads_below_its_floor_raise(spec5):
    # t^3 known down to t^2: the lattice and its reduction are decidable,
    # a ball count that reads the t^1 coefficient is not
    windowed = LaurentElement(spec5, {3: 1}, floor=2)
    one = LaurentElement.monomial(spec5, 0)
    zero = LaurentElement.zero(spec5)
    lat = FunctionFieldLattice(
        spec5, [[windowed, zero], [zero, one]],
        inverse=[[LaurentElement.monomial(spec5, -3), zero], [zero, one]])
    assert lat.successive_minima().exponents == (0, 3)
    with pytest.raises(PrecisionError):
        ball_counts([(lat, 1)])
    # [[1, 1], [1, 1 + O(t^-1)]]: the one reduction step leaves a column
    # whose vanishing the window cannot decide
    fuzzy = LaurentElement(spec5, {0: 1}, floor=-1)
    with pytest.raises(PrecisionError):
        FunctionFieldLattice(spec5, [[one, one], [one, fuzzy]])


@pytest.mark.parametrize("name,task,digest,reduced,pairs", [
    ("lattice_q5", "lattice-minima",
     "e9e922c27f5e49a8f5d7d58cd2093b67eaab4ddeb58859dc52fbf6acb0149907",
     200, 100),
    ("ratio_q5", "ratio-lemma",
     "e4d31768ddfab52bf825e0785727e289375b9c7406dbb87fc83fe61c040a9708",
     100, 100),
    ("cape_q5", "cape-lemma",
     "67d4ce3c76d4a90ceabcb28f162b2b03c0ea7ee7e8a5525aa269b1480bdf7511",
     0, 100),
])
def test_suites_reduce_each_lattice_once_on_arrays(tmp_path, monkeypatch, name,
                                                   task, digest, reduced,
                                                   pairs):
    # one reduction per distinct lattice, one pair per instance, counted in
    # the generator stack the certification receives, and no Laurent element
    # at all: the gammas are drawn into arrays and the pairs built on them
    def no_elements(*args):
        raise AssertionError("a Laurent element on the array route")

    monkeypatch.setattr(LaurentElement, "__init__", no_elements)
    seen = {"reduced": 0, "pairs": 0}
    reduce, certify = latgon._reduce, latgon._certify_pairs

    def counting_reduce(spec, coeffs, lo, floors):
        seen["reduced"] += len(coeffs)
        return reduce(spec, coeffs, lo, floors)

    def counting_certify(pair_list, spec, lo, m_c, *stacks):
        seen["pairs"] += len(m_c)
        return certify(pair_list, spec, lo, m_c, *stacks)

    monkeypatch.setattr(latgon, "_reduce", counting_reduce)
    monkeypatch.setattr(latgon, "_certify_pairs", counting_certify)
    assert main([task, "--config", os.path.join(CONFIGS, f"{name}.cfg"),
                 "--workers", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{task}.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert seen == {"reduced": reduced, "pairs": pairs}


def test_lattice_oracle_work_is_pinned(monkeypatch):
    # configs/lattice_q5.cfg: the oracle solves 568 balls in 7 radius
    # steps, and the K-rank hands batched_rank 8 stacks of 2,424 evaluated
    # matrices and 44,768 cells in all (P = min(k, N) D + 1 points each)
    radii, ranked = [], []
    balls, rank = latgon._ball_systems, linalg.batched_rank

    def counting_balls(requests, budget):
        radii.append(len(requests))
        return balls(requests, budget)

    def counting_rank(spec, mats):
        ranked.append(mats.shape)
        return rank(spec, mats)

    monkeypatch.setattr(latgon, "_ball_systems", counting_balls)
    monkeypatch.setattr(linalg, "batched_rank", counting_rank)
    result = run_task(load_config(os.path.join(CONFIGS, "lattice_q5.cfg")))
    assert result.status == "pass"
    assert (sum(radii), len(radii)) == (568, 7)
    assert (len(ranked), sum(shape[0] for shape in ranked),
            sum(math.prod(shape) for shape in ranked)) == (8, 2424, 44768)


def test_the_oracle_neither_reduces_nor_builds_polynomials(spec5,
                                                            monkeypatch):
    pairs = SpecialLatticePair.suite(
        spec5, [random_symmetric_gamma(spec5, 2, seed) for seed in range(20)],
        [1 + seed % 2 for seed in range(20)])

    def forbidden(*args):
        raise AssertionError("the oracle left its own route")

    monkeypatch.setattr(latgon, "_reduce", forbidden)
    monkeypatch.setattr(Polynomial, "__init__", forbidden)
    enumerated = minima_by_enumeration([pair.m_lattice for pair in pairs])
    monkeypatch.undo()
    assert enumerated == [list(pair.minima("M").exponents) for pair in pairs]


def test_an_oracle_overrun_is_a_verification_failure(tmp_path, monkeypatch):
    # a K-rank that never grows walks the radius past top(B); that
    # contradicts the lattice, so it is exit 1, not a config error
    path = tmp_path / "lattice.cfg"
    path.write_text("[field]\np = 5\n\n[problem]\nd = 3\nn = 1\ne = 1\n\n"
                    "[task]\nname = lattice-minima\ncount = 2\n")
    monkeypatch.setattr(latgon, "batched_poly_rank",
                        lambda spec, polys: np.zeros(len(polys), dtype=int))
    result = run_task(load_config(str(path)))
    assert (result.status, result.exit_code) == ("fail", 1)
    [record] = result.records
    assert record.outputs["status"] == "verification-failure"
    assert "overran" in record.outputs["detail"]


def _element_rows(gamma):
    """A LaurentMatrix gamma as rows of LaurentElement entries."""
    return [[LaurentElement(gamma.spec, {gamma.lo + w: int(c)
                                         for w, c in enumerate(entry)})
             for entry in row] for row in gamma.coeffs]


def _windowed_gamma(spec, n, seed):
    """A symmetric gamma of windowed entries: entry (i, j) is known from
    t^-min(2, i + j) up, and its t^2 coefficient is 1, so that no entry's
    vanishing is undecidable."""
    rows = _element_rows(random_symmetric_gamma(spec, n, seed, -2, 2))
    return [[LaurentElement(spec, {**rows[i][j].coeffs, 2: 1},
                            floor=-min(2, i + j)) for j in range(n)]
            for i in range(n)]


def _pair_oracle(spec, gamma, m):
    """M_m and L_m of a pair, built entry by entry from Laurent elements:
    t^-m, t^m gamma_ij, t^m and -t^m gamma_ij."""
    n = len(gamma)
    zero = LaurentElement.zero(spec)
    down = LaurentElement.monomial(spec, -m)
    up = LaurentElement.monomial(spec, m)

    def diagonal_row(entry, i):
        return [entry if i == j else zero for j in range(n)]

    sheared = [[up * entry for entry in row] for row in gamma]
    m_rows = ([diagonal_row(down, i) + [zero] * n for i in range(n)]
              + [sheared[i] + diagonal_row(up, i) for i in range(n)])
    l_rows = ([diagonal_row(up, i) + [-x for x in sheared[i]]
               for i in range(n)]
              + [[zero] * n + diagonal_row(down, i) for i in range(n)])
    return (latgon._laurent_matrix(spec, m_rows),
            latgon._laurent_matrix(spec, l_rows))


@pytest.mark.parametrize("p,f", [(5, 1), (7, 1), (5, 2)])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_suite_generators_match_the_per_pair_oracle(p, f, n):
    # one suite mixes m = 1, 2, 3, drawn gammas, a gamma of nested Laurent
    # elements and a windowed one; every generator equals the oracle's on a
    # shared window, floors included
    spec = FieldSpec(p, f)
    gammas = [random_symmetric_gamma(spec, n, seed) for seed in range(4)]
    gammas += [_element_rows(random_symmetric_gamma(spec, n, 9, -1, 4)),
               _windowed_gamma(spec, n, 11)]
    ms = [1, 2, 3, 1, 2, 3]
    pairs = SpecialLatticePair.suite(spec, gammas, ms)
    assert all(pair.duality.passed for pair in pairs)
    for pair, gamma, m in zip(pairs, gammas, ms):
        rows = (_element_rows(gamma)
                if isinstance(gamma, latgon.LaurentMatrix) else gamma)
        for built, oracle in zip((pair.m_lattice.gen,
                                  pair.adjoint_lattice.gen),
                                 _pair_oracle(spec, rows, m)):
            coeffs, _, floors = latgon._stack([built, oracle])
            assert np.array_equal(coeffs[0], coeffs[1])
            assert np.array_equal(floors[0], floors[1])
    windowed = pairs[-1].m_lattice.gen.floors
    assert (windowed != latgon._NO_FLOOR).sum() == n * n


def test_capes_convert_each_gamma_once(spec5, monkeypatch):
    # ten gammas, each at two (z1, z2) pairs over z in {-2, -1, 0}: three
    # distinct skew systems per gamma, whether the gammas come as nested
    # Laurent elements or as the pairs' matrices
    built = []
    systems = latgon._skew_systems

    def counting(items, budget):
        built.append(len(items))
        return systems(items, budget)

    monkeypatch.setattr(latgon, "_skew_systems", counting)
    rows = [_element_rows(random_symmetric_gamma(spec5, 2, seed))
            for seed in range(10)]
    pairs = SpecialLatticePair.suite(spec5, rows, [1] * 10)
    reports = []
    for gammas in (rows, [pair.gamma for pair in pairs]):
        built.clear()
        reports.append([rep.details for rep in check_capes(
            spec5, [(gamma, 1, z1, z2) for gamma in gammas
                    for z1, z2 in [(-1, 0), (-2, -1)]])])
        assert built == [30]
    assert reports[0] == reports[1]


A_GRID = [Fraction(k, 2) for k in (2, 3, 4, 5, 7)]
Z_GRID = [Fraction(k, 2) for k in range(-5, 2)]


def _ceil(x):
    return math.ceil(Fraction(x))


def test_thresholds_match_a_fraction_oracle(spec5, monkeypatch):
    # gamma = 0, n = 1: N(a, z) = q^(max(0, ceil(a + z)) + max(0,
    # ceil(z - a))) and M_m(Z) = q^(max(0, Z + m) + max(0, Z - m)); every
    # ceiling of the oracle is taken on Fractions, also at the negative
    # half-integers
    q = spec5.q
    zero = [[_zero(spec5)]]

    def skew(a, z):
        return q ** (max(0, _ceil(a + z)) + max(0, _ceil(z - a)))

    def ball(m, z):
        return q ** (max(0, _ceil(z) + m) + max(0, _ceil(z) - m))

    cells = [(a, z) for a in A_GRID for z in Z_GRID]
    assert skew_counts(spec5, [(zero, a, z) for a, z in cells]) == \
        [skew(a, z) for a, z in cells]
    pairs = {m: SpecialLatticePair(spec5, zero, m) for m in (1, 2, 3)}
    for (a, z), rep in zip(cells, check_sandwiches(
            [(pairs[math.floor(a)], a, z) for a, z in cells])):
        m, frac = math.floor(a), a - math.floor(a)
        assert rep.details == {"a": str(a), "z": str(z), "m": m,
                               "lower": ball(m, z - frac),
                               "middle": skew(a, z),
                               "upper": ball(m, z + frac)}
        assert rep.passed
    capes = [(a, z1, z2) for a in A_GRID for z1 in Z_GRID for z2 in Z_GRID
             if z1 <= z2 <= 0]
    for (a, z1, z2), rep in zip(capes, check_capes(
            spec5, [(zero, a, z1, z2) for a, z1, z2 in capes])):
        frac = a - math.floor(a)
        cape = _ceil(z1 - frac) - _ceil(z2 + frac)
        c1, c2 = skew(a, z1), skew(a, z2)
        assert rep.details == {"a": str(a), "z1": str(z1), "z2": str(z2),
                               "K": cape, "count1": c1, "count2": c2,
                               "bound_exponent": cape}
        assert rep.passed == (Fraction(c1, c2) >= Fraction(q) ** cape)
    # on a drawn gamma the skew systems read the same two ceilings
    seen = []
    systems = latgon._skew_systems

    def recording(items, budget):
        seen.extend((d1, v2) for _, _, d1, v2 in items)
        return systems(items, budget)

    monkeypatch.setattr(latgon, "_skew_systems", recording)
    gamma = random_symmetric_gamma(spec5, 2, 3)
    skew_counts(spec5, [(gamma, a, z) for a, z in cells])
    assert seen == list(dict.fromkeys((_ceil(a + z) - 1, _ceil(z - a))
                                      for a, z in cells))


def test_thresholds_refuse_thirds_and_quarters(spec5):
    zero = [[_zero(spec5)]]
    pair = SpecialLatticePair(spec5, zero, 1)
    for a, z in ((Fraction(1, 3), 0), (1, 0.25)):
        with pytest.raises(ConfigError):
            skew_counts(spec5, [(zero, a, z)])
        with pytest.raises(ConfigError):
            check_sandwiches([(pair, a, z)])
        with pytest.raises(ConfigError):
            check_capes(spec5, [(zero, a, z, 0)])
