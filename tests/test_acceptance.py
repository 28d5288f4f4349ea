"""End-to-end acceptance checks.

Each test verifies one headline guarantee of the package on fixed,
reproducible fixtures.  Run with `pytest -v -m acceptance` to get one
pass/fail line per guarantee.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from fflab.audit import audit_minor_arcs, dims, n0
from fflab.circle import CountingProblem
from fflab.fields import FieldSpec
from fflab.forms import fermat_form
from fflab.latgon import (SpecialLatticePair, check_cape, check_ratio_lemma,
                          check_sandwich, random_symmetric_gamma)
from fflab.laurent import LaurentElement
from fflab.moduli import count_cone, count_morphisms, enumerate_lines
from fflab.weyl import (canonical_shape_report, check_shrink, check_weyl,
                        count_N, count_N_eta)

pytestmark = pytest.mark.acceptance


def test_dissection_identity_is_exact(prob_n3, prob_q7_n2):
    # sum of arc integrals == brute-force point count, in exact cyclotomic
    # arithmetic, for both standing fixtures
    start = time.monotonic()
    assert prob_n3.dissection_total() == prob_n3.brute_count() == 145
    assert prob_q7_n2.dissection_total() == prob_q7_n2.brute_count()
    assert time.monotonic() - start < 120.0


def test_major_arcs_contribute_the_main_term(prob_n3, prob_q7_n2):
    for prob in (prob_n3, prob_q7_n2):
        mu_hat = dims(prob.n, prob.d, prob.e).mu_hat
        assert prob.major_total() == Fraction(prob.spec.q) ** mu_hat


def test_weyl_inequality_on_every_atom(prob_n2):
    start = time.monotonic()
    q, depth = prob_n2.spec.q, prob_n2.d * prob_n2.e + 1
    checked = 0
    for tail in itertools.product(range(q), repeat=depth):
        alpha = LaurentElement.from_tail(prob_n2.spec, tail)
        rep = check_weyl(prob_n2, alpha)
        assert rep.passed, (tail, rep.details)
        checked += 1
    assert checked == q ** depth == 625
    assert time.monotonic() - start < 600.0


def test_box_shrinking_inequality_on_sampled_points(spec5):
    # 50 sampled alpha per admissible eta, for curve degrees 1 and 3.
    # N(alpha) is computed once per alpha and reused across eta; the
    # eta = 1 counter is spot-checked to coincide with N itself, and one
    # full check_shrink call per (e, eta) ties the manual inequality to
    # the library checker.
    form = fermat_form(spec5, 2, 3)
    rng = random.Random(415)
    q = spec5.q
    for e in (1, 3):
        prob = CountingProblem(spec5, form, e, budget=4 * 10 ** 9)
        depth = prob.d * e + 1
        etas = [Fraction(k, e + 1) for k in range(e + 2)
                if (k + e + 1) % 2 == 0]
        assert etas, e
        tails = [tuple(rng.randrange(q) for _ in range(depth))
                 for _ in range(50)]
        alphas = [LaurentElement.from_tail(spec5, tail) for tail in tails]
        for i, alpha in enumerate(alphas):
            big = count_N(prob, alpha)
            assert big >= 1
            for eta in etas:
                if eta == 1:
                    small = (count_N_eta(prob, alpha, 1) if i < 3 else big)
                    assert small == big
                else:
                    small = count_N_eta(prob, alpha, eta)
                exp = (e + 1) * (prob.d - 1) * prob.n * (1 - eta)
                assert exp.denominator == 1
                assert big <= Fraction(q) ** int(exp) * small, \
                    (e, eta, tails[i], big, small)
        for eta in etas:
            assert check_shrink(prob, alphas[0], eta).passed


def test_lattice_suite_on_hundred_seeds(spec5):
    start = time.monotonic()
    histogram = {}
    for seed in range(100):
        m = 1 + (seed % 2)
        gamma = random_symmetric_gamma(spec5, 2, seed)
        pair = SpecialLatticePair(spec5, gamma, m)
        assert pair.check_duality().passed
        assert pair.check_minima_symmetry("closed", "reduce").passed
        assert pair.check_minima_symmetry("open", "reduce").passed
        prof = pair.minima("M", convention="closed", method="reduce")
        enum = pair.minima("M", convention="closed", method="enumerate")
        assert prof.exponents == enum.exponents
        histogram[prof.exponents] = histogram.get(prof.exponents, 0) + 1
        for z1, z2 in [(-1, 0), (-2, 0), (-2, -1), (0, 0)]:
            assert check_ratio_lemma(pair, z1, z2).passed
        a = m + Fraction(seed % 2, 2)
        for z1, z2 in [(-1, 0), (-2, -1)]:
            assert check_cape(spec5, gamma, a, z1, z2).passed
        for z in (0, -1):
            assert check_sandwich(spec5, gamma, a, z).passed
    assert histogram == {(0, 0, 0, 0): 81, (-1, 0, 0, 1): 18,
                         (-1, -1, 1, 1): 1}
    assert time.monotonic() - start < 300.0


def test_exponent_audit_over_full_grids():
    start = time.monotonic()
    assert (n0(3), n0(4), n0(5)) == (44, 128, 336)
    cells = 0
    mismatches = 0
    min_saving = None
    for d in (3, 4, 5):
        n = n0(d) + 1
        for e in range(1, 9):
            rep = audit_minor_arcs(d, n, e)
            assert rep.passed, (d, n, e)
            cells += len(rep.cells)
            mismatches += sum(1 for c in rep.cells if not c.case_eta_match)
            if min_saving is None or rep.min_saving < min_saving:
                min_saving = rep.min_saving
    assert cells == 12826
    assert mismatches == 24
    assert min_saving == Fraction(33, 16)
    assert time.monotonic() - start < 60.0


def test_moduli_counts_match_the_oracles(prob_n3, spec5):
    start = time.monotonic()
    assert count_cone(prob_n3) + 1 == prob_n3.brute_count() == 145
    surface = CountingProblem(spec5, fermat_form(spec5, 4, 3), 1)
    lines = enumerate_lines(surface)
    assert lines == 3
    assert count_morphisms(surface) == lines * (5 ** 3 - 5) == 360
    assert enumerate_lines(surface, ell=2) == 27
    assert time.monotonic() - start < 600.0


def test_pointwise_ratios_do_not_grow_with_q():
    shapes = [("generic", 2, None),
              ("deg-r-positive", 2, None),
              ("deg-r-zero", 0, 3)]
    reports = {}
    for q in (5, 7, 11):
        spec = FieldSpec(q)
        prob = CountingProblem(spec, fermat_form(spec, 2, 3), 1)
        for shape in shapes:
            lemma, r_deg, beta = shape
            rep = canonical_shape_report(prob, lemma, r_deg, beta)
            assert rep.hypothesis_ok, (q, lemma)
            ratio = rep.ratio_float()
            assert ratio == ratio and 0.0 < ratio < float("inf")
            reports[(q, lemma)] = rep
            print(f"pointwise ratio q={q} {lemma}: sigma={rep.sigma} "
                  f"ratio={ratio:.6g}")
    for lemma, _, _ in shapes:
        for q1, q2 in [(5, 7), (7, 11)]:
            assert (reports[(q1, lemma)].ratio_float()
                    >= reports[(q2, lemma)].ratio_float())
