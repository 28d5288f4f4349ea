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
from fflab.latgon import (SpecialLatticePair, check_capes, check_ratio_lemmas,
                          check_sandwiches, minima_by_enumeration,
                          random_symmetric_gammas, reduce_lattices)
from fflab.moduli import count_cone, count_morphisms, enumerate_lines
from fflab.weyl import (canonical_shape_report, check_shrink_batch,
                        check_weyl_batch)

from oracles import mirror_sums

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
    tails = list(itertools.product(range(q), repeat=depth))
    reports = check_weyl_batch(prob_n2, tails)
    for tail, rep in zip(tails, reports):
        assert rep.passed, (tail, rep.details)
    assert len(reports) == q ** depth == 625
    assert time.monotonic() - start < 600.0


def test_box_shrinking_inequality_on_sampled_points(spec5):
    # 50 sampled alpha per admissible eta, for curve degrees 1 and 3, one
    # check_shrink_batch call per (e, eta).  N(alpha) must not depend on
    # eta, the eta = 1 counter must coincide with N itself, and the
    # inequality is checked by hand from the counts as well as by the
    # library checker.
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
        first = None
        for eta in etas:
            reports = check_shrink_batch(prob, tails, eta)
            bigs = [rep.details["N"] for rep in reports]
            first = bigs if first is None else first
            assert bigs == first and min(bigs) >= 1
            exp = (e + 1) * (prob.d - 1) * prob.n * (1 - eta)
            assert exp.denominator == 1
            for tail, big, rep in zip(tails, bigs, reports):
                small = rep.details["N_eta"]
                assert small == big or eta != 1
                assert big <= Fraction(q) ** int(exp) * small, \
                    (e, eta, tail, big, small)
                assert rep.passed


def test_lattice_suite_on_hundred_seeds(spec5):
    # one suite of 100 pairs, each check batched over all of them
    start = time.monotonic()
    seeds = range(100)
    ms = [1 + (seed % 2) for seed in seeds]
    gammas = random_symmetric_gammas(spec5, 2, seeds)
    pairs = SpecialLatticePair.suite(spec5, gammas, ms)
    histogram = {}
    lattices = [pair.m_lattice for pair in pairs]
    enumerated = minima_by_enumeration(lattices)
    for pair, prof, enum in zip(pairs, reduce_lattices(lattices), enumerated):
        assert pair.duality.passed
        assert mirror_sums(prof) == {0}
        assert mirror_sums(tuple(r + 1 for r in prof)) == {2}
        assert prof == tuple(enum)
        histogram[prof] = histogram.get(prof, 0) + 1
    assert histogram == {(0, 0, 0, 0): 81, (-1, 0, 0, 1): 18,
                         (-1, -1, 1, 1): 1}
    assert all(check_ratio_lemmas(
        [(pair, z1, z2) for pair in pairs
         for z1, z2 in [(-1, 0), (-2, 0), (-2, -1), (0, 0)]]))
    avals = [m + Fraction(seed % 2, 2) for seed, m in zip(seeds, ms)]
    assert all(check_capes(spec5, [(gamma, a, z1, z2)
                                   for gamma, a in zip(gammas, avals)
                                   for z1, z2 in [(-1, 0), (-2, -1)]]))
    assert all(check_sandwiches([(pair, a, z)
                                 for pair, a in zip(pairs, avals)
                                 for z in (0, -1)]))
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
