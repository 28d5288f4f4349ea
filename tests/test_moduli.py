import collections
import itertools
import os
import random
from fractions import Fraction

import numpy as np
import pytest

import fflab
from fflab import forms, moduli
from fflab.circle import CountingProblem
from fflab.errors import Budget, ConfigError
from fflab.fields import FieldSpec
from fflab.forms import BoxKernel, fermat_form, symmetrize
from fflab.harness import load_config, run_task
from fflab.moduli import (count_cone, count_morphisms, embed_form,
                          enumerate_lines, extend_spec, langweil_report,
                          rank_coprime, total_solutions)
from oracles import eval_form, gcd_coprime
from scalars import BinaryForm

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SURFACE_CONFIG = os.path.join(CONFIGS, "morphisms_surface_q5.cfg")

# a non-diagonal ternary cubic: count_morphisms enumerates it
MIXED_TERNARY = {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 3, (2, 1, 0): 4,
                 (1, 1, 1): 1}


@pytest.fixture(scope="module")
def prob_surface(spec5):
    return CountingProblem(spec5, fermat_form(spec5, 4, 3), 1)


def test_cone_plus_one_is_the_affine_total(prob_n3, spec5):
    cone = count_cone(prob_n3)
    assert cone == 144
    assert cone + 1 == 145    # the zero tuple completes the affine count
    total = total_solutions(spec5, prob_n3.form, 1, method="enumerate")
    assert total == 145
    assert total_solutions(spec5, prob_n3.form, 1, method="convolve") == 145


def test_cone_two_variables(prob_n2):
    assert count_cone(prob_n2) == 24
    assert count_cone(prob_n2) % (prob_n2.spec.q - 1) == 0


def test_lines_on_the_fermat_surface(prob_surface):
    assert enumerate_lines(prob_surface) == 3
    assert enumerate_lines(prob_surface, ell=2) == 27


def test_morphism_count_factors_through_lines(prob_surface, spec5):
    q = spec5.q
    mor = count_morphisms(prob_surface)
    assert mor == 360
    assert mor == enumerate_lines(prob_surface) * (q ** 3 - q)


def test_morphism_count_extension_field(prob_surface):
    q2 = 25
    mor = count_morphisms(prob_surface, ell=2)
    assert mor == 421200
    assert mor == enumerate_lines(prob_surface, ell=2) * (q2 ** 3 - q2)


def test_morphism_enumerate_route_agrees(prob_surface):
    assert count_morphisms(prob_surface, method="enumerate") == 360


def test_langweil_report_rows(prob_surface):
    rows = langweil_report(prob_surface, 2)
    assert [r.ell for r in rows] == [1, 2]
    assert (rows[0].raw_cone, rows[0].morphisms) == (2184, 360)
    assert rows[0].ratio_cone == Fraction(2184, 625)
    assert rows[0].ratio_morphisms == Fraction(72, 25)
    assert (rows[1].raw_cone, rows[1].morphisms) == (10608624, 421200)
    assert rows[1].ratio_cone == Fraction(10608624, 390625)
    assert rows[1].ratio_morphisms == Fraction(16848, 625)


def test_anisotropic_form_has_empty_cone(spec7):
    # 2 is not a cube mod 7, so x1^3 + 2 x2^3 = 0 forces x1 = x2 = 0
    form = symmetrize(spec7, 2, 3, {(3, 0): 1, (0, 3): 2})
    prob = CountingProblem(spec7, form, 1)
    assert count_cone(prob) == 0
    assert count_morphisms(prob) == 0


def test_binary_fermat_has_no_degree_two_morphisms(spec5):
    prob = CountingProblem(spec5, fermat_form(spec5, 2, 3), 2)
    assert count_morphisms(prob, method="enumerate") == 0
    assert count_morphisms(prob, method="factor") == 0


def _rank_route(tuples):
    """rank_coprime on a list of equal-degree BinaryForm tuples."""
    spec = tuples[0][0].spec
    coeffs = np.array([[f.coeffs for f in tup] for tup in tuples],
                      dtype=np.int16)
    return rank_coprime(spec, coeffs).tolist()


def _assert_routes_agree(tuples):
    assert _rank_route(tuples) == [gcd_coprime(tup) for tup in tuples]


def test_morphism_tuple_on_a_known_line(prob_surface, spec5):
    u = BinaryForm(spec5, 1, [1, 0])
    v = BinaryForm(spec5, 1, [0, 1])
    neg = BinaryForm(spec5, 0, [4])
    line = (u, neg * u, v, neg * v)
    assert _rank_route([line]) == [True]
    assert gcd_coprime(line)
    assert eval_form(prob_surface.form, list(line)).is_zero()
    assert not eval_form(prob_surface.form, [u, u, u, u]).is_zero()


@pytest.mark.parametrize("n,e", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_rank_criterion_matches_gcd_on_every_small_tuple(spec5, n, e):
    space = [BinaryForm(spec5, e, cs)
             for cs in itertools.product(range(5), repeat=e + 1)]
    _assert_routes_agree(list(itertools.product(space, repeat=n)))


def _sampled_tuples(spec, n, e, samples, rng):
    """Random tuples; for e >= 2 every other one times a common linear
    factor, so both verdicts occur."""
    def form(degree):
        return BinaryForm(spec, degree,
                          [rng.randrange(spec.q) for _ in range(degree + 1)])
    out = []
    for trial in range(samples):
        if trial % 2 == 0 or e < 2:
            out.append(tuple(form(e) for _ in range(n)))
        else:
            factor = BinaryForm(spec, 1, [rng.randrange(spec.q), 1])
            out.append(tuple(factor * form(e - 1) for _ in range(n)))
    return out


def test_gcd_and_resultant_criteria_agree():
    # the rank criterion is the resultant one generalized: for n = 2 its
    # matrix is the Sylvester matrix
    for spec in (FieldSpec(5), FieldSpec(7), FieldSpec(5, 2)):
        rng = random.Random(spec.q)
        for n in (1, 2, 3, 4):
            for e in (1, 2, 3):
                tuples = _sampled_tuples(spec, n, e, 500, rng)
                _assert_routes_agree(tuples)
                if e >= 2:
                    assert not any(_rank_route(tuples[1::2]))


def test_coprimality_on_hand_built_tuples(spec5):
    u = BinaryForm(spec5, 1, [1, 0])
    v = BinaryForm(spec5, 1, [0, 1])
    zero = BinaryForm.zero(spec5, 1)
    linear = [(u, v), (zero, zero)]
    quadratic = [(u * u, u * v), (u * v, v * v)]
    assert _rank_route(linear) == [True, False]
    assert _rank_route(quadratic) == [False, False]
    _assert_routes_agree(linear)
    _assert_routes_agree(quadratic)


def test_rank_criterion_needs_no_large_field(spec5):
    # q = 5 <= e = 5: u^5 - u v^4 vanishes at every affine point of
    # P^1(F_5) and v^5 at the point at infinity, yet they are coprime
    u5 = BinaryForm(spec5, 5, [0, 4, 0, 0, 0, 1])
    v5 = BinaryForm(spec5, 5, [1, 0, 0, 0, 0, 0])
    big = BinaryForm(spec5, 5, [1, 0, 0, 0, 0, 1])     # (u + v)^5
    assert _rank_route([(u5, v5), (big, big), (big, u5)]) == \
        [True, False, False]
    for n in (2, 3):
        _assert_routes_agree(_sampled_tuples(spec5, n, 5, 200,
                                             random.Random(n)))


def test_enumerate_route_matches_the_gcd_oracle(spec5):
    # the old per-tuple route: BoxKernel solutions filtered by gcd_coprime
    mixed = symmetrize(spec5, 3, 3, MIXED_TERNARY)
    for form, e in [(mixed, 1), (fermat_form(spec5, 2, 3), 2)]:
        space = list(itertools.product(range(5), repeat=e + 1))
        oracle = sum(
            gcd_coprime([BinaryForm(spec5, e, space[c]) for c in row])
            for codes, images in BoxKernel(form, e).box()
            for row in codes[~images.any(axis=1)].tolist())
        assert moduli._morphisms_enumerate(spec5, form, e, Budget()) * 4 \
            == oracle


def test_morphism_counts_make_no_gcd_call():
    # the gcd cascade is an oracle of the tests: fflab defines none
    for module in (fflab, moduli):
        assert not hasattr(module, "gcd_coprime")
        assert not hasattr(module, "poly_gcd")
    # the shipped config runs the factor route and the enumerate cross-check
    result = run_task(load_config(SURFACE_CONFIG))
    assert result.status == "pass"
    assert result.records[0].outputs["enumerate_route"] == 360


def test_extension_tower_rejected(spec5):
    ext = extend_spec(spec5, 2)
    assert ext.q == 25
    assert extend_spec(spec5, 1) is spec5
    with pytest.raises(ConfigError):
        extend_spec(ext, 2)
    with pytest.raises(ConfigError, match="int16"):
        extend_spec(spec5, 7)


def test_unknown_method_rejected(prob_n2, spec5):
    with pytest.raises(ConfigError):
        total_solutions(spec5, prob_n2.form, 1, method="guess")
    with pytest.raises(ConfigError):
        count_morphisms(prob_n2, method="guess")


# two disjoint copies of the mixed binary cubic x^3 + x^2 y + 2 y^3
TWO_MIXED = {(3, 0, 0, 0): 1, (2, 1, 0, 0): 1, (0, 3, 0, 0): 2,
             (0, 0, 3, 0): 1, (0, 0, 2, 1): 1, (0, 0, 0, 3): 2}
# a ternary cubic of two blocks, {x1, x2} and {x3}
TWO_BLOCK_TERNARY = {(3, 0, 0): 1, (1, 2, 0): 3, (0, 3, 0): 2, (0, 0, 3): 4}


# n = 4 stops at e = 1: its e = 2 box has 5^12 tuples, too many to walk here.
# Fermat forms are given by n, the rest by their monomials
@pytest.mark.parametrize("ell,n,e,total", [
    pytest.param(1, 2, 1, None, id="1-2-1"),
    pytest.param(1, 2, 2, None, id="1-2-2"),
    pytest.param(1, 3, 1, None, id="1-3-1"),
    pytest.param(1, 3, 2, None, id="1-3-2"),
    pytest.param(1, 4, 1, None, id="1-4-1"),
    pytest.param(2, 2, 1, None, id="2-2-1"),
    pytest.param(1, TWO_MIXED, 1, 2305, id="two_mixed_n4"),
    pytest.param(1, TWO_BLOCK_TERNARY, 2, None, id="two_block_ternary"),
    pytest.param(1, MIXED_TERNARY, 1, 145, id="mixed_ternary"),
])
def test_convolution_matches_enumeration(spec5, ell, n, e, total):
    ext = extend_spec(spec5, ell)
    if isinstance(n, int):
        form = embed_form(fermat_form(spec5, n, 3), ext)
    else:
        form = symmetrize(spec5, len(next(iter(n))), 3, n)
    count = total_solutions(ext, form, e, method="convolve")
    assert count == total_solutions(ext, form, e, method="enumerate")
    assert total is None or count == total


def test_convolution_with_unequal_coefficients(spec5):
    form = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (0, 3, 0): 2,
                                    (0, 0, 3): 3})
    for e in (1, 2):
        assert (total_solutions(spec5, form, e, method="convolve")
                == total_solutions(spec5, form, e, method="enumerate"))


@pytest.mark.parametrize("size", [7, 3])
def test_counts_do_not_depend_on_block_sizes(spec5, monkeypatch, size):
    mixed = symmetrize(spec5, 3, 3, MIXED_TERNARY)
    surface = fermat_form(spec5, 4, 3)

    def counts():
        prob = CountingProblem(spec5, mixed, 1)
        return ([a.tolist() for dist in prob.phase_distribution()
                 for a in dist],
                total_solutions(spec5, mixed, 1, method="enumerate"),
                moduli._morphisms_enumerate(spec5, mixed, 1, Budget()),
                total_solutions(spec5, surface, 1, method="convolve"))

    want = counts()
    assert want[3] == 2185
    monkeypatch.setattr(forms, "_BOX_CHUNK", size)
    monkeypatch.setattr(forms, "_FOLD_BLOCK", size)
    monkeypatch.setattr(forms, "_MERGE_PENDING", size)
    assert counts() == want


@pytest.mark.parametrize("ell,total,spent", [
    # one half [b, b] charged once: the box 25, then 25 x 25 support pairs
    (1, 2185, 25 + 25 * 25),
    (2, 10608625, 625 + 625 * 625),
])
def test_equal_halves_share_one_fold(spec5, monkeypatch, ell, total, spent):
    # Fermat n = 4 splits into the halves [b, b] and [b, b]: one fold of
    # b with b, and none from the zero vector
    ext = extend_spec(spec5, ell)
    form = embed_form(fermat_form(spec5, 4, 3), ext)
    folds = []

    def counting(spec, left, right, width):
        folds.append([dist[0].tolist() for dist in (left, right)])
        return forms.fold(spec, left, right, width)

    monkeypatch.setattr(moduli, "fold", counting)
    budget = Budget()
    assert total_solutions(ext, form, 1, "convolve", budget) == total
    assert len(folds) == 1 and [0] not in folds[0]
    assert budget.spent == spent


@pytest.mark.parametrize("monomials,ell_max", [
    pytest.param(None, 2, id="fermat_n4"),
    pytest.param(TWO_MIXED, 1, id="two_mixed_cubics_n4"),
    pytest.param(MIXED_TERNARY, 1, id="one_block_mixed_ternary"),
])
def test_langweil_report_matches_the_separate_counts(spec5, monomials,
                                                     ell_max):
    # count_cone and count_morphisms keep their own routes: enumeration for
    # a one-block form, which langweil_report counts by factor
    form = (fermat_form(spec5, 4, 3) if monomials is None else
            symmetrize(spec5, len(next(iter(monomials))), 3, monomials))
    prob = CountingProblem(spec5, form, 1)
    rows = [(row.ell, row.raw_cone, row.morphisms)
            for row in langweil_report(prob, ell_max)]
    assert rows == [(ell, count_cone(prob, ell), count_morphisms(prob, ell))
                    for ell in range(1, ell_max + 1)]


def test_langweil_report_makes_each_total_once(monkeypatch):
    # langweil_surface_q5 (Fermat n = 4, e = 1, ell_max = 2) needs total(1)
    # and total(0) per field, each one fold of equal halves and one block
    # walk: 4 of each, where separate cone and morphism counts made 6
    # totals, 6 walks and 24 folds
    calls = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(moduli, "fold", counted("fold", moduli.fold))
    monkeypatch.setattr(moduli, "total_solutions",
                        counted("total", moduli.total_solutions))
    monkeypatch.setattr(BoxKernel, "box", counted("walk", BoxKernel.box))
    result = run_task(load_config(os.path.join(CONFIGS,
                                               "langweil_surface_q5.cfg")))
    assert result.status == "pass"
    assert [rec.outputs["morphisms"] for rec in result.records] == \
        [360, 421200]
    assert calls == {"fold": 4, "total": 4, "walk": 4}
