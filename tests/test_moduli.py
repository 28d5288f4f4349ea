from fractions import Fraction

import pytest

from fflab import forms, moduli
from fflab.circle import CountingProblem
from fflab.errors import ConfigError
from fflab.forms import fermat_form, symmetrize
from fflab.moduli import (MorphismTuple, check_coprimality_criteria,
                          count_cone, count_morphisms, embed_form,
                          enumerate_lines, extend_spec, gcd_coprime,
                          langweil_report, resultant_coprime,
                          total_solutions)
from fflab.polys import BinaryForm


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


@pytest.mark.slow
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


def test_morphism_tuple_on_a_known_line(prob_surface, spec5):
    u = BinaryForm(spec5, 1, [1, 0])
    v = BinaryForm(spec5, 1, [0, 1])
    neg = BinaryForm(spec5, 0, [4])
    line = MorphismTuple((u, neg * u, v, neg * v))
    assert line.degree == 1
    assert line.is_coprime()
    assert line.satisfies(prob_surface.form)
    assert line.image_form(prob_surface.form).is_zero()
    not_a_line = MorphismTuple((u, u, u, u))
    assert not not_a_line.satisfies(prob_surface.form)


def test_morphism_tuple_validation(spec5):
    u = BinaryForm(spec5, 1, [1, 0])
    with pytest.raises(ConfigError):
        MorphismTuple(())
    with pytest.raises(ConfigError):
        MorphismTuple((u, BinaryForm(spec5, 2, [1, 0, 0])))
    zero = MorphismTuple((BinaryForm.zero(spec5, 1),
                          BinaryForm.zero(spec5, 1)))
    assert zero.is_zero()
    assert not zero.is_coprime()


def test_gcd_and_resultant_criteria_agree(spec5):
    for e in (1, 2, 3):
        report = check_coprimality_criteria(spec5, 3, e, 60, seed=7)
        assert report.passed, report.disagreements
        assert bool(report)
        assert report.checked == 60


def test_coprimality_on_hand_built_tuples(spec5):
    u = BinaryForm(spec5, 1, [1, 0])
    v = BinaryForm(spec5, 1, [0, 1])
    assert gcd_coprime((u, v))
    assert resultant_coprime((u, v))
    assert not gcd_coprime((u * u, u * v))
    assert not resultant_coprime((u * u, u * v))


def test_resultant_needs_large_field(spec5):
    big = BinaryForm(spec5, 5, [1, 0, 0, 0, 0, 1])
    with pytest.raises(ConfigError):
        resultant_coprime((big, big))


def test_extension_tower_rejected(spec5):
    ext = extend_spec(spec5, 2)
    assert ext.q == 25
    assert extend_spec(spec5, 1) is spec5
    with pytest.raises(ConfigError):
        extend_spec(ext, 2)


def test_unknown_method_rejected(prob_n2, spec5):
    with pytest.raises(ConfigError):
        total_solutions(spec5, prob_n2.form, 1, method="guess")
    with pytest.raises(ConfigError):
        count_morphisms(prob_n2, method="guess")


# n = 4 stops at e = 1: its e = 2 box has 5^12 tuples, past _MAX_CELLS
@pytest.mark.parametrize("ell,n,e", [(1, 2, 1), (1, 2, 2), (1, 3, 1),
                                     (1, 3, 2), (1, 4, 1), (2, 2, 1)])
def test_convolution_matches_enumeration(spec5, ell, n, e):
    ext = extend_spec(spec5, ell)
    form = embed_form(fermat_form(spec5, n, 3), ext)
    assert (total_solutions(ext, form, e, method="convolve")
            == total_solutions(ext, form, e, method="enumerate"))


def test_convolution_with_unequal_coefficients(spec5):
    form = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (0, 3, 0): 2,
                                    (0, 0, 3): 3})
    for e in (1, 2):
        assert (total_solutions(spec5, form, e, method="convolve")
                == total_solutions(spec5, form, e, method="enumerate"))


@pytest.mark.parametrize("size", [7, 3])
def test_counts_do_not_depend_on_block_sizes(spec5, monkeypatch, size):
    mixed = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (0, 3, 0): 2,
                                     (0, 0, 3): 3, (2, 1, 0): 4,
                                     (1, 1, 1): 1})
    surface = fermat_form(spec5, 4, 3)

    def counts():
        prob = CountingProblem(spec5, mixed, 1)
        return (prob.phase_distribution(),
                total_solutions(spec5, mixed, 1, method="enumerate"),
                moduli._morphisms_enumerate(spec5, mixed, 1),
                total_solutions(spec5, surface, 1, method="convolve"))

    want = counts()
    assert want[3] == 2185
    monkeypatch.setattr(forms, "_BOX_CHUNK", size)
    monkeypatch.setattr(moduli, "_FOLD_BLOCK", size)
    assert counts() == want
