import os
from fractions import Fraction

import pytest

from fflab.circle import CountingProblem
from fflab.errors import BudgetExceededError
from fflab.fields import FieldSpec
from fflab.forms import fermat_form, parse_form_file, symmetrize
from fflab.laurent import LaurentElement


def test_fixture_brute_count(prob_n3):
    assert prob_n3.brute_count() == 145


def test_dissection_covers_the_torus(prob_n3):
    arcs = list(prob_n3.dissect())
    by_deg = {}
    for arc in arcs:
        by_deg[arc.deg_r] = by_deg.get(arc.deg_r, 0) + 1
    assert by_deg == {0: 1, 1: 20, 2: 500, 3: 12500}
    assert sum(arc.measure(5) for arc in arcs) == 1


def test_dissection_identity_fixture_one(prob_n3):
    total = prob_n3.dissection_total()
    assert total == prob_n3.brute_count()
    assert total == 145


def test_per_degree_subtotals_frozen(prob_n3):
    prob_n3.sum_table()
    subtotals = {}
    for arc in prob_n3.dissect():
        val = prob_n3.integrate_arc(arc)
        deg = arc.deg_r
        subtotals[deg] = subtotals[deg] + val if deg in subtotals else val
    as_rationals = {deg: v.to_rational() for deg, v in subtotals.items()}
    assert as_rationals == {0: Fraction(25), 1: Fraction(0),
                            2: Fraction(116, 5), 3: Fraction(484, 5)}


def test_major_total_equals_main_term(prob_n3):
    # mu_hat = (e+1)n - de - 1 = 2
    assert prob_n3.major_total() == 25


def test_dissection_identity_q7(prob_q7_n2):
    assert prob_q7_n2.dissection_total() == prob_q7_n2.brute_count()


def test_exp_sum_at_zero_counts_the_box(prob_n2):
    zero = LaurentElement.zero(prob_n2.spec, floor=-prob_n2.char_depth)
    assert prob_n2.exp_sum(zero) == prob_n2.spec.q ** (prob_n2.box *
                                                       prob_n2.n)


def test_exp_sum_routes_agree(prob_n2):
    spec = prob_n2.spec
    for tail in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 3), (4, 4, 4, 4)]:
        alpha = LaurentElement.from_tail(spec, tail)
        assert prob_n2.exp_sum(alpha, method="table") == \
            prob_n2._exp_sum_direct(tail)


def test_atom_kinds(prob_n3):
    arcs = list(prob_n3.dissect())
    unit = [a for a in arcs if a.deg_r == 0][0]
    kinds = [atom.kind for atom in prob_n3.arc_atoms(unit)]
    assert kinds.count("major") == 1
    deg2 = [a for a in arcs if a.deg_r == 2][0]
    assert all(atom.kind == "minor" for atom in prob_n3.arc_atoms(deg2))


def test_atom_weights_sum_to_arc_measure(prob_n3):
    for arc in list(prob_n3.dissect())[:40]:
        weight = sum(atom.weight for atom in prob_n3.arc_atoms(arc))
        assert weight == arc.measure(prob_n3.spec.q)


def test_budget_accounting_is_exact(spec5):
    prob = CountingProblem(spec5, fermat_form(spec5, 3, 3), 1)
    assert prob.budget_spent == 0
    prob.brute_count()
    assert prob.budget_spent == 5 ** 6
    prob.phase_distribution()
    assert prob.budget_spent == 2 * 5 ** 6
    prob.phase_distribution()          # cached: no second charge
    assert prob.budget_spent == 2 * 5 ** 6


def test_budget_exhaustion_raises(spec5):
    prob = CountingProblem(spec5, fermat_form(spec5, 3, 3), 1, budget=100)
    with pytest.raises(BudgetExceededError) as err:
        prob.brute_count()
    assert err.value.needed == 5 ** 6
    assert prob.budget_spent == 0      # nothing was spent on the refusal


def test_arc_tail_matches_alpha_expansion(prob_n3):
    for arc in list(prob_n3.dissect())[:25]:
        tail = prob_n3.arc_tail(arc)
        alpha = prob_n3.alpha_from_arc(arc)
        assert alpha.tail_vector(prob_n3.char_depth) == tail


def test_mixed_form_identity(spec5):
    # non-diagonal binary cubic: x1^3 + x1^2 x2 + 2 x2^3 has no nonzero
    # roots over F_5, so only x = 0 counts at box depth 2
    form = symmetrize(spec5, 2, 3, {(3, 0): 1, (2, 1): 1, (0, 3): 2})
    prob = CountingProblem(spec5, form, 1)
    brute = prob.brute_count()
    assert brute == 1
    assert prob.dissection_total() == brute


@pytest.mark.parametrize("e", [1, 2])
def test_phase_distribution_matches_scalar_loop(spec5, e):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "forms", "mixed_cubic_n2.form")
    prob = CountingProblem(spec5, parse_form_file(path, spec5, 2, 3), e)
    want = {}
    for x in prob.box_vectors():
        value = prob.form.eval_form(list(x))
        key = tuple(value.coeff(k) for k in range(prob.char_depth))
        want[key] = want.get(key, 0) + 1
    assert prob.phase_distribution() == want
