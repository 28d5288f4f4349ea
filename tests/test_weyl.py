import itertools
import os
import random
from fractions import Fraction

import pytest

from fflab import weyl
from fflab.audit import kappa_of
from fflab.circle import CountingProblem
from fflab.fields import FieldSpec
from fflab.forms import fermat_form, parse_form_file
from fflab.harness import _problem_recipe, _weyl_chunk, load_config
from fflab.laurent import LaurentElement
from fflab.linalg import batched_rank
from fflab.weyl import (_count_generic, _shape_N, _shape_N_eta, _tail_array,
                        approx_zero_count,
                        approx_zero_counts, canonical_point,
                        canonical_shape_report, check_shrink,
                        check_smallbox_chain, check_weyl, compare_pointwise,
                        count_M_v, count_N, count_N_eta, count_curly_N,
                        eta_from_arc, measure_flat_count, measure_pointwise,
                        naive_approx_zero_count)


def tail_alpha(prob, tail):
    return LaurentElement.from_tail(prob.spec, tail)


# -- frozen counter values (q = 5, d = 3, n = 2, e = 1) ----------------------------


def test_count_N_frozen_values(prob_n2):
    zero = tail_alpha(prob_n2, (0, 0, 0, 0))
    assert count_N(prob_n2, zero) == 390625          # all of the double box
    t_inv = tail_alpha(prob_n2, (1, 0, 0, 0))        # alpha = 1/t
    assert count_N(prob_n2, t_inv) == 50625
    t_inv2 = tail_alpha(prob_n2, (0, 1, 0, 0))       # alpha = 1/t^2
    assert count_N(prob_n2, t_inv2) == 4225


def test_count_M_v_frozen_values(prob_n2):
    t_inv2 = tail_alpha(prob_n2, (0, 1, 0, 0))
    assert count_M_v(prob_n2, t_inv2, 2) == 841
    assert count_M_v(prob_n2, t_inv2, 3) == 81


@pytest.mark.slow
def test_count_N_oracle_route(prob_n2):
    t_inv2 = tail_alpha(prob_n2, (0, 1, 0, 0))
    assert count_N(prob_n2, t_inv2, oracle=True) == 4225


def test_count_N_eta_boundary_values(prob_n2):
    alpha = tail_alpha(prob_n2, (0, 1, 0, 0))
    # eta = 1 reproduces the full counter
    assert count_N_eta(prob_n2, alpha, 1) == count_N(prob_n2, alpha)
    # eta = 0 leaves only the origin box; the count is positive
    assert count_N_eta(prob_n2, alpha, 0) >= 1


def test_curly_N_present(prob_n2):
    alpha = tail_alpha(prob_n2, (0, 1, 0, 0))
    assert count_curly_N(prob_n2, alpha) >= 1


# -- inequality checkers ------------------------------------------------------------


SAMPLE_TAILS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 2, 1, 3),
                (4, 0, 0, 1), (2, 2, 2, 2)]


@pytest.mark.parametrize("tail", SAMPLE_TAILS)
def test_weyl_inequality_samples(prob_n2, tail):
    rep = check_weyl(prob_n2, tail_alpha(prob_n2, tail))
    assert rep.passed, rep.details


@pytest.mark.parametrize("tail", SAMPLE_TAILS)
def test_smallbox_chain_samples(prob_n2, tail):
    rep = check_smallbox_chain(prob_n2, tail_alpha(prob_n2, tail))
    assert rep.passed, rep.details


@pytest.mark.parametrize("eta", [0, 1])
def test_shrink_samples(prob_n2, eta):
    for tail in SAMPLE_TAILS:
        rep = check_shrink(prob_n2, tail_alpha(prob_n2, tail), eta)
        assert rep.passed, rep.details


def test_shrink_rejects_bad_eta(prob_n2):
    alpha = tail_alpha(prob_n2, (0, 0, 0, 0))
    from fflab.errors import ConfigError
    with pytest.raises(ConfigError):
        check_shrink(prob_n2, alpha, Fraction(1, 2))   # parity hypothesis


# -- pointwise lemma instrumentation -------------------------------------------------


def test_generic_lemma_canonical_point(prob_n2):
    rep = canonical_shape_report(prob_n2, "generic", 2, None)
    assert rep.hypothesis_ok
    assert rep.sigma == 4
    assert rep.s_value.abs_squared() == 625          # |S| = 25 = q^2
    assert rep.ratio_float() == pytest.approx(0.04)  # q^-2


def test_deg_r_positive_lemma_canonical_point(prob_n2):
    rep = canonical_shape_report(prob_n2, "deg-r-positive", 2, None)
    assert rep.hypothesis_ok
    assert rep.sigma == Fraction(7, 2)
    assert rep.s_value.abs_squared() == 625
    assert rep.ratio_float() == pytest.approx(5.0 ** -1.5)


def test_deg_r_zero_lemma_canonical_point(prob_n2):
    rep = canonical_shape_report(prob_n2, "deg-r-zero", 0, 3)
    assert rep.hypothesis_ok
    assert rep.sigma == Fraction(7, 2)
    assert rep.s_value.abs_squared() == 625
    assert rep.ratio_float() == pytest.approx(5.0 ** -1.5)


def test_hypothesis_failure_is_reported(prob_n2):
    rep = canonical_shape_report(prob_n2, "deg-r-positive", 0, None)
    assert not rep.hypothesis_ok
    assert rep.reason
    zero_rep = canonical_shape_report(prob_n2, "deg-r-zero", 2, None)
    assert not zero_rep.hypothesis_ok
    assert "r = 1" in zero_rep.reason
    with pytest.raises(ValueError):
        rep.ratio_float()


def test_cross_q_ratios_do_not_increase():
    probs = {}
    for q in (5, 7):
        spec = FieldSpec(q)
        probs[q] = CountingProblem(spec, fermat_form(spec, 2, 3), 1)
    for lemma, r_deg, beta in [("generic", 2, None),
                               ("deg-r-positive", 2, None),
                               ("deg-r-zero", 0, 3)]:
        rep5 = canonical_shape_report(probs[5], lemma, r_deg, beta)
        rep7 = canonical_shape_report(probs[7], lemma, r_deg, beta)
        # exact algebraic comparison: ratio at q=5 >= ratio at q=7
        assert compare_pointwise(rep5, rep7) == 1
        # the float route agrees
        assert rep5.ratio_float() >= rep7.ratio_float()


def test_eta_from_arc_values(prob_n2):
    # (e+1)eta for |r| = q^alpha_deg, |theta| = q^-beta
    assert eta_from_arc(prob_n2, 1, 4) >= 0
    with pytest.raises(Exception):
        eta_from_arc(prob_n2, -1, 0)


def test_measure_pointwise_matches_canonical(prob_n2):
    arc, tail = canonical_point(prob_n2, 2, None)
    rep = measure_pointwise(prob_n2, arc, tail, "generic")
    assert rep.sigma == 4
    assert rep.s_value.abs_squared() == 625


def test_measure_flat_count_smoke(prob_n2):
    got = measure_flat_count(prob_n2, 1)
    assert isinstance(got, tuple) and len(got) >= 2


# -- the batched fast route against its oracles ---------------------------------------


MIXED_FORM = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "forms", "mixed_cubic_n2.form")


def _mixed_problem(spec, e):
    return CountingProblem(spec, parse_form_file(MIXED_FORM, spec, 2, 3), e)


def _random_tails(prob, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(prob.spec.q) for _ in range(prob.char_depth))
            for _ in range(count)]


def _curly_shape(prob):
    kappa = kappa_of(prob.e)
    return ([kappa + 1] * (prob.d - 1),
            prob.d * prob.e + 1 - kappa * (prob.d - 1))


def _generic(prob, tail, box_list, m):
    boxes = sorted(box_list)
    depth = m + sum(c - 1 for c in boxes)
    return _count_generic(prob, _tail_array(tail, depth), boxes[:-1],
                          boxes[-1], m)


@pytest.mark.slow
def test_batched_counts_match_naive_oracle_on_mixed_cubic(spec5):
    # [2, 2] is the smallest box pair that takes the fast route for n = 2
    for e, shape, tails in [
            (1, None, [(0, 1, 0, 0), (3, 1, 4, 2)]),
            (3, Fraction(1, 2), [(2, 0, 4, 1, 1, 3, 0, 2, 4, 1)])]:
        prob = _mixed_problem(spec5, e)
        boxes, m = _shape_N(prob) if shape is None else _shape_N_eta(prob, shape)
        got = approx_zero_counts(prob, tails, boxes, m)
        want = [naive_approx_zero_count(prob, tail, boxes, m)
                for tail in tails]
        assert got == want


@pytest.mark.parametrize("form,e,shape,count", [
    ("fermat3", 1, "N", 3),
    ("mixed", 1, "N", 6),
    ("mixed", 3, "N_eta", 6),
    ("fermat2", 3, "curly", 5),
])
def test_batched_counts_match_generic_route(spec5, form, e, shape, count):
    if form == "mixed":
        prob = _mixed_problem(spec5, e)
    else:
        prob = CountingProblem(spec5, fermat_form(spec5, int(form[-1]), 3), e)
    boxes, m = {"N": lambda: _shape_N(prob),
                "N_eta": lambda: _shape_N_eta(prob, Fraction(1, 2)),
                "curly": lambda: _curly_shape(prob)}[shape]()
    assert prob.spec.q ** (prob.n * min(boxes)) >= 512   # the fast route
    tails = _random_tails(prob, count, seed=len(form) + 10 * e)
    got = approx_zero_counts(prob, tails, boxes, m)
    assert got == [_generic(prob, tail, boxes, m) for tail in tails]
    # the one-phase entry point is the same route
    assert approx_zero_count(prob, tails[0], boxes, m) == got[0]


def test_batch_size_does_not_change_counts(spec5, monkeypatch):
    prob = _mixed_problem(spec5, 1)
    boxes, m = _shape_N(prob)
    tails = _random_tails(prob, 7, seed=3)
    whole = approx_zero_counts(prob, tails, boxes, m)
    # 16 entries per 4x4 matrix: batches of 5 matrices, so line chunks cross
    # the blocks of representatives and each phase is split across calls
    monkeypatch.setattr(weyl, "_MAX_BATCH_ENTRIES", 5 * 16)
    assert approx_zero_counts(prob, tails, boxes, m) == whole


def test_one_sweep_chunk_ranks_one_matrix_per_line(monkeypatch):
    config = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "configs", "weyl_sweep_q5.cfg"))
    ranked = []

    def counting(spec, mats):
        ranked.append(mats.shape[0])
        return batched_rank(spec, mats)

    monkeypatch.setattr(weyl, "batched_rank", counting)
    tails = list(itertools.product(range(5), repeat=4))
    out = _weyl_chunk(_problem_recipe(config), tails)
    assert len(out) == 625 and all(row[1] for row in out)
    # 625 phases times (5^4 - 1) / 4 = 156 lines of prefixes
    assert sum(ranked) == 97500
