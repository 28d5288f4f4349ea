import itertools
import os
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from fflab import circle, harness, weyl
from fflab.audit import kappa_of
from fflab.circle import CountingProblem
from fflab.cli import main
from fflab.cyclotomic import compare_abs_power
from fflab.errors import Budget
from fflab.fields import FieldSpec
from fflab.forms import _mul_rows, fermat_form, parse_form_file, symmetrize
from fflab.harness import _weyl_chunk, build_problem, load_config, run_task
from fflab.linalg import batched_rank
from fflab.weyl import (_check_boxes, _shape_N, _shape_N_eta,
                        _canonical_tail, approx_zero_counts,
                        canonical_shape_report, check_shrink_batch,
                        check_weyl_batch, eta_from_arc)
from scalars import LaurentElement, Polynomial, expand_rational


# -- the naive oracle of the approximate-zero counts ------------------------------


# tuples per block of the naive oracle; bounds its working set
_NAIVE_CHUNK = 1 << 16


def naive_approx_zero_count(prob: CountingProblem, alpha, box_list,
                            m: int) -> int:
    """Independent oracle: enumerate every tuple, evaluate every Psi_i on
    it from form.tensor and test the coefficients of t^-1..t^-m of
    alpha Psi_i(u) directly, for a tail tuple alpha.  No linear algebra;
    the tuples go through the numpy field tables _NAIVE_CHUNK at a time.
    Exponentially slower than approx_zero_counts."""
    spec = prob.spec
    q, n, form = spec.q, prob.n, prob.form
    _check_boxes(prob, box_list)
    width = sum(box_list) * n
    prob.budget.charge(q ** width, "naive approx-zero count")
    assert q ** width < 1 << 63, "tuple numbers overflow int64"
    np_mul, np_add = spec.tables["np_mul"], spec.tables["np_add"]
    # a slot of box 0 holds the zero polynomial, one coefficient wide
    sizes = [max(c, 1) for c in box_list]
    length = sum(sizes) - len(sizes) + 1     # coefficients of Psi_i(u)
    # the t^-k coefficient of alpha P is sum_l P_l alpha_(-k-l); the tail
    # tuple alpha is exact, zero past its digits
    tail = [alpha[s - 1] if s <= len(alpha) else 0
            for s in range(1, m + length)]
    # Psi_i = sum c u_1[j_1] ... u_(d-1)[j_(d-1)] over the orderings
    # (j_1, ..., j_(d-1), i) of every monomial of the tensor that holds i
    terms = []
    for rep, c in form.tensor.items():
        for i in set(rep):
            rest = list(rep)
            rest.remove(i)
            terms += [(i, c, js) for js in set(itertools.permutations(rest))]
    starts = np.cumsum([0] + list(box_list)) * n
    count = 0
    for lo in range(0, q ** width, _NAIVE_CHUNK):
        flat = np.arange(lo, min(lo + _NAIVE_CHUNK, q ** width),
                         dtype=np.int64)
        digits = (flat[:, None] // q ** np.arange(width) % q).astype(np.int16)
        # slots[j][:, k] = the coefficients of coordinate k of u_j
        slots = []
        for j, c in enumerate(box_list):
            slot = np.zeros((len(flat), n, sizes[j]), dtype=np.int16)
            slot[:, :, :c] = digits[:, starts[j]:starts[j + 1]].reshape(
                len(flat), n, c)
            slots.append(slot)
        psi = np.zeros((n, len(flat), length), dtype=np.int16)
        for i, c, js in terms:
            value = np.full((len(flat), 1), c, dtype=np.int16)
            for slot, j in zip(slots, js):
                value = _mul_rows(spec, value, slot[:, j])
            psi[i] = np_add[psi[i], value]
        ok = np.ones(len(flat), dtype=bool)
        for k in range(m):
            coeff = np.zeros((n, len(flat)), dtype=np.int16)
            for l in range(length):
                coeff = np_add[coeff, np_mul[psi[:, :, l], tail[k + l]]]
            ok &= (coeff == 0).all(axis=0)
        count += int(ok.sum())
    return count


# -- frozen counter values (q = 5, d = 3, n = 2, e = 1) ----------------------------


def test_count_N_frozen_values(prob_n2):
    zero = (0, 0, 0, 0)         # all of the double box
    t_inv = (1, 0, 0, 0)        # alpha = 1/t
    t_inv2 = (0, 1, 0, 0)       # alpha = 1/t^2
    assert approx_zero_counts(prob_n2, [zero, t_inv, t_inv2],
                              *_shape_N(prob_n2)) == [390625, 50625, 4225]


def _shape_M_v(prob, v):
    """(boxes, m) of M^(v): the first v-1 boxes constant."""
    return [1] * (v - 1) + [prob.e + 1] * (prob.d - v), prob.e + 1


def test_count_M_v_frozen_values(prob_n2):
    t_inv2 = (0, 1, 0, 0)
    assert approx_zero_counts(prob_n2, [t_inv2],
                              *_shape_M_v(prob_n2, 2)) == [841]
    assert approx_zero_counts(prob_n2, [t_inv2],
                              *_shape_M_v(prob_n2, 3)) == [81]


def test_count_N_oracle_route(prob_n2):
    t_inv2 = (0, 1, 0, 0)
    assert naive_approx_zero_count(prob_n2, t_inv2, *_shape_N(prob_n2)) == 4225


def test_count_N_eta_boundary_values(prob_n2):
    alpha = (0, 1, 0, 0)
    # eta = 1 reproduces the full counter
    assert approx_zero_counts(prob_n2, [alpha], *_shape_N_eta(prob_n2, 1)) \
        == approx_zero_counts(prob_n2, [alpha], *_shape_N(prob_n2))
    # eta = 0 leaves only the origin box; the count is positive
    assert approx_zero_counts(prob_n2, [alpha],
                              *_shape_N_eta(prob_n2, 0))[0] >= 1


def test_curly_N_present(prob_n2):
    alpha = (0, 1, 0, 0)
    assert approx_zero_counts(prob_n2, [alpha],
                              *_curly_shape(prob_n2))[0] >= 1


# -- inequality checkers ------------------------------------------------------------


SAMPLE_TAILS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 2, 1, 3),
                (4, 0, 0, 1), (2, 2, 2, 2)]


@pytest.mark.parametrize("tail", SAMPLE_TAILS)
def test_weyl_inequality_samples(prob_n2, tail):
    [rep] = check_weyl_batch(prob_n2, [tail])
    assert rep.passed, rep.details


@pytest.mark.parametrize("tail", SAMPLE_TAILS)
def test_smallbox_chain_samples(prob_n2, tail):
    # |S|^(2^(d-1)) <= |P|^(2^(d-1) n) q^(-(1+kappa)(d-1)n) curly-N
    [curly] = approx_zero_counts(prob_n2, [tail], *_curly_shape(prob_n2))
    kappa = kappa_of(prob_n2.e)
    bound = 5 ** (2 * 4 * 2 - (1 + kappa) * 2 * 2) * curly
    [cmp] = weyl.compare_abs_powers(
        prob_n2, prob_n2.exp_sum_histograms([tail]), 4, [bound])
    assert cmp <= 0, (curly, cmp)
    # the certified float decision gives the exact comparison's sign
    assert cmp == compare_abs_power(prob_n2.exp_sum(tail), 4, bound)


@pytest.mark.parametrize("eta", [0, 1])
def test_shrink_samples(prob_n2, eta):
    for rep in check_shrink_batch(prob_n2, SAMPLE_TAILS, eta):
        assert rep.passed, rep.details


def test_shrink_rejects_bad_eta(prob_n2):
    alpha = (0, 0, 0, 0)
    from fflab.errors import ConfigError
    with pytest.raises(ConfigError):
        check_shrink_batch(prob_n2, [alpha], Fraction(1, 2))   # parity


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


def test_eta_from_arc_values(prob_n2):
    # (e+1)eta for |r| = q^alpha_deg, |theta| = q^-beta
    assert eta_from_arc(prob_n2, 1, 4) >= 0
    with pytest.raises(Exception):
        eta_from_arc(prob_n2, -1, 0)


@pytest.mark.parametrize("spec,e", [
    (FieldSpec(5), 1), (FieldSpec(5), 2), (FieldSpec(7), 1),
    (FieldSpec(5, 2), 1),
], ids=["q5-e1", "q5-e2", "q7-e1", "q25-e1"])
def test_canonical_tail_matches_the_laurent_expansion(spec, e):
    # the Laurent layer is the oracle of the directly written tail: a/r +
    # theta expanded to depth B, r = t^D, a = 1 (a = 0 for D = 0), theta =
    # t^-beta, for every D up to B + 1 and every beta of the window
    prob = CountingProblem(spec, fermat_form(spec, 2, 3), e)
    B = prob.char_depth
    for deg in range(B + 2):
        r = Polynomial.one(spec).shift(deg)
        a = Polynomial.one(spec) if deg else Polynomial.zero(spec)
        for beta in [None, *range(1, B + 1)]:
            theta = [int(k == beta) for k in range(1, B + 1)]
            want = (expand_rational(a, r, -B)
                    + LaurentElement.from_tail(spec, theta)).tail_vector(B)
            assert _canonical_tail(prob, deg, beta) == want, (deg, beta)
    # the window is checked before the hypotheses, which fail at r != 1
    for beta in (0, B + 1):
        with pytest.raises(ValueError, match="window"):
            canonical_shape_report(prob, "deg-r-zero", 2, beta)


def _flat_count(prob, c):
    """#{u in boxes c : Psi_i(u) = 0 identically for all i}.  Each Psi_i(u)
    has degree below D = (d-1)(c-1)+1, so it vanishes exactly when
    alpha Psi_i(u) has norm below q^-D at alpha = t^-D: one approximate-zero
    count with boxes c and m = D."""
    big_d = (prob.d - 1) * (c - 1) + 1
    alpha = tuple(int(k == big_d) for k in range(1, 2 * big_d))
    return approx_zero_counts(prob, [alpha], [c] * (prob.d - 1), big_d)[0]


def test_measure_flat_count_exact_values(spec5, prob_n2):
    assert _flat_count(prob_n2, 1) == 81
    assert _flat_count(prob_n2, 2) == 2401
    mixed = _mixed_problem(spec5, 1)
    assert _flat_count(mixed, 1) == 49
    assert _flat_count(mixed, 2) == 1249
    assert _flat_count(prob_n2, 0) == 1


@pytest.mark.parametrize("name", ["fermat2", "mixed", "fermat2_d4",
                                  "fermat1_q25"])
def test_measure_flat_count_matches_naive_oracle(name):
    # at c = 1 every Psi_i(u) is a constant: it vanishes exactly when
    # || t^-1 Psi_i(u) || < q^-1
    prob = _problem(name, 1)
    alpha = (1,) + (0,) * (prob.char_depth - 1)
    assert _flat_count(prob, 1) == naive_approx_zero_count(
        prob, alpha, [1] * (prob.d - 1), 1)


# -- the batched fast route against its oracles ---------------------------------------


MIXED_FORM = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "forms", "mixed_cubic_n2.form")


def _mixed_problem(spec, e):
    return CountingProblem(spec, parse_form_file(MIXED_FORM, spec, 2, 3), e)


# forms over F_5 by name, (n, d, monomials): a non-separable binary quartic,
# the mixed cubic in x0, x1 plus x2^3 (blocks {0, 1} and {2}), and a cubic
# without x1 (blocks {0}, {1}, {2}, the block {1} with a zero tensor)
FORMS = {
    "quartic": (2, 4, {(4, 0): 1, (3, 1): 1, (2, 2): 3, (0, 4): 2}),
    "mixed_plus_cube": (3, 3, {(3, 0, 0): 1, (2, 1, 0): 1, (0, 3, 0): 2,
                               (0, 0, 3): 1}),
    "no_x1": (3, 3, {(3, 0, 0): 2, (0, 0, 3): 1}),
}


def _problem(name, e):
    """The mixed cubic or a form of FORMS over F_5, or the Fermat form in
    n variables named fermat<n> (d = 3, F_5), fermat<n>_d4 (d = 4, F_5) or
    fermat<n>_q25 (d = 3, F_25)."""
    if name == "mixed":
        return _mixed_problem(FieldSpec(5), e)
    if name in FORMS:
        spec = FieldSpec(5)
        return CountingProblem(spec, symmetrize(spec, *FORMS[name]), e)
    spec = FieldSpec(5, 2) if name.endswith("_q25") else FieldSpec(5)
    d = 4 if name.endswith("_d4") else 3
    return CountingProblem(spec, fermat_form(spec, int(name[6]), d), e)


def _random_tails(prob, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(prob.spec.q) for _ in range(prob.char_depth))
            for _ in range(count)]


def _curly_shape(prob):
    kappa = kappa_of(prob.e)
    return ([kappa + 1] * (prob.d - 1),
            prob.d * prob.e + 1 - kappa * (prob.d - 1))


def _shape(prob, name):
    """(boxes, m) of the count named N, N_eta (eta = 1/2), curly or M_2."""
    return {"N": lambda: _shape_N(prob),
            "N_eta": lambda: _shape_N_eta(prob, Fraction(1, 2)),
            "curly": lambda: _curly_shape(prob),
            "M_2": lambda: _shape_M_v(prob, 2)}[name]()


@pytest.fixture
def ranked(monkeypatch):
    """The stack sizes of every batched_rank call the weyl kernel makes."""
    sizes = []

    def counting(spec, mats):
        sizes.append(mats.shape[0])
        return batched_rank(spec, mats)

    monkeypatch.setattr(weyl, "batched_rank", counting)
    return sizes


@pytest.fixture
def exact_bounds(monkeypatch):
    """The bound of every exact compare_abs_power call the weyl checks
    make."""
    bounds = []

    def counting(x, exponent, bound):
        bounds.append(bound)
        return compare_abs_power(x, exponent, bound)

    monkeypatch.setattr(weyl, "compare_abs_power", counting)
    return bounds


def test_batched_counts_match_naive_oracle_on_mixed_cubic(spec5):
    # [2, 2] boxes: the kernel ranks (5^4 - 1)/4 = 156 lines of prefixes
    for e, shape, tails in [
            (1, None, [(0, 1, 0, 0), (3, 1, 4, 2)]),
            (3, Fraction(1, 2), [(2, 0, 4, 1, 1, 3, 0, 2, 4, 1)])]:
        prob = _mixed_problem(spec5, e)
        boxes, m = _shape_N(prob) if shape is None else _shape_N_eta(prob, shape)
        got = approx_zero_counts(prob, tails, boxes, m)
        want = [naive_approx_zero_count(prob, tail, boxes, m)
                for tail in tails]
        assert got == want


@pytest.mark.parametrize("name,boxes,tails", [
    # n = 2, d = 4: 5^(2*3) = 15,625 tuples, two prefix blocks
    ("fermat2_d4", [1, 1, 1], [(1, 0, 4, 2, 3), (0, 3, 1, 1, 2)]),
    # n = 1 over F_25: 25^3 = 15,625 tuples, unequal boxes
    ("fermat1_q25", [2, 1], [(7, 19, 3, 11), (0, 1, 24, 5)]),
    # the non-separable quartic, one block, equal prefix boxes
    ("quartic", [1, 1, 1], [(1, 2, 0, 3, 3), (4, 2, 0, 1, 4)]),
    # two blocks, one of them the non-diagonal cubic: 5^(3*2) tuples
    ("mixed_plus_cube", [1, 1], [(1, 3, 0, 2), (0, 4, 2, 1), (2, 2, 2, 2)]),
    # x1 is its own block, with a zero tensor
    ("no_x1", [1, 1], [(3, 1, 4, 0), (0, 0, 1, 2)]),
])
def test_batched_counts_match_naive_oracle_on_d4_and_f25(name, boxes, tails):
    prob = _problem(name, 1)
    got = approx_zero_counts(prob, tails, boxes, 2)
    assert got == [naive_approx_zero_count(prob, tail, boxes, 2)
                   for tail in tails]


# Counts recorded from the former per-prefix route (one matrix built and
# ranked per prefix tuple in Python), before it was removed; the tails of
# the first four rows are _random_tails(prob, count, len(form) + 10 e).
PINNED = {
    ("fermat3", 1, "N"): [
        ((4, 3, 2, 2), 117649), ((2, 1, 4, 2), 117649),
        ((0, 0, 1, 3), 274625)],
    ("mixed", 1, "N"): [
        ((1, 0, 4, 0), 2401), ((1, 1, 0, 0), 1825), ((1, 2, 1, 0), 2401),
        ((2, 3, 2, 2), 2401), ((3, 2, 2, 1), 2401), ((1, 2, 2, 1), 2401)],
    ("mixed", 3, "N_eta"): [
        ((4, 2, 1, 2, 1, 2, 3, 2, 4, 0), 1249),
        ((4, 2, 2, 4, 0, 2, 0, 4, 0, 0), 1249),
        ((3, 2, 0, 2, 3, 0, 0, 1, 2, 0), 1249),
        ((1, 2, 1, 4, 0, 3, 2, 0, 2, 1), 1249),
        ((4, 0, 1, 4, 3, 3, 2, 3, 4, 3), 1249),
        ((0, 2, 4, 3, 4, 4, 0, 0, 2, 4), 1249)],
    ("fermat2", 3, "curly"): [
        ((4, 0, 4, 4, 0, 2, 3, 4, 0, 3), 2401),
        ((4, 2, 3, 3, 3, 1, 0, 0, 3, 0), 2401),
        ((4, 2, 2, 3, 4, 4, 2, 4, 0, 4), 2401),
        ((4, 1, 4, 3, 0, 0, 0, 4, 2, 0), 2401),
        ((4, 1, 0, 2, 2, 4, 1, 0, 0, 1), 2401)],
    ("fermat2_d4", 1, "N"): [
        ((3, 3, 0, 2, 4), 3972049), ((1, 2, 0, 3, 3), 4774225)],
    ("fermat2_d4", 1, "M_2"): [((3, 4, 4, 0, 1), 783225)],
    ("fermat2_q25", 1, "N"): [
        ((12, 24, 13, 1), 5764801), ((12, 24, 0, 6), 3330625)],
    # recorded from the route that ranked every ordered tuple of line
    # representatives, before slot symmetry
    ("quartic", 1, "N"): [
        ((1, 2, 0, 3, 3), 1866961), ((1, 0, 0, 0, 3), 5650129),
        ((4, 2, 0, 1, 4), 1543249)],
    ("quartic", 1, "M_2"): [
        ((1, 2, 0, 3, 3), 484025), ((1, 0, 0, 0, 3), 1485625),
        ((4, 2, 0, 1, 4), 445945)],
}


def test_block_product_of_the_pinned_mixed_counts():
    # the count of mixed + x2^3 at N's shape is the pinned count of the
    # mixed cubic times that of x^3 in one variable
    prob = _problem("mixed_plus_cube", 1)
    cube = CountingProblem(prob.spec, fermat_form(prob.spec, 1, 3), 1)
    tails = [tail for tail, _ in PINNED["mixed", 1, "N"]]
    got = approx_zero_counts(prob, tails, *_shape_N(prob))
    cubes = approx_zero_counts(cube, tails, *_shape_N(cube))
    assert got == [want * c for (_, want), c
                   in zip(PINNED["mixed", 1, "N"], cubes)]


@pytest.mark.parametrize("widths,sorted_tuples", [
    ([2, 2], 6 * 7 // 2),               # 6 lines a block
    ([2, 2, 2], 6 * 7 * 8 // 6),
    ([1, 2, 2], 1 * 21),
    ([2, 2, 3], 21 * 31),
])
def test_sorted_prefixes_weigh_their_orbits(widths, sorted_tuples):
    # in any chunking, one distinct tuple per multiset of lines on each run
    # of equal widths, weighted so that the weights add up to the number
    # of ordered tuples
    spec = FieldSpec(5)
    lines = [(5 ** w - 1) // 4 for w in widths]
    total = prod(lines)
    for per_batch in (7, total):
        chunks = [weyl._prefix_representatives(
            spec, widths, lines, lo, min(total, lo + per_batch))
            for lo in range(0, total, per_batch)]
        kept = np.concatenate([reps for reps, _ in chunks])
        assert len(kept) == len(np.unique(kept, axis=0)) == sorted_tuples
        assert sum(int(weight.sum()) for _, weight in chunks) == total


@pytest.mark.parametrize("form,e,shape,count", [
    ("fermat3", 1, "N", 3),
    ("mixed", 1, "N", 6),
    ("mixed", 3, "N_eta", 6),
    ("fermat2", 3, "curly", 5),
    ("fermat2_d4", 1, "N", 2),
    ("fermat2_d4", 1, "M_2", 1),
    ("fermat2_q25", 1, "N", 2),
    ("quartic", 1, "N", 3),
    ("quartic", 1, "M_2", 3),
])
def test_batched_counts_match_generic_route(form, e, shape, count):
    prob = _problem(form, e)
    boxes, m = _shape(prob, shape)
    pinned = PINNED[form, e, shape]
    tails = [tail for tail, _ in pinned]
    assert len(tails) == count
    if form in ("fermat3", "mixed", "fermat2"):
        assert tails == _random_tails(prob, count, seed=len(form) + 10 * e)
    got = approx_zero_counts(prob, tails, boxes, m)
    assert got == [want for _, want in pinned]
    # a batch of one counts as the whole batch does
    assert approx_zero_counts(prob, tails[:1], boxes, m) == got[:1]


def test_batch_size_does_not_change_counts(monkeypatch):
    # Batches of 5 matrices on the mixed cubic and of 999 on the quartic
    # (4 x 4 matrices, 156 and 12,246 prefixes a phase), and of 7 on the
    # one-variable blocks of the d = 4 and F_25 Fermat forms (2 x 2, 21 and
    # 26 prefixes a phase): line chunks cross the blocks of
    # representatives, and each phase is split across calls
    for name, entries in [("mixed", 5 * 16), ("quartic", 999 * 16),
                          ("fermat2_d4", 7 * 4), ("fermat2_q25", 7 * 4)]:
        prob = _problem(name, 1)
        boxes, m = _shape_N(prob)
        tails = _random_tails(prob, 7, seed=3)
        whole = approx_zero_counts(prob, tails, boxes, m)
        with monkeypatch.context() as patch:
            patch.setattr(weyl, "_MAX_BATCH_ENTRIES", entries)
            assert approx_zero_counts(prob, tails, boxes, m) == whole


def test_one_sweep_chunk_ranks_one_matrix_per_line(ranked):
    config = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "configs", "weyl_sweep_q5.cfg"))
    tails = list(itertools.product(range(5), repeat=4))
    out = _weyl_chunk(build_problem(config), tails)
    assert len(out) == 625 and all(row[1] for row in out)
    # the 625 phases fall into 1 + 624/4 = 157 F_5^*-classes, each ranked
    # once on the (5^2 - 1) / 4 = 6 lines of prefixes of x^3, the one form
    # of both one-variable blocks
    assert sum(ranked) == 157 * 6 == 942


def test_one_worker_sweep_builds_its_problem_and_distribution_once(
        monkeypatch):
    # the chunks read the problem the sweep charged, with its phase
    # distribution: nothing is rebuilt or charged again per chunk
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "build_problem",
                        counted("problem", harness.build_problem))
    monkeypatch.setattr(circle, "block_distributions",
                        counted("distribution", circle.block_distributions))
    config = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "configs", "weyl_sweep_q5.cfg"),
                         workers=1)
    assert run_task(config).status == "pass"
    assert sorted(calls) == ["distribution", "problem"]


@pytest.mark.parametrize("limit,labels", [
    # all 625 tails: the table's 4 * 5^4 * 5^2 adds cost less than the
    # kernel's 625 * 25 * (2 * 4 + 1 + 2 * 5) operations
    (None, ["phase distribution build", "sum table build",
            "approx-zero count"]),
    # two tails keep the kernel, which is charged nothing
    (2, ["phase distribution build", "approx-zero count"]),
])
def test_sweep_route_is_charged_once_before_the_fan_out(
        tmp_path, monkeypatch, limit, labels):
    # the route is chosen where the sweep is charged, in the parent: the
    # table is charged and built there once, before any count, and the
    # charges and the report bytes are the same at one and two workers
    charged, transforms = [], []
    charge = Budget.charge

    def logged(self, cost, what):
        charged.append((cost, what))
        charge(self, cost, what)

    def counted(*args):
        transforms.append(args)
        return character_transform(*args)

    character_transform = circle._character_transform
    monkeypatch.setattr(Budget, "charge", logged)
    monkeypatch.setattr(circle, "_character_transform", counted)
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "weyl_sweep_q5.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    if limit is not None:
        text = text.replace("name = weyl-check",
                            f"name = weyl-check\nlimit = {limit}")
    cfg = tmp_path / "weyl.cfg"
    cfg.write_text(text)
    runs = []
    for workers in ("1", "2"):
        del charged[:], transforms[:]
        out = tmp_path / workers
        assert main(["weyl-check", "--config", str(cfg), "--workers", workers,
                     "--out", str(out)]) == 0
        assert [what for _, what in charged] == labels
        # one distinct block form, x^3, so one transform when there is a
        # table
        assert len(transforms) == labels.count("sum table build")
        runs.append((list(charged), (out / "weyl-check.csv").read_bytes()))
    assert runs[0] == runs[1]


def test_overdrawn_sweep_builds_no_sum_table(tmp_path, monkeypatch):
    # the full Fermat n = 2, e = 2 sweep over F_5: the table's 7 * 5^7 * 5^2
    # adds are charged after the phase distribution, then the counts of
    # 15,625 prefix tuples for each of the 5^7 tails overdraw the default
    # budget, which the charges leave at exactly 0; the table is built only
    # after every charge, so no transform runs before exit 3
    charged, transforms = [], []
    charge = Budget.charge

    def logged(self, cost, what):
        charged.append((cost, what))
        charge(self, cost, what)

    monkeypatch.setattr(Budget, "charge", logged)
    monkeypatch.setattr(circle, "_character_transform",
                        lambda *args: transforms.append(args))
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "weyl_sweep_q5.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "weyl.cfg"
    cfg.write_text(text.replace("e = 1", "e = 2"))
    result = run_task(load_config(str(cfg)))
    assert result.exit_code == 3
    [record] = result.records
    assert (record.outputs["needed"], record.outputs["budget"],
            record.outputs["detail"]) == (15625, 0, "approx-zero count")
    assert charged == [(15625, "phase distribution build"),
                       (7 * 5 ** 7 * 5 ** 2, "sum table build"),
                       (63124 * 15625, "approx-zero count"),
                       (15625, "approx-zero count")]
    assert transforms == []


def test_mixed_sweep_ranks_one_matrix_per_line_of_its_one_block(ranked):
    # the mixed cubic is one block of two variables: (5^4 - 1) / 4 = 156
    # lines of prefixes for each of the 157 classes
    reports = check_weyl_batch(_problem("mixed", 1),
                               list(itertools.product(range(5), repeat=4)))
    assert all(reports)
    assert sum(ranked) == 157 * 156 == 24492


@pytest.mark.parametrize("name", ["fermat2", "mixed"])
def test_full_sweep_falls_back_to_the_exact_comparison_once(exact_bounds,
                                                            name):
    # only the zero tail, where |S|^4 equals the bound, is left undecided
    # by the float test
    prob = _problem(name, 1)
    tails = list(itertools.product(range(5), repeat=4))
    reports = check_weyl_batch(prob, tails)
    assert all(reports)
    assert exact_bounds == [reports[0].details["bound"]]
    assert reports[0].details["cmp"] == 0


def _each_tail_its_own_class(spec, tails):
    """_phase_classes without the scaling: no two tails share a count."""
    digits = np.array(tails, dtype=np.int64).reshape(len(tails), -1)
    return digits, np.arange(len(tails))


# Matrices ranked per class of phases.  The mixed cubic is one block,
# (5^4 - 1) / 4 = 156 lines of prefixes; the Fermat forms are two equal
# blocks of one variable, ranked once: 6 lines a prefix slot at d = 4,
# ranked as 21 sorted pairs for N's equal boxes and as 1 x 6 for M_2's,
# and 26 lines over F_25.
CLASS_RANKS = {("mixed", "N"): 156, ("mixed", "N_eta"): 156,
               ("fermat2_d4", "N"): 21, ("fermat2_d4", "M_2"): 6,
               ("fermat2_q25", "N"): 26}


@pytest.mark.parametrize("form,e,shape,extra", [
    ("mixed", 1, "N", 0),
    ("mixed", 3, "N_eta", 2),        # depth 10, tails of 12 digits
    ("fermat2_d4", 1, "N", 0),
    ("fermat2_d4", 1, "M_2", 1),     # depth 4 of the 5 digits, then 6
    ("fermat2_q25", 1, "N", 3),      # depth 4, tails of 7 digits
])
def test_scaled_tails_are_counted_once_per_class(monkeypatch, ranked, form,
                                                 e, shape, extra):
    # the scaled copies c a of pinned tails, with random digits past the
    # depth the count reads, against the pinned counts and against the
    # same route run on every copy as a phase of its own
    prob = _problem(form, e)
    boxes, m = _shape(prob, shape)
    q, mul = prob.spec.q, prob.spec.tables["mul"]
    rng = random.Random(len(form) + e)
    pinned = PINNED[form, e, shape][:2]
    batch = [tuple(mul[c][x] for x in tail)
             + tuple(rng.randrange(q) for _ in range(extra))
             for tail, _ in pinned for c in (1, rng.randrange(2, q))]
    want = [count for _, count in pinned for _ in range(2)]
    with monkeypatch.context() as patch:
        patch.setattr(weyl, "_phase_classes", _each_tail_its_own_class)
        assert approx_zero_counts(prob, batch, boxes, m) == want
    del ranked[:]
    assert approx_zero_counts(prob, batch, boxes, m) == want
    assert sum(ranked) == len(pinned) * CLASS_RANKS[form, shape]


@pytest.mark.parametrize("name,lines", [
    ("fermat2_d4", 21),               # two equal blocks, ranked once:
                                      # sorted pairs of 6 lines
    ("fermat2_q25", 26),              # (25^2 - 1)/24 lines, ranked once
    ("quartic", 156 * 157 // 2),      # one block: sorted pairs of 156 lines
])
def test_one_count_ranks_one_matrix_per_tuple_of_lines(ranked, name, lines):
    prob = _problem(name, 1)
    tails = _random_tails(prob, 2, seed=5)
    approx_zero_counts(prob, tails, *_shape_N(prob))
    assert sum(ranked) == 2 * lines


# -- the certified float comparison against the exact one ----------------------


def _weyl_tails(prob, sample):
    """Every depth-B tail, or the zero tail and `sample` random ones."""
    if sample is None:
        return list(itertools.product(range(prob.spec.q),
                                      repeat=prob.char_depth))
    return [(0,) * prob.char_depth] + _random_tails(prob, sample, seed=9)


@pytest.mark.parametrize("name,sample", [("fermat2", None), ("mixed", None),
                                         ("fermat1_q25", 300)])
def test_float_decision_matches_the_exact_oracle(name, sample):
    # fermat2 is configs/weyl_sweep_q5.cfg; all 625 tails of it and of the
    # mixed cubic, and 301 of the 390,625 tails over F_25
    prob = _problem(name, 1)
    tails = _weyl_tails(prob, sample)
    power = 1 << (prob.d - 1)
    for s_val, rep in zip(prob.exp_sums(tails), check_weyl_batch(prob, tails)):
        assert rep.details["cmp"] == compare_abs_power(
            s_val, power, rep.details["bound"])


@pytest.mark.parametrize("name,sample", [("fermat2", None), ("mixed", None),
                                         ("fermat1_q25", 300)])
def test_float_intervals_enclose_the_exact_square(name, sample):
    prob = _problem(name, 1)
    tails = _weyl_tails(prob, sample)
    lo, hi = weyl._abs_square_intervals(prob, prob.exp_sum_histograms(tails))
    for s_val, low, high in zip(prob.exp_sums(tails), lo, hi):
        exact, _ = s_val.abs_squared().interval_parts(120)
        assert low <= exact.a and exact.b <= high


def test_tied_bounds_fall_back_and_near_ties_do_not(exact_bounds):
    prob = _problem("fermat2", 1)
    tails = _weyl_tails(prob, None)
    ties = [(tail, s_val.abs_squared().to_rational())
            for tail, s_val in zip(tails, prob.exp_sums(tails))
            if s_val.abs_squared().is_rational()]
    assert len(ties) > 1
    hists = prob.exp_sum_histograms([tail for tail, _ in ties])
    # |S|^4 equal to the bound: undecided in float, 0 from the exact path
    tied = [sq * sq for _, sq in ties]
    assert weyl.compare_abs_powers(prob, hists, 4, tied) == [0] * len(ties)
    assert exact_bounds == tied
    del exact_bounds[:]
    assert weyl.compare_abs_powers(
        prob, hists, 4, [b + 1 for b in tied]) == [-1] * len(ties)
    assert weyl.compare_abs_powers(
        prob, hists, 4, [b - 1 for b in tied]) == [1] * len(ties)
    assert exact_bounds == []


def test_floats_out_of_range_go_to_the_exact_path(exact_bounds):
    prob = _problem("fermat2", 1)
    hists = prob.exp_sum_histograms([(0, 1, 0, 0)])   # |S|^2 = 625
    # float(bound) overflows
    assert weyl.compare_abs_powers(prob, hists, 4, [10 ** 400]) == [-1]
    # 625^512 overflows float64
    assert weyl.compare_abs_powers(prob, hists, 1024,
                                   [Fraction(10) ** 300]) == [1]
    assert exact_bounds == [10 ** 400, Fraction(10) ** 300]


def test_autocorrelation_bound_is_asserted():
    # the box holds 5^(n (e + 1)) points; 5^(2 n (e + 1)) < 2^63 holds at
    # n = 6 and fails at n = 7
    spec = FieldSpec(5)
    problems = [CountingProblem(spec, fermat_form(spec, n, 3), 1)
                for n in (6, 7)]
    lo, hi = weyl._abs_square_intervals(problems[0],
                                       [[5 ** 12, 0, 0, 0, 0]])
    assert lo[0] <= 5 ** 24 <= hi[0]
    with pytest.raises(AssertionError, match="not a histogram of the box"):
        weyl._abs_square_intervals(problems[0], [[5 ** 12 - 1, 0, 0, 0, 0]])
    with pytest.raises(AssertionError, match="overflow int64"):
        weyl._abs_square_intervals(problems[1], [[5 ** 14, 0, 0, 0, 0]])


def test_cosine_error_is_asserted(monkeypatch):
    for p in (2, 3, 5, 7, 11, 13, 101):
        assert len(weyl._cos_table(p)) == p
    # no float64 cosine of 2 pi / 7 is exact, so a zero allowance trips
    monkeypatch.setattr(weyl, "_COS_ERROR", 0.0)
    with pytest.raises(AssertionError):
        weyl._cos_table.__wrapped__(7)
