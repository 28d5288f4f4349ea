import functools
import hashlib
import itertools
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fflab import circle
from fflab.circle import CountingProblem
from fflab.cli import main
from fflab.cyclotomic import CyclotomicValue
from fflab.errors import BudgetExceededError, PrecisionError
from fflab.fields import FieldSpec
from fflab.forms import (BoxKernel, decode_keys, encode_keys, fermat_form,
                         fold, parse_form_file, symmetrize)
from fflab.harness import build_problem, load_config
from fflab.linalg import batched_rank
from oracles import eval_form, poly_gcd
from scalars import Polynomial, expand_rational


def _scalar_images(prob):
    """F(x) as a Polynomial at every x of the box, one eval_form call per
    point: the scalar oracle of the box walks."""
    space = [Polynomial(prob.spec, cs) for cs in
             itertools.product(range(prob.spec.q), repeat=prob.box)]
    for x in itertools.product(space, repeat=prob.n):
        yield eval_form(prob.form, list(x))


def _exp_sum_direct(prob, tail):
    """Oracle: S at one depth-B tail by a walk of the whole box
    (BoxKernel.box), with no block split, fold or convolution: the
    histogram of tr <coeffs F(x), tail> over every x."""
    spec = prob.spec
    np_mul, np_add = spec.tables["np_mul"], spec.tables["np_add"]
    hist = np.zeros(spec.p, dtype=np.int64)
    for _, images in BoxKernel(prob.form, prob.e).box():
        acc = np.zeros(len(images), dtype=np.int16)
        for k, digit in enumerate(tail):
            acc = np_add[acc, np_mul[images[:, k], digit]]
        hist += np.bincount(spec.tables["np_trace"][acc], minlength=spec.p)
    return CyclotomicValue.from_histogram(spec.p, hist.tolist())


def test_fixture_brute_count(prob_n3):
    assert prob_n3.brute_count() == 145


@pytest.mark.parametrize("name", ["prob_n3", "prob_q7_n2", "mixed"])
def test_brute_count_matches_scalar_loop(request, spec5, name):
    if name == "mixed":
        prob = _mixed_cubic(spec5, 1)
    else:
        prob = request.getfixturevalue(name)
    want = sum(1 for value in _scalar_images(prob) if value.is_zero())
    assert prob.brute_count() == want


def test_dissection_identity_fixture_one(prob_n3):
    total = prob_n3.dissection_total()
    assert total == prob_n3.brute_count()
    assert total == 145


def test_per_degree_subtotals_frozen(prob_n3):
    subtotals = prob_n3.degree_subtotals()
    assert {deg: arcs for deg, (arcs, _) in subtotals.items()} == {
        0: 1, 1: 20, 2: 500, 3: 12500}
    as_rationals = {deg: v.to_rational()
                    for deg, (_, v) in subtotals.items()}
    assert as_rationals == {0: Fraction(25), 1: Fraction(0),
                            2: Fraction(116, 5), 3: Fraction(484, 5)}


def test_major_total_equals_main_term(prob_n3):
    # mu_hat = (e+1)n - de - 1 = 2
    assert prob_n3.major_total() == 25


def test_major_total_visits_only_the_unit_arc(spec5):
    # S at the zero tail alone: no sum table, and no charge but the phase
    # distribution
    prob = CountingProblem(spec5, fermat_form(spec5, 3, 3), 1)
    assert prob.major_total() == 25
    assert prob._sum_table is None
    assert prob.budget_spent == 5 ** 6


def test_dissection_identity_q7(prob_q7_n2):
    assert prob_q7_n2.dissection_total() == prob_q7_n2.brute_count()


def test_exp_sum_at_zero_counts_the_box(prob_n2):
    zero = (0,) * prob_n2.char_depth
    assert prob_n2.exp_sum(zero) == prob_n2.spec.q ** (prob_n2.box *
                                                       prob_n2.n)


def test_exp_sum_routes_agree(prob_n2):
    for tail in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 3), (4, 4, 4, 4)]:
        assert prob_n2.exp_sum(tail) == _exp_sum_direct(prob_n2, tail)


def _mixed_cubic(spec, e):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "forms", "mixed_cubic_n2.form")
    return CountingProblem(spec, parse_form_file(path, spec, 2, 3), e)


# two separable n = 3 forms: the mixed cubic's block {x1, x2} plus x3^3,
# and x1^3 + 2 x2^3 with x3 absent
SEPARABLE_N3 = {
    "mixed_plus_cube": {(3, 0, 0): 1, (2, 1, 0): 1, (0, 3, 0): 2,
                        (0, 0, 3): 1},
    "x3_absent": {(3, 0, 0): 1, (0, 3, 0): 2},
}


def _separable(name, e):
    def make(spec):
        return CountingProblem(spec, symmetrize(spec, 3, 3,
                                                SEPARABLE_N3[name]), e)
    return make


@pytest.mark.parametrize("make,count", [
    (lambda spec: _mixed_cubic(spec, 1), 12),
    (lambda spec: CountingProblem(spec, fermat_form(spec, 3, 3), 1), 4),
    (_separable("mixed_plus_cube", 1), 3),
    (_separable("x3_absent", 1), 3),
], ids=["mixed_cubic_n2", "fermat_n3", "mixed_plus_cube", "x3_absent"])
def test_exp_sums_match_direct_across_blocks(spec5, monkeypatch, make,
                                             count):
    prob = make(spec5)
    monkeypatch.setattr(circle, "_SUM_BLOCK_CELLS", 7)
    # one tail per block of the kernel
    assert max(len(keys) for keys, _ in prob.phase_distribution()) > 7
    rng = random.Random(11)
    tails = [(0,) * prob.char_depth] + [
        tuple(rng.randrange(5) for _ in range(prob.char_depth))
        for _ in range(count - 1)]
    assert prob.exp_sums(tails) == [_exp_sum_direct(prob, t) for t in tails]


def _fermat(n, e):
    return lambda spec: CountingProblem(spec, fermat_form(spec, n, 3), e)


@pytest.mark.parametrize("spec,make", [
    (FieldSpec(5), _fermat(2, 1)),
    (FieldSpec(5), _fermat(3, 2)),
    (FieldSpec(5), lambda spec: _mixed_cubic(spec, 1)),
    (FieldSpec(5), _separable("mixed_plus_cube", 1)),
    (FieldSpec(5), _separable("x3_absent", 1)),
    (FieldSpec(7), _fermat(2, 1)),
    (FieldSpec(7), lambda spec: _mixed_cubic(spec, 1)),
    (FieldSpec(5, 2), _fermat(2, 1)),
    (FieldSpec(5, 2), lambda spec: _mixed_cubic(spec, 1)),
], ids=["fermat_n2_q5", "fermat_n3_e2_q5", "mixed_cubic_n2_q5",
        "mixed_plus_cube_q5", "x3_absent_q5", "fermat_n2_q7",
        "mixed_cubic_n2_q7", "fermat_n2_q25", "mixed_cubic_n2_q25"])
def test_sum_table_matches_kernel(spec, make):
    # the character transform against the kernel on all tails, or on 500
    # sampled ones; over F_25 the trace-dual coordinates are not the field
    # coordinates
    prob = make(spec)
    assert prob.exp_sums([]) == []
    assert prob.budget_spent == 0      # no phase distribution for no phase
    q, p, B = spec.q, spec.p, prob.char_depth
    rows = np.arange(q ** B)
    if len(rows) > 1000:
        rows = np.random.default_rng(q).choice(rows, 500, replace=False)
    tails = decode_keys(q, rows, B)
    kernel = prob._histograms(tails)
    table = prob.sum_table()
    assert table.shape == (q ** B, p) and table.dtype == np.int64
    # every row counts the box; row i is the tail whose base-q digits are
    # those of i, first fastest
    assert (table.sum(axis=1) == q ** (prob.box * prob.n)).all()
    assert (table[rows] == kernel).all()
    # once the table is built, exp_sum_histograms reads S off it: every tail
    # in itertools.product order (last digit fastest; the kernel's tails
    # above run first digit fastest) gives the kernel's row.  S is the same
    # at a tail and at its reverse (x(t) -> t^e x(1/t) reverses every F(x)
    # of the box), so a reversed digit order would pass; a rolled one fails
    listed = prob.exp_sum_histograms(itertools.product(range(q), repeat=B))
    assert (listed[tails @ q ** np.arange(B - 1, -1, -1)] == kernel).all()
    # the int64 bound of each block's transform: an entry is at most the
    # block's box, which every row sums to
    for part, (keys, counts) in zip(prob.form.parts,
                                    prob.phase_distribution()):
        block = circle._character_transform(spec, keys, counts, B)
        box = q ** (prob.box * part.n)
        assert block.min() >= 0 and (block.sum(axis=1) == box).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_convolve_matches_the_rolled_sum(p):
    # the slice adds against the sum over shifts v of a[:, v] times b
    # rolled by v; neither input is written
    rng = np.random.default_rng(p)
    a, b = (rng.integers(0, 1000, size=(40, p)) for _ in range(2))
    a0, b0 = a.copy(), b.copy()
    want = sum(a[:, v:v + 1] * np.roll(b, v, axis=1) for v in range(p))
    got = circle._convolve(a, b)
    assert got.dtype == np.int64 and (got == want).all()
    assert (a == a0).all() and (b == b0).all()


def test_wrong_length_tail_raises_on_both_paths(spec5):
    prob = CountingProblem(spec5, fermat_form(spec5, 2, 3), 1)
    for tail in [(1, 0), (1, 0, 0, 0, 0)]:
        with pytest.raises(PrecisionError):
            prob.exp_sum(tail)
        with pytest.raises(PrecisionError):
            prob.exp_sums([(0, 0, 0, 0), tail])


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


def test_mixed_form_identity(spec5):
    # non-diagonal binary cubic: x1^3 + x1^2 x2 + 2 x2^3 has no nonzero
    # roots over F_5, so only x = 0 counts at box depth 2
    form = symmetrize(spec5, 2, 3, {(3, 0): 1, (2, 1): 1, (0, 3): 2})
    prob = CountingProblem(spec5, form, 1)
    brute = prob.brute_count()
    assert brute == 1
    assert prob.dissection_total() == brute


@pytest.mark.parametrize("make", [
    pytest.param(lambda spec: _mixed_cubic(spec, 1), id="1"),
    pytest.param(lambda spec: _mixed_cubic(spec, 2), id="2"),
    pytest.param(_separable("mixed_plus_cube", 1), id="mixed_plus_cube"),
    pytest.param(_separable("x3_absent", 1), id="x3_absent"),
])
def test_phase_distribution_matches_scalar_loop(spec5, make):
    # the fold of the block distributions S is read from is the
    # distribution of F's coefficient vectors over the whole box
    prob = make(spec5)
    B = prob.char_depth
    want = {}
    for value in _scalar_images(prob):
        key = tuple(value.coeff(k) for k in range(B))
        want[key] = want.get(key, 0) + 1
    keys, counts = functools.reduce(lambda a, b: fold(spec5, a, b, B),
                                    prob.phase_distribution())
    support = decode_keys(5, keys, B)
    assert dict(zip(map(tuple, support.tolist()), counts.tolist())) == want


@pytest.mark.parametrize("spec,n,table", [
    (FieldSpec(5), 3, 62_500),         # 4 axes times 5^4 tails times 5^2
    (FieldSpec(5, 2), 2, 78_125_000),  # 8 axes times 25^4 tails times 5^2
], ids=["fermat_n3_q5", "fermat_n2_q25"])
def test_sum_table_charges_the_adds_of_its_transform(spec, n, table):
    # f B q^B p^2 per distinct block form: the Fermat blocks are one form,
    # so its transform counts once
    box = spec.q ** (2 * n)
    prob = CountingProblem(spec, fermat_form(spec, n, 3), 1,
                           budget=box + table - 1)
    prob.phase_distribution()
    assert prob.budget_spent == box
    with pytest.raises(BudgetExceededError) as err:
        prob.sum_table()
    assert (err.value.needed, err.value.what) == (table, "sum table build")
    prob.budget.limit = box + table
    prob.sum_table()
    assert prob.budget_spent == box + table


# -- the fast dissection route against the divisor-count oracle ---------------


def _value_distribution(prob):
    """V(g) = #{x in box : F(x) = g} at the q^B polynomials g of degree
    < B, indexed by the encode_keys key of g: one joint walk of the box
    (BoxKernel.box), with no block split, fold, trace or sum table."""
    q, B = prob.spec.q, prob.char_depth
    dist = np.zeros(q ** B, dtype=np.int64)
    for _, images in BoxKernel(prob.form, prob.e).box():
        dist += np.bincount(encode_keys(q, images), minlength=q ** B)
    return dist


def _multiples(spec, deg, width, B):
    """The keys of m h over every monic m of degree deg and every h of
    degree < width (deg + width <= B), products through the field
    tables."""
    q = spec.q
    np_mul, np_add = spec.tables["np_mul"], spec.tables["np_add"]
    monic = np.concatenate([decode_keys(q, np.arange(q ** deg), deg),
                            np.ones((q ** deg, 1), dtype=np.int16)], axis=1)
    cofactors = decode_keys(q, np.arange(q ** width), width)
    prod = np.zeros((q ** deg, q ** width, B), dtype=np.int16)
    for i in range(deg + 1):
        for j in range(width):
            prod[:, :, i + j] = np_add[prod[:, :, i + j], np_mul[
                monic[:, None, i], cofactors[None, :, j]]]
    return encode_keys(q, prod.reshape(-1, B))


def _divisor_count_subtotals(prob):
    """{deg r: subtotal} by the function-field delta-method identity
    (Heath-Brown 1996; Browning-Vishe 2015).  Summed over the a coprime to
    r, the integral of psi(alpha g) over the arcs a/r of degree D, each of
    radius q^-y with y = D + floor(Q), is q^-y [deg g < y] times the
    Ramanujan sum c_r(g); summed over the monic r of degree D that is
    q^D (delta_D(g) - delta_(D-1)(g)), delta_k(g) the number of monic
    divisors of g of degree k, and delta_k(0) = q^k.  So with w = min(y,
    B), since V vanishes at deg g >= B,

      subtotal_D = q^(D-y) (sum over monic m of degree D and deg h < w - D
                   of V(m h) - the same over degree D - 1 and deg h <
                   w - D + 1),

    the h = 0 terms giving delta_k(0) V(0)."""
    q, B, floor_q = prob.spec.q, prob.char_depth, prob.arc_floor
    dist = _value_distribution(prob)
    out = {}
    for deg in range(floor_q + 1):
        w = min(deg + floor_q, B)
        count = int(dist[_multiples(prob.spec, deg, w - deg, B)].sum())
        if deg:
            count -= int(dist[_multiples(prob.spec, deg - 1, w - deg + 1,
                                         B)].sum())
        out[deg] = Fraction(count, q ** floor_q)       # q^(D-y) = q^-floor(Q)
    return out, int(dist[0])


def _seeded_binary_cubic(spec, seed):
    rng = random.Random(seed)
    coeffs = {(3 - k, k): rng.randrange(1, spec.p) for k in range(4)}
    return CountingProblem(spec, symmetrize(spec, 2, 3, coeffs), 1)


@pytest.mark.parametrize("spec,make", [
    (FieldSpec(5), _fermat(3, 1)),
    (FieldSpec(5), _fermat(3, 2)),
    (FieldSpec(5), lambda spec: _mixed_cubic(spec, 1)),
    (FieldSpec(5), lambda spec: _seeded_binary_cubic(spec, 2024)),
    # e = 2: B = 7 and floor(Q) = 4, 312,500 arcs of degree 4
    (FieldSpec(5), _fermat(1, 2)),
    (FieldSpec(5), _separable("mixed_plus_cube", 1)),
    (FieldSpec(5), _separable("x3_absent", 1)),
    (FieldSpec(7), _fermat(2, 1)),
    (FieldSpec(7), lambda spec: _mixed_cubic(spec, 1)),
    (FieldSpec(5, 2), _fermat(2, 1)),
    (FieldSpec(5, 2), lambda spec: _mixed_cubic(spec, 1)),
], ids=["fermat_n3", "fermat_n3_e2", "mixed_cubic_n2", "seeded_binary_cubic",
        "fermat_n1_e2", "mixed_plus_cube", "x3_absent", "fermat_n2_q7",
        "mixed_cubic_n2_q7", "fermat_n2_q25", "mixed_cubic_n2_q25"])
def test_degree_subtotals_match_the_per_atom_oracle(spec, make):
    # the oracle is the divisor-count identity over the value distribution
    # of the whole box, at every degree; it shares no code with the sum
    # table, the complexity profile or arcs_through
    prob = make(spec)
    oracle, zeros = _divisor_count_subtotals(prob)
    fast = prob.degree_subtotals()
    assert sorted(fast) == sorted(oracle) == list(range(prob.arc_floor + 1))
    assert {deg: sub for deg, (_, sub) in fast.items()} == oracle
    assert sum(oracle.values()) == zeros == prob.brute_count()


@pytest.mark.parametrize("spec,max_deg", [
    (FieldSpec(5), 3),
    (FieldSpec(7), 2),
    (FieldSpec(5, 2), 1),
], ids=["q5", "q7", "q25"])
def test_unit_mask_and_tails_match_gcd_and_expansion(spec, max_deg):
    """The arcs of each degree through each depth-k prefix, read off the
    complexity profile and arcs_through as degree_subtotals reads them,
    against a count of the expansions of every a/r with r monic, |a| <
    |r| and gcd(a, r) = 1, enumerated with poly_gcd and expand_rational."""
    q = spec.q
    prob = CountingProblem(spec, fermat_form(spec, 2, 3), 1)
    B = prob.char_depth
    profile = circle.complexity_profile(
        spec, decode_keys(q, np.arange(q ** B), B))

    def arcs_by_prefix(deg):
        # the first q^k tails run over every k-digit prefix, zeros after
        k = min(deg + prob.arc_floor, B)
        return circle.arcs_through(q, deg, k, profile[:q ** k, k])

    want = {deg: np.zeros_like(arcs_by_prefix(deg))
            for deg in range(max_deg + 1)}
    for deg, counts in want.items():
        k = min(deg + prob.arc_floor, B)
        for low in itertools.product(range(q), repeat=deg):
            r = Polynomial(spec, low + (1,))
            # a = 0 only for r = 1: gcd(0, r) = r
            for cs in itertools.product(range(q), repeat=deg):
                a = Polynomial(spec, cs)
                if poly_gcd(a, r).degree() == 0:
                    tail = expand_rational(a, r, -B).tail_vector(B)
                    counts[sum(c * q ** i
                               for i, c in enumerate(tail[:k]))] += 1
    for deg, counts in want.items():
        assert np.array_equal(arcs_by_prefix(deg), counts)
    if q == 25:
        # the next degree through its count alone: 25^3 * 24 arcs
        assert arcs_by_prefix(2).sum() == 375_000


@pytest.mark.parametrize("spec,max_len", [
    (FieldSpec(3), 5), (FieldSpec(2, 2), 5), (FieldSpec(5), 4),
], ids=["q3", "q4", "q5"])
def test_complexity_profile_matches_the_hankel_rank_definition(spec,
                                                              max_len):
    # complexity <= L exactly when the last column of the (j - L) x (L + 1)
    # Hankel matrix of the j digits is in the span of the first L columns
    q = spec.q
    profile = circle.complexity_profile(
        spec, decode_keys(q, np.arange(q ** max_len), max_len))
    for j in range(1, max_len + 1):
        # the first q^j rows run over every j-digit prefix
        prefixes = decode_keys(q, np.arange(q ** j), j)
        for L in range(j + 1):
            # hankel[:, m] = digits m..m + L of every prefix
            hankel = prefixes[:, np.arange(j - L)[:, None] + np.arange(L + 1)]
            within = (batched_rank(spec, hankel[:, :, :L])
                      == batched_rank(spec, hankel))
            assert np.array_equal(within, profile[:q ** j, j] <= L), L


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(2, 2),
                                  FieldSpec(5)], ids=["q3", "q4", "q5"])
def test_arcs_through_matches_brute_extension_counts(spec):
    # the arcs of degree D are the 2D-digit sequences of complexity D, so
    # the arcs through a k-digit prefix, k < 2D, are counted by extending
    q = spec.q
    for deg in range(1, 5):
        if q ** (2 * deg) > 4 * 10 ** 5:
            break
        keys = np.arange(q ** (2 * deg))
        profile = circle.complexity_profile(
            spec, decode_keys(q, keys, 2 * deg))
        arcs = (profile[:, 2 * deg] == deg).astype(np.int64)
        for k in range(2 * deg):
            brute = np.bincount(keys % q ** k, weights=arcs,
                                minlength=q ** k).astype(np.int64)
            assert np.array_equal(
                circle.arcs_through(q, deg, k, profile[:q ** k, k]), brute)


def test_arc_counts_by_degree(prob_n3, prob_q7_n2):
    for prob in (prob_n3, prob_q7_n2):
        q = prob.spec.q
        arcs = {deg: n for deg, (n, _) in prob.degree_subtotals().items()}
        assert arcs == {deg: q ** (2 * deg - 1) * (q - 1) if deg else 1
                        for deg in range(prob.arc_floor + 1)}
        assert sum(Fraction(n, q ** (deg + prob.arc_floor))
                   for deg, n in arcs.items()) == 1


def test_degree_subtotals_peak_is_bounded_by_its_tail_blocks():
    # configs/dissect_e2_q5.cfg: 5^7 tails and a 3.1 MB sum table; the
    # profile and the weights of one block of tails at a time stay well
    # under the 24 MB they took over all tails at once
    prob = build_problem(load_config(os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "dissect_e2_q5.cfg")))
    prob.sum_table()
    tracemalloc.start()
    try:
        prob.degree_subtotals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 10 ** 6


def test_dissect_verify_makes_no_per_arc_call(tmp_path):
    # a phase is a tail tuple, and fflab has no Laurent or polynomial
    # objects to expand an arc with (test_source_size checks the imports)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "dissect_mixed_q5.cfg")
    assert main(["dissect-verify", "--config", cfg, "--workers", "1",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "dissect-verify.csv", "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == ("a790b52d1b28339bb0d359ce0e2b9e67"
                      "eed76a55d67ba2a76be59c75499491f5")
