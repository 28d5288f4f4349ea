"""Weyl-differencing counters and the inequality suite.

The counting functions all have the shape

    #{(u_1,...,u_{d-1}) in boxes : || alpha Psi_i(u) || < q^{-m} for all i}

where box j allows C_j coefficients per coordinate (|u_j| < q^{C_j}) and the
norm looks at the coefficients of t^{-1},...,t^{-m}.  The count is computed
by enumerating all but one block and counting the last block as an F_q-linear
solution space: for fixed prefix the map u -> (alpha Psi_i(prefix,u) tail
coefficients) is linear in the coefficients of u, so a prefix contributes
q^(n C_last - rank A(prefix)).  Since the Psi_i are symmetric in their
slots, the largest box is always moved to the linear slot.

The fast route (d = 3, prime q, at least 512 prefixes) uses two facts:

* Projective reduction.  For d = 3 the condition matrix A(u) is linear in
  the prefix u, so A(cu) = c A(u) has the rank of A(u) for every c != 0.
  Only one representative per F_q-line of prefixes is ranked, the one whose
  first nonzero coordinate is 1, and its term is weighted by q - 1; the
  zero prefix adds q^(n C_last) without a rank.  This ranks
  (q^(n C_1) - 1)/(q - 1) matrices per phase instead of q^(n C_1).
* Batching across phases.  approx_zero_counts takes a stack of phases that
  share boxes and m.  It builds the prefix -> matrix map K of every phase
  at once (one einsum over the stacked tails), multiplies the line
  representatives into it and ranks matrices of many phases in one
  batched_rank call.  A batch holds at most _MAX_BATCH_ENTRIES matrix
  entries, and for large prefix spaces the representatives are generated
  chunk by chunk, so the working set of a batch does not grow with the
  number of phases or of prefixes.

The product u K runs in int64: each entry is a sum of n C_1 products of
residues below q, so n C_1 (q - 1)^2 < 2^62 bounds it; this is asserted
next to the product.

The generic route (any d, any q) builds each prefix's matrix through the
multilinear system and ranks it alone.  A fully naive enumerator (no linear
algebra, direct norm tests) is kept as the independent oracle.

Every count charges the problem's budget with its number of prefix tuples
before any work.  approx_zero_counts itself charges nothing: its callers
(approx_zero_count, check_weyl_batch, check_shrink_batch) charge every
phase first, in the order a loop of one-phase calls would.

Instances: N (boxes e+1, m = e+1), N_eta (boxes (e+1)eta, m =
(e+1)(d - (d-1)eta)), M^(v) (first v-1 boxes constant), curly-N (boxes
kappa+1, m = de+1-kappa(d-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audit import eta_choice, gamma_budget, kappa_of
from .circle import ArcPoint, CountingProblem
from .cyclotomic import CyclotomicValue, compare_abs_power, real_sign
from .errors import ConfigError, PrecisionError
from .laurent import LaurentElement
from .linalg import batched_rank, rank_mod_q
from .polys import Polynomial


# -- core counting ----------------------------------------------------------------


def _tail_array(alpha, depth: int):
    """alpha coefficients at t^{-1}..t^{-depth} (index 0 unused)."""
    if isinstance(alpha, tuple):
        if len(alpha) < depth:
            raise PrecisionError(
                f"tail of length {len(alpha)} shorter than needed {depth}")
        return [0] + [alpha[k] for k in range(depth)]
    return [0] + [alpha.coeff(-k) for k in range(1, depth + 1)]


def _check_boxes(prob: CountingProblem, box_list):
    if len(box_list) != prob.d - 1:
        raise ValueError(f"need {prob.d - 1} boxes")
    if any(c < 0 for c in box_list):
        raise ValueError("negative box size")


def _vacuous(box_list, m: int) -> bool:
    # no conditions, or a forced-zero block makes every Psi_i vanish
    return m <= 0 or 0 in box_list


def _charge_count(prob: CountingProblem, box_list, m: int):
    """Charge the budget for one count: its number of prefix tuples, or
    nothing when the count is vacuous."""
    _check_boxes(prob, box_list)
    if not _vacuous(box_list, m):
        prob._charge(prob.spec.q ** (sum(sorted(box_list)[:-1]) * prob.n),
                     "approx-zero count")


def approx_zero_count(prob: CountingProblem, alpha, box_list, m: int) -> int:
    """The boxed norm-condition count described in the module docstring."""
    _charge_count(prob, box_list, m)
    return approx_zero_counts(prob, [alpha], box_list, m)[0]


def approx_zero_counts(prob: CountingProblem, alphas, box_list,
                       m: int) -> list:
    """approx_zero_count at every phase of `alphas` (same boxes and m), as a
    list of ints in input order.  Charges no budget: the caller charges
    each phase first."""
    _check_boxes(prob, box_list)
    q, n = prob.spec.q, prob.n
    if not alphas:
        return []
    if _vacuous(box_list, m):
        return [q ** (sum(box_list) * n)] * len(alphas)
    boxes = sorted(box_list)
    c_last = boxes[-1]
    prefix_boxes = boxes[:-1]
    depth = m + (c_last - 1) + sum(c - 1 for c in prefix_boxes)
    tails = [_tail_array(alpha, depth) for alpha in alphas]
    prefix_total = q ** (sum(prefix_boxes) * n)
    if prob.d == 3 and prob.spec.f == 1 and prefix_total >= 512:
        return _count_fast_d3(prob, tails, prefix_boxes[0], c_last, m)
    return [_count_generic(prob, tail, prefix_boxes, c_last, m)
            for tail in tails]


def _count_generic(prob, tail, prefix_boxes, c_last, m) -> int:
    import itertools
    spec = prob.spec
    q, n = spec.q, prob.n
    ml = prob.form.multilinear()
    mul, add = spec.tables["mul"], spec.tables["add"]
    blocks = []
    for c in prefix_boxes:
        polys = [Polynomial(spec, cs)
                 for cs in itertools.product(range(q), repeat=c)]
        blocks.append([list(v) for v in itertools.product(polys, repeat=n)])
    count = 0
    for prefix in itertools.product(*blocks) if blocks else [()]:
        mat = ml.coefficient_matrix(list(prefix))
        rows = []
        for i in range(n):
            for w in range(1, m + 1):
                row = []
                for k in range(n):
                    poly = mat[i][k]
                    for s in range(c_last):
                        acc = 0
                        for sp, coeff in enumerate(poly.coeffs):
                            if coeff:
                                acc = add[acc][mul[coeff][tail[w + s + sp]]]
                        row.append(acc)
                rows.append(row)
        rank = rank_mod_q(spec, rows) if rows else 0
        count += q ** (n * c_last - rank)
    return count


# matrix entries per batched_rank call; bounds the working set of a batch
_MAX_BATCH_ENTRIES = 1 << 19


def _prefix_maps(prob, tails, c1, c_last, m) -> np.ndarray:
    """K, shape (phases, n*c1, n*m * n*c_last): row j*c1+sp of K[a] is the
    flattened condition matrix of phase a at the prefix with a single 1 at
    coefficient sp of coordinate j.  A(u) = u K[a] mod q."""
    import itertools
    q, n = prob.spec.q, prob.n
    # g[i, k, j] = symmetric tensor entry at {i, j, k}
    g = np.zeros((n, n, n), dtype=np.int64)
    for rep, c in prob.form.tensor.items():
        for perm in set(itertools.permutations(rep)):
            g[perm] = c
    # window[a, sp, w-1, s] = tail coefficient at t^-(w + s + sp), w = 1..m
    offsets = (np.arange(c1)[:, None, None] + np.arange(1, m + 1)[None, :, None]
               + np.arange(c_last)[None, None, :])
    window = np.array(tails, dtype=np.int64)[:, offsets]
    kmat = np.einsum("ikj,apws->ajpiwks", g, window) % q
    return kmat.reshape(len(tails), n * c1, n * m * n * c_last)


def _line_representatives(q: int, width: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the projective representatives of F_q^width: the
    vectors whose first nonzero coordinate is 1.  They come in blocks by
    the position t of that coordinate, block t holding q^(width-1-t) rows."""
    pieces = []
    start = 0
    for t in range(width):
        size = q ** (width - 1 - t)
        a, b = max(lo, start), min(hi, start + size)
        if a < b:
            idx = np.arange(a - start, b - start, dtype=np.int64)
            block = np.zeros((b - a, width), dtype=np.int64)
            block[:, t] = 1
            for col in range(t + 1, width):
                block[:, col] = idx // q ** (col - t - 1) % q
            pieces.append(block)
        start += size
    return np.concatenate(pieces)


def _condition_matrices(reps, kmat, q, nrows, ncols) -> np.ndarray:
    """A(u) = u K mod q for every representative u and every phase's K, as
    one int16 stack of shape (phases * len(reps), nrows, ncols)."""
    assert reps.shape[1] * (q - 1) ** 2 < 1 << 62   # int64 bound of u K
    amat = np.matmul(reps, kmat)
    amat %= q
    return amat.astype(np.int16).reshape(-1, nrows, ncols)


def _count_fast_d3(prob, tails, c1, c_last, m) -> list:
    """d = 3, prime q: one rank per F_q-line of prefixes, with the matrices
    of many phases ranked together (see the module docstring)."""
    spec = prob.spec
    q, n = spec.q, prob.n
    width = n * c1
    nrows, ncols = n * m, n * c_last
    kmat = _prefix_maps(prob, tails, c1, c_last, m)
    lines = (q ** width - 1) // (q - 1)
    per_batch = max(1, _MAX_BATCH_ENTRIES // (nrows * ncols))
    # rank histogram of the nonzero lines, per phase
    hist = np.zeros((len(tails), ncols + 1), dtype=np.int64)
    for lo in range(0, lines, per_batch):
        reps = _line_representatives(q, width, lo, min(lines, lo + per_batch))
        group = max(1, per_batch // len(reps))
        for a0 in range(0, len(tails), group):
            block = kmat[a0:a0 + group]
            ranks = batched_rank(spec, _condition_matrices(reps, block, q,
                                                           nrows, ncols))
            phases = block.shape[0]
            keys = (np.arange(phases).repeat(len(reps)) * (ncols + 1)
                    + ranks)
            hist[a0:a0 + phases] += np.bincount(
                keys, minlength=phases * (ncols + 1)).reshape(phases, -1)
    weights = [q ** (ncols - r) for r in range(ncols + 1)]
    return [q ** ncols + (q - 1) * sum(h * w for h, w in zip(row, weights))
            for row in hist.tolist()]


def naive_approx_zero_count(prob: CountingProblem, alpha, box_list,
                            m: int) -> int:
    """Independent oracle: enumerate every tuple and test the norms directly
    through Laurent arithmetic.  Exponentially slower; test use only."""
    import itertools
    spec = prob.spec
    q, n = spec.q, prob.n
    if len(box_list) != prob.d - 1:
        raise ValueError(f"need {prob.d - 1} boxes")
    cost = q ** (sum(box_list) * n)
    prob._charge(cost, "naive approx-zero count")
    ml = prob.form.multilinear()
    if isinstance(alpha, tuple):
        alpha_l = LaurentElement.from_tail(spec, alpha)
    else:
        alpha_l = alpha
    blocks = []
    for c in box_list:
        polys = [Polynomial(spec, cs)
                 for cs in itertools.product(range(q), repeat=c)]
        blocks.append([list(v) for v in itertools.product(polys, repeat=n)])
    count = 0
    for tup in itertools.product(*blocks):
        ok = True
        for i in range(n):
            val = ml.eval(i, list(tup))
            prod = alpha_l * LaurentElement.from_poly(val)
            if not prod.norm_less_than(m):
                ok = False
                break
        if ok:
            count += 1
    return count


# -- the named counters ------------------------------------------------------------


def _shape_N(prob: CountingProblem) -> tuple:
    """(boxes, m) of N."""
    return [prob.e + 1] * (prob.d - 1), prob.e + 1


def count_N(prob: CountingProblem, alpha, oracle: bool = False) -> int:
    fn = naive_approx_zero_count if oracle else approx_zero_count
    return fn(prob, alpha, *_shape_N(prob))


def _eta_box(prob, eta) -> int:
    c = Fraction(eta) * (prob.e + 1)
    if c.denominator != 1 or c < 0:
        raise ConfigError(f"(e+1)*eta = {c} must be a nonnegative integer")
    return int(c)


def _shape_N_eta(prob: CountingProblem, eta) -> tuple:
    """(boxes, m) of N_eta."""
    c = _eta_box(prob, eta)
    return [c] * (prob.d - 1), (prob.e + 1) * prob.d - (prob.d - 1) * c


def count_N_eta(prob: CountingProblem, alpha, eta, oracle: bool = False) -> int:
    fn = naive_approx_zero_count if oracle else approx_zero_count
    return fn(prob, alpha, *_shape_N_eta(prob, eta))


def count_M_v(prob: CountingProblem, alpha, v: int,
              oracle: bool = False) -> int:
    if not 1 <= v <= prob.d:
        raise ValueError(f"v must be in 1..{prob.d}")
    boxes = [1] * (v - 1) + [prob.e + 1] * (prob.d - v)
    fn = naive_approx_zero_count if oracle else approx_zero_count
    return fn(prob, alpha, boxes, prob.e + 1)


def count_curly_N(prob: CountingProblem, alpha, kappa: int = None,
                  oracle: bool = False) -> int:
    if kappa is None:
        kappa = kappa_of(prob.e)
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    m = prob.d * prob.e + 1 - kappa * (prob.d - 1)
    fn = naive_approx_zero_count if oracle else approx_zero_count
    return fn(prob, alpha, [kappa + 1] * (prob.d - 1), m)


# -- inequality checks ------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    passed: bool
    name: str
    lhs_desc: str
    rhs_desc: str
    details: dict

    def __bool__(self):
        return self.passed


def _charge_weyl(prob: CountingProblem, phases: int):
    """Charge the budget of check_weyl_batch on `phases` phases, in the
    order a loop of check_weyl calls would: the phase distribution that S
    is read from (once, with the first phase), then one count of N per
    phase.  A sweep charges its whole tail list this way before it fans
    out, so its status does not depend on how the tails are chunked."""
    if phases:
        prob.phase_distribution()
    boxes, m = _shape_N(prob)
    for _ in range(phases):
        _charge_count(prob, boxes, m)


def check_weyl(prob: CountingProblem, alpha) -> InequalityReport:
    """|S(alpha)|^(2^(d-1)) <= |P|^((2^(d-1)-d+1)n) N(alpha), exactly."""
    return check_weyl_batch(prob, [alpha])[0]


def check_weyl_batch(prob: CountingProblem, alphas) -> list:
    """check_weyl at every phase of `alphas`, in input order.  The budget
    is charged first (_charge_weyl), as a loop of check_weyl calls would
    charge it; then S is taken for all phases in one exp_sums call and N
    is counted for all phases at once."""
    d, n, q = prob.d, prob.n, prob.spec.q
    _charge_weyl(prob, len(alphas))
    s_vals = prob.exp_sums(alphas)
    n_counts = approx_zero_counts(prob, alphas, *_shape_N(prob))
    power = 1 << (d - 1)
    exp = (prob.e + 1) * (power - d + 1) * n
    reports = []
    for s_val, n_count in zip(s_vals, n_counts):
        bound = Fraction(q) ** exp * n_count
        cmp = compare_abs_power(s_val, power, bound)
        reports.append(InequalityReport(
            cmp <= 0, "weyl", f"|S|^{power}", f"q^{exp} * N",
            {"S": s_val, "N": n_count, "bound": bound, "cmp": cmp}))
    return reports


def check_shrink(prob: CountingProblem, alpha, eta) -> InequalityReport:
    """N(alpha) <= |P|^((n - eta n)(d-1)) N_eta(alpha) under the parity
    hypothesis (e+1)(eta+1)/2 integral."""
    return check_shrink_batch(prob, [alpha], eta)[0]


def check_shrink_batch(prob: CountingProblem, alphas, eta) -> list:
    """check_shrink at every phase of `alphas`, in input order.  The budget
    is charged phase by phase (N, then N_eta), as a loop of check_shrink
    calls would charge it; then each count is made for all phases at once,
    and at eta = 1, where N_eta has N's boxes and m, N is reused."""
    eta = Fraction(eta)
    hyp = (prob.e + 1) * (eta + 1) / 2
    if hyp.denominator != 1:
        raise ConfigError(f"(e+1)(eta+1)/2 = {hyp} is not an integer")
    if not 0 <= eta <= 1:
        raise ConfigError("eta must lie in [0, 1]")
    big_shape, small_shape = _shape_N(prob), _shape_N_eta(prob, eta)
    for _ in alphas:
        _charge_count(prob, *big_shape)
        _charge_count(prob, *small_shape)
    big_counts = approx_zero_counts(prob, alphas, *big_shape)
    small_counts = (big_counts if small_shape == big_shape else
                    approx_zero_counts(prob, alphas, *small_shape))
    exp = (prob.e + 1) * (prob.d - 1) * prob.n * (1 - eta)
    assert exp.denominator == 1
    reports = []
    for big_n, small_n in zip(big_counts, small_counts):
        rhs = Fraction(prob.spec.q) ** int(exp) * small_n
        reports.append(InequalityReport(
            big_n <= rhs, "shrink",
            "N", f"q^{int(exp)} * N_eta",
            {"N": big_n, "N_eta": small_n, "eta": eta, "rhs": rhs}))
    return reports


def check_smallbox_chain(prob: CountingProblem, alpha,
                         kappa: int = None) -> InequalityReport:
    """|S|^(2^(d-1)) <= |P|^(2^(d-1) n) q^(-(1+kappa)(d-1)n) curly-N."""
    if kappa is None:
        kappa = kappa_of(prob.e)
    d, n, q = prob.d, prob.n, prob.spec.q
    power = 1 << (d - 1)
    s_val = prob.exp_sum(alpha)
    curly = count_curly_N(prob, alpha, kappa)
    exp = (prob.e + 1) * power * n - (1 + kappa) * (d - 1) * n
    bound = Fraction(q) ** exp * curly
    cmp = compare_abs_power(s_val, power, bound)
    return InequalityReport(
        cmp <= 0, "smallbox-chain",
        f"|S|^{power}", f"q^{exp} * curlyN",
        {"S": s_val, "curlyN": curly, "kappa": kappa, "cmp": cmp})


# -- pointwise lemma instrumentation -------------------------------------------------


@dataclass(frozen=True)
class PointwiseReport:
    """Measured data for one pointwise bound: |S| against q^sigma.

    The lemma constants are unspecified upstream, so nothing is asserted
    here; the exact pair (|S|^2, sigma) supports cross-q regression
    comparisons via compare_pointwise."""
    lemma: str
    hypothesis_ok: bool
    reason: str
    q: int
    power_denom: int           # 2^{d-1}; |S|^{2^{d-1}} clears sigma's denominator
    s_value: CyclotomicValue = None
    sigma: Fraction = None     # bound exponent: ratio = |S| / q^sigma

    def ratio_float(self) -> float:
        if not self.hypothesis_ok:
            raise ValueError(f"hypotheses failed: {self.reason}")
        mag = abs(self.s_value.to_complex(80))
        return mag / float(self.q) ** float(self.sigma)


def eta_from_arc(prob, alpha_deg, beta):
    """(e+1)*eta for an arc with |r| = q^alpha_deg and |theta| = q^-beta
    (beta None for theta = 0), or None when undefined."""
    return eta_choice(gamma_budget(prob.d, prob.e, alpha_deg, beta), prob.e)


def _theta_beta(theta_tail) -> int:
    """|theta| = q^-beta from a tail; None for theta = 0."""
    for k, c in enumerate(theta_tail, start=1):
        if c:
            return k
    return None


def measure_pointwise(prob: CountingProblem, arc: ArcPoint, theta_tail,
                      lemma: str) -> PointwiseReport:
    """Measured |S| vs the shape of one of the three pointwise bounds.

    lemma is one of 'generic' (any arc; bound q^{(e+1)n - L(e+1)eta}),
    'deg-r-positive' (bound q^{(e+1)n - L}), 'deg-r-zero' (same bound,
    r = 1 with a theta window)."""
    d, e, n, q = prob.d, prob.e, prob.n, prob.spec.q
    kappa = kappa_of(e)
    power = 1 << (d - 1)
    ell = Fraction(n, power)
    a_deg = arc.deg_r
    beta = _theta_beta(theta_tail)
    if lemma == "generic":
        eta_c = eta_from_arc(prob, a_deg, beta)
        if eta_c is None:
            return PointwiseReport(lemma, False, "eta undefined (Gamma < 1 "
                                   "with even e)", q, power)
        sigma = (e + 1) * n - ell * eta_c
    elif lemma == "deg-r-positive":
        in_i = (a_deg >= 1 and a_deg < d * e + 1 - kappa * (d - 1)
                and (beta is None or a_deg - beta < -kappa * (d - 1)))
        # theta = 0 gives |r theta| = 0 < any positive radius
        in_ii = (e == 1 and 2 <= a_deg <= d
                 and (beta is None or a_deg - beta <= -d))
        if not (in_i or in_ii):
            return PointwiseReport(lemma, False,
                                   f"|r|=q^{a_deg}, |theta|=q^-{beta} outside "
                                   "both hypothesis branches", q, power)
        sigma = (e + 1) * n - ell
    elif lemma == "deg-r-zero":
        if a_deg != 0:
            return PointwiseReport(lemma, False, "needs r = 1", q, power)
        if beta is None or not (1 + kappa * (d - 1) <= beta <= d * e + 1):
            return PointwiseReport(lemma, False,
                                   f"|theta|=q^-{beta} outside the window",
                                   q, power)
        sigma = (e + 1) * n - ell
    else:
        raise ValueError(f"unknown lemma {lemma!r}")
    alpha = prob.alpha_from_arc(arc, theta_tail)
    s_val = prob.exp_sum(alpha)
    return PointwiseReport(lemma, True, "", q, power, s_val, sigma)


def compare_scaled_reals(x_a: CyclotomicValue, s_a: Fraction,
                         x_b: CyclotomicValue, s_b: Fraction) -> int:
    """Sign of x_a*s_a - x_b*s_b for totally real cyclotomic x's, possibly
    living in different fields.  Exact: same-field differences are decided
    algebraically; cross-field equal values must both be rational (the
    fields intersect in Q), so interval refinement always terminates."""
    if x_a.p == x_b.p:
        return real_sign(x_a * s_a - x_b * s_b)
    if x_a.is_rational() and x_b.is_rational():
        diff = x_a.to_rational() * s_a - x_b.to_rational() * s_b
        return (diff > 0) - (diff < 0)
    import mpmath
    prec = 64
    while prec <= (1 << 16):
        ra, _ = x_a.interval_parts(prec)
        rb, _ = x_b.interval_parts(prec)
        saved = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            iva = ra * (mpmath.iv.mpf(s_a.numerator)
                        / mpmath.iv.mpf(s_a.denominator))
            ivb = rb * (mpmath.iv.mpf(s_b.numerator)
                        / mpmath.iv.mpf(s_b.denominator))
            diff = iva - ivb
            if diff.a > 0:
                return 1
            if diff.b < 0:
                return -1
        finally:
            mpmath.iv.prec = saved
        prec *= 2
    raise PrecisionError("cross-field comparison did not separate")


def compare_pointwise(rep_a: PointwiseReport,
                      rep_b: PointwiseReport) -> int:
    """Sign of ratio(rep_a) - ratio(rep_b), decided exactly.

    Compares |S_a|/q_a^sigma_a with |S_b|/q_b^sigma_b by raising both to
    the 2^{d-1} power, which clears every denominator."""
    if not (rep_a.hypothesis_ok and rep_b.hypothesis_ok):
        raise ValueError("cannot compare failed-hypothesis reports")
    power = rep_a.power_denom
    if power != rep_b.power_denom:
        raise ValueError("mismatched lemma powers")
    ea = rep_a.sigma * power
    eb = rep_b.sigma * power
    assert ea.denominator == 1 and eb.denominator == 1
    half = power // 2
    xa = rep_a.s_value.abs_squared() ** half
    xb = rep_b.s_value.abs_squared() ** half
    return compare_scaled_reals(xa, Fraction(rep_a.q) ** -int(ea),
                                xb, Fraction(rep_b.q) ** -int(eb))


def canonical_point(prob: CountingProblem, r_degree: int, beta):
    """The canonical point of an arc shape: r = t^deg, a = 1 (a = 0 when
    r = 1), theta = t^-beta.  Returns (arc, theta_tail)."""
    spec = prob.spec
    r_poly = Polynomial.one(spec).shift(r_degree)
    a_poly = Polynomial.one(spec) if r_degree else Polynomial.zero(spec)
    arc = ArcPoint(r_poly, a_poly, r_degree + prob.arc_floor)
    b = prob.char_depth
    if beta is None:
        tail = (0,) * b
    else:
        if not 1 <= beta <= b:
            raise ValueError("beta out of the representable window")
        tail = tuple(1 if k == beta else 0 for k in range(1, b + 1))
    return arc, tail


def canonical_shape_report(prob: CountingProblem, lemma: str, r_degree: int,
                           beta) -> PointwiseReport:
    """measure_pointwise at the canonical point of the shape."""
    arc, tail = canonical_point(prob, r_degree, beta)
    return measure_pointwise(prob, arc, tail, lemma)


# -- flat solution-count measurement --------------------------------------------------


def measure_flat_count(prob: CountingProblem, eta) -> tuple:
    """(count, count * |P|^{-eta(d-2)n}) where count = #{u in boxes
    |P|^eta : Psi_i(u) = 0 identically for all i}.  Recorded, not asserted:
    the upstream bound's constant is unspecified."""
    import itertools
    c = _eta_box(prob, eta)
    spec = prob.spec
    q, n = spec.q, prob.n
    if c == 0:
        count = 1
    else:
        prob._charge(q ** (c * n * (prob.d - 2)), "flat count")
        ml = prob.form.multilinear()
        polys = [Polynomial(spec, cs)
                 for cs in itertools.product(range(q), repeat=c)]
        vectors = [list(v) for v in itertools.product(polys, repeat=n)]
        count = 0
        for prefix in itertools.product(vectors, repeat=prob.d - 2):
            mat = ml.coefficient_matrix(list(prefix))
            rows = []
            for i in range(n):
                width = max(len(mat[i][k].coeffs) for k in range(n))
                for w in range(width + c - 1):
                    rows.append([mat[i][k].coeff(w - s) if 0 <= w - s else 0
                                 for k in range(n) for s in range(c)])
            rank = rank_mod_q(spec, rows) if rows else 0
            count += q ** (n * c - rank)
    scale = Fraction(1, q ** (c * (prob.d - 2) * n))
    return count, count * scale
