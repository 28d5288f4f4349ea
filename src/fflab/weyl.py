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

One kernel, approx_zero_counts, makes every count, for every d >= 3, every
q = p^f and every box size:

* Blocks of variables.  Two variables share a block when they share a
  monomial (forms.HypersurfaceForm.blocks).  Psi_i for i in a block reads
  only that block's coordinates of each u_j, so the count is the product
  over the blocks of the count of the block's form (form.parts), with
  n = |block|.  approx_zero_counts forms the phase classes once and runs
  the steps below once per distinct block form (equal blocks count once);
  a variable F does not contain is the zero form in one variable.
* The prefix map.  The condition matrix is multilinear in the d - 2 prefix
  blocks: A(u_1,...,u_{d-2}) = kron(u_1,...,u_{d-2}) K, where K (built by
  _prefix_maps as one outer product of the form's tensor and the tail, with
  no summed index) has one row per tuple of block coordinates.
* Projective reduction per block.  A(c_1 u_1,...) = c_1 ... c_{d-2} A(u_1,
  ...) has the rank of A(u_1,...) for all nonzero c_l, so only one
  representative per F_q-line of each block is taken, the one whose first
  nonzero coordinate is 1, and a tuple of representatives is weighted by
  (q - 1)^(d-2).  A prefix with a zero block has A = 0 and adds q^(n C_last)
  without a rank.  This ranks prod_l (q^(n C_l) - 1)/(q - 1) matrices per
  phase instead of q^(n sum C_l).
* Slot symmetry.  A(u_1,...,u_{d-2}) is unchanged when two prefix slots of
  equal box swap their vectors, so only the tuples of representatives that
  are sorted on each run of equal boxes are ranked, each weighted by the
  size of its orbit (a multinomial): at d = 4 with equal boxes, L(L+1)/2
  pairs of the L lines instead of L^2.
* Phase classes.  Every count is constant on the orbit of alpha under
  alpha -> b alpha (b in F_q^*) and the substitutions phi: t -> c t + a
  (c in F_q^*, a in F_q).  K is linear in the tail, so the condition
  matrices of b alpha are b times those of alpha.  phi is an automorphism
  of F_q((1/t)) that fixes F_q, keeps |.|, F_q[t] and every degree box,
  and commutes with each Psi_i since F has constant coefficients: so
  || alpha Psi_i(u) || = || phi(alpha) Psi_i(phi(u)) ||, and summing over
  the boxes gives N(alpha) = N(phi(alpha)).  approx_zero_counts reads only
  the tail digits t^-1..t^-depth its conditions see (phi maps them by a
  lower-triangular matrix), counts one representative per orbit
  (_phase_classes) and maps the counts back in input order: the 625
  depth-4 tails over F_5 form 14 orbits, the 2,401 over F_7 18.
* Batching across phases.  approx_zero_counts takes a stack of phases that
  share boxes and m.  It builds K for every phase at once, multiplies the
  prefix representatives into it and ranks matrices of many phases in one
  batched_rank call.  A batch holds at most _MAX_BATCH_ENTRIES matrix
  entries, and the representatives are generated chunk by chunk, so the
  working set of a batch does not grow with the number of phases or of
  prefixes.

The product u K runs in int64 over F_p coordinates: F_q = F_p^f, each entry
of K becomes the f x f matrix of multiplication by it, u becomes its f
coordinates per entry, and the product's coordinates are folded back into
field indices with the powers of p (for f = 1 this is u K mod p).  An entry
is a sum of W f products of residues below p, W = prod_l n C_l the length of
a Kronecker prefix, so W f (p - 1)^2 < 2^62 bounds it; this is asserted next
to the product.

A fully naive enumerator (no linear algebra: every Psi_i evaluated on
every tuple, the norm conditions tested directly) is the independent
oracle, in the tests.

The Weyl comparison |S|^(2^(d-1)) <= bound goes through one route,
compare_abs_powers.  It reads S as its integer trace histogram h
(CountingProblem.exp_sum_histograms, never folded into Q(zeta_p)): off
the sum table when _charge_weyl has built it, because the table's adds
cost no more than the kernel's work on the phase list (a full sweep),
and through the kernel otherwise (a limit, one alpha).  It forms
the autocorrelation c_k = sum_v h_v h_(v+k), evaluates |S|^2 = sum_k c_k
cos(2 pi k / p) in float64 for all phases at once with a stated error
bound, and decides every phase whose interval lies on one side of the
bound.  Only the phases left undecided (an exact tie such as the zero
tail, or a float that is not finite) go to the exact compare_abs_power,
which is also the oracle of the float decision in tests.

Every count charges the problem's budget with its number of prefix tuples
before any work.  approx_zero_counts itself charges nothing: its callers
(check_weyl_batch, check_shrink_batch) charge every phase first, in the
order a loop of one-phase checks would (_charge_counts), and a Weyl check
that reads S off the sum table charges it before them, builds it after.

Instances: N (boxes e+1, m = e+1) and N_eta (boxes (e+1)eta, m =
(e+1)(d - (d-1)eta)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import mpmath
import numpy as np

from .audit import eta_choice, gamma_budget, kappa_of
from .circle import CountingProblem
from .cyclotomic import CyclotomicValue, compare_abs_power
from .errors import ConfigError, InequalityReport, PrecisionError
from .linalg import batched_rank


# -- core counting ----------------------------------------------------------------


def _tail_array(alpha: tuple, depth: int) -> tuple:
    """The digits of the phase alpha, a tail tuple, at t^-1..t^-depth."""
    if len(alpha) < depth:
        raise PrecisionError(
            f"tail of length {len(alpha)} shorter than needed {depth}")
    return alpha[:depth]


def _check_boxes(prob: CountingProblem, box_list):
    if len(box_list) != prob.d - 1:
        raise ValueError(f"need {prob.d - 1} boxes")
    if any(c < 0 for c in box_list):
        raise ValueError("negative box size")


def _vacuous(box_list, m: int) -> bool:
    # no conditions, or a forced-zero block makes every Psi_i vanish
    return m <= 0 or 0 in box_list


def _count_cost(prob: CountingProblem, box_list, m: int) -> int:
    """The budget charge of one count: its number of prefix tuples, or 0
    when the count is vacuous."""
    _check_boxes(prob, box_list)
    if _vacuous(box_list, m):
        return 0
    return prob.spec.q ** (sum(sorted(box_list)[:-1]) * prob.n)


def _charge_counts(prob: CountingProblem, shapes, phases: int):
    """Charge the budget for `phases` phases, each counting every (boxes,
    m) of `shapes` in turn, as one charge per count in that order would:
    the whole phases that fit are charged at once, and if some do not, the
    counts of the next phase are charged one by one, so the refusal names
    the same count, cost and remaining budget, and leaves the same spend."""
    costs = [_count_cost(prob, *shape) for shape in shapes]
    per_phase = sum(costs)
    fit = phases
    if per_phase:
        fit = min(phases, prob.budget.left // per_phase)
    prob.budget.charge(fit * per_phase, "approx-zero count")
    if fit < phases:
        for cost in costs:      # one of these overdraws
            prob.budget.charge(cost, "approx-zero count")


def approx_zero_counts(prob: CountingProblem, alphas, box_list,
                       m: int) -> list:
    """The boxed norm-condition count described in the module docstring,
    at every phase of `alphas` (same boxes and m), as a list of ints in
    input order.  Charges no budget: the caller charges each phase first."""
    _check_boxes(prob, box_list)
    q, n = prob.spec.q, prob.n
    if not alphas:
        return []
    if _vacuous(box_list, m):
        return [q ** (sum(box_list) * n)] * len(alphas)
    boxes = sorted(box_list)
    depth = m + sum(c - 1 for c in boxes)
    tails, where = _phase_classes(prob.spec, [_tail_array(alpha, depth)
                                              for alpha in alphas])
    by_part = {part: _block_counts(prob.spec, part.dense, tails, boxes, m)
               for part in dict.fromkeys(prob.form.parts)}
    counts = [prod(row) for row in zip(*map(by_part.get, prob.form.parts))]
    return [counts[k] for k in where.tolist()]


def _block_counts(spec, g, tails, boxes, m) -> list:
    """The count of the form with symmetric tensor g (one block of
    variables, n = len(g)) at every tail of `tails`, for sorted boxes and
    m, as a list of ints."""
    q, n = spec.q, len(g)
    c_last, prefix_boxes = boxes[-1], boxes[:-1]
    widths = [n * c for c in prefix_boxes]
    lines = [(q ** w - 1) // (q - 1) for w in widths]
    nrows, ncols = n * m, n * c_last
    kmat = _coordinate_maps(spec, _prefix_maps(spec, g, tails, prefix_boxes,
                                               c_last, m))
    total = prod(lines)
    # int64 bound of the tuple numbers and of each row's weighted histogram
    assert total < 1 << 63
    per_batch = max(1, _MAX_BATCH_ENTRIES // (nrows * ncols))
    # orbit-weighted rank histogram of the prefixes with no zero slot
    hist = np.zeros((len(tails), ncols + 1), dtype=np.int64)
    for lo in range(0, total, per_batch):
        reps, weight = _prefix_representatives(
            spec, widths, lines, lo, min(total, lo + per_batch))
        if not len(reps):
            continue
        group = max(1, per_batch // len(reps))
        for a0 in range(0, len(tails), group):
            chunk = kmat[a0:a0 + group]
            ranks = batched_rank(spec, _condition_matrices(
                spec, reps, chunk, nrows, ncols))
            onehot = (ranks.reshape(len(chunk), 1, len(reps))
                      == np.arange(ncols + 1)[:, None])
            hist[a0:a0 + len(chunk)] += onehot @ weight
    zero_blocks = prod(q ** w for w in widths) - prod(q ** w - 1
                                                      for w in widths)
    scale = (q - 1) ** len(widths)
    weights = [q ** (ncols - r) for r in range(ncols + 1)]
    return [zero_blocks * q ** ncols
            + scale * sum(h * w for h, w in zip(row, weights))
            for row in hist.tolist()]


def _phase_classes(spec, tails):
    """The orbits of a list of tails (digits t^-1..t^-depth) under the
    group generated by alpha -> b alpha (b in F_q^*) and the substitutions
    phi: t -> c t + a (c in F_q^*, a in F_q): one representative per
    orbit, as an int64 array of shape (orbits, depth), and the orbit of
    each input tail.

    Every count is constant on an orbit.  K is linear in the tail, so the
    condition matrices of b alpha are b times those of alpha and have the
    same ranks.  phi is a field automorphism of F_q((1/t)) that fixes F_q,
    maps F_q[t] onto itself and keeps every degree, so it keeps |.|, the
    norm || . || and each box, and it commutes with each Psi_i, whose
    coefficients are constants: || alpha Psi_i(u) || = || phi(alpha)
    Psi_i(phi(u)) ||, and as u runs over the boxes so does phi(u).  So
    N(alpha) = N(phi(alpha)) for every count of this module.

    The tails are first scaled so that their first nonzero digit is 1 and
    deduplicated by their integer keys (_tail_keys); then each scaled
    tail's orbit is named by the least key of its scaled images under all
    q(q - 1) substitutions, the same set for every member of the orbit
    (_least_image_keys), and that image is the representative.  The
    classes go through that map _MAX_IMAGE_ENTRIES image digits at a time.
    The zero tail is its own orbit."""
    depth = len(tails[0])
    digits = np.array(tails, dtype=np.int16).reshape(len(tails), depth)
    classes, where = np.unique(_tail_keys(spec, digits), return_inverse=True)
    per_chunk = max(1, _MAX_IMAGE_ENTRIES // (spec.q * (spec.q - 1) * depth
                                             * spec.f))
    least = np.concatenate([
        _least_image_keys(spec, _key_digits(spec.q, classes[lo:lo + per_chunk],
                                            depth))
        for lo in range(0, len(classes), per_chunk)])
    keys, orbit = np.unique(least, return_inverse=True)
    return _key_digits(spec.q, keys, depth).astype(np.int64), orbit[where]


# int64 entries of the substitution images of one chunk of classes; bounds
# the working set of _phase_classes (4 MiB an image array)
_MAX_IMAGE_ENTRIES = 1 << 19


@functools.lru_cache(maxsize=None)
def _key_powers(q: int, depth: int) -> np.ndarray:
    """q^(depth-1), ..., q, 1, the place values of a tail key, in int64
    when q^depth fits, else as Python ints (an object array), so the key
    of a deep tail stays exact."""
    powers = np.array([q ** k for k in range(depth - 1, -1, -1)],
                      dtype=np.int64 if q ** depth <= 1 << 63 else object)
    powers.setflags(write=False)
    return powers


def _tail_keys(spec, digits) -> np.ndarray:
    """The key sum_k x_k q^(depth-1-k) of every row of `digits` (field
    indices, shape (..., depth)) after scaling the row so that its first
    nonzero digit is 1; keys order like the scaled rows, lexicographically."""
    lead = np.take_along_axis(digits, (digits != 0).argmax(axis=-1)[..., None],
                              axis=-1)
    scaled = spec.tables["np_mul"][spec.tables["np_inv"][lead], digits]
    return scaled @ _key_powers(spec.q, digits.shape[-1])


def _key_digits(q: int, keys, depth: int) -> np.ndarray:
    """The rows of field indices whose keys are `keys` (no scaling)."""
    return (keys[:, None] // _key_powers(q, depth) % q).astype(np.int16)


def _least_image_keys(spec, digits) -> np.ndarray:
    """A key that names the orbit of every row of `digits` (scaled
    tails): the least scaled key over its q(q - 1) images phi_{c,a}(x),
    which are the same set for every x of one orbit."""
    maps = _substitution_maps(spec, digits.shape[1])
    return _tail_keys(spec, _images(spec, digits, maps)).min(axis=1)


def _images(spec, digits, maps) -> np.ndarray:
    """The images of every row of `digits` under every substitution of
    `maps` (_substitution_maps), as field indices of shape (rows, q(q - 1),
    depth), by _condition_matrices with the coordinates of each row as its
    prefix."""
    p, f = spec.p, spec.f
    depth = digits.shape[1]
    count = prod(maps.shape[1:-1])
    coords = (digits[:, :, None] // p ** np.arange(f) % p).reshape(
        len(digits), 1, depth * f)
    return _condition_matrices(spec, coords, maps.reshape(
        1, depth * f, count * depth * f), count, depth)


@functools.lru_cache(maxsize=None)
def _substitution_maps(spec, depth: int) -> np.ndarray:
    """The digit maps of the substitutions phi_{c,a}: t -> c t + a on
    tails of `depth` digits, in F_p coordinates: maps[:, a, c - 1] (by
    field index) is the (depth f, depth f) matrix with coords(x) @ it =
    coords(phi_{c,a}(x)).  (c t + a)^-(k+1) = c^-(k+1) sum_j C(-(k+1), j)
    (a/c)^j t^-(k+1+j), so digit i of phi(x) is sum_(k <= i) C(-(k+1),
    i-k) a^(i-k) c^-(i+1) x_k: lower triangular, c^-(i+1) on the
    diagonal."""
    q, p, f = spec.q, spec.p, spec.f
    mul = spec.tables["np_mul"]
    i, k = np.indices((depth, depth))
    # C(-(k+1), i-k) = (-1)^(i-k) C(i, i-k), an element of F_p: its index
    binom = np.array([[(-1) ** (a - b) * comb(a, a - b) % p if a >= b else 0
                       for b in range(depth)] for a in range(depth)])
    log, exp = np.array(spec.tables["log"]), np.array(spec.tables["exp"])
    # a^j (0^0 = 1) and c^-(i+1), by the log tables
    a_pow = np.where(np.arange(depth) == 0, 1, exp[
        log[:, None] * np.arange(depth) % (q - 1)])
    a_pow[0, 1:] = 0
    c_inv = exp[-log[1:, None] * np.arange(1, depth + 1) % (q - 1)]
    entry = mul[mul[binom, a_pow[:, np.maximum(i - k, 0)]],
                c_inv[:, None, :, None]]
    # entry[c, a, i, k]; K[w, col] = M[col, w] so that image = x K
    kmat = entry.transpose(1, 0, 3, 2).reshape(-1, depth, depth)
    maps = _coordinate_maps(spec, kmat).reshape(
        q, q - 1, depth * f, depth * f).transpose(2, 0, 1, 3).copy()
    maps.setflags(write=False)
    return maps


# matrix entries per batched_rank call; bounds the working set of a batch.
# The kernel's peak is its batch-last copy of the stack plus one step
# temporary of at most as many entries: 2 MiB in int16 at 2^19 entries.
_MAX_BATCH_ENTRIES = 1 << 19


def _prefix_maps(spec, g, tails, prefix_boxes, c_last, m) -> np.ndarray:
    """K, shape (phases, prod n*c_l, n*m * n*c_last), of field indices, for
    a (phases, depth) array of tails, column j the digit at t^-(j+1):
    K[a, (j_1,sp_1,...,j_{d-2},sp_{d-2}), (i,w,k,s)] = g[i,k,j_1,...]
    * tail_a[w + s + sum sp - 1], with g the form's symmetric tensor on
    one block of variables, shape (n,)*d.  A row of K is the flattened
    condition matrix of phase a at the prefix whose blocks are the unit
    vectors e_(j_l,sp_l); A(u) = kron(u_1,...) K[a]."""
    n, d = len(g), g.ndim
    # window[a, sp_1..sp_{d-2}, w-1, s] = tail coefficient at t^-(w+s+sum sp)
    # (w = 1..m), which is column w + s + sum sp - 1
    offsets = functools.reduce(np.add.outer, [
        np.arange(c) for c in (*prefix_boxes, m, c_last)])
    window = tails[:, offsets]
    # no summed index: an outer product, one table gather for any F_q
    g = g.transpose(*range(2, d), 0, 1).reshape(
        1, *[s for _ in prefix_boxes for s in (n, 1)], n, 1, n, 1)
    window = window.reshape(len(tails), *[s for c in prefix_boxes
                                          for s in (1, c)], 1, m, 1, c_last)
    kmat = spec.tables["np_mul"][g, window]
    return kmat.reshape(len(tails), prod(n * c for c in prefix_boxes),
                        n * m * n * c_last)


def _coordinate_maps(spec, kmat) -> np.ndarray:
    """K over F_p: each entry y of K becomes the f x f matrix of x -> x y
    in the coordinates of F_q = F_p^f, so (phases, W, C) -> (phases, W f,
    C f), the entry at row w*f + k, column c*f + r being coordinate r of
    y times the k-th basis element (the element of index p^k)."""
    p, f = spec.p, spec.f
    basis = p ** np.arange(f)
    # table[y, k, r] = coordinate r of y times the k-th basis element
    table = spec.tables["np_mul"][:, basis][:, :, None] // basis % p
    phases, width, cols = kmat.shape
    return table[kmat].transpose(0, 1, 3, 2, 4).reshape(
        phases, width * f, cols * f)


def _line_representatives(q: int, width: int, idx) -> np.ndarray:
    """Rows idx of the projective representatives of F_q^width: the
    vectors whose first nonzero coordinate is 1.  They come in blocks by
    the position t of that coordinate, block t holding q^(width-1-t) rows."""
    sizes = q ** np.arange(width - 1, -1, -1)
    ends = np.cumsum(sizes)
    t = np.searchsorted(ends, idx, side="right")
    digit = np.arange(width)[None, :] - t[:, None] - 1
    reps = (idx - ends[t] + sizes[t])[:, None] // q ** np.maximum(digit, 0) % q
    reps[digit < 0] = 0
    reps[digit == -1] = 1
    return reps


def _prefix_representatives(spec, widths, lines, lo, hi) -> tuple:
    """The tuples lo..hi-1 of the product of the slots' line representatives
    (last slot fastest) that are sorted on each run of equal widths, as
    Kronecker products in F_p coordinates (shape (tuples, prod widths * f),
    coordinate k of entry w at column w*f + k), and their int64 weights: a
    sorted tuple stands for its orbit under the permutations of equal slots."""
    q, p, f = spec.q, spec.p, spec.f
    flat = np.arange(lo, hi, dtype=np.int64)
    stride = prod(lines)
    digits = []
    for count in lines:
        stride //= count
        digits.append(flat // stride % count)
    keep = np.ones(hi - lo, dtype=bool)
    weight = np.ones(hi - lo, dtype=np.int64)
    run, mult = 1, np.ones_like(weight)
    for l in range(1, len(widths)):
        if widths[l] != widths[l - 1]:
            run, mult = 1, np.ones_like(weight)
            continue
        # weight = run! / prod mult! over the run so far: a multinomial
        run += 1
        keep &= digits[l - 1] <= digits[l]
        mult = np.where(digits[l - 1] == digits[l], mult + 1, 1)
        weight = weight * run // mult
    reps = np.ones((int(keep.sum()), 1), dtype=np.int64)
    for width, digit in zip(widths, digits):
        block = _line_representatives(q, width, digit[keep])
        reps = spec.tables["np_mul"][reps[:, :, None], block[:, None, :]
                                     ].reshape(len(reps), reps.shape[1] * width)
    coords = reps[:, :, None] // p ** np.arange(f) % p
    return coords.reshape(len(reps), reps.shape[1] * f), weight[keep]


def _condition_matrices(spec, reps, kmat, nrows, ncols) -> np.ndarray:
    """A(u) = u K for every prefix u and every phase's K, as one int16
    stack of field indices, shape (phases * len(reps), nrows, ncols).  The
    product runs in int64 over F_p coordinates and is folded back into
    indices with the powers of p."""
    p, f = spec.p, spec.f
    # each entry is a sum of (prefix width) * f products of residues below p
    assert reps.shape[-1] * (p - 1) ** 2 < 1 << 62  # int64 bound of u K
    amat = np.matmul(reps, kmat)
    amat %= p
    if f > 1:   # for f = 1 the one coordinate is the index
        amat = amat.reshape(-1, f) @ p ** np.arange(f)
    return amat.astype(np.int16).reshape(-1, nrows, ncols)


# -- the named counters ------------------------------------------------------------


def _shape_N(prob: CountingProblem) -> tuple:
    """(boxes, m) of N."""
    return [prob.e + 1] * (prob.d - 1), prob.e + 1


def _shape_N_eta(prob: CountingProblem, eta) -> tuple:
    """(boxes, m) of N_eta, for an eta that _shrink_eta accepts: (e+1) eta
    = 2 (e+1)(eta+1)/2 - (e+1) is then a nonnegative integer."""
    c = Fraction(eta) * (prob.e + 1)
    assert c.denominator == 1 and c >= 0, "eta fails the shrinking hypothesis"
    c = int(c)
    return [c] * (prob.d - 1), (prob.e + 1) * prob.d - (prob.d - 1) * c


# -- inequality checks ------------------------------------------------------------


def _charge_weyl(prob: CountingProblem, phases: int):
    """Charge the budget of check_weyl_batch on `phases` phases and choose
    the route S takes on them.  In order: the phase distribution that S is
    read from (once, with the first phase); then the sum table, when its
    adds cost no more than the kernel's work on `phases` tails
    (CountingProblem._table_cost against _kernel_cost; otherwise S goes
    through the kernel and is charged nothing more); then one count of N
    per phase, as a loop of one-phase checks would charge them.  The table
    is built only once all of these are charged, so a sweep that overdraws
    does none of its work.  A sweep charges its whole tail list this way
    before it fans out, and its chunks get the table pickled with the
    problem, so neither its status nor its route depends on how the tails
    are chunked.  A box whose square reaches 2^63 is refused first
    (ConfigError)."""
    prob._refuse_past_int64(2 * prob.box * prob.n, "autocorrelation")
    build = False
    if phases:
        prob.phase_distribution()
        build = (prob._sum_table is None
                 and prob._table_cost() <= prob._kernel_cost(phases))
        if build:
            prob.budget.charge(prob._table_cost(), "sum table build")
    _charge_counts(prob, [_shape_N(prob)], phases)
    if build:
        prob.sum_table(charged=True)


def check_weyl_batch(prob: CountingProblem, alphas) -> list:
    """|S(alpha)|^(2^(d-1)) <= |P|^((2^(d-1)-d+1)n) N(alpha), exactly, at
    every phase of `alphas`, as InequalityReports in input order.  The
    budget is charged and S's route chosen first (_charge_weyl); then the
    trace histograms of S are taken for all phases in one call, N is
    counted for all phases at once and the comparisons are decided
    together (compare_abs_powers)."""
    _charge_weyl(prob, len(alphas))
    return _weyl_reports(prob, alphas)


def _weyl_reports(prob: CountingProblem, alphas) -> list:
    """check_weyl_batch on phases that _charge_weyl has charged already,
    such as the chunks of a sweep: charges nothing, since _charge_weyl has
    built the phase distribution, and the sum table when S is read off it."""
    d, n, q = prob.d, prob.n, prob.spec.q
    hists = prob.exp_sum_histograms(alphas)
    n_counts = approx_zero_counts(prob, alphas, *_shape_N(prob))
    power = 1 << (d - 1)
    exp = (prob.e + 1) * (power - d + 1) * n
    assert exp >= 0     # 2^(d-1) >= d - 1: the bound is an integer
    scale = q ** exp
    bounds = [scale * n_count for n_count in n_counts]
    cmps = compare_abs_powers(prob, hists, power, bounds)
    return [InequalityReport(
        cmp <= 0, {"N": n_count, "bound": Fraction(bound), "cmp": cmp})
        for n_count, bound, cmp in zip(n_counts, bounds, cmps)]


# Allowed |table - cos x| of the float64 cosines at the points 2 pi k / p;
# _cos_table asserts it for each p it builds.
_COS_ERROR = 2.0 ** -50
_UNIT = 2.0 ** -53      # unit roundoff of float64


@functools.lru_cache(maxsize=None)
def _cos_table(p: int) -> np.ndarray:
    """cos(2 pi k / p), k = 0..p-1, in float64: each an 80-bit mpmath value
    converted to float, asserted within _COS_ERROR / 2 of that value (whose
    own error is below 2^-78), so within _COS_ERROR of the true cosine on
    any platform, whatever its libm."""
    with mpmath.workprec(80):
        exact = [mpmath.cos(2 * mpmath.pi * k / p) for k in range(p)]
        table = [float(c) for c in exact]
        assert all(abs(mpmath.mpf(c) - x) <= _COS_ERROR / 2
                   for c, x in zip(table, exact))
    return np.array(table)


def compare_abs_powers(prob: CountingProblem, hists, power: int,
                       bounds) -> list:
    """The sign of |S_a|^power - bounds[a] for every row a of `hists`
    (trace histograms of S, as from exp_sum_histograms), as a list of -1,
    0, +1: what compare_abs_power gives on the folded S.  A phase is
    decided in float64 when the interval of _abs_square_intervals, raised
    to power/2 = 2^j by j squarings, lies strictly on one side of the
    bound and every float is finite.  Each squaring adds one rounding, so
    (2 power + 8) u of relative slack covers them, the rounding of
    float(bound) and of the two scalings.  The other phases (an exact tie
    such as the zero tail, a float that is not finite, a bound past the
    float64 range) go to the exact compare_abs_power."""
    half = power // 2
    assert power >= 2 and half & (half - 1) == 0, "power must be 2^j"
    hists = np.asarray(hists, dtype=np.int64)
    lo, hi = _abs_square_intervals(prob, hists)
    slack = (2 * power + 8) * _UNIT
    with np.errstate(over="ignore", invalid="ignore"):
        while half > 1:
            lo, hi, half = lo * lo, hi * hi, half // 2
        hi_up, lo_down = hi * (1 + slack), lo * (1 - slack)
        limit = np.array([_float_or_nan(b) for b in bounds], dtype=np.float64)
        b_up, b_down = limit * (1 + slack), limit * (1 - slack)
    finite = np.isfinite(hi_up) & np.isfinite(b_up)
    below, above = finite & (hi_up < b_down), finite & (lo_down > b_up)
    cmps = (above.astype(int) - below.astype(int)).tolist()
    p = prob.spec.p
    for a in np.flatnonzero(~(below | above)).tolist():
        cmps[a] = compare_abs_power(
            CyclotomicValue.from_histogram(p, hists[a].tolist()), power,
            bounds[a])
    return cmps


def _abs_square_intervals(prob: CountingProblem, hists) -> tuple:
    """Float64 arrays (lo, hi) with lo[a] <= |S_a|^2 <= hi[a] for every
    row a of `hists`, the trace histograms of S.

    |S|^2 = sum_k c_k cos(2 pi k / p) with the integer autocorrelation
    c_k = sum_v h_v h_(v+k) >= 0.  Every row sums to the box size T
    (asserted), so sum_k c_k = T^2 and every c_k <= T^2 < 2^63 (asserted).
    With unit roundoff u and the cosines within delta = _COS_ERROR, the
    float64 dot product c . cos (p roundings of c_k, p products, p - 1
    additions in any order) is within T^2 (delta + 3 (p + 1) u) of |S|^2;
    twice that covers the roundings of the interval ends too."""
    p = prob.spec.p
    box = prob.spec.q ** (prob.box * prob.n)
    assert box * box < 1 << 63, "autocorrelation would overflow int64"
    assert (p + 1) * _UNIT < 2.0 ** -20
    hists = np.asarray(hists, dtype=np.int64)
    assert (hists.sum(axis=1) == box).all(), "not a histogram of the box"
    shift = (np.arange(p)[:, None] + np.arange(p)) % p
    corr = (hists[:, None, :] * hists[:, shift]).sum(axis=2)
    err = 2 * box * box * (_COS_ERROR + 3 * (p + 1) * _UNIT)
    abs_sq = corr.astype(np.float64) @ _cos_table(p)
    return np.maximum(abs_sq - err, 0.0), abs_sq + err


def _float_or_nan(value) -> float:
    """float(value), or nan when it does not fit a float64."""
    try:
        return float(value)
    except OverflowError:
        return float("nan")


def _shrink_eta(e: int, eta) -> Fraction:
    """eta as a Fraction, checked to satisfy the hypotheses of the
    shrinking inequality: (e+1)(eta+1)/2 integral and 0 <= eta <= 1."""
    eta = Fraction(eta)
    hyp = (e + 1) * (eta + 1) / 2
    if hyp.denominator != 1:
        raise ConfigError(f"(e+1)(eta+1)/2 = {hyp} is not an integer")
    if not 0 <= eta <= 1:
        raise ConfigError("eta must lie in [0, 1]")
    return eta


def check_shrink_batch(prob: CountingProblem, alphas, eta) -> list:
    """N(alpha) <= |P|^((n - eta n)(d-1)) N_eta(alpha) under the parity
    hypothesis (e+1)(eta+1)/2 integral, at every phase of `alphas`, as
    InequalityReports in input order.  The budget is charged first, N then
    N_eta per phase (_charge_counts); then each count is made for all
    phases at once, and at eta = 1, where N_eta has N's boxes and m, N is
    reused."""
    eta = _shrink_eta(prob.e, eta)
    big_shape, small_shape = _shape_N(prob), _shape_N_eta(prob, eta)
    _charge_counts(prob, [big_shape, small_shape], len(alphas))
    big_counts = approx_zero_counts(prob, alphas, *big_shape)
    small_counts = (big_counts if small_shape == big_shape else
                    approx_zero_counts(prob, alphas, *small_shape))
    exp = (prob.e + 1) * (prob.d - 1) * prob.n * (1 - eta)
    assert exp.denominator == 1 and exp >= 0    # the rhs is an integer
    scale = prob.spec.q ** int(exp)
    reports = []
    for big_n, small_n in zip(big_counts, small_counts):
        rhs = scale * small_n
        reports.append(InequalityReport(
            big_n <= rhs,
            {"N": big_n, "N_eta": small_n, "eta": eta, "rhs": Fraction(rhs)}))
    return reports


# -- pointwise lemma instrumentation -------------------------------------------------


@dataclass(frozen=True)
class PointwiseReport:
    """Measured data for one pointwise bound: |S| against q^sigma.

    The lemma constants are unspecified upstream, so nothing is asserted
    here; the exact pair (|S|^2, sigma) is recorded for cross-q
    comparisons of the ratio."""
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


def _canonical_tail(prob: CountingProblem, r_degree: int, beta) -> tuple:
    """The depth-B tail of the canonical point a/r + theta, written
    directly: a/r = 1/t^r_degree is a 1 at digit r_degree, seen when
    1 <= r_degree <= B (a = 0 when r = 1), and theta = t^-beta adds 1 at
    digit beta (beta None for theta = 0).  A beta outside 1..B is refused
    with ValueError."""
    b = prob.char_depth
    if beta is not None and not 1 <= beta <= b:
        raise ValueError("beta out of the representable window")
    tail = [0] * b
    if 1 <= r_degree <= b:
        tail[r_degree - 1] = 1
    if beta is not None:
        tail[beta - 1] = prob.spec.add(tail[beta - 1], 1)
    return tuple(tail)


def canonical_shape_report(prob: CountingProblem, lemma: str, r_degree: int,
                           beta) -> PointwiseReport:
    """Measured |S| vs the shape of one of the three pointwise bounds, at
    the canonical point of the shape: alpha = a/r + theta with r =
    t^r_degree, a = 1 (a = 0 when r = 1) and theta = t^-beta (beta None
    for theta = 0), read at its tail (_canonical_tail), whose beta window
    is checked before any hypothesis.

    lemma is one of 'generic' (any arc; bound q^{(e+1)n - L(e+1)eta}),
    'deg-r-positive' (bound q^{(e+1)n - L}), 'deg-r-zero' (same bound,
    r = 1 with a theta window)."""
    tail = _canonical_tail(prob, r_degree, beta)
    d, e, n, q = prob.d, prob.e, prob.n, prob.spec.q
    kappa = kappa_of(e)
    power = 1 << (d - 1)
    ell = Fraction(n, power)
    if lemma == "generic":
        eta_c = eta_from_arc(prob, r_degree, beta)
        if eta_c is None:
            return PointwiseReport(lemma, False, "eta undefined (Gamma < 1 "
                                   "with even e)", q, power)
        sigma = (e + 1) * n - ell * eta_c
    elif lemma == "deg-r-positive":
        in_i = (r_degree >= 1 and r_degree < d * e + 1 - kappa * (d - 1)
                and (beta is None or r_degree - beta < -kappa * (d - 1)))
        # theta = 0 gives |r theta| = 0 < any positive radius
        in_ii = (e == 1 and 2 <= r_degree <= d
                 and (beta is None or r_degree - beta <= -d))
        if not (in_i or in_ii):
            return PointwiseReport(
                lemma, False, f"|r|=q^{r_degree}, |theta|=q^-{beta} outside "
                "both hypothesis branches", q, power)
        sigma = (e + 1) * n - ell
    elif lemma == "deg-r-zero":
        if r_degree != 0:
            return PointwiseReport(lemma, False, "needs r = 1", q, power)
        if beta is None or not (1 + kappa * (d - 1) <= beta <= d * e + 1):
            return PointwiseReport(lemma, False,
                                   f"|theta|=q^-{beta} outside the window",
                                   q, power)
        sigma = (e + 1) * n - ell
    else:
        raise ValueError(f"unknown lemma {lemma!r}")
    s_val = prob.exp_sum(tail)
    return PointwiseReport(lemma, True, "", q, power, s_val, sigma)
