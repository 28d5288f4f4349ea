"""Counting degree-e morphisms P^1 -> X directly, with extension fields.

A tuple of n binary forms of degree e over F_{q^l} gives a morphism to the
hypersurface X = {F = 0} exactly when F(f_1,...,f_n) vanishes identically
(a binary form of degree de, i.e. de+1 coefficient conditions) and the f_i
share no projective zero.  This module counts

  * the affine cone: nonzero tuples with F(f) = 0, common factors allowed;
  * morphisms: coprime tuples with F(f) = 0, divided by the free scalar
    action of F_{q^l}^*;

over F_{q^l} for l >= 1, plus an independent line-enumeration oracle for
degree 1 (a plane lies on X iff F vanishes at d+1 distinct points of the
parameter line, since a nonzero binary d-form has at most d roots), and
ratio reports of counts against the expected dimension powers.

Coprimality has one fast route and one oracle.  rank_coprime decides a
whole stack of tuples with one batched rank: n forms of degree e >= 1 share
no projective zero exactly when their n e shifted coefficient vectors span
F_q^{2e} (the degree 2e-1 part of the ideal they generate is everything;
Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3), which holds for every
q.  A gcd cascade on the dehomogenized forms is its oracle in the tests.

Counting routes, kept separate so they can cross-check each other:

  enumerate  walk every tuple through the one box walk (forms.BoxKernel,
             blocks of 2^13 tuples through the numpy field tables): the
             total is forms.zero_count, the tuples whose condition vector
             is all zero, and the morphism count tests the solutions of
             each block for coprimality with one rank_coprime call;
  convolve   F(f) is the sum of one form per block of variables
             (forms.HypersurfaceForm.parts), so the count is a group
             convolution over F_{q^l}^{de+1} of the block distributions
             (forms.block_distributions, one walk over its own box per
             distinct block form), met in the middle: the first half of
             the blocks are folded into A and the rest into B, each from
             its first block (forms.fold, which costs the support pairs it
             adds; equal halves share one fold), and the count is
             sum_k A(k) B(-k).  auto enumerates a one-block form;
  factor     every nonzero solution tuple splits uniquely as (normalized
             common factor) x (coprime solution of lower degree), so
             coprime counts follow from total counts by subtracting
             P_j * coprime(e-j) over the projective form counts P_j.

langweil_report reads both counts off one list of totals per field,
total(e) then total(0..e-1): cone total(e) - 1, morphisms by factor.

Every route charges the problem's one Budget ([run] budget) before it
walks: enumerate the q^(n(e+1)) tuples of its box, convolve each fold of a
distinct half a bound on the support pairs it adds (at least the block's
own box, so it covers that walk too), and the line oracle n q^k per
reduced-row block of q^k planes, which it walks forms._BOX_CHUNK planes at
a time.  Memory is bounded by the code: a block walk or a fold holds its
distribution plus one pending batch of keys (forms._running_merge).

F_{q^l}^* acts freely on coprime solutions; a coprime count it does not
divide is a failed invariant (VerificationFailure), not a bad config.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audit import dims
from .errors import Budget, ConfigError, VerificationFailure
from .fields import FieldSpec, extension
from .forms import (_BOX_CHUNK, BoxKernel, HypersurfaceForm,
                    block_distributions, decode_keys, encode_keys, fold,
                    symmetrize, zero_count)
from .linalg import batched_rank


# -- extension embedding ----------------------------------------------------------


def extend_spec(spec: FieldSpec, ell: int) -> FieldSpec:
    """F_{q^ell} over a prime base field, with a reproducible modulus."""
    if ell != 1 and spec.f != 1:
        raise ConfigError(
            "extension towers are only built over prime base fields")
    try:
        return extension(spec, ell)[0]
    except ValueError as exc:
        raise ConfigError(f"extension of degree {ell}: {exc}")


def _extended(prob, ell: int):
    """(E, the form over E) for counts over E = F_{q^ell}, accumulated in
    int64: q^(ell (e+1) n) tuples or more are refused before E is built."""
    if prob.spec.q ** (ell * (prob.e + 1) * prob.n) >= 1 << 63:
        raise ConfigError(f"counts over F_{prob.spec.q}^{ell} overflow int64:"
                          f" q^(ell (e+1) n) must be below 2^63")
    ext = extend_spec(prob.spec, ell)
    return ext, embed_form(prob.form, ext)


def embed_form(form: HypersurfaceForm, ext: FieldSpec) -> HypersurfaceForm:
    """The same form read over an extension field.

    Base coefficients are indices below p, which name the same prime-field
    constants inside the extension's coefficient-vector indexing."""
    if ext == form.spec:
        return form
    if form.spec.f != 1 or ext.p != form.spec.p:
        raise ConfigError("can only embed forms from the prime base field")
    return symmetrize(ext, form.n, form.d, dict(form.monomials))


# -- coprimality -----------------------------------------------------------------


def rank_coprime(spec: FieldSpec, coeffs) -> np.ndarray:
    """No common projective zero, for a stack of tuples at once.

    coeffs has shape (N, n, e+1), e >= 1: coefficient indices of n binary
    forms of degree e per tuple, entry i the coefficient of u^i v^(e-i).
    The forms share no zero exactly when (g_i) -> sum g_i f_i maps
    (S_{e-1})^n onto S_{2e-1}, i.e. when the n e shifted coefficient
    vectors t^s f_i (0 <= s < e) span F_q^{2e}; for n = 2 this is the
    Sylvester matrix.
    Rank does not change under field extension, so the test is exact for
    every q.  Returns a boolean array of length N."""
    count, n, width = coeffs.shape
    e = width - 1
    mats = np.zeros((count, n, e, 2 * e), dtype=np.int16)
    for s in range(e):
        mats[:, :, s, s:s + width] = coeffs
    return batched_rank(spec, mats.reshape(count, n * e, 2 * e)) == 2 * e


def _scalar_orbits(coprime: int, q: int) -> int:
    """Coprime solutions up to scalar: F_q^* acts freely on them, so a
    count it does not divide is a failed invariant."""
    if coprime % (q - 1):
        raise VerificationFailure(
            f"scalar orbits do not divide the coprime count {coprime} "
            f"(q = {q})")
    return coprime // (q - 1)


# -- total solution counts --------------------------------------------------------


def _total_enumerate(spec: FieldSpec, form: HypersurfaceForm, e: int,
                     budget: Budget) -> int:
    """#{tuples of degree-e forms, zero included, with F(f) = 0}, charged
    the tuples it walks."""
    q, n = spec.q, form.n
    budget.charge(q ** ((e + 1) * n), "morphism-space enumeration")
    return zero_count(form, e)


def _total_convolve(spec: FieldSpec, form: HypersurfaceForm, e: int,
                    budget: Budget) -> int:
    """The convolve route of the module docstring: fold the first ceil(b/2)
    block distributions into A and the rest into B, each from its first
    block's (an empty half is the zero vector; equal halves share one fold),
    and sum A(k) * B(-k).  Each distinct half charges, before any walk, a
    bound on the support pairs each fold adds: the support so far is at most
    the product of its boxes and q^(de+1), and a block's at most its box.
    Its first block is charged its box, which covers the walk."""
    q, width = spec.q, form.d * e + 1
    assert q ** ((e + 1) * form.n) < 1 << 63, "solution counts overflow int64"
    half = (len(form.parts) + 1) // 2
    split = (form.parts[:half], form.parts[half:])
    halves = [parts for parts in dict.fromkeys(split) if parts]
    for parts in halves:
        support = 1
        for part in parts:
            box = q ** ((e + 1) * part.n)
            budget.charge(support * box, "cone convolution")
            support = min(support * box, q ** width)
    dists = dict(zip(form.parts, block_distributions(form, e)))
    folded = {(): (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))}
    for parts in halves:
        folded[parts] = functools.reduce(
            lambda a, b: fold(spec, a, dists[b], width), parts[1:],
            dists[parts[0]])
    (akeys, acounts), (bkeys, bcounts) = map(folded.get, split)
    negated = encode_keys(q, spec.tables["np_neg"][
        decode_keys(q, bkeys, width)])
    _, ia, ib = np.intersect1d(akeys, negated, assume_unique=True,
                               return_indices=True)
    return int(np.sum(acounts[ia] * bcounts[ib]))


def total_solutions(spec: FieldSpec, form: HypersurfaceForm, e: int,
                    method: str = "auto", budget: Budget = None) -> int:
    """All degree-e tuples (zero and non-coprime included) with F(f) = 0,
    charged to `budget` (a fresh default Budget when None)."""
    if e < 0:
        raise ConfigError("tuple degree must be >= 0")
    budget = Budget() if budget is None else budget
    if method == "auto":
        method = "convolve" if len(form.blocks) > 1 else "enumerate"
    if method == "convolve":
        return _total_convolve(spec, form, e, budget)
    if method == "enumerate":
        return _total_enumerate(spec, form, e, budget)
    raise ConfigError(f"unknown counting method {method}")


# -- cone and morphism counts -----------------------------------------------------


def count_cone(prob, ell: int = 1, method: str = "auto") -> int:
    """Nonzero degree-e tuples over F_{q^ell} with F(f) = 0 identically;
    common factors allowed."""
    ext, form = _extended(prob, ell)
    return total_solutions(ext, form, prob.e, method, prob.budget) - 1


def _coprime_from_totals(q: int, totals) -> int:
    """#{coprime tuples of degree e with F(f) = 0} from total(0..e), by the
    unique-factorization recursion over the normalized common factor:

        total(j) - 1 = sum_{i=0..j} P_i * coprime(j - i),

    P_i = (q^{i+1}-1)/(q-1) the number of degree-i forms up to scalar."""
    coprime = []
    for j, total in enumerate(totals):
        nonzero = total - 1
        for i in range(1, j + 1):
            nonzero -= ((q ** (i + 1) - 1) // (q - 1)) * coprime[j - i]
        coprime.append(nonzero)
    return coprime[-1]


def _coprime_solutions(spec: FieldSpec, form: HypersurfaceForm, e: int,
                       method: str, budget: Budget) -> int:
    """#{coprime tuples with F(f) = 0}, from total(0..e)."""
    return _coprime_from_totals(spec.q, [
        total_solutions(spec, form, j, method, budget) for j in range(e + 1)])


def _morphisms_enumerate(spec: FieldSpec, form: HypersurfaceForm, e: int,
                         budget: Budget) -> int:
    q, n = spec.q, form.n
    budget.charge(q ** ((e + 1) * n), "morphism enumeration")
    kernel = BoxKernel(form, e)
    count = 0
    for codes, images in kernel.box():
        solutions = codes[~images.any(axis=1)]
        count += int(np.count_nonzero(
            rank_coprime(spec, kernel.powers[1][solutions])))
    return _scalar_orbits(count, q)


def count_morphisms(prob, ell: int = 1, method: str = "auto") -> int:
    """#Mor_e(P^1, X)(F_{q^ell}): coprime tuples with F(f) = 0, up to scalar.

    method "enumerate" walks tuples and filters by rank_coprime;
    "factor" subtracts common-factor orbits from total counts (required
    when the tuple space is too large to walk); "auto" picks factor for
    forms of more than one block of variables and enumeration
    otherwise."""
    ext, form = _extended(prob, ell)
    e = prob.e
    if method == "auto":
        method = "factor" if len(form.blocks) > 1 else "enumerate"
    if method == "enumerate":
        return _morphisms_enumerate(ext, form, e, prob.budget)
    if method == "factor":
        return _scalar_orbits(
            _coprime_solutions(ext, form, e, "auto", prob.budget), ext.q)
    raise ConfigError(f"unknown counting method {method}")


# -- line oracle ------------------------------------------------------------------


def _rref_plane_blocks(q: int, n: int):
    """Reduced 2 x n row patterns, one block per pivot pair (i, j):
    free positions for each row, in column order."""
    for i in range(n):
        for j in range(i + 1, n):
            free1 = [k for k in range(i + 1, n) if k != j]
            free2 = [k for k in range(j + 1, n)]
            yield i, j, free1, free2


def enumerate_lines(prob, ell: int = 1) -> int:
    """Lines on X over F_{q^ell}, by direct Grassmannian enumeration.

    A plane spanned by a, b lies on X iff the binary form F(s a + t b)
    vanishes; having degree d, it vanishes identically iff it vanishes at
    d+1 distinct points of P^1, so d+1 evaluations decide each plane."""
    ext = extend_spec(prob.spec, ell)
    form = embed_form(prob.form, ext)
    n, d, q = form.n, form.d, ext.q
    if q < d:
        raise ConfigError("need q >= d distinct parameter points")
    add_t, mul_t = ext.tables["np_add"], ext.tables["np_mul"]
    one = ext.element(1).idx
    pow_tables = {1: np.arange(q, dtype=np.int32)}
    for k in range(2, d + 1):
        pow_tables[k] = mul_t[pow_tables[k - 1], np.arange(q)]

    def eval_form_batch(coords):
        acc = np.zeros(coords[0].shape, dtype=np.int32)
        for exps, c in form.monomials.items():
            term = np.full(coords[0].shape, c, dtype=np.int32)
            for i, e in enumerate(exps):
                if e:
                    term = mul_t[term, pow_tables[e][coords[i]]]
            acc = add_t[acc, term]
        return acc

    # d+1 distinct parameter points (s:t): (1:0), (0:1), (1:c) for d-1 values
    params = [(one, 0), (0, one)] + [(one, c) for c in range(1, d)]

    total = 0
    for i, j, free1, free2 in _rref_plane_blocks(q, n):
        block = q ** (len(free1) + len(free2))
        prob.budget.charge(block * n, "line enumeration block")
        for start in range(0, block, _BOX_CHUNK):
            idx = np.arange(start, min(start + _BOX_CHUNK, block))
            # rows[k] and rows[n + k]: coordinate k of the two basis rows
            rows = [np.zeros(len(idx), dtype=np.int32) for _ in range(2 * n)]
            rows[i][:] = one
            rows[n + j][:] = one
            for pos, col in enumerate(free1 + [n + k for k in free2]):
                rows[col] = ((idx // q ** pos) % q).astype(np.int32)
            on_x = np.ones(len(idx), dtype=bool)
            for s, t in params:
                coords = [add_t[mul_t[s, rows[k]], mul_t[t, rows[n + k]]]
                          for k in range(n)]
                on_x &= eval_form_batch(coords) == 0
                if not on_x.any():
                    break
            total += int(on_x.sum())
    return total


# -- reports ----------------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    ell: int
    raw_cone: int
    morphisms: int
    ratio_cone: Fraction
    ratio_morphisms: Fraction


def langweil_report(prob, ell_max: int) -> list:
    """Counts and dimension-normalized ratios for ell = 1..ell_max.

    The cone is compared against q^{ell * mu_hat} and the morphism count
    against q^{ell * mu} with mu = (n-d)e + n - 2; both reported as exact
    rationals, never asserted against a threshold."""
    report = dims(prob.n, prob.d, prob.e, convention="affine")
    rows = []
    for ell in range(1, ell_max + 1):
        ext, form = _extended(prob, ell)
        # total(e) first: the first charge is count_cone's
        last = total_solutions(ext, form, prob.e, budget=prob.budget)
        totals = [total_solutions(ext, form, j, budget=prob.budget)
                  for j in range(prob.e)] + [last]
        cone = last - 1
        mor = _scalar_orbits(_coprime_from_totals(ext.q, totals), ext.q)
        q_ell = Fraction(prob.spec.q) ** ell
        rows.append(CountReport(
            ell, cone, mor,
            Fraction(cone, 1) / q_ell ** report.mu_hat,
            Fraction(mor, 1) / q_ell ** report.mu_affine))
    return rows
