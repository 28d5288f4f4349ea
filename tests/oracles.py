"""Slow, obviously correct routes that the tests check fflab's fast routes
against.  They live here because no code in fflab calls them."""

import random

import numpy as np

from fflab.latgon import _NO_FLOOR, LaurentMatrix
from scalars import Polynomial


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid's algorithm.  gcd(0, 0) is undefined and
    raises."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def gcd_coprime(forms) -> bool:
    """No common projective zero, by a gcd cascade: the oracle of
    moduli.rank_coprime.

    Affine zeros (a:1) are common roots of the dehomogenizations; the zero
    at infinity (1:0) is common exactly when every u^e coefficient dies,
    i.e. every dehomogenization has degree < e."""
    degree = forms[0].e
    polys = [f.dehomogenize() for f in forms if not f.is_zero()]
    if not polys:
        return False
    if all(p.degree() < degree for p in polys):
        return False
    g = polys[0]
    for p in polys[1:]:
        if g.degree() == 0:
            break
        g = poly_gcd(g, p)
    return g.degree() == 0


def eval_form(form, x):
    """F at a length-n vector x, one monomial at a time: field indices give
    a field index, Polynomial or BinaryForm entries give one of those (None
    for a form with no monomials).  The scalar oracle of forms.BoxKernel."""
    if all(isinstance(c, int) for c in x):
        value = eval_form(form, [Polynomial(form.spec, [c]) for c in x])
        return 0 if value is None else value.coeff(0)
    acc = None
    for exps, c in form.monomials.items():
        term = None
        for i, k in enumerate(exps):
            for _ in range(k):
                term = x[i] if term is None else term * x[i]
        term = term.scale_idx(c)
        acc = term if acc is None else acc + term
    return acc


def random_symmetric_gamma(spec, n, seed, lo=-3, hi=3):
    """Symmetric n x n matrix with entry support in [lo, hi], one
    randrange(q) call per coefficient: entry (i, j >= i), in row-major
    order, takes the coefficients of t^lo..t^hi from random.Random(seed).
    The scalar oracle of latgon.random_symmetric_gammas; the matrix is
    built alone, on no shared stack."""
    rng = random.Random(seed)
    coeffs = np.zeros((n, n, hi - lo + 1), dtype=np.int16)
    for i in range(n):
        for j in range(i, n):
            coeffs[i, j] = coeffs[j, i] = [rng.randrange(spec.q)
                                           for _ in range(lo, hi + 1)]
    return LaurentMatrix(spec, coeffs, lo,
                         np.full((n, n), _NO_FLOOR, dtype=np.int64))


def mirror_sums(exps) -> set:
    """The sums R_v + R_{2n-v+1}, v = 1..n, of minima exponents
    (R_1, ..., R_2n): {0} for the closed exponents of a special pair, {2}
    for the open ones, R_v + 1."""
    return {exps[v] + exps[-1 - v] for v in range(len(exps) // 2)}
