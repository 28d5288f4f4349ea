import random

import pytest

from fflab.moduli import _sylvester_rank_full, gcd_coprime, resultant_coprime
from fflab.polys import BinaryForm, Polynomial, poly_gcd


def P(spec, *values):
    return Polynomial.from_ints(spec, values)


def test_construction_strips_leading_zeros(spec5):
    assert P(spec5, 1, 2, 0, 0).degree() == 1
    assert Polynomial.zero(spec5).is_zero()
    assert Polynomial.zero(spec5).degree() == -1
    with pytest.raises(ValueError):
        Polynomial.zero(spec5).lead()


def test_arithmetic(spec5):
    a = P(spec5, 1, 2, 3)            # 3t^2 + 2t + 1
    b = P(spec5, 4, 1)               # t + 4
    assert a + b == P(spec5, 0, 3, 3)
    assert a - b == P(spec5, 2, 1, 3)
    assert a * b == P(spec5, 4, 4, 4, 3)
    x = 2
    assert (a * b)(x) == a(x) * b(x)


def test_shift_and_call(spec5):
    a = P(spec5, 2, 1)               # t + 2
    assert a.shift(2) == P(spec5, 0, 0, 2, 1)
    assert a(3) == 0                 # 3 + 2 = 0 mod 5
    assert a.lead() == 1 and a.is_monic()


def test_divmod_invariant(spec5):
    rng = random.Random(3)
    for _ in range(40):
        a = Polynomial(spec5, [rng.randrange(5) for _ in range(6)])
        b = Polynomial(spec5, [rng.randrange(5) for _ in range(3)])
        if b.is_zero():
            continue
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero() or rem.degree() < b.degree()


def test_gcd_is_monic_common_factor(spec5):
    t = Polynomial.gen(spec5)
    one = Polynomial.one(spec5)
    f = (t - one) * (t - P(spec5, 2))
    g = (t - one) * (t - P(spec5, 3))
    assert poly_gcd(f, g) == t - one
    assert poly_gcd(f, one).is_one()


def test_binary_form_homogeneity(spec5):
    # coeffs[i] multiplies u^i v^(e-i)
    f = BinaryForm.from_ints(spec5, 2, [1, 2, 3])
    u, v, lam = 2, 3, 4
    scaled = f(spec5.mul(lam, u), spec5.mul(lam, v))
    assert scaled == spec5.element(lam) ** 2 * f(u, v)


def test_binary_form_mul_adds_degree(spec5):
    f = BinaryForm.from_ints(spec5, 1, [1, 1])
    g = BinaryForm.from_ints(spec5, 2, [1, 0, 1])
    h = f * g
    assert h.e == 3
    for u, v in [(1, 1), (2, 3), (0, 4), (4, 0)]:
        assert h(u, v) == f(u, v) * g(u, v)


def test_binary_form_poly_round_trip(spec5):
    f = BinaryForm.from_ints(spec5, 3, [1, 0, 2, 4])
    assert BinaryForm.from_poly_in_t(f.to_poly_in_t(), 3) == f
    # dehomogenize sets v = 1
    p = f.dehomogenize()
    for u in range(5):
        assert p(u) == f(u, 1)


def test_binform_gcd_and_coprimality(spec5):
    u = BinaryForm.from_ints(spec5, 1, [0, 1])   # u
    v = BinaryForm.from_ints(spec5, 1, [1, 0])   # v
    f = u * v
    g = v * v
    # the shared factor v has degree 1: exactly one common zero on P^1(F_5)
    points = [(a, 1) for a in range(5)] + [(1, 0)]
    common = [pt for pt in points if f(*pt) == spec5.zero == g(*pt)]
    assert common == [(1, 0)]
    assert not gcd_coprime([f, g])
    assert gcd_coprime([u, v])


def test_resultant_detects_common_factor(spec5):
    u = BinaryForm.from_ints(spec5, 1, [0, 1])
    v = BinaryForm.from_ints(spec5, 1, [1, 0])
    assert not _sylvester_rank_full(u * v, v * v)
    assert _sylvester_rank_full(u, v)
    assert not resultant_coprime([u * v, v * v])
    assert resultant_coprime([u, v])
