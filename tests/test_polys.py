import random

import numpy as np
import pytest

from fflab.moduli import rank_coprime
from oracles import gcd_coprime, poly_gcd
from scalars import BinaryForm, Polynomial


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
    assert a.lead() == 1


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
    assert poly_gcd(f, one) == one


def test_binary_form_mul_adds_degree(spec5):
    # coeffs[i] multiplies u^i v^(e-i), so setting v = 1 is a ring map
    f = BinaryForm.from_ints(spec5, 1, [1, 1])
    g = BinaryForm.from_ints(spec5, 2, [1, 0, 1])
    h = f * g
    assert h.e == 3
    assert h.dehomogenize() == f.dehomogenize() * g.dehomogenize()


def test_binary_form_poly_round_trip(spec5):
    f = BinaryForm.from_ints(spec5, 3, [1, 0, 2, 4])
    # dehomogenize sets v = 1; a form without u^e drops degree, which is
    # how the gcd oracle sees the zero at infinity
    assert f.dehomogenize() == P(spec5, 1, 0, 2, 4)
    top_free = BinaryForm.from_ints(spec5, 2, [1, 3, 0])
    assert top_free.dehomogenize().degree() == 1


def test_binform_gcd_and_coprimality(spec5):
    u = BinaryForm.from_ints(spec5, 1, [0, 1])   # u
    v = BinaryForm.from_ints(spec5, 1, [1, 0])   # v
    # u v and v^2 share the factor v, whose one zero is (1:0) at infinity;
    # u v and u^2 + v^2 share none
    assert not gcd_coprime([u * v, v * v])
    assert gcd_coprime([u * v, u * u + v * v])
    assert gcd_coprime([u, v])


def test_resultant_detects_common_factor(spec5):
    # for two forms the rank test reads the Sylvester matrix: full rank
    # exactly when the resultant is nonzero
    u = BinaryForm.from_ints(spec5, 1, [0, 1])
    v = BinaryForm.from_ints(spec5, 1, [1, 0])
    pairs = np.array([[(u * v).coeffs, (v * v).coeffs],
                      [(u * u).coeffs, (v * v).coeffs]], dtype=np.int16)
    assert rank_coprime(spec5, pairs).tolist() == [False, True]
    linear = np.array([[u.coeffs, v.coeffs]], dtype=np.int16)
    assert rank_coprime(spec5, linear).tolist() == [True]
