from fractions import Fraction

import pytest

from fflab.cyclotomic import CyclotomicValue, compare_abs_power, real_sign


def root_power(p, k):
    """zeta^k, any integer k, written on the power basis 1, ..., zeta^(p-2)
    directly: zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    k %= p
    if k == p - 1:
        return CyclotomicValue(p, [-1] * (p - 1))
    return CyclotomicValue(p, [int(i == k) for i in range(p - 1)])


def test_root_powers_sum_to_zero():
    total = CyclotomicValue.zero(5)
    for k in range(5):
        total = total + root_power(5, k)
    assert total.is_zero()


def test_top_power_folds_onto_basis():
    zeta4 = root_power(5, 4)
    assert zeta4.coeffs == (Fraction(-1),) * 4
    assert root_power(5, 7) == root_power(5, 2)


def test_histogram_constructor():
    # quadratic Gauss sum over F_5: residues of a^2 are 0,1,4,4,1
    g = CyclotomicValue.from_histogram(5, {0: 1, 1: 2, 4: 2})
    direct = CyclotomicValue.zero(5)
    for a in range(5):
        direct = direct + root_power(5, a * a % 5)
    assert g == direct


def test_gauss_sum_magnitude():
    g = CyclotomicValue.from_histogram(5, {0: 1, 1: 2, 4: 2})
    assert g.abs_squared() == 5
    assert compare_abs_power(g, 2, 5) == 0
    assert abs(abs(g.to_complex(80)) ** 2 - 5.0) < 1e-12


def test_ring_arithmetic():
    z = root_power(5, 1)
    one = CyclotomicValue.from_rational(5, 1)
    assert (one + z) * (one - z) == one - z * z
    assert z ** 5 == one
    assert z * z.conj() == one
    assert (z + 3) - z == CyclotomicValue.from_rational(5, 3)


def test_rational_detection():
    val = CyclotomicValue.from_rational(7, Fraction(22, 7))
    assert val.is_rational() and val.to_rational() == Fraction(22, 7)
    z = root_power(7, 2)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.to_rational()


def test_real_sign_exact():
    g = CyclotomicValue.from_histogram(5, {0: 1, 1: 2, 4: 2})
    norm = g.abs_squared()
    assert real_sign(norm - 4) == 1
    assert real_sign(norm - 5) == 0
    assert real_sign(norm - 6) == -1
    with pytest.raises(ValueError):
        real_sign(root_power(5, 1))


def test_equality_coerces_integers():
    assert CyclotomicValue.from_rational(5, 25) == 25
    assert CyclotomicValue.from_rational(5, Fraction(1, 2)) == Fraction(1, 2)
    assert root_power(5, 1) != 1
