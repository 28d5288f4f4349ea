import pytest

from fflab.errors import PrecisionError
from scalars import LaurentElement, Polynomial, expand_rational


def test_from_tail(spec5):
    x = LaurentElement.from_tail(spec5, (0, 2, 1))
    assert x.coeff(-2) == 2
    assert x.tail_vector(3) == (0, 2, 1)
    assert x.tail_vector(4) == (0, 2, 1, 0)


def test_zero_detection_and_window(spec5):
    z = LaurentElement.zero(spec5, floor=-3)
    # a windowed element is only 'zero so far': below the floor nothing
    # is known, where the exact zero reads 0 at every exponent
    assert z.coeff(-3) == 0
    with pytest.raises(PrecisionError):
        z.coeff(-4)
    exact = LaurentElement.from_poly(Polynomial.zero(spec5))
    assert exact.coeff(-4) == 0 and exact.known_top() is None


def test_arithmetic_and_floor_propagation(spec5):
    a = LaurentElement.from_tail(spec5, (1, 1), floor=-2)
    b = LaurentElement(spec5, {1: 3})                 # 3 t
    s = a + b
    assert s.coeff(1) == 3 and s.coeff(-1) == 1
    prod = a * b
    # floors rise pessimistically under multiplication
    with pytest.raises(PrecisionError):
        prod.coeff(-2)
    assert prod.coeff(0) == 3


def test_expand_rational_geometric_series(spec5):
    t = Polynomial.gen(spec5)
    one = Polynomial.one(spec5)
    x = expand_rational(one, t - one, -5)      # 1/(t-1) = sum t^-k
    assert x.tail_vector(5) == (1, 1, 1, 1, 1)
    y = expand_rational(one, t, -5)
    assert y.tail_vector(3) == (1, 0, 0)


def test_polynomial_and_fractional_split(spec5):
    t = Polynomial.gen(spec5)
    one = Polynomial.one(spec5)
    x = expand_rational(t * t + one, t, -6)    # t + 1/t
    assert x.coeff(1) == 1 and x.coeff(0) == 0
    assert x.tail_vector(2) == (1, 0)


def test_shift_and_truncate(spec5):
    x = LaurentElement.from_tail(spec5, (1, 2))
    y = x.shift(3)
    assert y.coeff(2) == 1 and y.coeff(1) == 2
    z = y.truncate(2)
    assert z.coeff(2) == 1
    with pytest.raises(PrecisionError):
        z.coeff(1)
