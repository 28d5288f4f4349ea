import pytest

from fflab.errors import PrecisionError
from fflab.laurent import LaurentElement, expand_rational
from fflab.polys import Polynomial


def test_monomial_and_degree(spec5):
    x = LaurentElement.monomial(spec5, 3, 2)      # 2 t^3
    assert x.degree() == 3
    assert x.coeff(3) == 2 and x.coeff(2) == 0
    assert LaurentElement.monomial(spec5, -2).degree() == -2


def test_from_tail(spec5):
    x = LaurentElement.from_tail(spec5, (0, 2, 1))
    assert x.coeff(-2) == 2
    assert x.degree() == -2
    assert x.tail_vector(3) == (0, 2, 1)
    assert x.tail_vector(4) == (0, 2, 1, 0)


def test_zero_detection_and_window(spec5):
    z = LaurentElement.zero(spec5, floor=-3)
    # a windowed element is only 'zero so far': vanishing is undecidable
    with pytest.raises(PrecisionError):
        z.is_zero()
    with pytest.raises(PrecisionError):
        z.coeff(-4)
    exact = LaurentElement.from_poly(Polynomial.zero(spec5))
    assert exact.is_zero()
    with pytest.raises(ValueError):
        exact.degree()


def test_arithmetic_and_floor_propagation(spec5):
    a = LaurentElement.from_tail(spec5, (1, 1), floor=-2)
    b = LaurentElement.monomial(spec5, 1, 3)
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
    assert x.residue() == 1


def test_shift_and_truncate(spec5):
    x = LaurentElement.from_tail(spec5, (1, 2))
    y = x.shift(3)
    assert y.coeff(2) == 1 and y.coeff(1) == 2
    z = y.truncate(2)
    assert z.coeff(2) == 1
    with pytest.raises(PrecisionError):
        z.coeff(1)
