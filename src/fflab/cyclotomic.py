"""Exact arithmetic in the cyclotomic field Q(zeta_p), p prime.

Values are stored on the power basis 1, zeta, ..., zeta^{p-2} with Fraction
coefficients; zeta^{p-1} is eagerly rewritten as -(1 + zeta + ... + zeta^{p-2}),
so equality of coefficient vectors is equality of field elements.

Character sums live here: a sum of q^k many p-th roots of unity is represented
exactly, and magnitude comparisons against rational bounds are decided exactly
(algebraic zero detection plus adaptive interval refinement for the sign of a
nonzero totally real value under the standard embedding zeta = e^{2 pi i / p}).
compare_abs_power is the exact comparison: the Weyl-type checks decide
most phases by a certified float64 test on integer histograms
(weyl.compare_abs_powers) and call it only on the phases that test leaves
undecided, and the tests use it as the oracle of that float test.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .errors import PrecisionError

_ZERO = Fraction(0)


class CyclotomicValue:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if p < 2 or len(cs) != p - 1:
            raise ValueError("need exactly p-1 power-basis coefficients")
        self.p = p
        self.coeffs = cs

    # -- construction ----------------------------------------------------------

    @classmethod
    def zero(cls, p: int):
        return cls(p, (_ZERO,) * (p - 1))

    @classmethod
    def from_rational(cls, p: int, value):
        cs = [Fraction(value)] + [_ZERO] * (p - 2)
        return cls(p, cs)

    @classmethod
    def from_histogram(cls, p: int, counts):
        """Sum of counts[a] copies of zeta^a.

        counts is a mapping {residue: weight} or a sequence of length p
        indexed by residue; weights may be any rationals.
        """
        vec = [_ZERO] * p
        if isinstance(counts, dict):
            items = counts.items()
        else:
            if len(counts) != p:
                raise ValueError("histogram sequence must have length p")
            items = enumerate(counts)
        for a, w in items:
            vec[a % p] += Fraction(w)
        return cls._fold(p, vec)

    @classmethod
    def _fold(cls, p: int, vec):
        """Reduce a length-p exponent vector onto the power basis."""
        top = vec[p - 1]
        if top:
            return cls(p, [vec[k] - top for k in range(p - 1)])
        return cls(p, vec[: p - 1])

    # -- predicates --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def is_real(self) -> bool:
        """Fixed by complex conjugation (hence totally real)."""
        return self == self.conj()

    # -- arithmetic ----------------------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed cyclotomic fields")

    def _coerce(self, other):
        if isinstance(other, CyclotomicValue):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicValue.from_rational(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicValue(self.p,
                               [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicValue(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicValue(self.p,
                               [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicValue(self.p, [a * f for a in self.coeffs])
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        self._check(other)
        p = self.p
        vec = [_ZERO] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    vec[(i + j) % p] += a * b
        return CyclotomicValue._fold(p, vec)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        acc = CyclotomicValue.from_rational(self.p, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def conj(self):
        """Complex conjugation: zeta^k -> zeta^{p-k}."""
        p = self.p
        vec = [_ZERO] * p
        for k, a in enumerate(self.coeffs):
            vec[(p - k) % p] = a
        return CyclotomicValue._fold(p, vec)

    def abs_squared(self):
        """x * conj(x); totally real and nonnegative in every embedding."""
        return self * self.conj()

    def __eq__(self, other):
        o = self._coerce(other) if isinstance(
            other, (CyclotomicValue, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CyclotomicValue(p={self.p}, {[str(c) for c in self.coeffs]})"

    # -- numerics ----------------------------------------------------------------

    def interval_parts(self, prec: int):
        """Real and imaginary interval enclosures at the standard embedding,
        computed with mpmath interval arithmetic at the given precision."""
        iv = mpmath.iv
        old = iv.prec
        iv.prec = prec
        try:
            two_pi = 2 * iv.pi
            re = iv.mpf(0)
            im = iv.mpf(0)
            for k, c in enumerate(self.coeffs):
                if not c:
                    continue
                cf = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                ang = two_pi * iv.mpf(k) / iv.mpf(self.p)
                re += cf * iv.cos(ang)
                im += cf * iv.sin(ang)
            return re, im
        finally:
            iv.prec = old

    def to_complex(self, prec: int = 53) -> complex:
        re, im = self.interval_parts(prec)
        return complex(float(mpmath.mpf(re.mid)), float(mpmath.mpf(im.mid)))


_MAX_SIGN_PREC = 1 << 16


def real_sign(x: CyclotomicValue) -> int:
    """Sign of a totally real cyclotomic value at the standard embedding.

    Exact: zero is detected algebraically, and for nonzero input the interval
    enclosure is refined until it excludes zero (always terminates)."""
    if not x.is_real():
        raise ValueError("real_sign needs a conjugation-fixed value")
    if x.is_zero():
        return 0
    prec = 64
    while prec <= _MAX_SIGN_PREC:
        re, _ = x.interval_parts(prec)
        if re.a > 0:
            return 1
        if re.b < 0:
            return -1
        prec *= 2
    raise PrecisionError(
        f"sign of nonzero value unresolved at precision {_MAX_SIGN_PREC}")


def compare_abs_power(x: CyclotomicValue, exponent: int, bound) -> int:
    """Exactly compare |x|^exponent against a rational bound.

    Returns -1, 0, or +1 for <, =, >.  Works uniformly for odd and even
    exponents by squaring both sides: |x|^m <= b iff (x conj(x))^m <= b^2
    whenever b >= 0 (a negative bound is always exceeded)."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    b = Fraction(bound)
    if b < 0:
        return 1
    diff = (x.abs_squared() ** exponent) - b * b
    if diff.is_zero():
        return 0
    return real_sign(diff)
