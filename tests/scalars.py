"""The scalar object model of the tests: one Python object per polynomial,
binary form or Laurent series over F_q, computed on the list field tables.
fflab holds all of these as numpy index arrays; these objects are the slow,
element-at-a-time side that the oracles compute with.

Polynomials are immutable tuples of element indices, low degree first, with
no trailing zeros; the zero polynomial is the empty tuple and reports degree
-1.  Binary forms of degree e carry exactly e+1 coefficients (index i is the
coefficient of u^i v^{e-i}); the zero form is allowed.

A Laurent element sum a_k t^k (k bounded above, extending downward) is a
sparse map {exponent: coefficient index} together with a window floor:

  floor = None   all coefficients are known (finitely many nonzero, exact);
  floor = f      coefficients at exponents >= f are known exactly, the tail
                 below f is undetermined.

Reading a coefficient below the floor raises PrecisionError.  Arithmetic
propagates floors pessimistically, so a computed coefficient is always a
true coefficient of the exact value.
"""

import numpy as np

from fflab.errors import PrecisionError
from fflab.fields import FieldSpec
from fflab.latgon import _NO_FLOOR, LaurentMatrix


def _product(spec: FieldSpec, a, b) -> list:
    """Coefficients of the product of two nonempty coefficient tuples."""
    mul, add = spec.tables["mul"], spec.tables["add"]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return out


def _check(x, y):
    if x.spec != y.spec:
        raise ValueError("mixed fields")


class Polynomial:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, spec, values):
        """Coefficients as canonical integers (reduced mod p; for extension
        fields ints denote prime-subfield constants)."""
        return cls(spec, [spec.element(int(v)).idx for v in values])

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (1,))

    @classmethod
    def gen(cls, spec):
        """The variable t."""
        return cls(spec, (0, 1))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        """Coefficient index at degree k (0 outside the support)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        _check(self, other)
        add = self.spec.tables["add"]
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.spec,
                          [add[self.coeff(k)][other.coeff(k)] for k in range(n)])

    def __sub__(self, other):
        _check(self, other)
        sub = self.spec.tables["sub"]
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.spec,
                          [sub[self.coeff(k)][other.coeff(k)] for k in range(n)])

    def __mul__(self, other):
        _check(self, other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.spec)
        return Polynomial(self.spec,
                          _product(self.spec, self.coeffs, other.coeffs))

    def scale_idx(self, k: int):
        """Multiply by the field scalar with index k."""
        mul = self.spec.tables["mul"]
        return Polynomial(self.spec, [mul[k][c] for c in self.coeffs])

    def shift(self, k: int):
        """Multiply by t^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Polynomial(self.spec, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        _check(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        mul, sub = spec.tables["mul"], spec.tables["sub"]
        inv_lead = spec.inv(other.lead())
        rem = list(self.coeffs)
        db = other.degree()
        qcoeffs = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            if rem[-1]:
                f = mul[rem[-1]][inv_lead]
                qcoeffs[len(rem) - 1 - db] = f
                frow = mul[f]
                for k in range(db + 1):
                    pos = len(rem) - 1 - db + k
                    rem[pos] = sub[rem[pos]][frow[other.coeffs[k]]]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(spec, qcoeffs), Polynomial(spec, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale_idx(self.spec.inv(self.lead()))

    def __call__(self, x):
        """Evaluate at a field element (Horner)."""
        x = self.spec.element(x)
        acc = self.spec.zero
        for c in reversed(self.coeffs):
            acc = acc * x + self.spec.from_index(c)
        return acc

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.spec == other.spec
                and self.coeffs == other.coeffs)


class BinaryForm:
    """Homogeneous binary form of fixed degree e over F_q.

    coeffs[i] is the coefficient index of u^i v^{e-i}; the all-zero vector is
    the zero form (still carrying its formal degree).
    """

    __slots__ = ("spec", "e", "coeffs")

    def __init__(self, spec: FieldSpec, e: int, coeffs):
        cs = tuple(coeffs)
        if e < 0 or len(cs) != e + 1:
            raise ValueError("need exactly e+1 coefficients")
        self.spec = spec
        self.e = e
        self.coeffs = cs

    @classmethod
    def from_ints(cls, spec, e, values):
        return cls(spec, e, [spec.element(int(v)).idx for v in values])

    @classmethod
    def zero(cls, spec, e):
        return cls(spec, e, (0,) * (e + 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        _check(self, other)
        if self.e != other.e:
            raise ValueError("cannot add forms of different degrees")
        add = self.spec.tables["add"]
        return BinaryForm(self.spec, self.e,
                          [add[a][b] for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        _check(self, other)
        return BinaryForm(self.spec, self.e + other.e,
                          _product(self.spec, self.coeffs, other.coeffs))

    def scale_idx(self, k: int):
        mul = self.spec.tables["mul"]
        return BinaryForm(self.spec, self.e, [mul[k][c] for c in self.coeffs])

    def dehomogenize(self) -> Polynomial:
        """Set v = 1: the polynomial sum c_i x^i."""
        return Polynomial(self.spec, self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and self.spec == other.spec
                and self.e == other.e and self.coeffs == other.coeffs)


class LaurentElement:
    __slots__ = ("spec", "coeffs", "floor")

    def __init__(self, spec: FieldSpec, coeffs: dict, floor=None):
        self.spec = spec
        self.coeffs = {int(e): int(c) for e, c in coeffs.items()
                       if c and (floor is None or e >= floor)}
        self.floor = floor

    @classmethod
    def zero(cls, spec, floor=None):
        return cls(spec, {}, floor)

    @classmethod
    def monomial(cls, spec, exp: int):
        """t^exp."""
        return cls(spec, {exp: 1})

    @classmethod
    def from_poly(cls, poly: Polynomial):
        return cls(poly.spec, dict(enumerate(poly.coeffs)))

    @classmethod
    def from_tail(cls, spec, tail, floor=None):
        """tail = (c_{-1}, c_{-2}, ...) as coefficient indices; by default the
        element is exact (zero below the given coefficients)."""
        return cls(spec, {-(i + 1): c for i, c in enumerate(tail)}, floor)

    def coeff(self, exp: int) -> int:
        if self.floor is not None and exp < self.floor:
            raise PrecisionError(
                f"coefficient at t^{exp} below window floor {self.floor}")
        return self.coeffs.get(exp, 0)

    def known_top(self):
        """Largest known nonzero exponent, or floor-1 when the known part
        vanishes (None for the exact zero element)."""
        if self.coeffs:
            return max(self.coeffs)
        return None if self.floor is None else self.floor - 1

    @staticmethod
    def _merge_floor(fa, fb):
        if fa is None:
            return fb
        if fb is None:
            return fa
        return max(fa, fb)

    def __add__(self, other):
        _check(self, other)
        add = self.spec.tables["add"]
        cs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cs[e] = add[cs.get(e, 0)][c]
        return LaurentElement(self.spec, cs,
                              self._merge_floor(self.floor, other.floor))

    def __neg__(self):
        neg = self.spec.tables["neg"]
        return LaurentElement(self.spec,
                              {e: neg[c] for e, c in self.coeffs.items()},
                              self.floor)

    def __mul__(self, other):
        _check(self, other)
        # floor of the product: unknown tails contaminate everything at or
        # below (top of one factor) + (floor of the other) - 1
        fl = None
        if other.floor is not None:
            ta = self.known_top()
            if ta is None:
                return LaurentElement.zero(self.spec)
            fl = self._merge_floor(fl, ta + other.floor)
        if self.floor is not None:
            tb = other.known_top()
            if tb is None:
                return LaurentElement.zero(self.spec)
            fl = self._merge_floor(fl, tb + self.floor)
        mul = self.spec.tables["mul"]
        add = self.spec.tables["add"]
        cs = {}
        for ea, ca in self.coeffs.items():
            row = mul[ca]
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if fl is not None and e < fl:
                    continue
                cs[e] = add[cs.get(e, 0)][row[cb]]
        return LaurentElement(self.spec, cs, fl)

    def shift(self, k: int):
        """Multiply by t^k."""
        fl = None if self.floor is None else self.floor + k
        return LaurentElement(self.spec,
                              {e + k: c for e, c in self.coeffs.items()}, fl)

    def truncate(self, floor: int):
        """Weaken the window: forget coefficients below the new floor."""
        if self.floor is not None and floor < self.floor:
            raise PrecisionError("cannot lower a window floor")
        return LaurentElement(self.spec, self.coeffs, floor)

    def tail_vector(self, depth: int):
        """(c_{-1}, ..., c_{-depth}) as coefficient indices."""
        return tuple(self.coeff(-k) for k in range(1, depth + 1))


def expand_rational(a: Polynomial, r: Polynomial, floor: int) -> LaurentElement:
    """The series of a/r, exact at all exponents >= floor.

    Shift so the division happens in F_q[t]: with N = max(0, -floor),
    a t^N = q0 r + rem and deg rem < deg r give a/r = q0 t^{-N} + err where
    |err| < q^{-N} <= q^{floor}; the quotient therefore carries every
    coefficient of a/r in the window."""
    _check(a, r)
    if r.is_zero():
        raise ZeroDivisionError("expansion of x/0")
    n = max(0, -floor)
    q0, _ = divmod(a.shift(n), r)
    return LaurentElement.from_poly(q0).shift(-n).truncate(floor)


def laurent_matrix(spec: FieldSpec, rows) -> LaurentMatrix:
    """The LaurentMatrix of rows of LaurentElement entries, on the window
    of their nonzero coefficients."""
    exps = [e for row in rows for el in row for e in el.coeffs]
    lo = min(exps, default=0)
    coeffs = np.zeros((len(rows), len(rows[0]), max(exps, default=0) - lo + 1),
                      dtype=np.int16)
    floors = np.full(coeffs.shape[:2], _NO_FLOOR, dtype=np.int64)
    for i, row in enumerate(rows):
        for j, el in enumerate(row):
            for e, c in el.coeffs.items():
                coeffs[i, j, e - lo] = c
            if el.floor is not None:
                floors[i, j] = el.floor
    return LaurentMatrix(spec, coeffs, lo, floors)
