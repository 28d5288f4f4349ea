"""Univariate polynomials over F_q and homogeneous binary forms.

Polynomials are immutable tuples of element indices, low degree first, with
no trailing zeros; the zero polynomial is the empty tuple and reports degree
-1.  Binary forms of degree e carry exactly e+1 coefficients (index i is the
coefficient of u^i v^{e-i}); the zero form is allowed.
"""

from __future__ import annotations

from .fields import FieldElement, FieldSpec


class Polynomial:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    # -- construction ---------------------------------------------------------

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

    @classmethod
    def constant(cls, spec, value):
        return cls(spec, (spec.element(value).idx,))

    # -- structure -------------------------------------------------------------

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def coeff(self, k: int) -> int:
        """Coefficient index at degree k (0 outside the support)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("mixed fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        add = self.spec.tables["add"]
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.spec,
                          [add[self.coeff(k)][other.coeff(k)] for k in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        sub = self.spec.tables["sub"]
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.spec,
                          [sub[self.coeff(k)][other.coeff(k)] for k in range(n)])

    def __neg__(self):
        neg = self.spec.tables["neg"]
        return Polynomial(self.spec, [neg[c] for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale_idx(other.idx)
        if isinstance(other, int):
            return self.scale_idx(self.spec.element(other).idx)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.spec)
        mul = self.spec.tables["mul"]
        add = self.spec.tables["add"]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            row = mul[a]
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = add[out[i + j]][row[b]]
        return Polynomial(self.spec, out)

    __rmul__ = __mul__

    def scale_idx(self, k: int):
        """Multiply by the field scalar with index k."""
        if k == 0:
            return Polynomial.zero(self.spec)
        mul = self.spec.tables["mul"]
        return Polynomial(self.spec, [mul[k][c] for c in self.coeffs])

    def zero_like(self):
        return Polynomial.zero(self.spec)

    def shift(self, k: int):
        """Multiply by t^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Polynomial(self.spec, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

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

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            cs = "" if (c == 1 and k > 0) else str(c)
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{cs}t")
            else:
                parts.append(f"{cs}t^{k}")
        return " + ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd.  gcd(0, 0) is undefined and raises."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("mixed fields")

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        self._check(other)
        if self.e != other.e:
            raise ValueError("cannot add forms of different degrees")
        add = self.spec.tables["add"]
        return BinaryForm(self.spec, self.e,
                          [add[a][b] for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        neg = self.spec.tables["neg"]
        return BinaryForm(self.spec, self.e, [neg[c] for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale_idx(other.idx)
        if isinstance(other, int):
            return self.scale_idx(self.spec.element(other).idx)
        if not isinstance(other, BinaryForm):
            return NotImplemented
        self._check(other)
        mul, add = self.spec.tables["mul"], self.spec.tables["add"]
        out = [0] * (self.e + other.e + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            row = mul[a]
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = add[out[i + j]][row[b]]
        return BinaryForm(self.spec, self.e + other.e, out)

    __rmul__ = __mul__

    def scale_idx(self, k: int):
        mul = self.spec.tables["mul"]
        return BinaryForm(self.spec, self.e, [mul[k][c] for c in self.coeffs])

    def zero_like(self):
        return BinaryForm.zero(self.spec, self.e)

    def __call__(self, u, v):
        u, v = self.spec.element(u), self.spec.element(v)
        acc = self.spec.zero
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + self.spec.from_index(c) * u ** i * v ** (self.e - i)
        return acc

    def dehomogenize(self) -> Polynomial:
        """Set v = 1: the polynomial sum c_i x^i."""
        return Polynomial(self.spec, self.coeffs)

    def to_poly_in_t(self) -> Polynomial:
        """Identify the form with the boxed polynomial f(t, 1) of degree <= e."""
        return self.dehomogenize()

    @classmethod
    def from_poly_in_t(cls, poly: Polynomial, e: int):
        if poly.degree() > e:
            raise ValueError("polynomial degree exceeds the form degree")
        cs = list(poly.coeffs) + [0] * (e + 1 - len(poly.coeffs))
        return cls(poly.spec, e, cs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and self.spec == other.spec
                and self.e == other.e and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.e, self.coeffs))

    def __repr__(self):
        return f"BinaryForm(e={self.e}, {list(self.coeffs)})"
