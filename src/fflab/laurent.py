"""Laurent series in 1/t over F_q, with explicit precision windows.

An element sum a_k t^k (k bounded above, extending downward) is stored as a
sparse map {exponent: coefficient index} together with a window floor:

  floor = None   all coefficients are known (finitely many nonzero, exact);
  floor = f      coefficients at exponents >= f are known exactly, the tail
                 below f is undetermined (each such element stands for a ball
                 of radius q^{f} around the known part).

Reading a coefficient below the floor raises PrecisionError instead of
silently returning 0.  Arithmetic propagates floors pessimistically, so a
computed coefficient is always a true coefficient of the exact value.

Absolute value: |x| = q^{deg x} with deg the largest exponent carrying a
nonzero coefficient, |0| = 0.
"""

from __future__ import annotations

from .errors import PrecisionError
from .fields import FieldSpec
from .polys import Polynomial

_NEG_INF = None  # exact elements have no floor


class LaurentElement:
    __slots__ = ("spec", "coeffs", "floor")

    def __init__(self, spec: FieldSpec, coeffs, floor=None):
        cs = {}
        for e, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            if c:
                if floor is not None and e < floor:
                    continue
                cs[int(e)] = int(c)
        self.spec = spec
        self.coeffs = cs
        self.floor = floor

    # -- construction -----------------------------------------------------------

    @classmethod
    def zero(cls, spec, floor=None):
        return cls(spec, {}, floor)

    @classmethod
    def monomial(cls, spec, exp: int, coeff=1):
        return cls(spec, {exp: spec.element(coeff).idx})

    @classmethod
    def from_poly(cls, poly: Polynomial):
        return cls(poly.spec, {k: c for k, c in enumerate(poly.coeffs)})

    @classmethod
    def from_tail(cls, spec, tail, floor=None):
        """tail = (c_{-1}, c_{-2}, ...) as coefficient indices; by default the
        element is exact (zero below the given coefficients)."""
        return cls(spec, {-(i + 1): c for i, c in enumerate(tail)}, floor)

    # -- coefficient access ---------------------------------------------------------

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

    def degree(self) -> int:
        """deg of the exact value.  Raises if the window cannot decide it."""
        if self.coeffs:
            return max(self.coeffs)
        if self.floor is None:
            raise ValueError("zero element has no degree")
        raise PrecisionError("degree hidden below the window floor")

    def is_zero(self) -> bool:
        """Exactly zero.  Raises if only 'zero to within the window' is known."""
        if self.coeffs:
            return False
        if self.floor is None:
            return True
        raise PrecisionError("vanishing is undecidable at this window")

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("mixed fields")

    @staticmethod
    def _merge_floor(fa, fb):
        if fa is None:
            return fb
        if fb is None:
            return fa
        return max(fa, fb)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = LaurentElement.from_poly(other)
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._check(other)
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

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            other = LaurentElement.from_poly(other)
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = LaurentElement.from_poly(other)
        if isinstance(other, int):
            other = LaurentElement(self.spec, {0: self.spec.element(other).idx})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._check(other)
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

    __rmul__ = __mul__

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

    # -- structure ----------------------------------------------------------------

    def tail_vector(self, depth: int):
        """(c_{-1}, ..., c_{-depth}) as coefficient indices."""
        return tuple(self.coeff(-k) for k in range(1, depth + 1))

    def residue(self) -> int:
        """Coefficient index at t^{-1}."""
        return self.coeff(-1)

    def __eq__(self, other):
        return (isinstance(other, LaurentElement) and self.spec == other.spec
                and self.floor == other.floor and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.floor, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            body = " + ".join(f"{c}*t^{e}"
                              for e, c in sorted(self.coeffs.items(),
                                                 reverse=True))
        tail = "" if self.floor is None else f" + O(t^{self.floor - 1})"
        return f"<{body}{tail}>"


def expand_rational(a: Polynomial, r: Polynomial, floor: int) -> LaurentElement:
    """The series of a/r, exact at all exponents >= floor.

    Shift so the division happens in F_q[t]: with N = max(0, -floor),
    a t^N = q0 r + rem and deg rem < deg r give a/r = q0 t^{-N} + err where
    |err| < q^{-N} <= q^{floor}; the quotient therefore carries every
    coefficient of a/r in the window."""
    if a.spec != r.spec:
        raise ValueError("mixed fields")
    if r.is_zero():
        raise ZeroDivisionError("expansion of x/0")
    n = max(0, -floor)
    q0, _ = divmod(a.shift(n), r)
    return LaurentElement.from_poly(q0).shift(-n).truncate(floor)
