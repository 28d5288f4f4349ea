"""Circle-method engine over F_q((1/t)).

The counting problem: vectors x in F_q[t]^n with deg x_i <= e, weighted by
the indicator of that box, against a degree-d form F.  With P = t^{e+1} the
unit interval T = {|alpha| < 1} carries the orthogonality identity

    N(P) = #{x in box : F(x) = 0} = integral over T of S(alpha),
    S(alpha) = sum over box of psi(alpha F(x)).

The integral is evaluated EXACTLY: T is partitioned into Farey arcs around
a/r (r monic, |r| <= Qhat = q^{d(e+1)/2}, |a| < |r|, gcd(a,r) = 1, ball
|theta| < |r|^{-1} Qhat^{-1}), and each arc integral is a finite average of
S over theta representatives at character depth B = de+1:  S(alpha) only
depends on the coefficients of alpha at t^{-1},...,t^{-B} because
deg(F(x)) <= de.  Everything lands in Z[zeta_p], compared bit-exactly.

The sum S is computed through the phase distribution D(c) = #{x in box :
coeffs(F(x)) = c}, built once per problem by the vectorized box kernel
(forms.BoxKernel).  The scalar loops over box points remain only in the
oracles: the plain direct summation of S and the brute-force root count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CyclotomicValue
from .errors import BudgetExceededError, ConfigError
from .fields import FieldSpec
from .forms import BoxKernel, HypersurfaceForm
from .laurent import LaurentElement, expand_rational
from .polys import Polynomial, poly_gcd


@dataclass(frozen=True)
class ArcPoint:
    """One Farey arc: the ball {a/r + theta : |theta| <= q^{-y-1}}...
    precisely {alpha : coeffs of alpha - a/r at t^{-1}..t^{-y} vanish},
    of measure q^{-y}."""
    r: Polynomial
    a: Polynomial
    y: int

    @property
    def deg_r(self) -> int:
        return self.r.degree()

    def measure(self, q: int) -> Fraction:
        return Fraction(1, q ** self.y)

    def label(self) -> str:
        return f"r={self.r!r};a={self.a!r}"


@dataclass(frozen=True)
class AtomSum:
    """One quadrature atom: a depth-B theta representative inside an arc."""
    arc: ArcPoint
    theta_tail: tuple
    value: CyclotomicValue
    weight: Fraction
    kind: str  # "major" or "minor"


class CountingProblem:
    def __init__(self, spec: FieldSpec, form: HypersurfaceForm, e: int,
                 budget: int = 10 ** 9):
        if e < 1:
            raise ConfigError("curve degree e must be >= 1")
        if spec != form.spec:
            raise ConfigError("form and field spec disagree")
        if spec.p <= form.d:
            raise ConfigError("characteristic must exceed the degree")
        self.spec = spec
        self.form = form
        self.e = e
        self.n = form.n
        self.d = form.d
        self.box = e + 1                      # coefficients per coordinate
        self.char_depth = form.d * e + 1      # B: tail depth seen by S
        self.arc_floor = (form.d * (e + 1)) // 2   # floor of Q = d(e+1)/2
        self.mu_affine = (form.n - form.d) * e + form.n - 2
        self.mu_hat = self.mu_affine + 1
        # the major ball q^{-de-1} is strictly inside the r=1 arc ball
        assert self.char_depth > self.arc_floor
        self.budget = budget
        self.budget_spent = 0
        self._distribution = None
        self._sum_table = None

    # -- bookkeeping -------------------------------------------------------------

    def _charge(self, cost: int, what: str):
        if self.budget_spent + cost > self.budget:
            raise BudgetExceededError(cost, self.budget - self.budget_spent,
                                      what)
        self.budget_spent += cost

    @property
    def P(self) -> Polynomial:
        return Polynomial(self.spec, (0,) * (self.e + 1) + (1,))

    # -- enumeration helpers -----------------------------------------------------

    def box_vectors(self):
        """All x in the box: n coordinates, each a poly with <= e+1 coeffs."""
        spec = self.spec
        coords = itertools.product(range(spec.q), repeat=self.box)
        polys = [Polynomial(spec, cs) for cs in coords]
        return itertools.product(polys, repeat=self.n)

    def monic_polys(self, deg: int):
        spec = self.spec
        for cs in itertools.product(range(spec.q), repeat=deg):
            yield Polynomial(spec, tuple(cs) + (1,))

    def coprime_residues(self, r: Polynomial):
        """All a with |a| < |r| and gcd(a, r) = 1; a = 0 for r = 1."""
        if r.degree() == 0:
            yield Polynomial.zero(self.spec)
            return
        spec = self.spec
        for cs in itertools.product(range(spec.q), repeat=r.degree()):
            a = Polynomial(spec, cs)
            if a.is_zero():
                continue
            if poly_gcd(a, r).is_one():
                yield a

    # -- dissection ----------------------------------------------------------------

    def dissect(self):
        """Stream every arc of the Farey dissection of T."""
        for deg in range(self.arc_floor + 1):
            y = deg + self.arc_floor
            for r in self.monic_polys(deg):
                for a in self.coprime_residues(r):
                    yield ArcPoint(r, a, y)

    def arc_tail(self, arc: ArcPoint) -> tuple:
        """Depth-B tail of a/r."""
        exp = expand_rational(arc.a, arc.r, -self.char_depth)
        return exp.tail_vector(self.char_depth)

    def alpha_from_arc(self, arc: ArcPoint, theta_tail=(),
                       depth: int = None) -> LaurentElement:
        """a/r + theta as a window-floored Laurent element."""
        depth = self.char_depth if depth is None else depth
        alpha = expand_rational(arc.a, arc.r, -depth)
        if any(theta_tail):
            alpha = alpha + LaurentElement.from_tail(self.spec, theta_tail)
        return alpha.truncate(-depth)

    # -- the exponential sum -----------------------------------------------------

    def phase_distribution(self):
        """D: coefficient tuple of F(x) (length B) -> #x.  Built once, by
        the box kernel: per block, the distinct keys of the coefficient
        vectors with their counts, merged over blocks at the end."""
        if self._distribution is None:
            self._charge(self.spec.q ** (self.box * self.n),
                         "phase distribution build")
            kernel = BoxKernel(self.form, self.e)
            blocks = [np.unique(kernel.encode(images), return_counts=True)
                      for _, images in kernel.box()]
            keys, where = np.unique(np.concatenate([k for k, _ in blocks]),
                                    return_inverse=True)
            counts = np.zeros(len(keys), dtype=np.int64)
            np.add.at(counts, where, np.concatenate([c for _, c in blocks]))
            q = self.spec.q
            digits = keys[:, None] // q ** np.arange(self.char_depth) % q
            self._distribution = dict(zip(map(tuple, digits.tolist()),
                                          counts.tolist()))
        return self._distribution

    def exp_sum(self, alpha, method: str = "table") -> CyclotomicValue:
        """S(alpha).  alpha is a LaurentElement exact to depth B, or a
        depth-B tail tuple.  method='direct' is the plain double loop kept
        as an oracle; 'table' goes through the phase distribution."""
        tail = (alpha if isinstance(alpha, tuple)
                else alpha.tail_vector(self.char_depth))
        if method == "direct":
            return self._exp_sum_direct(tail)
        if method != "table":
            raise ValueError(f"unknown method {method!r}")
        if self._sum_table is not None:
            return self._sum_table[tail]
        return self._sum_from_distribution(tail)

    def _exp_sum_direct(self, tail: tuple) -> CyclotomicValue:
        spec = self.spec
        self._charge(spec.q ** (self.box * self.n), "direct S evaluation")
        mul, add, trace = (spec.tables["mul"], spec.tables["add"],
                           spec.tables["trace"])
        hist = [0] * spec.p
        for x in self.box_vectors():
            v = self.form.eval_form(list(x))
            res = 0
            for k, c in enumerate(v.coeffs):
                if c:
                    res = add[res][mul[c][tail[k]]]
            hist[trace[res]] += 1
        return CyclotomicValue.from_histogram(spec.p, hist)

    def _sum_from_distribution(self, tail: tuple) -> CyclotomicValue:
        spec = self.spec
        mul, add, trace = (spec.tables["mul"], spec.tables["add"],
                           spec.tables["trace"])
        hist = [0] * spec.p
        for key, cnt in self.phase_distribution().items():
            res = 0
            for c, a in zip(key, tail):
                if c and a:
                    res = add[res][mul[c][a]]
            hist[trace[res]] += cnt
        return CyclotomicValue.from_histogram(spec.p, hist)

    def tail_index(self, tail: tuple) -> int:
        q = self.spec.q
        idx = 0
        for c in reversed(tail):
            idx = idx * q + c
        return idx

    def sum_table(self):
        """S on every depth-B tail, as {tail tuple: CyclotomicValue}."""
        if self._sum_table is not None:
            return self._sum_table
        spec = self.spec
        q, p, B = spec.q, spec.p, self.char_depth
        dist = self.phase_distribution()
        self._charge(len(dist) * q ** B, "sum table build")
        np_mul = spec.tables["np_mul"]
        np_add = spec.tables["np_add"]
        np_trace = spec.tables["np_trace"]
        sup = np.array(list(dist.keys()), dtype=np.int16)
        counts = np.array(list(dist.values()), dtype=np.int64)
        total = q ** B
        tails = np.empty((total, B), dtype=np.int16)
        ar = np.arange(total)
        for j in range(B):
            tails[:, j] = (ar // q ** j) % q
        table = {}
        chunk = max(1, min(total, (1 << 23) // max(1, len(sup))))
        for start in range(0, total, chunk):
            tblock = tails[start:start + chunk]
            acc = np.zeros((tblock.shape[0], len(sup)), dtype=np.int16)
            for j in range(B):
                acc = np_add[acc, np_mul[tblock[:, j:j + 1], sup[None, :, j]]]
            tr = np_trace[acc]
            hists = np.empty((tblock.shape[0], p), dtype=np.int64)
            for v in range(p):
                hists[:, v] = (tr == v) @ counts
            for i in range(tblock.shape[0]):
                tail = tuple(int(c) for c in tblock[i])
                table[tail] = CyclotomicValue.from_histogram(
                    p, [int(h) for h in hists[i]])
        self._sum_table = table
        return table

    # -- quadrature ----------------------------------------------------------------

    def arc_atoms(self, arc: ArcPoint):
        """The quadrature atoms of one arc, with exact values and weights."""
        spec = self.spec
        B = self.char_depth
        base = self.arc_tail(arc)
        add = spec.tables["add"]
        if arc.y >= B:
            # S is constant on the whole arc: one atom, theta rep 0
            kind = self._atom_kind(arc, (0,) * B)
            yield AtomSum(arc, (0,) * B, self.exp_sum(base),
                          Fraction(1, spec.q ** arc.y), kind)
            return
        weight = Fraction(1, spec.q ** B)
        for free in itertools.product(range(spec.q), repeat=B - arc.y):
            theta = (0,) * arc.y + free
            tail = tuple(add[b][t] for b, t in zip(base, theta))
            yield AtomSum(arc, theta, self.exp_sum(tail), weight,
                          self._atom_kind(arc, theta))

    def _atom_kind(self, arc: ArcPoint, theta_tail: tuple) -> str:
        """Major means r = 1 and |theta| < q^{-de-1}: the zero depth-B tail."""
        if arc.deg_r == 0 and not any(theta_tail):
            return "major"
        return "minor"

    def integrate_arc(self, arc: ArcPoint) -> CyclotomicValue:
        """Exact arc integral of S, as an element of Q(zeta_p)."""
        total = CyclotomicValue.zero(self.spec.p)
        for atom in self.arc_atoms(arc):
            total = total + atom.value * atom.weight
        return total

    def dissection_total(self) -> CyclotomicValue:
        """Sum of all arc integrals; equals N(P) when everything is exact."""
        self.sum_table()
        total = CyclotomicValue.zero(self.spec.p)
        for arc in self.dissect():
            total = total + self.integrate_arc(arc)
        return total

    def major_total(self) -> CyclotomicValue:
        """Contribution of the major atoms (r = 1, |theta| < q^{-de-1})."""
        total = CyclotomicValue.zero(self.spec.p)
        for arc in self.dissect():
            if arc.deg_r != 0:
                continue
            for atom in self.arc_atoms(arc):
                if atom.kind == "major":
                    total = total + atom.value * atom.weight
        return total

    def minor_total(self) -> CyclotomicValue:
        return self.dissection_total() - self.major_total()

    # -- the independent count ------------------------------------------------------

    def brute_count(self) -> int:
        """#{x in box : F(x) = 0} by direct enumeration (includes x = 0)."""
        self._charge(self.spec.q ** (self.box * self.n), "brute-force count")
        count = 0
        for x in self.box_vectors():
            if self.form.eval_form(list(x)).is_zero():
                count += 1
        return count
