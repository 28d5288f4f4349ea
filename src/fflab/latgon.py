"""Geometry of numbers over the Laurent series field K = F_q((1/t)).

A lattice here is the image of O^N, O = F_q[t], under an invertible N x N
generator matrix of Laurent elements.  Everything is exact:

  * ball counts: #{x in lattice : |x| < q^Z} is the size of an F_q-linear
    solution space of coefficient conditions, computed by rank;
  * successive minima: degree reduction of the generator columns (repeatedly
    cancel a linear dependence among the leading coefficient vectors), with
    an independent enumeration oracle that harvests whole solution spaces
    and measures their K-linear rank;
  * the special pair built from a symmetric matrix gamma,
        M_m = [[t^-m I, 0], [t^m gamma, t^m I]],
        L_m = [[t^m I, -t^m gamma], [0, t^-m I]],
    adjoint to each other (L_m^T M_m = I), whose minima exponents satisfy
    R_v + R_{2n-v+1} = 0;
  * checkers for the count-ratio decay bound (with its piecewise equality
    formula as a cross-check), the skew box count N(a,Z) at half-integral
    a and Z, its M_m sandwich, and the cape-shaped decay bound.

Minima convention: R_v is the least integer R such that v K-linearly
independent lattice vectors all have degree <= R ("closed", the default).
The "open" convention asks for |x| < q^{R_v} instead, which shifts every
exponent up by one and turns the pair symmetry into R_v + R_{2n-v+1} = 2.
Both are exposed; ball counts always use the strict |x| < q^Z.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (BudgetExceededError, ConfigError, PrecisionError,
                     VerificationFailure)
from .fields import FieldSpec
from .laurent import LaurentElement
from .linalg import poly_matrix_rank, rank_mod_q, solve_nullspace
from .polys import Polynomial

# one linear system may not exceed this many coefficient unknowns
_MAX_VARS = 1 << 14


def _ceil(x) -> int:
    return math.ceil(Fraction(x))


def _half(x, label: str) -> Fraction:
    value = Fraction(x)
    if value.denominator not in (1, 2):
        raise ConfigError(
            f"{label} must be an integer or half-integer, got {x}")
    return value


def _scale(el: LaurentElement, cidx: int) -> LaurentElement:
    """Multiply by the field element with index cidx."""
    row = el.spec.tables["mul"][cidx]
    return LaurentElement(el.spec, {e: row[c] for e, c in el.coeffs.items()},
                          el.floor)


def _as_laurent(spec: FieldSpec, value) -> LaurentElement:
    if isinstance(value, LaurentElement):
        if value.spec != spec:
            raise ConfigError("mixed field specs in lattice data")
        return value
    if isinstance(value, Polynomial):
        return LaurentElement.from_poly(value)
    raise ConfigError(f"expected a Laurent element, got {value!r}")


def laurent_det(matrix) -> LaurentElement:
    """Cofactor-expansion determinant of a small matrix of Laurent elements."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    spec = matrix[0][0].spec
    total = LaurentElement.zero(spec)
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * laurent_det(minor)
        total = total - term if j % 2 else total + term
    return total


@dataclass(frozen=True)
class MinimaProfile:
    """Successive minima exponents R_1 <= ... <= R_N (minima are q^{R_v})."""
    exponents: tuple
    convention: str

    def __post_init__(self):
        if self.convention not in ("closed", "open"):
            raise ConfigError(f"unknown minima convention {self.convention}")
        if list(self.exponents) != sorted(self.exponents):
            raise ConfigError("minima exponents must be non-decreasing")


@dataclass(frozen=True)
class LatticeCheck:
    passed: bool
    name: str
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


class FunctionFieldLattice:
    """The O-module {B u : u in O^N} for an invertible matrix B over K.

    Rows of `matrix` are coordinates; columns are the generators.  An exact
    inverse may be supplied as a degree-bound hint; it is verified against
    the generator before use, so a wrong hint raises instead of corrupting
    counts."""

    def __init__(self, spec: FieldSpec, matrix, inverse=None):
        dim = len(matrix)
        if dim == 0 or any(len(row) != dim for row in matrix):
            raise ConfigError("generator matrix must be square")
        self.spec = spec
        self.dim = dim
        self.matrix = [[_as_laurent(spec, e) for e in row] for row in matrix]
        floors = [e.floor for row in self.matrix for e in row
                  if e.floor is not None]
        self.window = min(floors) if floors else None
        self.det = laurent_det(self.matrix)
        if self.det.is_zero():
            raise ConfigError("generator matrix is singular")
        self._det_deg = self.det.degree()
        self._max_top = max(e.degree() for row in self.matrix for e in row
                            if not e.is_zero())
        self.inverse = None
        self._inv_top = None
        if inverse is not None:
            inv = [[_as_laurent(spec, e) for e in row] for row in inverse]
            self._verify_inverse(inv)
            self.inverse = inv
            self._inv_top = max(e.degree() for row in inv for e in row
                                if not e.is_zero())

    def _verify_inverse(self, inv):
        one = LaurentElement.monomial(self.spec, 0)
        for i in range(self.dim):
            for k in range(self.dim):
                acc = LaurentElement.zero(self.spec)
                for j in range(self.dim):
                    acc = acc + inv[i][j] * self.matrix[j][k]
                want = one if i == k else LaurentElement.zero(self.spec)
                if (acc - want).coeffs:
                    raise ConfigError(
                        f"inverse hint fails at entry ({i},{k})")

    # -- counting ---------------------------------------------------------------

    def unit_degree_bound(self, z_ceil: int) -> int:
        """Max possible deg u_k over {u : |B u| < q^{z_ceil}}.

        With the inverse B^-1 at hand, deg u <= top(B^-1) + deg x.  Otherwise
        Cramer: u = adj(B) x / det(B)."""
        if self._inv_top is not None:
            return self._inv_top + z_ceil - 1
        return (self.dim - 1) * self._max_top + z_ceil - 1 - self._det_deg

    def count_points(self, z) -> int:
        """#{x in lattice : |x| < q^z}; depends only on ceil(z)."""
        zc = _ceil(z)
        dbound = self.unit_degree_bound(zc)
        if dbound < 0:
            return 1
        width = dbound + 1
        nvars = self.dim * width
        if nvars > _MAX_VARS:
            raise BudgetExceededError(nvars, _MAX_VARS,
                                      "lattice count unknowns")
        rows = []
        for i in range(self.dim):
            entries = self.matrix[i]
            tops = [e.degree() for e in entries if not e.is_zero()]
            if not tops:
                continue
            for w in range(zc, max(tops) + dbound + 1):
                row = [0] * nvars
                hit = False
                for k, ent in enumerate(entries):
                    base = k * width
                    for s in range(width):
                        c = ent.coeff(w - s)
                        if c:
                            row[base + s] = c
                            hit = True
                if hit:
                    rows.append(row)
        rank = rank_mod_q(self.spec, rows) if rows else 0
        return self.spec.q ** (nvars - rank)

    # -- reduction --------------------------------------------------------------

    def reduced_basis(self):
        """Column-reduce the generators until the leading coefficient vectors
        are independent; returns (columns, sorted degrees).

        Each pass cancels one dependence among leading vectors by an
        invertible column operation, dropping the degree sum by at least one;
        the degree sum is bounded below by deg(det), so this terminates."""
        size = self.dim
        cols = [[self.matrix[i][j] for i in range(size)] for j in range(size)]

        def col_deg(j):
            col = cols[j]
            try:
                tops = [e.degree() for e in col if not e.is_zero()]
            except PrecisionError as exc:
                raise PrecisionError(
                    f"reduction pivot at column {j}: {exc}") from exc
            if not tops:
                raise ConfigError("reduction produced a zero column")
            return max(tops)

        degs = [col_deg(j) for j in range(size)]
        budget = sum(degs) - self._det_deg + 1
        while True:
            lead = [[cols[j][i].coeff(degs[j]) for j in range(size)]
                    for i in range(size)]
            combos = solve_nullspace(self.spec, lead)
            if not combos:
                order = sorted(range(size), key=degs.__getitem__)
                return [cols[j] for j in order], sorted(degs)
            combo = combos[0]
            support = [j for j in range(size) if combo[j]]
            target = max(support, key=lambda j: (degs[j], j))
            shift_to = degs[target]
            new_col = [LaurentElement.zero(self.spec) for _ in range(size)]
            for j in support:
                k = shift_to - degs[j]
                for i in range(size):
                    new_col[i] = new_col[i] + _scale(cols[j][i],
                                                     combo[j]).shift(k)
            cols[target] = new_col
            degs[target] = col_deg(target)
            budget -= 1
            if budget < 0:
                raise VerificationFailure(
                    "column reduction failed to terminate")

    def successive_minima(self, convention: str = "closed",
                          method: str = "reduce") -> MinimaProfile:
        """R_v = least R with v K-independent lattice vectors of deg <= R.

        method="reduce" reads the degrees off a reduced basis;
        method="enumerate" is the independent oracle (solution spaces of
        growing balls, K-rank by fraction-free elimination)."""
        if method == "reduce":
            _, degs = self.reduced_basis()
        elif method == "enumerate":
            degs = self._minima_by_enumeration()
        else:
            raise ConfigError(f"unknown minima method {method}")
        profile = MinimaProfile(tuple(degs), "closed")
        if convention == "open":
            profile = MinimaProfile(tuple(r + 1 for r in degs), "open")
        elif convention != "closed":
            raise ConfigError(f"unknown minima convention {convention}")
        return profile

    def _ball_vectors(self, r: int):
        """All lattice vectors of degree <= r, as polynomial coordinate rows
        (a common t-power per coordinate clears denominators; that is a
        column scaling, so K-ranks are unchanged)."""
        zc = r + 1
        dbound = self.unit_degree_bound(zc)
        if dbound < 0:
            return []
        width = dbound + 1
        nvars = self.dim * width
        rows = []
        for i in range(self.dim):
            entries = self.matrix[i]
            tops = [e.degree() for e in entries if not e.is_zero()]
            if not tops:
                continue
            for w in range(zc, max(tops) + dbound + 1):
                row = [0] * nvars
                for k, ent in enumerate(entries):
                    base = k * width
                    for s in range(width):
                        c = ent.coeff(w - s)
                        if c:
                            row[base + s] = c
                rows.append(row)
        basis = solve_nullspace(self.spec, rows) if rows else [
            [1 if v == w else 0 for w in range(nvars)] for v in range(nvars)]
        if not basis:
            return []
        vectors = []
        for vec in basis:
            coords = []
            for k in range(self.dim):
                u_k = Polynomial(self.spec, vec[k * width:(k + 1) * width])
                coords.append(u_k)
            x = []
            for i in range(self.dim):
                acc = LaurentElement.zero(self.spec)
                for k in range(self.dim):
                    acc = acc + self.matrix[i][k] * LaurentElement.from_poly(
                        coords[k])
                x.append(acc)
            vectors.append(x)
        shifts = []
        for i in range(self.dim):
            lows = [min(v[i].coeffs) for v in vectors if v[i].coeffs]
            shifts.append(max(0, -min(lows)) if lows else 0)
        out = []
        for x in vectors:
            row = []
            for i, el in enumerate(x):
                coeffs = [0] * (max(el.coeffs, default=-1) + shifts[i] + 1)
                for e, c in el.coeffs.items():
                    coeffs[e + shifts[i]] = c
                row.append(Polynomial(self.spec, coeffs))
            out.append(row)
        return out

    def _minima_by_enumeration(self):
        size = self.dim
        if self._inv_top is not None:
            low = -self._inv_top
        else:
            low = self._det_deg - max(0, (size - 1) * self._max_top)
        degs = []
        found = 0
        r = low
        while found < size:
            if r > self._max_top:
                raise ConfigError(
                    "enumeration overran the generator degree bound")
            vectors = self._ball_vectors(r)
            rank = poly_matrix_rank(vectors) if vectors else 0
            while found < rank:
                degs.append(r)
                found += 1
            r += 1
        return degs


def diagonal_lattice(spec: FieldSpec, exponents) -> FunctionFieldLattice:
    """Lattice generated by t^{e_1}, ..., t^{e_N} on the axes."""
    size = len(exponents)
    rows = [[LaurentElement.monomial(spec, exponents[i]) if i == j
             else LaurentElement.zero(spec) for j in range(size)]
            for i in range(size)]
    inv = [[LaurentElement.monomial(spec, -exponents[i]) if i == j
            else LaurentElement.zero(spec) for j in range(size)]
           for i in range(size)]
    return FunctionFieldLattice(spec, rows, inverse=inv)


def _coerce_gamma(spec: FieldSpec, gamma):
    n = len(gamma)
    if any(len(row) != n for row in gamma):
        raise ConfigError("gamma must be square")
    mat = [[_as_laurent(spec, e) for e in row] for row in gamma]
    for i in range(n):
        for j in range(i + 1, n):
            if (mat[i][j] - mat[j][i]).coeffs:
                raise ConfigError(f"gamma is not symmetric at ({i},{j})")
    return mat


class SpecialLatticePair:
    """The adjoint pair of 2n x 2n lattices built from a symmetric gamma.

    M_m expands the first block of coordinates by t^-m and contracts the
    second by t^m after shearing with gamma; L_m undoes it.  The adjoint
    identity L_m^T M_m = I is verified on construction, so both lattices
    carry certified inverses."""

    def __init__(self, spec: FieldSpec, gamma, m: int):
        if not isinstance(m, int) or m < 1:
            raise ConfigError(f"block scale m must be a positive integer, "
                              f"got {m}")
        self.spec = spec
        self.m = m
        self.gamma = _coerce_gamma(spec, gamma)
        n = len(self.gamma)
        self.n = n
        zero = LaurentElement.zero(spec)
        t_neg = LaurentElement.monomial(spec, -m)
        t_pos = LaurentElement.monomial(spec, m)
        size = 2 * n
        m_rows = [[zero] * size for _ in range(size)]
        l_rows = [[zero] * size for _ in range(size)]
        for i in range(n):
            m_rows[i][i] = t_neg
            m_rows[n + i][n + i] = t_pos
            l_rows[i][i] = t_pos
            l_rows[n + i][n + i] = t_neg
            for j in range(n):
                m_rows[n + i][j] = t_pos * self.gamma[i][j]
                l_rows[i][n + j] = -(t_pos * self.gamma[i][j])
        self._m_rows = m_rows
        self._l_rows = l_rows
        report = self.check_duality()
        if not report.passed:
            raise ConfigError(
                f"adjoint identity fails: {report.details}")
        l_t = [[l_rows[j][i] for j in range(size)] for i in range(size)]
        m_t = [[m_rows[j][i] for j in range(size)] for i in range(size)]
        self.m_lattice = FunctionFieldLattice(spec, m_rows, inverse=l_t)
        self.adjoint_lattice = FunctionFieldLattice(spec, l_rows, inverse=m_t)

    def check_duality(self) -> LatticeCheck:
        """L_m^T M_m = I, entry by entry, on the joint window."""
        size = 2 * self.n
        one = LaurentElement.monomial(self.spec, 0)
        bad = []
        for i in range(size):
            for k in range(size):
                acc = LaurentElement.zero(self.spec)
                for j in range(size):
                    acc = acc + self._l_rows[j][i] * self._m_rows[j][k]
                want = one if i == k else LaurentElement.zero(self.spec)
                if (acc - want).coeffs:
                    bad.append((i, k))
        return LatticeCheck(not bad, "adjoint-identity",
                            {"dim": size, "bad_entries": bad})

    def minima(self, which: str = "M", convention: str = "closed",
               method: str = "reduce") -> MinimaProfile:
        if which == "M":
            return self.m_lattice.successive_minima(convention, method)
        if which == "adjoint":
            return self.adjoint_lattice.successive_minima(convention, method)
        raise ConfigError(f"unknown lattice selector {which}")

    def check_minima_symmetry(self, convention: str = "closed",
                              method: str = "reduce") -> LatticeCheck:
        """R_v + R_{2n-v+1} = 0 (closed) or = 2 (open), v = 1..n."""
        profile = self.minima("M", convention, method)
        exps = profile.exponents
        target = 0 if convention == "closed" else 2
        sums = tuple(exps[v - 1] + exps[2 * self.n - v]
                     for v in range(1, self.n + 1))
        return LatticeCheck(all(s == target for s in sums),
                            "minima-symmetry",
                            {"exponents": exps, "sums": sums,
                             "target": target, "convention": convention})


def check_ratio_lemma(pair: SpecialLatticePair, z1: int, z2: int,
                      method: str = "reduce") -> LatticeCheck:
    """Ball-count decay for M_m: counts at z1 <= z2 <= 0 satisfy
    M(z1)/M(z2) >= q^{n(z1-z2)}.

    Also cross-checks the exact piecewise value of the ratio predicted by
    the minima (with mu = #{j : R_j < z1}, nu = #{j : R_j < z2}, the ratio
    is q^{sum(R_{mu+1..nu}) + mu z1 - nu z2}), and that each count equals
    q^{sum_j max(0, z - R_j)}."""
    if not (isinstance(z1, int) and isinstance(z2, int)):
        raise ConfigError("ratio lemma thresholds must be integers")
    if not z1 <= z2 <= 0:
        raise ConfigError(f"need z1 <= z2 <= 0, got {z1}, {z2}")
    lat = pair.m_lattice
    c1 = lat.count_points(z1)
    c2 = lat.count_points(z2)
    q = pair.spec.q
    n = pair.n
    ratio = Fraction(c1, c2)
    bound = Fraction(q) ** (n * (z1 - z2))
    exps = lat.successive_minima("closed", method).exponents
    mu = sum(1 for r in exps if r < z1)
    nu = sum(1 for r in exps if r < z2)
    if nu == 0:
        case = "both-below-first-minimum"
    elif mu == 0:
        case = "straddles-first-minimum"
    else:
        case = "both-above-first-minimum"
    predicted_ratio = Fraction(q) ** (sum(exps[mu:nu]) + mu * z1 - nu * z2)
    pred1 = q ** sum(max(0, z1 - r) for r in exps)
    pred2 = q ** sum(max(0, z2 - r) for r in exps)
    passed = (ratio >= bound and ratio == predicted_ratio
              and c1 == pred1 and c2 == pred2)
    return LatticeCheck(passed, "count-ratio", {
        "z1": z1, "z2": z2, "count1": c1, "count2": c2,
        "bound_exponent": n * (z1 - z2), "case": case,
        "ratio_matches_formula": ratio == predicted_ratio,
        "counts_match_minima": (c1 == pred1, c2 == pred2)})


def count_NaZ(spec: FieldSpec, gamma, a, z) -> int:
    """#{(u, u') in O^n x O^n : |u_j| < q^{a+z},
                                |L_j(u) + u'_j| < q^{z-a} for all j},
    where L_j(u) = sum_k gamma[j][k] u_k.

    a and z may be half-integers; every threshold enters through a single
    ceiling, i.e. through comparisons of doubled integer exponents."""
    gamma = _coerce_gamma(spec, gamma)
    a = _half(a, "a")
    z = _half(z, "z")
    n = len(gamma)
    d1 = _ceil(a + z) - 1
    v2 = _ceil(z - a)
    tops = [g.degree() for row in gamma for g in row if not g.is_zero()]
    gtop = max(tops) if tops else None
    if gtop is not None and d1 >= 0:
        ltop = gtop + d1
    else:
        ltop = v2 - 1
    d2 = max(v2 - 1, ltop)
    w1 = max(0, d1 + 1)
    w2 = max(0, d2 + 1)
    nvars = n * (w1 + w2)
    if nvars > _MAX_VARS:
        raise BudgetExceededError(nvars, _MAX_VARS,
                                  "skew box count unknowns")
    rows = []
    for j in range(n):
        for w in range(v2, d2 + 1):
            row = [0] * nvars
            hit = False
            for k in range(n):
                ent = gamma[j][k]
                base = k * w1
                for s in range(w1):
                    c = ent.coeff(w - s)
                    if c:
                        row[base + s] = c
                        hit = True
            if 0 <= w < w2:
                row[n * w1 + j * w2 + w] = 1
                hit = True
            if hit:
                rows.append(row)
    rank = rank_mod_q(spec, rows) if rows else 0
    return spec.q ** (nvars - rank)


def check_sandwich(spec: FieldSpec, gamma, a, z) -> LatticeCheck:
    """M_m(z - {a}) <= N(a, z) <= M_m(z + {a}) with m = floor(a)."""
    a = _half(a, "a")
    z = _half(z, "z")
    m = math.floor(a)
    if m < 1:
        raise ConfigError(f"sandwich needs a >= 1, got {a}")
    frac = a - m
    pair = SpecialLatticePair(spec, gamma, m)
    lower = pair.m_lattice.count_points(z - frac)
    mid = count_NaZ(spec, gamma, a, z)
    upper = pair.m_lattice.count_points(z + frac)
    return LatticeCheck(lower <= mid <= upper, "skew-box-sandwich", {
        "a": str(a), "z": str(z), "m": m,
        "lower": lower, "middle": mid, "upper": upper})


def check_cape(spec: FieldSpec, gamma, a, z1, z2) -> LatticeCheck:
    """N(a, z1)/N(a, z2) >= q^{nK}, K = ceil(z1 - {a}) - ceil(z2 + {a}),
    for z1 <= z2 <= 0."""
    a = _half(a, "a")
    z1 = _half(z1, "z1")
    z2 = _half(z2, "z2")
    if not z1 <= z2 <= 0:
        raise ConfigError(f"need z1 <= z2 <= 0, got {z1}, {z2}")
    frac = a - math.floor(a)
    count1 = count_NaZ(spec, gamma, a, z1)
    count2 = count_NaZ(spec, gamma, a, z2)
    cape = _ceil(z1 - frac) - _ceil(z2 + frac)
    n = len(gamma)
    bound = Fraction(spec.q) ** (n * cape)
    return LatticeCheck(Fraction(count1, count2) >= bound, "cape-decay", {
        "a": str(a), "z1": str(z1), "z2": str(z2), "K": cape,
        "count1": count1, "count2": count2,
        "bound_exponent": n * cape})


def random_symmetric_gamma(spec: FieldSpec, n: int, seed: int,
                           lo: int = -3, hi: int = 3):
    """Deterministic symmetric n x n matrix with entry support in [lo, hi]."""
    rng = random.Random(seed)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            coeffs = {e: rng.randrange(spec.q) for e in range(lo, hi + 1)}
            el = LaurentElement(spec, coeffs)
            out[i][j] = el
            out[j][i] = el
    return out


def gamma_from_problem(prob, alpha, fixed_vectors):
    """The symmetric matrix of the bilinear slice of alpha * Psi.

    fixed_vectors: d-2 vectors of n polynomials each; the (i,k) entry is
    alpha * Psi_i(fixed..., e_k), a Laurent element (exact when alpha is)."""
    spec = prob.spec
    if not isinstance(alpha, LaurentElement):
        alpha = LaurentElement.from_tail(spec, alpha)
    mat = prob.form.multilinear().coefficient_matrix(list(fixed_vectors))
    return [[alpha * LaurentElement.from_poly(p) for p in row]
            for row in mat]
