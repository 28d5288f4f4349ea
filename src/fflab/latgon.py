"""Geometry of numbers over the Laurent series field K = F_q((1/t)).

A lattice here is the image of O^N, O = F_q[t], under an invertible N x N
generator matrix over K.  Everything is exact.  A matrix is held as one
int16 array (rows, cols, W) of field indices, the t-coefficients of every
entry on one exponent window, with the exponent of the window's first
coefficient and a floor per entry (LaurentMatrix).  It is the only matrix
input the module takes, for generators, inverse hints and gammas alike.
A matrix may be a read-only view of a stack (B, rows, cols, W) that knows
the stack and its row (_views), and views of one stack are gathered by
one index: random_symmetric_gammas draws a whole suite of gammas into one
stack, and a suite's generators are one stack.  Every gamma is checked
square and symmetric on its known coefficients; the check of a set of
views of one stack is made once and kept on the stack.  Each quantity has
one fast route, a kernel batched over as many matrices as the caller
hands it, and one oracle:

  * products of Laurent matrices are table-driven convolutions; they
    certify inverse hints and the adjoint identity L_m^T M_m = I;
  * successive minima: the generator columns are reduced until their
    leading coefficient vectors are independent, the leading-coefficient
    (weak Popov) step of Mulders and Storjohann, "On lattice reduction for
    polynomial matrices", J. Symbolic Comput. 35 (2003).  Each pass
    cancels one dependence per lattice, a nullspace vector of its leading
    coefficient matrix.  reduce_lattices returns the sorted column
    degrees, one tuple per lattice, and keeps them on the lattice, so each
    lattice is reduced once.  The oracle,
    minima_by_enumeration, never reduces: it takes the whole solution
    space of growing balls and measures its K-linear rank by definition,
    evaluating the polynomial basis at more points of F_q (or of an
    extension) than any nonzero minor of it has roots;
  * ball counts #{x in lattice : |x| < q^Z} and the skew box counts
    N(a, Z) are sizes of F_q-linear solution spaces of Toeplitz
    coefficient systems; all systems of one call are ranked together by
    batched_rank, each distinct one once.  Each system is charged to the
    caller's Budget before it is built, its elimination work
    max(rows, unknowns) unknowns^2 (_charge_system); a task charges one
    Budget, made from [run] budget, for all its systems;
  * the special pair built from a symmetric matrix gamma,
        M_m = [[t^-m I, 0], [t^m gamma, t^m I]],
        L_m = [[t^m I, -t^m gamma], [0, t^-m I]],
    adjoint to each other (L_m^T M_m = I), whose minima exponents satisfy
    R_v + R_{2n-v+1} = 0; a suite of pairs is one stack of generators,
    scattered from the stacked gammas and certified by one product;
  * gamma counts only mod O.  For a polynomial matrix P,
    M_m(gamma) [[I, 0], [-P, I]] = M_m(gamma - P) and
    L_m(gamma) [[I, P], [0, I]] = L_m(gamma - P), with right factors in
    GL_2n(O), so the lattices are the same; and u' -> u' + P u is a
    bijection of O^n in N(a, Z).  _check_gammas checks symmetry on the
    whole gamma, then drops the polynomial part of every exact gamma, and
    pairs and skew systems are built from that stack.  A gamma with a
    windowed entry keeps its polynomial part (P = 0): an entry known only
    at t^>=0 would lose its decidable vanishing;
  * checkers for the count-ratio decay bound (with its piecewise equality
    formula as a cross-check), the skew box count N(a,Z) at half-integral
    a and Z, its M_m sandwich, and the cape-shaped decay bound, each
    taking a whole suite of instances at once.  A half-integral threshold
    is a doubled integer, and count1/count2 >= q^k is decided on integers.

Precision stays explicit: an entry known only down to a floor stores 0
below it, and reading a coefficient there, or deciding the vanishing of
an entry whose known part is 0, raises PrecisionError.

Minima: R_v is the least integer R such that v K-linearly independent
lattice vectors all have degree <= R (the closed convention), as
reduce_lattices and minima_by_enumeration return it.  The open
convention, |x| < q^{R_v}, is the relabeling R_v + 1, with pair symmetry
R_v + R_{2n-v+1} = 2; the lattice-minima report carries it as
symmetry_open.  Ball counts always use the strict |x| < q^Z.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .errors import (Budget, ConfigError, InequalityReport, PrecisionError,
                     VerificationFailure)
from .fields import FieldSpec
from .forms import _flat_tables
from .linalg import batched_nullspace, batched_poly_rank, batched_rank

# one stack handed to a batched kernel holds at most this many int16 cells
_STACK_CELLS = 1 << 20
# the floor of an exact entry, and the degree of an exact zero
_NO_FLOOR = -(1 << 40)


def _ceil(x) -> int:
    value = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return -(-value.numerator // value.denominator)


def _half(x, label: str) -> int:
    """2x, for x an integer or half-integer."""
    value = x if isinstance(x, (int, Fraction)) else Fraction(x)
    if value.denominator not in (1, 2):
        raise ConfigError(
            f"{label} must be an integer or half-integer, got {x}")
    return value.numerator * 2 // value.denominator


def _ceil_half(doubled: int) -> int:
    return -(-doubled // 2)


def _ratio_vs_power(count1: int, count2: int, q: int, k: int) -> int:
    """An integer with the sign of count1/count2 - q^k, for count2 > 0."""
    return count1 * q ** max(0, -k) - count2 * q ** max(0, k)


# -- matrices on coefficient arrays ---------------------------------------------


class LaurentMatrix:
    """A matrix over K: entry (i, j) is sum_w coeffs[i, j, w] t^(lo + w),
    with coeffs an int16 (rows, cols, W) array of field indices, exact at
    exponents >= floors[i, j] (int64; _NO_FLOOR: exact everywhere), with 0
    stored below the floor.  A view of a stack (_views) knows its
    _SharedStack and its row there; a matrix built alone has stack None."""
    __slots__ = ("spec", "coeffs", "lo", "floors", "stack", "row")

    def __init__(self, spec: FieldSpec, coeffs, lo: int, floors,
                 stack=None, row=None):
        self.spec, self.coeffs, self.lo, self.floors = spec, coeffs, lo, floors
        self.stack, self.row = stack, row


class _SharedStack:
    """Read-only matrices on one exponent window, coeffs (B, R, C, W) and
    floors (B, R, C).  `checked` maps the rows of each set of views that a
    call checked as gammas to that check, reduced mod O (_check_gammas);
    the arrays cannot change, so a check stays true."""

    def __init__(self, coeffs, lo: int, floors):
        self.coeffs, self.lo, self.floors = coeffs, lo, floors
        self.checked = {}


def _views(spec: FieldSpec, coeffs, lo: int, floors) -> list:
    """The matrices of a stack, made read-only, as LaurentMatrix views
    that know their stack and row."""
    coeffs.flags.writeable = floors.flags.writeable = False
    stack = _SharedStack(coeffs, lo, floors)
    return [LaurentMatrix(spec, coeffs[b], lo, floors[b], stack, b)
            for b in range(len(coeffs))]


def _square(spec: FieldSpec, mat, what: str) -> LaurentMatrix:
    """mat, checked to be a nonempty square LaurentMatrix over spec."""
    if not isinstance(mat, LaurentMatrix):
        raise ConfigError(f"{what} must be a LaurentMatrix, got "
                          f"{type(mat).__name__}")
    if mat.spec != spec:
        raise ConfigError("mixed field specs in lattice data")
    rows, cols = mat.coeffs.shape[:2]
    if not 0 < rows == cols:
        raise ConfigError(f"{what} must be a nonempty square matrix, got "
                          f"{rows} x {cols}")
    return mat


def _stack(mats):
    """Matrices on one exponent window: (coeffs (B, R, C, W), lo, floors
    (B, R, C)), a smaller matrix padded with exact zeros."""
    lo = min(m.lo for m in mats)
    hi = max(m.lo + m.coeffs.shape[2] for m in mats)
    rows, cols = (max(m.coeffs.shape[k] for m in mats) for k in (0, 1))
    out = np.zeros((len(mats), rows, cols, hi - lo), dtype=np.int16)
    floors = np.full((len(mats), rows, cols), _NO_FLOOR, dtype=np.int64)
    for b, m in enumerate(mats):
        r, c, w = m.coeffs.shape
        out[b, :r, :c, m.lo - lo:m.lo - lo + w] = m.coeffs
        floors[b, :r, :c] = m.floors
    return out, lo, floors


def _gather(mats):
    """_stack(mats), by one index when all of them are views of one
    stack."""
    stack = mats[0].stack
    if stack is None or any(m.stack is not stack for m in mats):
        return _stack(mats)
    at = [m.row for m in mats]
    return stack.coeffs[at], stack.lo, stack.floors[at]


def _known_tops(coeffs, lo, floors):
    """Largest exponent of a known nonzero coefficient of every entry;
    floor - 1 where the known part of a windowed entry vanishes, _NO_FLOOR
    for an exact zero."""
    nz = coeffs != 0
    top = lo + coeffs.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1)
    return np.where(nz.any(axis=-1), top,
                    np.where(floors != _NO_FLOOR, floors - 1, _NO_FLOOR))


def _entry_degrees(coeffs, lo, floors, what: str):
    """deg of every entry, _NO_FLOOR for an exact zero.  An entry whose
    known part vanishes above its floor has no decidable degree."""
    if ((floors != _NO_FLOOR) & ~(coeffs != 0).any(axis=-1)).any():
        raise PrecisionError(f"{what}: vanishing is undecidable at this "
                             f"window")
    return _known_tops(coeffs, lo, floors)


def _matmul(spec: FieldSpec, a, alo, afl, b, blo, bfl):
    """Products of two stacks of Laurent matrices, a (B, R, K, Wa) at
    exponent alo times b (B, K, C, Wb) at blo, by convolution through the
    flat field tables.  Floors are pessimistic: a product is exact down to
    max(top(x) + floor(y), floor(x) + top(y)), a sum down to the largest
    floor of its terms.  Returns (coeffs, lo, floors)."""
    q, dtype, mul, add = _flat_tables(spec)
    bsz, nrows, inner, wa = a.shape
    wb = b.shape[3]
    aq = np.multiply(a, q, dtype=dtype)
    b = b.astype(dtype, copy=False)
    out = np.zeros((bsz, nrows, b.shape[2], wa + wb - 1), dtype=np.int16)
    for k in range(inner):
        bk = b[:, None, k]
        for s in range(wa):
            ak = aq[:, :, k, s]
            if ak.any():
                window = np.multiply(out[..., s:s + wb], q, dtype=dtype)
                out[..., s:s + wb] = add.take(
                    window + mul.take(ak[:, :, None, None] + bk))
    ta = _known_tops(a, alo, afl)
    tb = _known_tops(b, blo, bfl)
    fl = np.maximum(ta[..., None] + bfl[:, None],
                    afl[..., None] + tb[:, None]).max(axis=2)
    fl = np.where(fl < _NO_FLOOR // 2, _NO_FLOOR, fl)
    lo = alo + blo
    exps = lo + np.arange(out.shape[3])
    return np.where(exps >= fl[..., None], out, 0), lo, fl


def _identity_defects(coeffs, lo, floors):
    """(B, N, N) mask of the entries of a stack of square products that
    differ from the identity on their known coefficients."""
    exps = lo + np.arange(coeffs.shape[3])
    eye = np.eye(coeffs.shape[1], dtype=bool)
    # the identity: 1 at t^0 on the diagonal, which the window may miss
    bad = ((coeffs != (eye[..., None] & (exps == 0)))
           & (exps >= floors[..., None])).any(axis=3)
    return bad | (eye & (floors <= 0) & (exps != 0).all())


def _toeplitz(coeffs, lo: int, w0: int, nw: int, width: int):
    """For a stack (B, R, C, W) of matrices at exponent lo, the (B, R * nw,
    C * width) systems whose row (i, t) and column (k, s) hold the
    t^(w0 + t - s) coefficient of entry (i, k): row (i, t) is the
    t^(w0 + t) coefficient of coordinate i of the matrix times u, where the
    unknown (k, s) is the t^s coefficient of u_k."""
    bsz, nrows, ncols, span = coeffs.shape
    idx = w0 - lo + np.arange(nw)[:, None] - np.arange(width)[None, :]
    ok = (idx >= 0) & (idx < span)
    block = np.where(ok, coeffs[..., np.clip(idx, 0, span - 1)], 0)
    return block.transpose(0, 1, 3, 2, 4).reshape(bsz, nrows * nw,
                                                  ncols * width)


def _batched(systems, kernel) -> list:
    """kernel(spec, stack) on every (spec, system) pair, one result per
    system, in order.  Systems with as many unknowns are stacked together,
    padded with zero rows (which change no rank and no nullspace), at most
    _STACK_CELLS cells per kernel call."""
    out = [None] * len(systems)
    groups = {}
    for i, (spec, mat) in enumerate(systems):
        groups.setdefault((spec, mat.shape[1]), []).append(i)
    for (spec, ncols), members in groups.items():
        nrows = max(systems[i][1].shape[0] for i in members)
        block = max(1, _STACK_CELLS // max(1, nrows * ncols))
        for start in range(0, len(members), block):
            chunk = members[start:start + block]
            stack = np.zeros((len(chunk), nrows, ncols), dtype=np.int16)
            for row, i in enumerate(chunk):
                mat = systems[i][1]
                stack[row, :mat.shape[0]] = mat
            for i, result in zip(chunk, kernel(spec, stack)):
                out[i] = result
    return out


def _charge_system(budget: Budget, rows: int, nvars: int, what: str):
    """Charge one linear system its elimination work before it is built:
    nvars pivot steps, each over at most max(rows, nvars) x nvars cells
    (the system, or the nvars x nvars nullspace basis)."""
    budget.charge(max(rows, nvars) * nvars * nvars, what)


def _nullspace_kernel(spec: FieldSpec, stack) -> list:
    """An F_q-basis (rows) of the right nullspace of every stacked system."""
    basis, free = batched_nullspace(spec, stack)
    return [vecs[mask] for vecs, mask in zip(basis, free)]


def _solution_counts(systems) -> list:
    """q^(unknowns - rank) for every (spec, system) pair."""
    ranks = _batched(systems, batched_rank)
    return [spec.q ** (mat.shape[1] - int(rank))
            for (spec, mat), rank in zip(systems, ranks)]


# -- lattices ---------------------------------------------------------------------


class FunctionFieldLattice:
    """The O-module {B u : u in O^N} for an invertible matrix B over K.

    Rows of the LaurentMatrix `matrix` are coordinates; columns are the
    generators.  An exact inverse, a LaurentMatrix of the same size, may be
    supplied as a degree-bound hint; it is verified against the generator
    before use, so a wrong hint raises instead of corrupting counts.
    Without one, the lattice is reduced on construction: that certifies B
    nonsingular and gives deg det B as the sum of the reduced degrees."""

    def __init__(self, spec: FieldSpec, matrix: LaurentMatrix,
                 inverse: LaurentMatrix = None):
        gen = _square(spec, matrix, "generator matrix")
        tops = _entry_degrees(gen.coeffs, gen.lo, gen.floors,
                              "generator entry")
        self._setup(gen, tops.max(axis=1), int(tops.max()),
                    int(gen.floors.max()))
        self._inv_top = None
        if inverse is None:
            [degrees] = reduce_lattices([self])
            self._det_deg = sum(degrees)
            return
        inv = _square(spec, inverse, "inverse hint")
        if inv.coeffs.shape[0] != self.dim:
            raise ConfigError("inverse hint must be square of the same size")
        prod = _matmul(spec, inv.coeffs[None], inv.lo, inv.floors[None],
                       gen.coeffs[None], gen.lo, gen.floors[None])
        bad = np.argwhere(_identity_defects(*prod)[0])
        if len(bad):
            i, k = bad[0].tolist()
            raise ConfigError(f"inverse hint fails at entry ({i},{k})")
        self._inv_top = int(_entry_degrees(inv.coeffs, inv.lo, inv.floors,
                                           "inverse hint").max())

    @classmethod
    def _certified(cls, gen: LaurentMatrix, row_tops, max_top: int,
                   window: int, inv_top: int):
        """A lattice whose inverse, of top degree inv_top, the caller has
        already verified, with the top degree of each generator row, of the
        whole generator and its largest floor given by the caller."""
        lat = cls.__new__(cls)
        lat._setup(gen, row_tops, max_top, window)
        lat._inv_top = inv_top
        return lat

    def _setup(self, gen: LaurentMatrix, row_tops, max_top: int,
               window: int):
        self.spec = gen.spec
        self.dim = gen.coeffs.shape[0]
        self.gen = gen
        self._row_tops = row_tops
        self._max_top = max_top
        self._window = window                  # _NO_FLOOR when exact
        if self._max_top == _NO_FLOOR:
            raise ConfigError("generator matrix is singular")
        self._degrees = None          # sorted reduced degrees, once known
        self._counts = {}             # ceil(z) -> ball count

    # -- counting ---------------------------------------------------------------

    def unit_degree_bound(self, z_ceil: int) -> int:
        """Max possible deg u_k over {u : |B u| < q^{z_ceil}}.

        With the inverse B^-1 at hand, deg u <= top(B^-1) + deg x.  Otherwise
        Cramer: u = adj(B) x / det(B)."""
        if self._inv_top is not None:
            return self._inv_top + z_ceil - 1
        return (self.dim - 1) * self._max_top + z_ceil - 1 - self._det_deg

    def _enumeration_start(self) -> int:
        """A radius below the first minimum: a nonzero x = B u has
        deg x >= -top(B^-1), or the Cramer bound without an inverse."""
        if self._inv_top is not None:
            return -self._inv_top
        return self._det_deg - max(0, (self.dim - 1) * self._max_top)


def minima_by_enumeration(lattices, budget: Budget = None) -> list:
    """The oracle for successive minima; it never reduces.  For each
    lattice the radius r walks up from below the first minimum.  At each r
    an F_q-basis of the ball {u : |B u| <= q^r} (the nullspace of its
    coefficient system) has the rank over K of its polynomial coordinates
    u measured by definition, by linalg.batched_poly_rank: evaluated at
    more points than any nonzero minor of the basis has roots, so one
    point where the minor survives certifies it.  B is invertible over K,
    so that is the K-rank of the lattice vectors B u.  R_v is the first r
    at which the rank reaches v.  The balls of all lattices at their
    current radius are solved together, and the bases of one shape are
    ranked in one stack.  Every ball system is charged to `budget` (a
    fresh default Budget when None).  Returns the closed exponents of each
    lattice, in order.

    The columns of B are lattice vectors of degree <= top(B), so the rank
    reaches N by r = top(B); a radius past it means the oracle contradicts
    the lattice, a VerificationFailure."""
    budget = Budget() if budget is None else budget
    radius = [lat._enumeration_start() for lat in lattices]
    degs = [[] for _ in lattices]
    live = list(range(len(lattices)))
    while live:
        balls = []
        for i in live:
            lat = lattices[i]
            if radius[i] > lat._max_top:
                raise VerificationFailure(
                    "enumeration overran the generator degree bound")
            balls.append((lat, radius[i] + 1))
        systems = [(lat.spec, system) for (lat, _), system
                   in zip(balls, _ball_systems(balls, budget))]
        shapes = {}
        for i, basis in zip(live, _batched(systems, _nullspace_kernel)):
            lat = lattices[i]
            polys = basis.reshape(len(basis), lat.dim,
                                  basis.shape[1] // lat.dim)
            shapes.setdefault((lat.spec, polys.shape), []).append((i, polys))
        for (spec, _), members in shapes.items():
            ranks = batched_poly_rank(
                spec, np.stack([polys for _, polys in members]))
            for (i, _), rank in zip(members, ranks.tolist()):
                degs[i] += [radius[i]] * (rank - len(degs[i]))
        for i in live:
            radius[i] += 1
        live = [i for i in live if len(degs[i]) < lattices[i].dim]
    return degs


def reduce_lattices(lattices) -> list:
    """The minima exponents R_1 <= ... <= R_N of every lattice of
    `lattices`, one tuple per lattice, in order: the sorted degrees of its
    reduced basis.  A lattice not reduced yet is reduced, in one batched
    kernel per field and dimension, its generators gathered from their
    stack by one index (_gather), and its degrees are kept on it.
    minima_by_enumeration is the independent oracle."""
    groups = {}
    for lat in lattices:
        if lat._degrees is None:
            groups.setdefault((lat.spec, lat.dim), {})[id(lat)] = lat
    for (spec, _), members in groups.items():
        lats = list(members.values())
        coeffs, lo, floors = _gather([lat.gen for lat in lats])
        for lat, degs in zip(lats, _reduce(spec, coeffs, lo, floors)):
            lat._degrees = degs
    return [lat._degrees for lat in lattices]


def _column_degrees(coeffs, lo, floors):
    """Degrees of columns given as (..., N_i, W) coefficient arrays."""
    degs = _entry_degrees(coeffs, lo, floors, "reduction pivot").max(axis=-1)
    if (degs == _NO_FLOOR).any():
        raise ConfigError("generator matrix is singular")
    return degs


def _reduce(spec: FieldSpec, coeffs, lo: int, floors):
    """Column-reduce a stack (B, N, N, W) of generator matrices until every
    leading coefficient matrix is invertible; returns the sorted column
    degrees of each.

    A pass takes, for every lattice whose leading matrix (the coefficients
    of each column at its degree) is singular, one nullspace vector c and
    replaces the column of largest degree (then largest index) in its
    support by sum_j c_j t^(deg - deg_j) col_j.  That column operation is
    invertible and lowers the degree sum by at least one.  Shifts only
    raise exponents and cancel at the top, so the window of the stack
    never grows and every column degree stays >= lo: a lattice takes at
    most (degree sum) - N lo passes, and one that takes more raises
    VerificationFailure."""
    q, dtype, mul, add = _flat_tables(spec)
    c = coeffs.copy()
    fl = floors.copy()
    size, width = c.shape[1], c.shape[3]
    exps = lo + np.arange(width)
    cols = np.arange(size)
    degs = _column_degrees(c.transpose(0, 2, 1, 3), lo, fl.transpose(0, 2, 1))
    budget = degs.sum(axis=1) - size * lo + 1
    steps = np.zeros(len(c), dtype=np.int64)
    live = np.arange(len(c))
    while live.size:
        d = degs[live]
        lead = np.take_along_axis(c[live], (d - lo)[:, None, :, None],
                                  axis=3)[..., 0]
        basis, free = batched_nullspace(spec, lead)
        dep = free.any(axis=1)
        live, d = live[dep], d[dep]
        if not live.size:
            break
        ar = np.arange(live.size)
        combo = basis[dep][ar, free[dep].argmax(axis=1)]
        support = combo != 0
        target = np.where(support, d * size + cols, _NO_FLOOR).argmax(axis=1)
        shift = d[ar, target][:, None] - d
        widx = np.arange(width)[None, None, :] - shift[:, :, None]
        moved = np.take_along_axis(
            c[live], np.clip(widx, 0, width - 1)[:, None], axis=3)
        moved = np.where(((widx >= 0) & support[:, :, None])[:, None],
                         moved, 0)
        terms = mul.take(np.multiply(combo, q, dtype=dtype)[:, None, :, None]
                         + moved)
        new = terms[:, :, 0]
        for j in range(1, size):
            new = add.take(np.multiply(new, q, dtype=dtype) + terms[:, :, j])
        newfl = np.where(support[:, None, :], fl[live] + shift[:, None, :],
                         _NO_FLOOR).max(axis=2)
        newfl = np.where(newfl < _NO_FLOOR // 2, _NO_FLOOR, newfl)
        new = np.where(exps >= newfl[:, :, None], new, 0)
        c[live, :, target] = new
        fl[live, :, target] = newfl
        degs[live, target] = _column_degrees(new, lo, newfl)
        steps[live] += 1
        if (steps[live] > budget[live]).any():
            raise VerificationFailure("column reduction failed to terminate")
    return [tuple(sorted(row)) for row in degs.tolist()]


def _ball_systems(requests, budget: Budget) -> list:
    """The coefficient system of {u in O^N : |B u| < q^zc} for every
    (lattice, zc) of `requests`, in order: the unknowns are the
    coefficients of u up to unit_degree_bound(zc), the rows the
    coefficients of B u at exponents >= zc; a (0, 0) system when no u but 0
    qualifies.  Each system is charged to `budget` (_charge_system) before
    any is built.  The systems of one shape are built together, and rows
    that vanish in all of them (above the top of B u) are dropped."""
    out = [None] * len(requests)
    groups = {}
    for k, (lat, zc) in enumerate(requests):
        dbound = lat.unit_degree_bound(zc)
        if dbound < 0:
            out[k] = np.zeros((0, 0), dtype=np.int16)
            continue
        nw = max(0, lat._max_top + dbound + 1 - zc)
        _charge_system(budget, lat.dim * nw, lat.dim * (dbound + 1),
                       "ball count system")
        # the rows of coordinate i read every entry of row i down to
        # t^(zc - dbound), if B u can reach t^zc there at all
        if lat._window > zc - dbound:
            live = lat._row_tops + dbound >= zc
            if (lat.gen.floors[live] > zc - dbound).any():
                raise PrecisionError(
                    f"ball of radius q^{zc} reads generator coefficients "
                    f"below the window floor")
        groups.setdefault((lat.spec, lat.dim, zc, dbound + 1, nw),
                          []).append(k)
    for (_, _, zc, width, nw), members in groups.items():
        coeffs, lo, _ = _gather([requests[k][0].gen for k in members])
        systems = _toeplitz(coeffs, lo, zc, nw, width)
        systems = systems[:, systems.any(axis=(0, 2))]
        for k, system in zip(members, systems):
            out[k] = system
    return out


def ball_counts(requests, budget: Budget = None) -> list:
    """#{x in lattice : |x| < q^z} for every (lattice, z) of `requests`, in
    order.  A count depends only on (lattice, ceil z) and is kept on the
    lattice: each is computed once, and the systems of all those not known
    yet are charged to `budget` (a fresh default Budget when None) and
    ranked together."""
    budget = Budget() if budget is None else budget
    wanted = [(lat, _ceil(z)) for lat, z in requests]
    missing = {}
    for lat, zc in wanted:
        if zc not in lat._counts:
            missing[id(lat), zc] = (lat, zc)
    todo = list(missing.values())
    systems = [(lat.spec, system)
               for (lat, _), system in zip(todo, _ball_systems(todo, budget))]
    for (lat, zc), count in zip(todo, _solution_counts(systems)):
        lat._counts[zc] = count
    return [lat._counts[zc] for lat, zc in wanted]


# -- the special pair -------------------------------------------------------------


def _check_gammas(gammas):
    """The square gammas of `gammas` (distinct) on one stack (_gather),
    each checked to be symmetric wherever an entry and its mirror both
    know the coefficient, polynomial part included, then reduced mod O: an
    exact gamma drops its coefficients at t^0 and up, and when every gamma
    is exact the window narrows to the exponents < 0 (to one column of
    zeros if it starts at t^0 or above).  A gamma with a windowed entry
    keeps its polynomial part: dropping it would leave an entry known only
    at t^>=0 with undecidable vanishing.  Returns (coeffs, lo, floors)."""
    c, lo, fl = _gather(gammas)
    exps = lo + np.arange(c.shape[3])
    known = exps >= np.maximum(fl, fl.transpose(0, 2, 1))[..., None]
    # the first hit in row-major order lies above the diagonal
    bad = np.argwhere(((c != c.transpose(0, 2, 1, 3)) & known).any(axis=3))
    if len(bad):
        _, i, j = bad[0].tolist()
        raise ConfigError(f"gamma is not symmetric at ({i},{j})")
    exact = (fl == _NO_FLOOR).all(axis=(1, 2))
    c = np.where(exact[:, None, None, None] & (exps >= 0), 0, c)
    if exact.all():
        c = c[..., :max(1, -lo)]
    return c, lo, fl


def _gamma_stack(spec: FieldSpec, gammas):
    """The distinct gammas of `gammas`, each a square LaurentMatrix over
    spec, and their stack, checked and reduced mod O (_check_gammas):
    (distinct gammas, coeffs, lo, floors).  When they are all views of one
    stack, the check of those rows is kept on the stack
    (_SharedStack.checked) and a later call on the same views reads it;
    any other gammas are checked on every call."""
    distinct = list({id(gamma): gamma for gamma in gammas}.values())
    for gamma in distinct:
        _square(spec, gamma, "gamma")
    stack = distinct[0].stack
    if stack is None or any(gamma.stack is not stack for gamma in distinct):
        return (distinct, *_check_gammas(distinct))
    rows = tuple(gamma.row for gamma in distinct)
    if rows not in stack.checked:
        stack.checked[rows] = _check_gammas(distinct)
    return (distinct, *stack.checked[rows])


class SpecialLatticePair:
    """The adjoint pair of 2n x 2n lattices built from a symmetric gamma.

    M_m expands the first block of coordinates by t^-m and contracts the
    second by t^m after shearing with gamma; L_m undoes it.  The adjoint
    identity L_m^T M_m = I is verified once, on construction, entry by
    entry on the joint window, and kept as the InequalityReport `duality`;
    it
    makes L_m^T the certified inverse of M_m and M_m^T that of L_m.
    `suite` builds many pairs on one coefficient stack with one batched
    product; a pair built alone is a suite of one.

    The generators are built from gamma mod O (_check_gammas): gamma and
    gamma - P, P polynomial, give the same lattices, since
    M_m(gamma) [[I, 0], [-P, I]] = M_m(gamma - P) with the right factor in
    GL_2n(O).  A gamma with a windowed entry keeps its polynomial part.
    `gamma` stays the caller's matrix."""

    def __init__(self, spec: FieldSpec, gamma: LaurentMatrix, m: int):
        _build_pairs(spec, [self], [(gamma, m)])

    @classmethod
    def suite(cls, spec: FieldSpec, gammas, ms) -> list:
        """One pair per (gamma, m), gamma a LaurentMatrix, all of one size
        n, built and certified together."""
        items = list(zip(gammas, ms))
        pairs = [cls.__new__(cls) for _ in items]
        if pairs:
            _build_pairs(spec, pairs, items)
        return pairs


def _build_pairs(spec: FieldSpec, pairs, items) -> None:
    """The generators of M_m and L_m of every (gamma, m) of `items`, written
    into one stack (2B, 2n, 2n, W) on one exponent window, the M_m first:
    the t^(-m) and t^m diagonals and the t^m gamma and -t^m gamma blocks,
    each by one scatter at per-pair offsets from the stack of gammas mod O
    (_gamma_stack); then certified."""
    gammas, ms = zip(*items)
    for m in ms:
        if not isinstance(m, int) or m < 1:
            raise ConfigError(f"block scale m must be a positive integer, "
                              f"got {m}")
    distinct, g, glo, gfl = _gamma_stack(spec, gammas)
    if len({mat.coeffs.shape[0] for mat in distinct}) > 1:
        raise ConfigError("a suite of lattice pairs needs one size n")
    where = {id(mat): k for k, mat in enumerate(distinct)}
    at = [where[id(gamma)] for gamma in gammas]
    g, gfl = g[at], gfl[at]
    bsz, n, _, wg = g.shape
    lo = min(-max(ms), min(ms) + glo)
    width = max(ms) + max(0, glo + wg - 1) - lo + 1
    scale = np.array(ms, dtype=np.int64)
    down, up = (-scale - lo)[:, None], (scale - lo)[:, None]
    rows, eye = np.arange(bsz)[:, None], np.arange(n)
    gens = np.zeros((2 * bsz, 2 * n, 2 * n, width), dtype=np.int16)
    m_c, l_c = gens[:bsz], gens[bsz:]
    m_c[rows, eye, eye, down] = 1
    m_c[rows, n + eye, n + eye, up] = 1
    l_c[rows, eye, eye, up] = 1
    l_c[rows, n + eye, n + eye, down] = 1
    # the advanced indices (rows, at) broadcast to (B, Wg) in front
    at = up + glo + np.arange(wg)
    m_c[rows, n:, :n, at] = g.transpose(0, 3, 1, 2)
    l_c[rows, :n, n:, at] = spec.tables["np_neg"][g].transpose(0, 3, 1, 2)
    shifted = np.where(gfl == _NO_FLOOR, _NO_FLOOR, gfl + scale[:, None, None])
    floors = np.full((2 * bsz, 2 * n, 2 * n), _NO_FLOOR, dtype=np.int64)
    floors[:bsz, n:, :n] = floors[bsz:, :n, n:] = shifted
    for pair, gamma, m in zip(pairs, gammas, ms):
        pair.spec, pair.m, pair.gamma, pair.n = spec, m, gamma, n
    _certify_pairs(pairs, spec, lo, gens, floors)


def _certify_pairs(pairs, spec: FieldSpec, lo: int, gens, floors) -> None:
    """One batched product L_m^T M_m over the generator stack of all pairs,
    M_m in its first half and L_m in its second; a pair passes when it is
    the identity on the known coefficients, and then gets its lattices,
    views of the stack whose degrees and floors are read off the whole
    stack at once."""
    bsz = len(pairs)
    bad = _identity_defects(*_matmul(
        spec, gens[bsz:].transpose(0, 2, 1, 3), lo,
        floors[bsz:].transpose(0, 2, 1), gens[:bsz], lo, floors[:bsz]))
    tops = _entry_degrees(gens, lo, floors, "generator entry")
    row_tops = tops.max(axis=2)
    max_tops = row_tops.max(axis=1).tolist()
    windows = floors.max(axis=(1, 2)).tolist()
    # the inverse of M_m is L_m^T and that of L_m is M_m^T: the top degree
    # of the other half's lattice, at b - bsz
    lattices = [FunctionFieldLattice._certified(
        view, row_tops[b], max_tops[b], windows[b], max_tops[b - bsz])
        for b, view in enumerate(_views(spec, gens, lo, floors))]
    failed = bad.any(axis=(1, 2)).tolist()
    for b, pair in enumerate(pairs):
        entries = ([tuple(ix) for ix in np.argwhere(bad[b]).tolist()]
                   if failed[b] else [])
        pair.duality = InequalityReport(not entries, {
            "dim": 2 * pair.n, "bad_entries": entries})
        if entries:
            raise ConfigError(
                f"adjoint identity fails: {pair.duality.details}")
        pair.m_lattice, pair.adjoint_lattice = lattices[b], lattices[bsz + b]


# -- lemma checks -------------------------------------------------------------------


def check_ratio_lemmas(items, budget: Budget = None) -> list:
    """Ball-count decay for M_m at every (pair, z1, z2) of `items`: counts
    at integers z1 <= z2 <= 0 satisfy M(z1)/M(z2) >= q^{n(z1-z2)}.

    Also cross-checks the exact piecewise value of the ratio predicted by
    the minima (with mu = #{j : R_j < z1}, nu = #{j : R_j < z2}, the ratio
    is q^{sum(R_{mu+1..nu}) + mu z1 - nu z2}), and that each count equals
    q^{sum_j max(0, z - R_j)}.  The minima of all M_m come from one batched
    reduction, and every distinct (lattice, z) count from one batched rank,
    charged to `budget` (ball_counts).  Returns one InequalityReport per
    item, in order."""
    for _, z1, z2 in items:
        if not (isinstance(z1, int) and isinstance(z2, int)):
            raise ConfigError("ratio lemma thresholds must be integers")
        if not z1 <= z2 <= 0:
            raise ConfigError(f"need z1 <= z2 <= 0, got {z1}, {z2}")
    minima = reduce_lattices([pair.m_lattice for pair, _, _ in items])
    counts = ball_counts([(pair.m_lattice, z) for pair, z1, z2 in items
                          for z in (z1, z2)], budget)
    out = []
    for k, (pair, z1, z2) in enumerate(items):
        c1, c2 = counts[2 * k], counts[2 * k + 1]
        q = pair.spec.q
        n = pair.n
        exps = minima[k]
        mu = sum(1 for r in exps if r < z1)
        nu = sum(1 for r in exps if r < z2)
        if nu == 0:
            case = "both-below-first-minimum"
        elif mu == 0:
            case = "straddles-first-minimum"
        else:
            case = "both-above-first-minimum"
        matches = _ratio_vs_power(c1, c2, q, sum(exps[mu:nu]) + mu * z1
                                  - nu * z2) == 0
        pred1 = q ** sum(max(0, z1 - r) for r in exps)
        pred2 = q ** sum(max(0, z2 - r) for r in exps)
        passed = (_ratio_vs_power(c1, c2, q, n * (z1 - z2)) >= 0 and matches
                  and c1 == pred1 and c2 == pred2)
        out.append(InequalityReport(passed, {
            "z1": z1, "z2": z2, "count1": c1, "count2": c2,
            "bound_exponent": n * (z1 - z2), "case": case,
            "ratio_matches_formula": matches,
            "counts_match_minima": (c1 == pred1, c2 == pred2)}))
    return out


def _skew_systems(stack, items, budget: Budget) -> list:
    """The coefficient system of N(a, z) for every (k, n, gtop, d1, v2) of
    `items`, where gamma is the leading n x n block of matrix k of `stack`
    (coeffs, lo, floors), gtop its top degree (_NO_FLOOR when gamma = 0),
    d1 = ceil(a + z) - 1 and v2 = ceil(z - a): the unknowns are the
    coefficients of u (deg <= d1), then of u' (deg <= d2, the top degree
    of L(u) + u'), the rows the coefficients of L_j(u) + u'_j at exponents
    v2..d2.  Each system is charged to `budget` (_charge_system) before any
    is built; the systems of one shape are built together."""
    out = [None] * len(items)
    groups = {}
    for i, (k, n, gtop, d1, v2) in enumerate(items):
        ltop = gtop + d1 if gtop != _NO_FLOOR and d1 >= 0 else v2 - 1
        d2 = max(v2 - 1, ltop)
        w1 = max(0, d1 + 1)
        w2 = max(0, d2 + 1)
        _charge_system(budget, n * max(0, d2 - v2 + 1), n * (w1 + w2),
                       "skew count system")
        if d2 >= v2 and w1 > 0 and stack[2][k].max() > v2 - w1 + 1:
            raise PrecisionError(
                f"skew box with deg u <= {d1} read from t^{v2} reads gamma "
                f"coefficients below the window floor")
        groups.setdefault((n, v2, d2, w1, w2), []).append(i)
    for (n, v2, d2, w1, w2), members in groups.items():
        nw = d2 - v2 + 1
        shear = np.zeros((n * nw, n * w2), dtype=np.int16)
        w = v2 + np.arange(nw)
        hit = (w >= 0) & (w < w2)
        for j in range(n):
            shear[j * nw + np.nonzero(hit)[0], j * w2 + w[hit]] = 1
        at = [items[i][0] for i in members]
        left = _toeplitz(stack[0][at, :n, :n], stack[1], v2, nw, w1)
        systems = np.concatenate(
            [left, np.broadcast_to(shear, (len(members),) + shear.shape)],
            axis=2)
        for i, system in zip(members, systems):
            out[i] = system
    return out


def skew_counts(spec: FieldSpec, requests, budget: Budget = None) -> list:
    """The skew box count

        N(a, z) = #{(u, u') in O^n x O^n : |u_j| < q^{a+z},
                                           |L_j(u) + u'_j| < q^{z-a} for all j},

    where L_j(u) = sum_k gamma[j][k] u_k, for every (gamma, a, z) of
    `requests`, gamma a LaurentMatrix, in order.  a and z may be
    half-integers; every threshold enters through a single ceiling of a
    doubled integer exponent.  The distinct gammas are checked and reduced
    mod O on one stack (_gamma_stack: a set of views of one stack is
    checked once), and the systems are built from it: u' -> u' + P u is a
    bijection of O^n, so gamma and gamma - P, P polynomial, count the same,
    and a gamma with a windowed entry keeps its polynomial part.  Each
    distinct (gamma, ceil(a + z), ceil(z - a)) is counted once, its system
    charged to `budget` (a fresh default Budget when None), and all systems
    are ranked together."""
    budget = Budget() if budget is None else budget
    keys, distinct, stack = [], {}, None
    if requests:
        gammas, *stack = _gamma_stack(spec, [g for g, _, _ in requests])
        tops = _entry_degrees(*stack, "gamma").max(axis=(1, 2)).tolist()
        where = {id(gamma): (k, gamma.coeffs.shape[0], top)
                 for k, (gamma, top) in enumerate(zip(gammas, tops))}
    for gamma, a, z in requests:
        a2, z2 = _half(a, "a"), _half(z, "z")
        key = (id(gamma), _ceil_half(a2 + z2) - 1, _ceil_half(z2 - a2))
        if key not in distinct:
            distinct[key] = where[id(gamma)] + key[1:]
        keys.append(key)
    systems = [(spec, system) for system
               in _skew_systems(stack, list(distinct.values()), budget)]
    counts = dict(zip(distinct, _solution_counts(systems)))
    return [counts[key] for key in keys]


def check_sandwiches(items, budget: Budget = None) -> list:
    """M_m(z - {a}) <= N(a, z) <= M_m(z + {a}) with m = floor(a) >= 1, at
    every (pair, a, z) of `items`, where pair.m must be floor(a): the M_m
    counts and the skew counts each in one batch, charged to `budget`.
    Returns one InequalityReport per item, in order."""
    budget = Budget() if budget is None else budget
    bounds = []
    for pair, a, z in items:
        a2, z2 = _half(a, "a"), _half(z, "z")
        m = a2 // 2
        if m < 1:
            raise ConfigError(f"sandwich needs a >= 1, got {a}")
        if pair.m != m:
            raise ConfigError(f"sandwich at a = {a} needs the pair with "
                              f"m = {m}, got m = {pair.m}")
        # z -+ {a}, doubled: z2 -+ (a2 - 2m)
        bounds += [(pair.m_lattice, _ceil_half(z2 + sign * (a2 % 2)))
                   for sign in (-1, 1)]
    bounds = ball_counts(bounds, budget)
    spec = items[0][0].spec if items else None
    mids = skew_counts(spec, [(pair.gamma, a, z) for pair, a, z in items],
                       budget)
    out = []
    for k, (pair, a, z) in enumerate(items):
        lower, upper, mid = bounds[2 * k], bounds[2 * k + 1], mids[k]
        out.append(InequalityReport(lower <= mid <= upper, {
            "a": str(a), "z": str(z), "m": pair.m,
            "lower": lower, "middle": mid, "upper": upper}))
    return out


def check_capes(spec: FieldSpec, items, budget: Budget = None) -> list:
    """N(a, z1)/N(a, z2) >= q^{nK}, K = ceil(z1 - {a}) - ceil(z2 + {a}),
    for z1 <= z2 <= 0, at every (gamma, a, z1, z2) of `items`, with all
    skew counts in one batch, charged to `budget`.  Returns one
    InequalityReport per item, in order."""
    capes = []
    for _, a, z1, z2 in items:
        a2, d1, d2 = _half(a, "a"), _half(z1, "z1"), _half(z2, "z2")
        if not d1 <= d2 <= 0:
            raise ConfigError(f"need z1 <= z2 <= 0, got {z1}, {z2}")
        capes.append(_ceil_half(d1 - a2 % 2) - _ceil_half(d2 + a2 % 2))
    counts = skew_counts(spec, [(gamma, a, z) for gamma, a, z1, z2 in items
                                for z in (z1, z2)], budget)
    out = []
    for k, ((gamma, a, z1, z2), cape) in enumerate(zip(items, capes)):
        count1, count2 = counts[2 * k], counts[2 * k + 1]
        n = gamma.coeffs.shape[0]
        out.append(InequalityReport(
            _ratio_vs_power(count1, count2, spec.q, n * cape) >= 0,
            {"a": str(a), "z1": str(z1), "z2": str(z2), "K": cape,
             "count1": count1, "count2": count2,
             "bound_exponent": n * cape}))
    return out


def _draw_words(need: int, q: int) -> int:
    """32-bit words to take at once for `need` values below q: a quarter
    more than the mean number, mean = need 2^k / q with k = q.bit_length(),
    and 16.  That is at least 4 sqrt(mean), and so four standard
    deviations, as q > 2^(k-1)."""
    return need * (1 << q.bit_length()) // q * 5 // 4 + 16


def random_symmetric_gammas(spec: FieldSpec, n: int, seeds, lo: int = -3,
                            hi: int = 3) -> list:
    """One deterministic symmetric n x n matrix per seed, with entry
    support in [lo, hi], as LaurentMatrix views of one stack on that
    window.  Each seed draws what a loop of rng.randrange(q) calls on
    rng = random.Random(seed) would: entry (i, j >= i), in row-major
    order, takes the coefficients of t^lo..t^hi, in that order, and entry
    (j, i) copies it.

    randrange(q) reads a 32-bit word of the Mersenne Twister, keeps its top
    k = q.bit_length() bits and draws again while the value is >= q.  Here
    getrandbits(32 W) takes the next W words of every seed at once (least
    significant word first, so in the order randrange reads them), and the
    same rejection runs on the (seeds, words) array; while a seed has too
    few accepted values, every seed draws W more words."""
    q, width = spec.q, hi - lo + 1
    i, j = np.triu_indices(n)
    need = len(i) * width
    rngs = [random.Random(seed) for seed in seeds]
    tried = np.zeros((len(rngs), 0), dtype=np.uint32)
    while ((tried < q).sum(axis=1) < need).any():
        words = _draw_words(need, q)
        raw = b"".join(rng.getrandbits(32 * words).to_bytes(4 * words,
                                                             "little")
                       for rng in rngs)
        tried = np.hstack([tried, np.frombuffer(raw, "<u4").reshape(
            -1, words) >> (32 - q.bit_length())])
    ok = tried < q
    coeffs = np.zeros((len(rngs), n, n, width), dtype=np.int16)
    coeffs[:, i, j] = coeffs[:, j, i] = tried[
        ok & (ok.cumsum(axis=1) <= need)].reshape(-1, len(i), width)
    return _views(spec, coeffs, lo,
                  np.full(coeffs.shape[:3], _NO_FLOOR, dtype=np.int64))
