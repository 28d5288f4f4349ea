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

A phase is its depth-B tail: the tuple of field indices of the digits of
alpha at t^-1..t^-B, the only digits S sees; nothing here takes a Laurent
element.  S on a list of phases has one oracle, in the tests, which
walks the whole box jointly and traces every image, and two routes, one
per density of the list.  Both read the distribution of each distinct
block form's coefficient vectors over its own box
(forms.block_distributions over form.parts), built once per problem.
CountingProblem.exp_sum_histograms (exp_sums folds its integer rows into
Q(zeta_p)) charges nothing: it reads S off the sum table when one is
built, and otherwise goes through the kernel, _histograms.  For a stack
of tails the kernel accumulates <c, tail> over each support through the
field tables, counts it by the trace of each value, and convolves the
blocks' trace histograms over F_p, since the trace of a sum over disjoint
variables is the sum of the traces: 2B + 1 table gathers, p compares and
p multiply-adds per (tail, support point) cell (_kernel_cost).

The sum table, S on all q^B tails, has one fast route, sum_table, with
the kernel as its oracle in tests.  Per distinct block form it takes the
exact character transform of the distribution over F_q^B = (Z/p)^(fB)
(_character_transform): the keys go to trace-dual coordinates, and each
of the fB axes is transformed by p cyclic shifts per cell, as a
Walsh-Hadamard transform is.  That is f B q^B p^2 integer adds whatever
the support size (_table_cost), in two (q^B, p) int64 arrays, and it is
what the table is charged, before any work; the blocks are then convolved
per tail.  The dissection always builds it, after it has charged the
table and then its brute count (charge_dissection).  A weyl sweep reads
it when it costs no more than the kernel on the sweep's phases; the sweep
charges the table and then its counts, and only then builds the table,
before it fans out (weyl._charge_weyl): full sweeps read the table,
sparse lists (a limit, one alpha) keep the kernel.

The dissection has one fast route, CountingProblem.degree_subtotals, and
one oracle in tests, the divisor-count identity of the delta method: each
degree's subtotal as a count of monic divisors over the values V(g) =
#{x in box : F(x) = g} of one joint walk of the box (Ramanujan sums over
F_q[t]).  The fast route never builds an arc or ranks a matrix.  The
digits of a reduced a/r with deg r = D are exactly the sequences of
linear complexity D (Massey 1969), so the number of arcs of degree D
through a tail's prefix depends only on the prefix's complexity
(arcs_through).  Batched Berlekamp-Massey runs give the complexity
profile of the q^B tails block by block (complexity_profile); per degree
each tail is weighted by that closed form, and products with the sum
table give the subtotal as one integer histogram.

Every walk of the box goes through forms.BoxKernel: the block
distributions, the direct S oracle and the independent root count
brute_count (forms.zero_count), which walks the whole box jointly and
shares nothing with the fast route after evaluation.  The identity
integral over T of psi(<c(x), alpha>) = [c(x) = 0] holds for any map c, so
dissect-verify checks the dissection, the arcs and the quadrature whatever
evaluates F; BoxKernel's own oracle, eval_form in tests/oracles.py,
evaluates F one monomial at a time on scalar polynomials.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .cyclotomic import CyclotomicValue
from .errors import DEFAULT_BUDGET, Budget, ConfigError, PrecisionError
from .fields import FieldSpec
from .forms import (HypersurfaceForm, block_distributions, decode_keys,
                    zero_count)

# (tail, support point) cells per block of the S kernel; bounds its
# working set
_SUM_BLOCK_CELLS = 1 << 23

_TAIL_BLOCK = 1 << 14           # tails per block of degree_subtotals


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cyclic convolution over F_p of two (rows, p) int64 stacks
    of trace histograms: the histogram of the sum of the two traces.
    out[:, w] gains a[:, v] b[:, w - v mod p] in two slice adds per shift
    v, so that no rolled copy of b is made."""
    p = a.shape[1]
    out = a[:, :1] * b
    for v in range(1, p):
        out[:, v:] += a[:, v:v + 1] * b[:, :p - v]
        out[:, :v] += a[:, v:v + 1] * b[:, p - v:]
    return out


def _character_transform(spec: FieldSpec, keys: np.ndarray,
                         counts: np.ndarray, width: int) -> np.ndarray:
    """The trace histograms of one distribution over F_q^width at every
    tail: the (q^width, p) int64 array H with H[t, v] the total count of
    the keys c with tr <c, t> = v, row t indexed as in sum_table.

    H is the Fourier transform of the distribution over the group
    F_q^width = (Z/p)^(f width), done one axis at a time as the
    Walsh-Hadamard transform is.  A key c first goes to trace-dual
    coordinates c'[j, k] = tr(c_j x^k), so that tr <c, t> = sum over j, k
    of c'[j, k] t[j, k] mod p, with t[j, k] the base-p digit k of t_j,
    which is digit jf + k of the row index.  The counts are scattered at
    trace value 0 over c'; then axis a goes from c'_a to t_a by
    out[t_a][v] = sum_k G[k][v - k t_a mod p], p cyclic shifts per cell:
    f width q^width p^2 integer adds and two (q^width, p) int64 arrays,
    whatever the support size.  Every partial row sums to at most the
    total count."""
    p, f, q = spec.p, spec.f, spec.q
    assert int(counts.sum()) < 1 << 63, "character transform overflows int64"
    basis = p ** np.arange(f)                  # x^k has index p^k
    dual = spec.tables["np_trace"][spec.tables["np_mul"][
        decode_keys(q, keys, width)[:, :, None], basis]]
    # held v-major, so that every shift adds long runs on any axis
    grid = np.zeros((p, q ** width), dtype=np.int64)
    grid[0, dual.reshape(len(keys), -1) @ p ** np.arange(f * width)] = counts
    for axis in range(f * width):
        src = grid.reshape(p, -1, p, p ** axis)
        out = np.zeros_like(src)
        for t in range(p):
            for k in range(p):
                s = k * t % p
                out[s:, :, t] += src[:p - s, :, k]
                out[:s, :, t] += src[p - s:, :, k]
        grid = out.reshape(p, -1)
    del src, out                # so that the copy below is the second array
    return np.ascontiguousarray(grid.T)


def complexity_profile(spec: FieldSpec, seqs: np.ndarray) -> np.ndarray:
    """The linear-complexity profile of every row of an (N, width) stack
    of digit sequences over F_q, by one Berlekamp-Massey run over the
    whole stack through the field tables (Massey, "Shift-register
    synthesis and BCH decoding", 1969).  Returns an (N, width + 1) int64
    array: out[i, j] is the length L of the shortest recurrence
    s_m + c_1 s_{m-1} + ... + c_L s_{m-L} = 0 that the first j digits of
    row i satisfy, so out[:, 0] = 0."""
    np_add, np_mul, np_sub, np_inv = (
        spec.tables[name] for name in ("np_add", "np_mul", "np_sub", "np_inv"))
    count, width = seqs.shape
    conn = np.zeros((count, width + 1), dtype=np.int16)   # c_0 = 1, c_1, ...
    conn[:, 0] = 1
    prev = conn.copy()              # conn before the last length change
    prev_disc = np.ones(count, dtype=np.int16)      # its discrepancy
    shift = np.ones(count, dtype=np.int64)          # digits since then
    length = np.zeros(count, dtype=np.int64)
    out = np.zeros((count, width + 1), dtype=np.int64)
    cols = np.arange(width + 1)
    for j in range(width):
        disc = seqs[:, j]
        for i in range(1, j + 1):
            disc = np_add[disc, np_mul[conn[:, i], seqs[:, j - i]]]
        # conn - (disc / prev_disc) x^shift prev; a no-op where disc = 0
        src = cols - shift[:, None]
        shifted = np.where(src >= 0, np.take_along_axis(
            prev, np.maximum(src, 0), axis=1), 0).astype(np.int16)
        scale = np_mul[disc, np_inv[prev_disc]]
        update = np_sub[conn, np_mul[scale[:, None], shifted]]
        grow = (disc != 0) & (2 * length <= j)
        prev = np.where(grow[:, None], conn, prev)
        prev_disc = np.where(grow, disc, prev_disc)
        shift = np.where(grow, 1, shift + 1)
        length = np.where(grow, j + 1 - length, length)
        conn = update
        out[:, j + 1] = length
    return out


def arcs_through(q: int, deg: int, k: int, c: np.ndarray) -> np.ndarray:
    """The number of Farey arcs a/r with deg r = deg (r monic, |a| < |r|,
    gcd(a, r) = 1) whose expansion starts with a given k-digit prefix of
    linear complexity c, for an int64 array c.

    The first 2 deg digits of such an a/r are exactly the 2 deg-digit
    sequences of linear complexity deg, and they fix a/r.  So for
    k >= 2 deg a prefix lies on one arc when c = deg and on none
    otherwise.  For k < 2 deg the count is that of the extensions to
    2 deg digits of complexity deg.  By Massey's rule, one more digit
    keeps the complexity L of a j-digit sequence when 2L > j, and when
    2L <= j one digit keeps it and q - 1 digits change it to j + 1 - L;
    induction on k from 2 deg down gives q^(2 deg - k) when c = deg,
    (q - 1) q^(2 deg - k - 1) when k + 1 - deg <= c < deg, else 0."""
    if k >= 2 * deg:
        return (c == deg).astype(np.int64)
    return np.where(c == deg, q ** (2 * deg - k),
                    np.where((c < deg) & (c >= k + 1 - deg),
                             (q - 1) * q ** (2 * deg - k - 1),
                             0)).astype(np.int64)


class CountingProblem:
    def __init__(self, spec: FieldSpec, form: HypersurfaceForm, e: int,
                 budget: int = DEFAULT_BUDGET):
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
        self.budget = Budget(budget)
        self._blocks = None           # one distribution per variable block
        self._sum_table = None

    # -- bookkeeping -------------------------------------------------------------

    @property
    def budget_spent(self) -> int:
        return self.budget.spent

    def _refuse_past_int64(self, exponent: int, what: str):
        """ConfigError, before any charge, where an int64 assert would."""
        if self.spec.q ** exponent >= 1 << 63:
            raise ConfigError(f"{what} would overflow int64 at q^{exponent}")

    # -- the exponential sum -----------------------------------------------------

    def phase_distribution(self) -> list:
        """What S is read from: per block of variables, the distribution of
        its form over its own box (forms.block_distributions), of which
        D(c) = #{x in box : coeffs(F(x)) = c} is the fold.  Built once,
        and charged as a walk of the whole box, q^(n(e+1))."""
        if self._blocks is None:
            self._refuse_past_int64(self.box * self.n, "S histograms")
            self.budget.charge(self.spec.q ** (self.box * self.n),
                               "phase distribution build")
            self._blocks = block_distributions(self.form, self.e)
        return self._blocks

    def _tail(self, alpha: tuple) -> tuple:
        """The phase alpha, a tail tuple, checked to have length exactly B."""
        if len(alpha) != self.char_depth:
            raise PrecisionError(
                f"tail of length {len(alpha)}, S needs {self.char_depth}")
        return alpha

    def exp_sum(self, alpha) -> CyclotomicValue:
        """S(alpha) for one phase; see exp_sums."""
        return self.exp_sums([alpha])[0]

    def exp_sums(self, alphas) -> list:
        """S at every phase of `alphas`, in input order: the trace
        histograms of exp_sum_histograms folded into Q(zeta_p)."""
        return [CyclotomicValue.from_histogram(self.spec.p, hist)
                for hist in self.exp_sum_histograms(alphas).tolist()]

    def exp_sum_histograms(self, alphas) -> np.ndarray:
        """The trace histograms of S at every phase of `alphas`, as an
        int64 array of shape (phases, p) in input order: row a counts the
        box points x with tr <coeffs F(x), tail_a> = v, so S(alpha_a) =
        sum_v row[v] zeta^v.  A phase is a depth-B tail tuple (_tail).
        Once sum_table is built the rows are read off it, at tails @
        q^arange(B); until then the stacked tails go through the kernel
        (_histograms).  Which route a list takes is
        decided by whoever builds the table, never here, and nothing is
        charged beyond the phase distribution."""
        tails = [self._tail(alpha) for alpha in alphas]
        if not tails:
            return np.zeros((0, self.spec.p), dtype=np.int64)
        stack = np.array(tails, dtype=np.int16).reshape(len(tails),
                                                        self.char_depth)
        if self._sum_table is not None:
            return self._sum_table[stack @ self.spec.q ** np.arange(
                self.char_depth)]
        return self._histograms(stack)

    def _kernel_cost(self, phases: int) -> int:
        """The array operations of _histograms on `phases` tails: 2B + 1
        table gathers, p compares and p multiply-adds per (tail, support
        point) cell of each distinct block form."""
        blocks = dict(zip(self.form.parts, self.phase_distribution()))
        support = sum(len(keys) for keys, _ in blocks.values())
        return phases * support * (2 * self.char_depth + 1 + 2 * self.spec.p)

    def _table_cost(self) -> int:
        """What sum_table is charged: f B q^B p^2 adds per distinct block
        form."""
        spec, B = self.spec, self.char_depth
        parts = len(set(self.form.parts))
        return parts * spec.f * B * spec.q ** B * spec.p ** 2

    def _histograms(self, stack: np.ndarray) -> np.ndarray:
        """The S kernel: for a (tails x B) stack of depth-B tails, the int64
        histograms #{x in box : tr <coeffs F(x), tail> = v}, v in F_p, one
        row per tail: the cyclic convolution over F_p of one row per block
        of variables (the trace is additive), counted once per distinct
        block form over its own support.  Tails go in blocks of at most
        _SUM_BLOCK_CELLS (tail, support point) cells, so a list costs its
        tails times the summed supports times B table gathers; sum_table
        reads all tails by the character transform instead, and this
        kernel is its oracle in tests.  An entry is at most the box size
        q^(n(e+1))."""
        spec = self.spec
        q, p, B = spec.q, spec.p, self.char_depth
        blocks = dict(zip(self.form.parts, self.phase_distribution()))
        assert q ** (self.box * self.n) < 1 << 63, \
            "S histograms overflow int64"
        np_mul, np_add = spec.tables["np_mul"], spec.tables["np_add"]
        sups = {part: (decode_keys(q, keys, B), counts)
                for part, (keys, counts) in blocks.items()}
        block = max(1, _SUM_BLOCK_CELLS // max(len(sup)
                                               for sup, _ in sups.values()))
        hists = []
        for start in range(0, len(stack), block):
            tblock = stack[start:start + block]
            rows = {}
            for part, (sup, counts) in sups.items():
                acc = np.zeros((len(tblock), len(sup)), dtype=np.int16)
                for j in range(B):
                    acc = np_add[acc, np_mul[tblock[:, j:j + 1],
                                             sup[None, :, j]]]
                tr = spec.tables["np_trace"][acc]
                rows[part] = np.stack([(tr == v) @ counts for v in range(p)],
                                      axis=1)
            hists.append(functools.reduce(_convolve, [
                rows[part] for part in self.form.parts]))
        return np.concatenate(hists)

    def sum_table(self, charged: bool = False) -> np.ndarray:
        """S on every depth-B tail as one int64 histogram H of shape
        (q^B, p): row i is the histogram of S at the tail whose digits are
        the base-q digits of i, first digit fastest.  Each distinct block
        form's distribution goes through the exact character transform
        over F_q^B (_character_transform), and the blocks are convolved
        per tail.  Charged its adds, f B q^B p^2 per distinct block form
        (_table_cost), before any work, once, unless the caller has charged
        them (charged=True: weyl._charge_weyl, charge_dissection).  A
        transform holds two (q^B, p) int64 arrays; a convolution step holds
        the block tables, the running product, the next one and a product
        temporary smaller than one more.  Once built, exp_sum_histograms
        reads S off it.  _histograms is its oracle in tests."""
        if self._sum_table is not None:
            return self._sum_table
        spec = self.spec
        blocks = dict(zip(self.form.parts, self.phase_distribution()))
        if not charged:
            self.budget.charge(self._table_cost(), "sum table build")
        # a block entry is at most its block's box, a convolved row sums to
        # the whole box
        assert spec.q ** (self.box * self.n) < 1 << 63, \
            "sum table overflows int64"
        tables = {part: _character_transform(spec, keys, counts,
                                             self.char_depth)
                  for part, (keys, counts) in blocks.items()}
        self._sum_table = functools.reduce(
            _convolve, [tables[part] for part in self.form.parts])
        return self._sum_table

    # -- the dissection by degree -------------------------------------------------

    def degree_subtotals(self) -> dict:
        """{deg r: (arcs, subtotal)}: the number of arcs of each degree and
        the sum of their exact arc integrals of S, read off the sum table.

        An arc of degree D has y = D + floor(Q), and its integral is
        q^-max(y, B) times the sum of S over the depth-B tails whose first
        k = min(y, B) digits are those of a/r.  So each tail is weighted by
        the number of degree-D arcs through its first k digits, which
        depends only on their linear complexity (arcs_through), and the
        product with the sum table, _TAIL_BLOCK tails at a time so that the
        profile and the weights stay small, gives the subtotal's histogram."""
        spec = self.spec
        q, p, B = spec.q, spec.p, self.char_depth
        self._refuse_past_int64(self.box * self.n + 2 * self.arc_floor,
                                "arc histograms")
        table = self.sum_table()
        # Every int64 here is at most q^(n(e+1)) q^(2 floor(Q)): a table row
        # sums to the box size q^(n(e+1)); the arcs of one degree D have
        # distinct prefixes when y <= B, so they cover at most q^B rows,
        # and when y > B there are at most q^(2D) of them; partial sums too.
        assert B <= 2 * self.arc_floor           # de + 1 <= d(e+1) - 1
        assert q ** (self.box * self.n + 2 * self.arc_floor) < 2 ** 63, \
            "arc histograms would overflow int64"
        degs = range(self.arc_floor + 1)
        depths = [min(deg + self.arc_floor, B) for deg in degs]
        hists = np.zeros((len(degs), p), dtype=np.int64)
        weighted = np.zeros(len(degs), dtype=np.int64)
        for start in range(0, q ** B, _TAIL_BLOCK):
            stop = min(start + _TAIL_BLOCK, q ** B)
            profile = complexity_profile(
                spec, decode_keys(q, np.arange(start, stop), B))
            for deg, k in zip(degs, depths):
                weights = arcs_through(q, deg, k, profile[:, k])
                hists[deg] += weights @ table[start:stop]
                weighted[deg] += weights.sum()
        return {deg: (int(weighted[deg]) // q ** (B - k),
                      CyclotomicValue.from_histogram(p, hists[deg].tolist())
                      * Fraction(1, q ** max(deg + self.arc_floor, B)))
                for deg, k in zip(degs, depths)}

    def charge_dissection(self):
        """Charge dissect-verify before any of its work, in the order it is
        done: the phase distribution (built as it is charged), the sum
        table, then the brute count's walk of the box.  A run whose brute
        count overdraws builds no sum table.  The arc histograms that
        would overflow int64 are refused first (ConfigError)."""
        self._refuse_past_int64(self.box * self.n + 2 * self.arc_floor,
                                "arc histograms")
        self.phase_distribution()
        if self._sum_table is None:
            self.budget.charge(self._table_cost(), "sum table build")
        self.budget.charge(self.spec.q ** (self.box * self.n),
                           "brute-force count")

    def dissection_total(self) -> CyclotomicValue:
        """Sum of all arc integrals; equals N(P) when everything is exact."""
        total = CyclotomicValue.zero(self.spec.p)
        for _, subtotal in self.degree_subtotals().values():
            total = total + subtotal
        return total

    def major_total(self) -> CyclotomicValue:
        """Contribution of the major atoms (r = 1, |theta| < q^{-de-1}):
        the zero depth-B tail of the arc with deg r = 0, S there times its
        measure q^-B."""
        B = self.char_depth
        return self.exp_sum((0,) * B) * Fraction(1, self.spec.q ** B)

    # -- the independent count ------------------------------------------------------

    def brute_count(self, charged: bool = False) -> int:
        """#{x in box : F(x) = 0} (includes x = 0): the whole box walked
        jointly (forms.zero_count), with no block split, fold or trace.
        Charged as a walk of the box unless the caller has charged it
        (charged=True: charge_dissection)."""
        if not charged:
            self.budget.charge(self.spec.q ** (self.box * self.n),
                               "brute-force count")
        return zero_count(self.form, self.e)
