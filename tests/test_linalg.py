import itertools

import numpy as np
import pytest

from fflab import latgon, linalg, moduli, weyl
from fflab.fields import FieldSpec
from fflab.linalg import batched_nullspace, batched_poly_rank, batched_rank
from scalars import Polynomial

# prime fields take the lazy update, the others the table update
FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (181, 1),
          (191, 1)]
SHAPES = [(40, 4, 4), (30, 5, 7), (20, 7, 3), (25, 1, 6), (5, 0, 3),
          (5, 3, 0), (0, 3, 3)]


def _eliminate(spec, rows, above: bool):
    """Gaussian elimination of one matrix (list of index rows) through the
    scalar field tables, each pivot row normalized to 1 and its column
    cleared below it (and above it too when `above`): the reduced rows and
    the pivot columns."""
    mul, sub, inv = spec.tables["mul"], spec.tables["sub"], spec.tables["inv"]
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pinv = inv[a[rank][col]]
        a[rank] = [mul[x][pinv] for x in a[rank]]
        for r in range(0 if above else rank + 1, nrows):
            if r != rank and a[r][col]:
                frow = mul[a[r][col]]
                a[r] = [sub[x][frow[y]] for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return a, pivots


def rank_mod_q(spec, rows) -> int:
    """Rank of one matrix by scalar elimination: the oracle of
    batched_rank."""
    return len(_eliminate(spec, rows, above=False)[1])


def solve_nullspace(spec, rows):
    """Basis (list of index vectors) of the right nullspace of one matrix,
    one vector per free column f, with 1 at f and 0 at every other free
    column: the oracle of batched_nullspace."""
    a, pivots = _eliminate(spec, rows, above=True)
    ncols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = spec.tables["neg"][a[r][fc]]
        basis.append(vec)
    return basis


def poly_matrix_rank(rows) -> int:
    """Rank over the fraction field F_q(t) of a matrix of Polynomial
    entries, by fraction-free elimination (cross-multiplication; no
    division): the oracle of batched_poly_rank."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        for r in range(rank + 1, nrows):
            f = a[r][col]
            if not f.is_zero():
                a[r] = [x * pv - y * f for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _sparse_stack(spec, rng, shape):
    # 60% zeros, so that in one column some matrices pivot and others not
    mats = rng.integers(0, spec.q, size=shape)
    mats[rng.random(shape) < 0.6] = 0
    return mats


def test_rank_mod_q_known(spec5):
    assert rank_mod_q(spec5, [[1, 2], [2, 4]]) == 1
    assert rank_mod_q(spec5, [[1, 2], [2, 3]]) == 2
    assert rank_mod_q(spec5, [[0, 0], [0, 0]]) == 0
    assert rank_mod_q(spec5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_extension_field():
    spec = FieldSpec(5, 2)
    g = 5                           # index of the generator coordinate
    # rows (1, g) and (g, g^2) are proportional over F_25
    g2 = spec.mul(g, g)
    assert rank_mod_q(spec, [[1, g], [g, g2]]) == 1
    assert rank_mod_q(spec, [[1, g], [0, 1]]) == 2


def test_nullspace_vectors_annihilate(spec5):
    rows = [[1, 2, 3, 0], [0, 1, 4, 1]]
    basis = solve_nullspace(spec5, rows)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            acc = 0
            for a, x in zip(row, vec):
                acc = spec5.add(acc, spec5.mul(a, x))
            assert acc == 0


@pytest.mark.parametrize("p,f", FIELDS)
def test_batched_rank_matches_loop(p, f):
    # rank_mod_q is the oracle, matrix for matrix
    spec = FieldSpec(p, f)
    rng = np.random.default_rng(7)
    for shape in SHAPES:
        mats = _sparse_stack(spec, rng, shape)
        got = batched_rank(spec, mats)
        assert got.tolist() == [rank_mod_q(spec, m.tolist()) for m in mats]


@pytest.mark.parametrize("p", [181, 191])
def test_batched_rank_on_both_sides_of_the_int16_index(p):
    # 181^2 still fits int16; 191^2 does not, so its stacks are int32.
    # Products of 4 x 2 and 2 x 5 matrices: rank at most 2, so wrong
    # arithmetic shows as a higher rank
    spec = FieldSpec(p)
    rng = np.random.default_rng(3)
    mats = (rng.integers(0, p, size=(60, 4, 2))
            @ rng.integers(0, p, size=(60, 2, 5))) % p
    got = batched_rank(spec, mats)
    assert got.tolist() == [rank_mod_q(spec, m.tolist()) for m in mats]


@pytest.mark.parametrize("p,f", FIELDS)
def test_batched_nullspace_matches_the_loop(p, f):
    # sparse stacks, so that many are singular; solve_nullspace is the
    # oracle, vector for vector
    spec = FieldSpec(p, f)
    rng = np.random.default_rng(11)
    for shape in SHAPES:
        mats = _sparse_stack(spec, rng, shape)
        basis, free = batched_nullspace(spec, mats)
        for b in range(shape[0]):
            want = solve_nullspace(spec, mats[b].tolist())
            if not shape[1]:
                want = np.eye(shape[2], dtype=int).tolist()
            assert basis[b][free[b]].tolist() == want


def _check_both_kernels(spec, mats):
    """Both kernels against the scalar oracles on every matrix of mats,
    which they must leave as it was."""
    before = mats.copy()
    ranks = batched_rank(spec, mats)
    basis, free = batched_nullspace(spec, mats)
    assert (mats == before).all()
    for b, m in enumerate(mats.tolist()):
        assert ranks[b] == rank_mod_q(spec, m)
        assert basis[b][free[b]].tolist() == solve_nullspace(spec, m)
    return ranks


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("p", [5, 191])
def test_kernels_leave_their_input_unchanged(p, dtype):
    # an int16 stack over F_5 has the kernels' own dtype, so only their
    # copy keeps them from writing into it; one-row stacks too
    spec = FieldSpec(p)
    for shape in [(30, 4, 5), (30, 1, 5)]:
        mats = _sparse_stack(spec, np.random.default_rng(5), shape)
        _check_both_kernels(spec, mats.astype(dtype))


@pytest.mark.parametrize("rows", [1, 3])
def test_kernels_leave_a_fancy_indexed_view_unchanged(spec5, rows):
    # an int16 Hankel stack cut by fancy indexing, as the complexity
    # profile's test builds it: its batch-last transpose is already
    # contiguous at the kernels' dtype, so a kernel that took it as its
    # working copy would write the caller's digits
    digits = _sparse_stack(spec5, np.random.default_rng(rows), (60, 7))
    digits = digits.astype(np.int16)
    hankel = digits[:, np.arange(rows)[:, None] + np.arange(8 - rows)]
    assert hankel.transpose(1, 2, 0).flags.c_contiguous
    _check_both_kernels(spec5, hankel)


@pytest.mark.parametrize("p,ncols,dtype", [(5, 2047, np.int16),
                                           (5, 2048, np.int32),
                                           (2, 1, np.int16)])
def test_kernels_at_the_lazy_bound(p, ncols, dtype):
    # (p-1)(1 + C(p-1)) fits int16 up to C = 2047 over F_5; F_2 with one
    # column is the smallest prime field and stack
    spec = FieldSpec(p)
    mats = _sparse_stack(spec, np.random.default_rng(ncols), (3, 3, ncols))
    mats[0, 2] = mats[0, 0] + mats[0, 1]
    assert linalg._batch_last(spec, mats)[1].dtype == dtype
    _check_both_kernels(spec, mats % p)


def test_modules_rank_through_the_linalg_kernels():
    # the benchmark's tracer wraps these names where they are looked up
    assert weyl.batched_rank is moduli.batched_rank is batched_rank
    assert latgon.batched_rank is batched_rank
    assert latgon.batched_nullspace is batched_nullspace


def test_used_pivot_row_is_never_picked_again(spec5):
    # the pivot row of column 0 stays nonzero at the free column 1; in
    # every row order it must not pivot again, at column 1 or 2
    rows = [[1, 1, 0], [0, 0, 1]]
    for order in itertools.permutations(rows):
        mats = np.array([order])
        assert _check_both_kernels(spec5, mats).tolist() == [2]
        basis, free = batched_nullspace(spec5, mats)
        assert free.tolist() == [[False, True, False]]
        assert basis[0][free[0]].tolist() == [[4, 1, 0]]


def test_full_row_rank_early_beside_deficient_matrices(spec5):
    # 2 x 5 matrices of full row rank after two columns (the kernels stop
    # only once every matrix has one), stacked with deficient ones whose
    # pivots come late or never
    mats = np.array([[[1, 0, 3, 4, 2], [0, 1, 2, 0, 1]],
                     [[0, 0, 0, 0, 1], [0, 0, 0, 0, 2]],
                     [[2, 3, 0, 0, 0], [0, 0, 0, 4, 0]],
                     [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
                     [[3, 1, 1, 1, 1], [1, 3, 2, 2, 2]]])
    assert _check_both_kernels(spec5, mats).tolist() == [2, 1, 2, 0, 2]


@pytest.mark.parametrize("p", [5, 191])
def test_all_zero_stack(p):
    spec = FieldSpec(p)
    mats = np.zeros((4, 3, 5), dtype=np.int16)
    assert _check_both_kernels(spec, mats).tolist() == [0] * 4
    basis, free = batched_nullspace(spec, mats)
    assert free.all() and (basis == np.eye(5, dtype=np.int16)).all()


@pytest.mark.parametrize("p", [5, 191])
def test_tall_stacks_padded_with_zero_rows(p):
    # as latgon._batched stacks its systems: int16, each system's rows
    # first and zero rows after them up to the tallest system
    spec = FieldSpec(p)
    rng = np.random.default_rng(p)
    mats = np.zeros((50, 26, 16), dtype=np.int16)
    for b, height in enumerate(rng.integers(0, 27, size=50)):
        mats[b, :height] = _sparse_stack(spec, rng, (height, 16))
    ranks = _check_both_kernels(spec, mats)
    assert ranks.max() == 16 and len(set(ranks.tolist())) > 8


def test_batched_solution_counts(spec5):
    mats = np.array([[[1, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]])
    ranks = batched_rank(spec5, mats)
    assert ranks.tolist() == [2, 1, 0]
    # A u = 0 has q^(C - rank) solutions u in F_q^C
    assert [5 ** (2 - r) for r in ranks.tolist()] == [1, 5, 25]


def test_poly_matrix_rank(spec5):
    t = Polynomial.gen(spec5)
    one = Polynomial.one(spec5)
    assert poly_matrix_rank([[t, one], [t * t, t]]) == 1
    assert poly_matrix_rank([[t, one], [one, t]]) == 2
    zero = Polynomial.zero(spec5)
    assert poly_matrix_rank([[zero, zero], [zero, zero]]) == 0


def _poly_matrices(spec, rng, k, ncols, top):
    """A k x N matrix of random polynomials of degree <= top (half of the
    entries zero), and one whose last row is a polynomial combination of
    the others, with multipliers of degree <= 1."""
    def poly(deg):
        if rng.random() < 0.5:
            return Polynomial.zero(spec)
        return Polynomial(spec, rng.integers(0, spec.q, size=deg + 1).tolist())

    full = [[poly(top) for _ in range(ncols)] for _ in range(k)]
    step = min(top, 1)
    base = [[poly(top - step) for _ in range(ncols)] for _ in range(k - 1)]
    last = [Polynomial.zero(spec)] * ncols
    for row in base:
        c = Polynomial(spec, rng.integers(0, spec.q, size=step + 1).tolist())
        last = [x + c * y for x, y in zip(last, row)]
    return [full, base + [last]]


def _coefficient_stack(mats, width):
    return np.array([[[list(e.coeffs) + [0] * (width - len(e.coeffs))
                       for e in row] for row in mat] for mat in mats],
                    dtype=np.int64).reshape(len(mats), len(mats[0]),
                                            len(mats[0][0]), width)


@pytest.mark.parametrize("p,f", [(5, 1), (7, 1), (5, 2)])
def test_batched_poly_rank_matches_fraction_free_elimination(p, f):
    # k = 1..8 rows, N = 2..4 columns, top degree 0..6; the deficient
    # matrices have a rank below min(k, N) when k <= N
    spec = FieldSpec(p, f)
    rng = np.random.default_rng(13)
    for k in range(1, 9):
        for ncols in range(2, 5):
            top = (k + ncols) % 7
            mats = _poly_matrices(spec, rng, k, ncols, top)
            got = batched_poly_rank(spec, _coefficient_stack(mats, top + 1))
            assert got.tolist() == [poly_matrix_rank(m) for m in mats]


@pytest.mark.parametrize("p,f", [(5, 1), (2, 2)])
def test_batched_poly_rank_past_the_points_of_the_field(p, f):
    # rows (t^q - t, 0) and (0, 1): rank 2 over F_q(t), but t^q - t
    # vanishes on F_q, so every evaluation over F_q has rank 1 and only a
    # proper extension certifies the rank
    spec = FieldSpec(p, f)
    q = spec.q
    stack = np.zeros((1, 2, 2, q + 1), dtype=np.int64)
    stack[0, 0, 0, [1, q]] = [spec.neg(1), 1]
    stack[0, 1, 1, 0] = 1
    assert batched_poly_rank(spec, stack).tolist() == [2]
    zero, one = Polynomial.zero(spec), Polynomial.one(spec)
    entry = Polynomial(spec, stack[0, 0, 0].tolist())
    assert poly_matrix_rank([[entry, zero], [zero, one]]) == 2
    for a in range(q):
        at_a = entry(spec.from_index(a)).idx
        assert rank_mod_q(spec, [[at_a, 0], [0, 1]]) == 1


def test_batched_poly_rank_of_empty_stacks(spec5):
    for shape in [(0, 2, 2, 3), (3, 0, 2, 3), (3, 2, 0, 3), (3, 2, 2, 0),
                  (3, 2, 2, 4)]:
        stack = np.zeros(shape, dtype=np.int64)
        assert batched_poly_rank(spec5, stack).tolist() == [0] * shape[0]


def test_poly_from_idx(spec5):
    # index coefficients and integer coefficients agree on F_5
    p = Polynomial(spec5, [1, 0, 3])
    assert p == Polynomial.from_ints(spec5, [1, 0, 3])
