"""Exact linear algebra over F_q and over F_q(t).

Matrices over F_q hold element indices.  The batched routines run Gaussian
elimination simultaneously on a whole stack of small matrices using the
field's numpy lookup tables; the stacks are held in int16 when the flat
table index x*q + y fits it (q <= 181, every shipped field) and in int32
otherwise, and all counts derived from ranks are returned as Python ints.
Each elimination step touches only the columns it can still change.
Ranks over F_q(t) are ranks of evaluations at enough points of F_q or of
an extension (batched_poly_rank), all ranked in one batched_rank call.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec, extension


def _index_dtype(q: int):
    """Dtype of a stack over F_q: the flat index x*q + y must fit it."""
    assert q * q <= np.iinfo(np.int32).max
    return np.int16 if q * q <= np.iinfo(np.int16).max else np.int32


def _pivot_step(spec: FieldSpec, a, has, piv, r0, above: bool):
    """One elimination step at column 0 of the stack a (B, R, C): in every
    matrix b with has[b], row piv[b], normalized to 1 at column 0, moves to
    row r0[b] and the row there to piv[b]; then column 0 is cleared in the
    rows below r0[b] (and above it too when `above`).  A matrix without
    has[b] comes out unchanged: it swaps row 0 with itself, scales it by 1
    and subtracts zero multiples of it.  Overwrites a and returns the new
    stack, without column 0 unless `above` (forward elimination never reads
    it again).  Products and differences are 1-D gathers from the raveled
    tables at the flat index x*q + y, in a's dtype."""
    q, dt = spec.q, a.dtype
    assert dt == _index_dtype(q)
    mul, sub = (spec.tables[t].ravel().astype(dt, copy=False)
                for t in ("np_mul", "np_sub"))
    k = np.arange(len(a))
    piv = np.where(has, piv, 0)
    r0 = np.where(has, r0, 0)
    pivrow = a[k, piv]
    a[k, piv] = a[k, r0]
    scale = np.where(has, spec.tables["np_inv"][pivrow[:, 0]], 1)
    pivrow = mul[pivrow * q + scale[:, None]]
    a[k, r0] = pivrow
    rowidx = np.arange(a.shape[1])
    clear = (rowidx != r0[:, None]) if above else (rowidx > r0[:, None])
    factors = np.where(clear & has[:, None], a[:, :, 0], 0)
    if not above:
        a, pivrow = a[:, :, 1:], pivrow[:, 1:]
    a *= q
    a += mul[factors[:, :, None] * q + pivrow[:, None, :]]
    return sub[a]


def batched_rank(spec: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices, shape (B, R, C) of element indices.

    Vectorized forward elimination over the batch axis, one column at a
    time; each step updates the whole stack (a matrix with no pivot in the
    column by zero multiples) and drops the column.  Returns an int64
    array of length B."""
    a = np.array(mats, dtype=_index_dtype(spec.q))
    bsz, nrows, ncols = a.shape
    rank = np.zeros(bsz, dtype=np.int64)
    rowidx = np.arange(nrows)
    for _ in range(ncols):
        cand = (a[:, :, 0] != 0) & (rowidx >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            a = a[:, :, 1:]
            continue
        a = _pivot_step(spec, a, has, cand.argmax(axis=1), rank, above=False)
        rank += has
        if (rank >= nrows).all():
            break
    return rank


def batched_nullspace(spec: FieldSpec, mats: np.ndarray):
    """Right nullspaces of a stack of matrices, shape (B, R, C) of element
    indices, by vectorized Gauss-Jordan elimination over the batch axis.
    The step at column col updates only columns >= col: the pivot row is
    zero left of it.

    Returns (basis, free): free[b, f] says column f of matrix b has no
    pivot, and then basis[b, f] is the nullspace vector with 1 at f and 0
    at every other free column; rows of
    basis at pivot columns are 0."""
    np_neg = spec.tables["np_neg"]
    a = np.array(mats, dtype=_index_dtype(spec.q))
    bsz, nrows, ncols = a.shape
    pivcol = np.full((bsz, nrows), -1, dtype=np.int64)
    rowptr = np.zeros(bsz, dtype=np.int64)
    rowidx = np.arange(nrows)
    for col in range(ncols):
        if not (rowptr < nrows).any():
            break
        cand = (a[:, :, col] != 0) & (rowidx >= rowptr[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = np.flatnonzero(has)
        a[b, :, col:] = _pivot_step(spec, a[b, :, col:], has[b],
                                    cand[b].argmax(axis=1), rowptr[b],
                                    above=True)
        pivcol[b, rowptr[b]] = col
        rowptr[b] += 1
    free = np.ones((bsz, ncols), dtype=bool)
    bi, ri = np.nonzero(pivcol >= 0)
    free[bi, pivcol[bi, ri]] = False
    basis = np.zeros((bsz, ncols, ncols), dtype=np.int16)
    basis[bi, :, pivcol[bi, ri]] = np_neg[a[bi, ri, :]]
    basis[~free] = 0
    bf, ff = np.nonzero(free)
    basis[bf, ff, ff] = 1
    return basis, free


def batched_poly_rank(spec: FieldSpec, polys: np.ndarray) -> np.ndarray:
    """Ranks over F_q(t) of a stack of polynomial matrices, shape
    (B, k, N, W) of element indices, entry [b, i, j, w] the t^w coefficient
    of entry (i, j) of matrix b; returns an int64 array of length B.

    Certified evaluation.  Let D be the top degree of the stack and
    P = min(k, N) D + 1.  Every matrix is evaluated at P distinct points of
    the smallest field E containing F_q with |E| >= P, the P k x N values
    of all matrices are ranked together over E, and the rank over F_q(t) is
    the largest of them.  That is exact:
      * the rank at a point never exceeds the rank over F_q(t), since a
        minor that vanishes identically vanishes at every point;
      * a nonzero r x r minor (r <= min(k, N)) is a polynomial of degree at
        most r D < P, so it cannot vanish at all P points.
    E = F_q when P <= q; a proper extension is built only when F_q has too
    few points, as for the rows (t^q - t, 0) and (0, 1), which have rank 2
    over F_q(t) and rank 1 at every point of F_q."""
    bsz, k, ncols, width = polys.shape
    nonzero = np.flatnonzero(polys.any(axis=(0, 1, 2)))
    if not (bsz and k and ncols and nonzero.size):
        return np.zeros(bsz, dtype=np.int64)
    top = int(nonzero[-1])
    npoints = min(k, ncols) * top + 1
    ell = 1
    while spec.q ** ell < npoints:
        ell += 1
    ext, embed = extension(spec, ell)
    add, mul = ext.tables["np_add"], ext.tables["np_mul"]
    coeffs = embed[polys[..., :top + 1]]
    points = np.arange(npoints)[:, None, None]
    # Horner at every point: values (B, P, k, N)
    values = np.broadcast_to(coeffs[:, None, ..., top],
                             (bsz, npoints, k, ncols))
    for w in range(top - 1, -1, -1):
        values = add[mul[values, points], coeffs[:, None, ..., w]]
    ranks = batched_rank(ext, values.reshape(bsz * npoints, k, ncols))
    return ranks.reshape(bsz, npoints).max(axis=1)
