"""Exact linear algebra over F_q and over F_q(t).

Matrices over F_q hold element indices.  The batched routines run Gaussian
elimination simultaneously on a whole stack of small matrices using the
field's numpy lookup tables; the stacks are held in int16 when the flat
table index x*q + y fits it (q <= 181, every shipped field) and in int32
otherwise, and all counts derived from ranks are returned as Python ints.
No row ever moves, and a matrix without a pivot in the column of a step
is left as it was with no mask: its multipliers of the pivot row are 0.
Ranks over F_q(t) are ranks of evaluations at enough points of F_q or of
an extension (batched_poly_rank), all ranked in one batched_rank call.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec, extension


def _index_tables(spec: FieldSpec):
    """The dtype of a stack over F_q, which the flat index x*q + y must
    fit, and the mul and sub tables raveled for 1-D gathers at it."""
    q = spec.q
    assert q * q <= np.iinfo(np.int32).max
    dt = np.int16 if q * q <= np.iinfo(np.int16).max else np.int32
    return dt, *(spec.tables[t].ravel().astype(dt, copy=False)
                 for t in ("np_mul", "np_sub"))


def batched_rank(spec: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices, shape (B, R, C) of element indices.

    Vectorized forward elimination over the batch axis, one column at a
    time, in which no row moves.  The first row of a matrix that is
    nonzero at column 0 is its pivot row, and every row r, the pivot row
    included, loses f[r] = a[r, 0] / pivot times the pivot row: the pivot
    row has f = 1, so it clears itself and is never chosen again, and a
    matrix with no pivot has f = 0 in every row, so it is unchanged
    without a mask.  Then column 0 is dropped.  mats is never written.
    Returns an int64 array of length B."""
    q, inv = spec.q, spec.tables["np_inv"]
    dt, mul, sub = _index_tables(spec)
    a = np.asarray(mats, dtype=dt)
    bsz, nrows, ncols = a.shape
    rank = np.zeros(bsz, dtype=np.int64)
    k = np.arange(bsz)
    for _ in range(ncols):
        col = a[:, :, 0]
        nonzero = col != 0
        has = nonzero.any(axis=1)
        if not has.any():
            a = a[:, :, 1:]
            continue
        piv = nonzero.argmax(axis=1)
        f = mul[col * q + inv[col[k, piv]][:, None]]
        pivrow = a[k, piv, 1:]
        step = a[:, :, 1:] * q
        step += mul[f[:, :, None] * q + pivrow[:, None, :]]
        a = sub[step]
        rank += has
        if (rank >= nrows).all():
            break
    return rank


def batched_nullspace(spec: FieldSpec, mats: np.ndarray):
    """Right nullspaces of a stack of matrices, shape (B, R, C) of element
    indices, by vectorized Gauss-Jordan elimination over the batch axis in
    which no row moves.  pivcol[b, r] is the pivot column of row r of
    matrix b, -1 while it has none.  At column col the pivot row is the
    first row without a pivot that is nonzero there (a row with one may
    be nonzero in a later free column, and is never chosen again); it is
    normalized to 1 in its own place and the column is cleared in every
    other row.  Only the matrices with a pivot at col are touched, and
    only their columns >= col: the pivot row is zero left of it.  Stops
    once every row has a pivot.

    Returns (basis, free): free[b, f] says column f of matrix b has no
    pivot, and then basis[b, f] is the nullspace vector with 1 at f and 0
    at every other free column; rows of basis at pivot columns are 0."""
    q, inv = spec.q, spec.tables["np_inv"]
    dt, mul, sub = _index_tables(spec)
    a = np.array(mats, dtype=dt)
    bsz, nrows, ncols = a.shape
    pivcol = np.full((bsz, nrows), -1, dtype=np.int64)
    for col in range(ncols):
        open_rows = pivcol < 0
        if not open_rows.any():
            break
        cand = (a[:, :, col] != 0) & open_rows
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = np.flatnonzero(has)
        k, piv = np.arange(len(b)), cand[b].argmax(axis=1)
        block = a[b, :, col:]
        pivrow = block[k, piv]
        pivrow = mul[pivrow * q + inv[pivrow[:, :1]]]
        f = block[:, :, 0].copy()
        f[k, piv] = 0
        block *= q
        block += mul[f[:, :, None] * q + pivrow[:, None, :]]
        block = sub[block]
        block[k, piv] = pivrow
        a[b, :, col:] = block
        pivcol[b, piv] = col
    free = np.ones((bsz, ncols), dtype=bool)
    bi, ri = np.nonzero(pivcol >= 0)
    free[bi, pivcol[bi, ri]] = False
    basis = np.zeros((bsz, ncols, ncols), dtype=np.int16)
    basis[bi, :, pivcol[bi, ri]] = spec.tables["np_neg"][a[bi, ri, :]]
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
