"""Exact linear algebra over F_q and over F_q(t).

Matrices over F_q hold element indices.  The batched routines run Gaussian
elimination simultaneously on a whole stack of small matrices using the
field's numpy lookup tables; indices are bounded by q <= 25 so int16 storage
is exact, and all counts derived from ranks are returned as Python ints.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec


def rank_mod_q(spec: FieldSpec, rows) -> int:
    """Rank of a single matrix (list of index rows)."""
    mul, sub, inv = spec.tables["mul"], spec.tables["sub"], spec.tables["inv"]
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pinv = inv[a[rank][col]]
        a[rank] = [mul[x][pinv] for x in a[rank]]
        for r in range(rank + 1, nrows):
            f = a[r][col]
            if f:
                frow = mul[f]
                a[r] = [sub[x][frow[y]] for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def batched_rank(spec: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices, shape (B, R, C) of element indices.

    Vectorized forward elimination over the batch axis; returns an int64
    array of length B."""
    np_mul = spec.tables["np_mul"]
    np_sub = spec.tables["np_sub"]
    np_inv = spec.tables["np_inv"]
    a = np.ascontiguousarray(mats, dtype=np.int16).copy()
    bsz, nrows, ncols = a.shape
    if bsz == 0:
        return np.zeros(0, dtype=np.int64)
    rank = np.zeros(bsz, dtype=np.int64)
    rowptr = np.zeros(bsz, dtype=np.int64)
    rowidx = np.arange(nrows)
    for col in range(ncols):
        colvals = a[:, :, col]
        cand = (colvals != 0) & (rowidx[None, :] >= rowptr[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        r0 = rowptr[b]
        piv = cand[b].argmax(axis=1)
        # swap pivot row up, normalize it, then clear everything below
        tmp = a[b, r0, :].copy()
        a[b, r0, :] = a[b, piv, :]
        a[b, piv, :] = tmp
        pinv = np_inv[a[b, r0, col]]
        a[b, r0, :] = np_mul[a[b, r0, :], pinv[:, None]]
        factors = np.where(rowidx[None, :] > r0[:, None], a[b, :, col], 0)
        pivrow = a[b, r0, :]
        a[b] = np_sub[a[b], np_mul[factors[:, :, None], pivrow[:, None, :]]]
        rowptr[b] += 1
        rank[b] += 1
        if (rowptr >= nrows).all():
            break
    return rank


def batched_nullspace(spec: FieldSpec, mats: np.ndarray):
    """Right nullspaces of a stack of matrices, shape (B, R, C) of element
    indices, by vectorized Gauss-Jordan elimination over the batch axis.

    Returns (basis, free): free[b, f] says column f of matrix b has no
    pivot, and then basis[b, f] is the nullspace vector with 1 at f and 0
    at every other free column (solve_nullspace's vector for f); rows of
    basis at pivot columns are 0."""
    np_mul = spec.tables["np_mul"]
    np_sub = spec.tables["np_sub"]
    np_inv = spec.tables["np_inv"]
    np_neg = spec.tables["np_neg"]
    a = np.array(mats, dtype=np.int16)
    bsz, nrows, ncols = a.shape
    pivcol = np.full((bsz, nrows), -1, dtype=np.int64)
    rowptr = np.zeros(bsz, dtype=np.int64)
    rowidx = np.arange(nrows)
    everyone = np.arange(bsz)
    for col in range(ncols):
        if not (rowptr < nrows).any():
            break
        cand = (a[:, :, col] != 0) & (rowidx >= rowptr[:, None])
        piv = cand.argmax(axis=1)
        b = np.flatnonzero(cand[everyone, piv])
        if not b.size:
            continue
        piv, r0 = piv[b], rowptr[b]
        # the pivot row, normalized, moves to r0 and the row at r0 to piv
        pivrow = a[b, piv]
        a[b, piv] = a[b, r0]
        pivrow = np_mul[pivrow, np_inv[pivrow[:, col]][:, None]]
        a[b, r0] = pivrow
        # clear the pivot column in every other row, above and below
        rows = a if b.size == bsz else a[b]
        factors = rows[:, :, col].copy()
        factors[np.arange(b.size), r0] = 0
        rows = np_sub[rows, np_mul[factors[:, :, None], pivrow[:, None, :]]]
        if b.size == bsz:
            a = rows
        else:
            a[b] = rows
        pivcol[b, r0] = col
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


def solve_nullspace(spec: FieldSpec, rows):
    """Basis (list of index vectors) of the right nullspace of one matrix."""
    mul, sub, inv, neg = (spec.tables["mul"], spec.tables["sub"],
                          spec.tables["inv"], spec.tables["neg"])
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pinv = inv[a[rank][col]]
        a[rank] = [mul[x][pinv] for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col]:
                frow = mul[a[r][col]]
                a[r] = [sub[x][frow[y]] for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = neg[a[r][fc]]
        basis.append(vec)
    return basis


def poly_matrix_rank(rows) -> int:
    """Rank over the fraction field F_q(t) of a matrix of Polynomial entries,
    by fraction-free elimination (cross-multiplication; no division)."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return 0
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
