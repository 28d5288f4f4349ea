"""Exact linear algebra over F_q and over F_q(t).

Matrices over F_q hold element indices.  The batched routines run Gaussian
elimination simultaneously on a whole stack of small matrices using the
field's numpy lookup tables; the stacks are held in int16 when the flat
table index x*q + y fits it (q <= 181, every shipped field) and in int32
otherwise, and all counts derived from ranks are returned as Python ints.
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


def _index_dtype(q: int):
    """Dtype of a stack over F_q: the flat index x*q + y must fit it."""
    assert q * q <= np.iinfo(np.int32).max
    return np.int16 if q * q <= np.iinfo(np.int16).max else np.int32


def _pivot_step(spec: FieldSpec, a, b, piv, r0, col: int, above: bool):
    """One elimination step on the matrices b of the stack a (B, R, C):
    row piv[k] of matrix b[k], normalized to 1 at col, moves to row r0[k]
    and the row there to piv[k]; then col is cleared in the rows below r0
    (and above it too when `above`).  Returns the stack, which is a itself
    when b holds every matrix.  Products and differences are 1-D gathers
    from the raveled tables at the flat index x*q + y, in a's dtype."""
    q, dt = spec.q, a.dtype
    assert dt == _index_dtype(q)
    mul, sub = (spec.tables[t].ravel().astype(dt, copy=False)
                for t in ("np_mul", "np_sub"))
    every = b.size == len(a)
    rows = a if every else a[b]
    k = np.arange(b.size)
    pivrow = rows[k, piv]
    rows[k, piv] = rows[k, r0]
    pivrow = mul[pivrow * q + spec.tables["np_inv"][pivrow[:, col]][:, None]]
    rows[k, r0] = pivrow
    rowidx = np.arange(a.shape[1])
    clear = (rowidx != r0[:, None]) if above else (rowidx > r0[:, None])
    factors = np.where(clear, rows[:, :, col], 0)
    prods = mul[factors[:, :, None] * q + pivrow[:, None, :]]
    rows *= q
    rows += prods
    rows = sub[rows]
    if every:
        return rows
    a[b] = rows
    return a


def batched_rank(spec: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices, shape (B, R, C) of element indices.

    Vectorized forward elimination over the batch axis; returns an int64
    array of length B."""
    a = np.array(mats, dtype=_index_dtype(spec.q))
    bsz, nrows, ncols = a.shape
    rank = np.zeros(bsz, dtype=np.int64)
    rowidx = np.arange(nrows)
    for col in range(ncols):
        cand = (a[:, :, col] != 0) & (rowidx >= rank[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not b.size:
            continue
        a = _pivot_step(spec, a, b, cand[b].argmax(axis=1), rank[b], col,
                        above=False)
        rank[b] += 1
        if (rank >= nrows).all():
            break
    return rank


def batched_nullspace(spec: FieldSpec, mats: np.ndarray):
    """Right nullspaces of a stack of matrices, shape (B, R, C) of element
    indices, by vectorized Gauss-Jordan elimination over the batch axis.

    Returns (basis, free): free[b, f] says column f of matrix b has no
    pivot, and then basis[b, f] is the nullspace vector with 1 at f and 0
    at every other free column (solve_nullspace's vector for f); rows of
    basis at pivot columns are 0."""
    np_neg = spec.tables["np_neg"]
    a = np.array(mats, dtype=_index_dtype(spec.q))
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
        a = _pivot_step(spec, a, b, piv[b], rowptr[b], col, above=True)
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
