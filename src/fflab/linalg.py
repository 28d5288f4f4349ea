"""Exact linear algebra over F_q and over F_q(t).

Matrices over F_q hold element indices; counts derived from ranks are
Python ints.  The batched kernels eliminate a stack (B, R, C) on a fresh
batch-last copy (R, C, B), so each step runs over contiguous length-B
vectors, and never write their input, whatever its layout.  No row moves:
a step's pivot row is the first candidate row, at the max of
candidate * (R - row), and a one-hot sum over the rows (zero where a
matrix has none, so the update needs no mask).  Over F_p entries stay
unreduced between steps: a row loses f times the normalized pivot row as
a += (-f mod p) * row, and only the pivot column and row are reduced.  A
step adds at most (p-1)^2 to an entry, so the asserted bound
(p-1)(1 + C(p-1)) holds: int16 up to C = 2047 over F_5 (reduced through a
table of every int16's residue), then int32 or int64 (x % p).  Over
F_{p^f}, f > 1, entries stay indices and a step gathers from the mul and
sub tables at x*q + y.  batched_poly_rank ranks over F_q(t).
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import FieldSpec, extension


@functools.lru_cache(maxsize=None)
class _Tables:
    """Built once per field and dtype dt: inv, neg, mul and sub raveled at
    dt, and reduce, to residues mod p if f = 1, else the identity."""

    def __init__(self, spec: FieldSpec, dt):
        self.q, self.lazy, self.reduce = spec.q, spec.f == 1, lambda x: x
        self.inv, self.neg, self.mul, self.sub = (
            spec.tables[f"np_{t}"].ravel().astype(dt)
            for t in ("inv", "neg", "mul", "sub"))
        if self.lazy:
            self.reduce = ((np.arange(1 << 15) % spec.p).astype(dt).take
                           if dt is np.int16 else lambda x: x % spec.p)

    def subtract(self, a, f, norm):
        """a[r] -= f[r] * norm in place for every row r of a (R, C', B);
        f (R, B) and norm (C', B) are reduced."""
        if self.lazy:
            a += self.neg.take(f)[:, None] * norm
        else:
            a[...] = self.sub.take(
                a * self.q + self.mul.take(f[:, None] * self.q + norm))


def _batch_last(spec: FieldSpec, mats):
    """(tables, a): a is a fresh (R, C, B) copy of mats at the least dtype
    holding every index x*q + y, the row weights and the lazy bound."""
    _, nrows, ncols = np.shape(mats)
    p, top = spec.p, max(spec.q ** 2, nrows)
    if spec.f == 1:
        top = max(top, (p - 1) * (1 + ncols * (p - 1)))
    fits = [t for t in (np.int16, np.int32, np.int64)
            if top <= np.iinfo(t).max]
    assert fits, f"the lazy bound {top} overflows int64"
    a = np.array(np.transpose(mats, (1, 2, 0)), dtype=fits[0], order="C")
    return _Tables(spec, fits[0]), a


def _pivots(fld: _Tables, a, col, cand):
    """(onehot, norm): onehot (R, B) marks the first candidate row of each
    matrix, norm (C - col, B) that row from col on divided by its pivot."""
    score = cand * np.arange(len(a), 0, -1, dtype=a.dtype)[:, None]
    onehot = cand & (score == score.max(axis=0, initial=0))
    row = fld.reduce((a[:, col:] * onehot[:, None]).sum(0, dtype=a.dtype))
    return onehot, fld.mul.take(row * fld.q + fld.inv.take(row[:1]))


def batched_rank(spec: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices, shape (B, R, C) of element indices, as
    an int64 array of length B.  Forward elimination: each row r, the
    pivot row included, loses a[r, col] / pivot times the pivot row, so the
    pivot row clears itself; then the column is dropped.  Stops once every
    matrix has full row rank."""
    fld, a = _batch_last(spec, mats)
    rank = np.zeros(a.shape[2], dtype=np.int64)
    for col in range(a.shape[1]):
        f = fld.reduce(a[:, col])
        if not f.any():
            continue
        onehot, norm = _pivots(fld, a, col, f != 0)
        fld.subtract(a[:, col + 1:], f, norm[1:])
        rank += onehot.any(axis=0)
        if (rank >= len(a)).all():
            break
    return rank


def batched_nullspace(spec: FieldSpec, mats: np.ndarray):
    """Right nullspaces of a stack of matrices, shape (B, R, C) of element
    indices, by Gauss-Jordan elimination.  pivcol[r, b] is the pivot column
    of row r of matrix b, -1 while it has none; only such rows are
    candidates.  Row r loses (a[r, col] - [r is the pivot row]) times the
    normalized pivot row, which the pivot row thus becomes.  Only columns
    >= col change, as the pivot row is zero left of col.

    Returns (basis, free): free[b, f] says column f of matrix b has no
    pivot, and then basis[b, f] is the nullspace vector with 1 at f and 0
    at every other free column; rows of basis at pivot columns are 0."""
    fld, a = _batch_last(spec, mats)
    nrows, ncols, bsz = a.shape
    pivcol = np.full((nrows, bsz), -1, dtype=np.int64)
    for col in range(ncols):
        f = fld.reduce(a[:, col])
        cand = (f != 0) & (pivcol < 0)
        if cand.any():
            onehot, norm = _pivots(fld, a, col, cand)
            fld.subtract(a[:, col:], fld.sub.take(f * fld.q + onehot), norm)
            pivcol[onehot] = col
    ri, bi = np.nonzero(pivcol >= 0)
    free = (pivcol[..., None] != np.arange(ncols)).all(axis=0)
    basis = np.tile(np.eye(ncols, dtype=np.int16), (bsz, 1, 1))
    basis[bi, :, pivcol[ri, bi]] = fld.neg.take(fld.reduce(a[ri, :, bi]))
    basis[~free] = 0
    return basis, free


def batched_poly_rank(spec: FieldSpec, polys: np.ndarray) -> np.ndarray:
    """Ranks over F_q(t) of a stack of polynomial matrices, shape
    (B, k, N, W) of element indices, entry [b, i, j, w] the t^w coefficient
    of entry (i, j) of matrix b; returns an int64 array of length B.

    Certified evaluation: with D the top degree of the stack, each matrix
    is evaluated at P = min(k, N) D + 1 points of the least field E >= F_q
    with |E| >= P, and its rank is the largest rank over E of its P values.
    That is exact: a rank at a point never exceeds the rank over F_q(t),
    and a nonzero r x r minor (r <= min(k, N)) has degree at most
    r D < P, so it cannot vanish at all P points.  E is a proper extension
    only when F_q has too few points, as for the rows (t^q - t, 0) and
    (0, 1), of rank 2 over F_q(t) and 1 at every point of F_q."""
    bsz, k, ncols, width = polys.shape
    nonzero = np.flatnonzero(polys.any(axis=(0, 1, 2)))
    if not (bsz and k and ncols and nonzero.size):
        return np.zeros(bsz, dtype=np.int64)
    top = int(nonzero[-1])
    npoints = min(k, ncols) * top + 1
    ell = next(e for e in range(1, npoints + 1) if spec.q ** e >= npoints)
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
