"""Degree-d forms in n variables as symmetric tensors.

A form is stored twice: as the sparse monomial map the user wrote down, and
as the symmetric tensor c indexed by sorted d-tuples of variable indices with

    F(x) = sum over ALL ordered tuples (i_1,...,i_d) of c_{i_1...i_d} x_{i_1}...x_{i_d}.

Building the tensor divides each monomial coefficient by the number of
orderings of its index multiset, which is invertible precisely when p > d.

The tensor, as the dense (n,)*d array `dense`, also gives the n
multilinear forms in d-1 vector arguments that the Weyl layer reads,

    Psi_i(u^(1),...,u^(d-1)) = sum c_{i_1,...,i_{d-1},i} u^(1)_{i_1}...u^(d-1)_{i_{d-1}},

satisfying sum_i x_i Psi_i(x,...,x) = F(x) identically.

Evaluation works on numpy index arrays only.  BoxKernel is the one walk
of a coefficient box: it evaluates F(f_1,...,f_n) on blocks of tuples of
degree-e forms at once, through the flat field tables, and every count
over a box reads it (zero_count, the block distributions, the direct S
oracle).  Its oracle in the tests evaluates F one monomial at a time on
scalar polynomials.

F is the sum of its `parts`, one form per block of variables (`blocks`),
the one block split of F that S, the Weyl counts and the moduli counts
read: block_distributions walks each distinct part, and fold adds them.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

import numpy as np

from .errors import ConfigError
from .fields import FieldSpec


def _multiplicity(rep) -> int:
    """Number of distinct orderings of an index multiset."""
    counts = {}
    for i in rep:
        counts[i] = counts.get(i, 0) + 1
    return factorial(len(rep)) // prod(factorial(c) for c in counts.values())


def _exps_to_rep(exps):
    """Exponent vector -> sorted index tuple, e.g. (2,1) -> (0,0,1)."""
    rep = []
    for i, e in enumerate(exps):
        rep.extend([i] * e)
    return tuple(rep)


def _dense_tensor(n: int, d: int, tensor) -> np.ndarray:
    """The symmetric tensor as an (n,)*d int64 array of field indices."""
    g = np.zeros((n,) * d, dtype=np.int64)
    for rep, c in tensor.items():
        for perm in set(itertools.permutations(rep)):
            g[perm] = c
    return g


def _variable_blocks(n: int, monomials) -> tuple:
    """The connected components of the graph on the n variables that joins
    two variables when they share a monomial, as sorted tuples of indices
    in order of their first variable.  A variable F does not contain is a
    block of its own."""
    blocks = [{i} for i in range(n)]
    for exps in monomials:
        present = {i for i, k in enumerate(exps) if k}
        blocks = ([b for b in blocks if not b & present]
                  + [set().union(*(b for b in blocks if b & present))])
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


class HypersurfaceForm:
    """Immutable degree-d form; construct via symmetrize().  `dense` (the
    symmetric tensor as an (n,)*d array), `blocks` and `parts` are built
    once: parts[k] is the form of blocks[k] in its variables renumbered
    from 0, F itself for one block, the zero form for a variable F lacks."""

    __slots__ = ("spec", "n", "d", "monomials", "tensor", "dense", "blocks",
                 "parts")

    def __init__(self, spec: FieldSpec, n: int, d: int, monomials, tensor):
        self.spec = spec
        self.n = n
        self.d = d
        self.monomials = monomials
        self.tensor = tensor
        self.dense = _dense_tensor(n, d, tensor)
        self.blocks = _variable_blocks(n, monomials)
        self.parts = ((self,) if len(self.blocks) == 1 else
                      tuple(self._part(block) for block in self.blocks))

    def _part(self, block):
        """The form of `block` over its variables, renumbered from 0."""
        where = {i: k for k, i in enumerate(block)}
        return HypersurfaceForm(
            self.spec, len(block), self.d,
            {tuple(exps[i] for i in block): c
             for exps, c in self.monomials.items()
             if _exps_to_rep(exps)[0] in where},
            {tuple(map(where.get, rep)): c
             for rep, c in self.tensor.items() if rep[0] in where})

    def __repr__(self):
        return f"HypersurfaceForm(n={self.n}, d={self.d}, {len(self.monomials)} monomials)"

    def __eq__(self, other):
        return (isinstance(other, HypersurfaceForm) and self.spec == other.spec
                and (self.n, self.d) == (other.n, other.d)
                and self.monomials == other.monomials)

    def __hash__(self):
        return hash((self.spec, self.n, self.d,
                     tuple(sorted(self.monomials.items()))))


# tuples per kernel block: bounds every array BoxKernel.box makes
_BOX_CHUNK = 1 << 13


def _flat_tables(spec: FieldSpec):
    """(q, dtype, mul, add): the (q, q) tables raveled, read by 1-D takes
    at x * q + y <= q^2 - 1, an index built in dtype: int16 while
    q^2 <= 2^15 (q <= 181), else int32 (q <= 2^15, so q^2 <= 2^30)."""
    q = spec.q
    assert q <= 1 << 15, "flat table indices overflow int32"
    return (q, np.int16 if q * q <= 1 << 15 else np.int32,
            spec.tables["np_mul"].ravel(), spec.tables["np_add"].ravel())


def _mul_rows(spec: FieldSpec, a, b):
    """Row-wise polynomial products of two stacks of coefficient vectors,
    (N, la) and (N, lb) -> (N, la + lb - 1), through the flat tables."""
    q, dtype, mul, add = _flat_tables(spec)
    lb = b.shape[1]
    aq, b = np.multiply(a, q, dtype=dtype), b.astype(dtype, copy=False)
    out = np.zeros((a.shape[0], a.shape[1] + lb - 1), dtype=np.int16)
    for i in range(a.shape[1]):
        window = np.multiply(out[:, i:i + lb], q, dtype=dtype)
        out[:, i:i + lb] = add.take(window + mul.take(aq[:, i:i + 1] + b))
    return out


class BoxKernel:
    """F(f_1,...,f_n) for blocks of tuples of degree-e forms (or of
    polynomials of degree <= e), as (N, de+1) int16 coefficient vectors.

    A tuple is given as n codes into the coefficient space of q^(e+1)
    vectors, numbered in itertools.product order: code c names the c-th
    tuple of itertools.product(range(q), repeat=e+1), and coefficient k of a
    vector multiplies t^k (u^k v^(e-k) for a binary form).  powers[k] holds
    the coefficient vectors of g^k for every g of the space, built once;
    a monomial is a table product of gathered powers."""

    def __init__(self, form: HypersurfaceForm, e: int):
        spec = form.spec
        q = spec.q
        self.form = form
        self.width = form.d * e + 1
        self.space_size = q ** (e + 1)
        codes = np.arange(self.space_size, dtype=np.int64)
        space = np.stack([(codes // q ** (e - j)) % q for j in range(e + 1)],
                         axis=1).astype(np.int16)
        self.powers = [None, space]
        for _ in range(2, form.d + 1):
            self.powers.append(_mul_rows(spec, self.powers[-1], space))

    def images(self, codes) -> np.ndarray:
        """Coefficient vectors of F at the tuples of an (N, n) code array."""
        spec = self.form.spec
        q, dtype, mul, add = _flat_tables(spec)
        out = np.zeros((codes.shape[0], self.width), dtype=np.int16)
        for exps, c in self.form.monomials.items():
            term = None
            for i, k in enumerate(exps):
                if k:
                    g = self.powers[k].take(codes[:, i], axis=0)
                    term = g if term is None else _mul_rows(spec, term, g)
            out = add.take(np.multiply(out, q, dtype=dtype)
                           + mul[c * q:(c + 1) * q].take(term))
        return out

    def box(self):
        """(codes, images) over every tuple of the box, in
        itertools.product order, _BOX_CHUNK tuples at a time."""
        n, size = self.form.n, self.space_size
        total = size ** n
        assert total < 1 << 63, "tuple numbers overflow int64"
        for start in range(0, total, _BOX_CHUNK):
            tup = np.arange(start, min(start + _BOX_CHUNK, total),
                            dtype=np.int64)
            codes = np.stack([(tup // size ** (n - 1 - i)) % size
                              for i in range(n)], axis=1)
            yield codes, self.images(codes)


def zero_count(form: HypersurfaceForm, e: int) -> int:
    """#{tuples f of degree-e forms with F(f) = 0}, zero tuple included:
    the tuples of the whole box whose BoxKernel image is the zero vector.
    Charges nothing."""
    return sum(int(np.count_nonzero(~images.any(axis=1)))
               for _, images in BoxKernel(form, e).box())


def encode_keys(q: int, digits) -> np.ndarray:
    """One int64 key per row of an (N, width) array of field indices, such
    as BoxKernel images: sum_k v_k q^k."""
    width = digits.shape[1]
    assert q ** width < 1 << 62, "coefficient keys overflow int64"
    return digits.astype(np.int64) @ (q ** np.arange(width, dtype=np.int64))


def decode_keys(q: int, keys, width: int) -> np.ndarray:
    """The (N, width) int16 field indices of N keys; inverse of
    encode_keys."""
    return (keys[:, None] // q ** np.arange(width, dtype=np.int64)
            % q).astype(np.int16)


def _merge(keys, counts):
    """One distribution, (sorted keys, int64 counts), from keys that may
    repeat and their counts."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(counts[order], first)


# keys a running merge holds pending past its result before it merges them
_MERGE_PENDING = 1 << 20


def _running_merge(chunks):
    """One distribution, (sorted keys, int64 counts), from a stream of
    (keys, counts) chunks whose keys may repeat within and across chunks.
    The pending chunks are merged into the result once their keys outnumber
    it and pass _MERGE_PENDING, so the peak is the result plus one pending
    batch of at most max(result, _MERGE_PENDING) keys and a chunk, never
    the whole stream.  A merge sorts fewer than twice its pending keys, so
    all merges together sort fewer than twice the stream."""
    keys = counts = np.zeros(0, dtype=np.int64)
    pending, size = [], 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk[0])
        if size > max(len(keys), _MERGE_PENDING):
            keys, counts = _merge(*map(np.concatenate,
                                       zip((keys, counts), *pending)))
            pending, size = [], 0
    return _merge(*map(np.concatenate, zip((keys, counts), *pending)))


def block_distributions(form: HypersurfaceForm, e: int) -> list:
    """For each part of form.parts, the distribution of its coefficient
    vectors F_b(f) over its box of degree-e tuples f: the sorted
    encode_keys keys and their int64 counts, kept per _BOX_CHUNK tuples
    only as distinct keys and merged as it goes (_running_merge), so its
    peak is the distribution plus one pending batch.  Equal parts share
    one walk and the same pair of arrays."""
    walked = {}
    for part in dict.fromkeys(form.parts):
        walked[part] = _running_merge(
            np.unique(encode_keys(form.spec.q, images), return_counts=True)
            for _, images in BoxKernel(part, e).box())
    return [walked[part] for part in form.parts]


# support pairs per block of a fold (at least one left key against every
# right key): bounds every array fold makes
_FOLD_BLOCK = 1 << 15


def fold(spec: FieldSpec, left, right, width: int):
    """The distribution of x + y for independent x ~ left and y ~ right,
    each (sorted encode_keys keys, int64 counts) over F_q^width: every pair
    of support points is added through the field tables, in blocks of at
    most _FOLD_BLOCK pairs (or one row of the left support), and the sums
    are merged as they come (_running_merge).  Work is the support pairs,
    never q^width cells; the peak is the output plus one pending batch of
    at most max(output, _MERGE_PENDING) sums and a block, not every pair.
    An entry is at most the product of the two totals."""
    lkeys, lcounts = left
    rkeys, rcounts = right
    assert int(lcounts.sum()) * int(rcounts.sum()) < 1 << 63, \
        "fold counts overflow int64"
    q = spec.q
    assert q ** width < 1 << 62, "coefficient keys overflow int64"
    add = spec.tables["np_add"].astype(np.int64).ravel()
    ldigits = decode_keys(q, lkeys, width).astype(np.int64) * q
    rdigits = decode_keys(q, rkeys, width).astype(np.int64)
    rows = max(1, _FOLD_BLOCK // len(rkeys))

    def blocks():
        for start in range(0, len(lkeys), rows):
            block = slice(start, start + rows)
            sums = 0
            for k in range(width):
                sums = sums + add[ldigits[block, k, None]
                                  + rdigits[None, :, k]] * q ** k
            yield (sums.reshape(-1),
                   (lcounts[block, None] * rcounts).reshape(-1))
    return _running_merge(blocks())


def symmetrize(spec: FieldSpec, n: int, d: int, monomials) -> HypersurfaceForm:
    """Build the form from {exponent tuple: coefficient}.

    Coefficients may be ints, coordinate vectors, or field elements; they are
    divided by the ordering multiplicity to populate the symmetric tensor.
    Needs p > d and d >= 3."""
    if d < 3:
        raise ConfigError(f"degree must be >= 3, got {d}")
    if spec.p <= d:
        raise ConfigError(
            f"characteristic {spec.p} must exceed the degree {d}")
    mono = {}
    for exps, c in monomials.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != n:
            raise ConfigError(f"exponent vector {exps} has wrong length")
        if any(e < 0 for e in exps) or sum(exps) != d:
            raise ConfigError(f"monomial {exps} does not have degree {d}")
        cidx = spec.element(c).idx
        if cidx:
            mono[exps] = cidx
    if not mono:
        raise ConfigError("form has no nonzero monomials")
    tensor = {}
    for exps, c in mono.items():
        rep = _exps_to_rep(exps)
        mult = _multiplicity(rep) % spec.p
        # p > d guarantees the multiplicity is a unit
        tensor[rep] = spec.mul(c, spec.inv(spec.element(mult).idx))
    return HypersurfaceForm(spec, n, d, mono, tensor)


def fermat_form(spec: FieldSpec, n: int, d: int) -> HypersurfaceForm:
    """x_1^d + ... + x_n^d."""
    mono = {}
    for i in range(n):
        exps = [0] * n
        exps[i] = d
        mono[tuple(exps)] = 1
    return symmetrize(spec, n, d, mono)


def parse_form_file(path, spec: FieldSpec, n: int, d: int) -> HypersurfaceForm:
    """Read a form from a text file: one monomial per line,

        e_1 e_2 ... e_n : c

    with sum e_i = d; c is an integer or a parenthesized power-basis vector
    like (2,1).  '#' starts a comment."""
    mono = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ConfigError(f"{path}:{lineno}: missing ':'")
            left, right = line.split(":", 1)
            try:
                exps = tuple(int(tok) for tok in left.split())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad exponent: {exc}")
            if len(exps) != n:
                raise ConfigError(
                    f"{path}:{lineno}: expected {n} exponents, got {len(exps)}")
            if sum(exps) != d:
                raise ConfigError(
                    f"{path}:{lineno}: monomial degree {sum(exps)} != {d}")
            right = right.strip()
            try:
                if right.startswith("("):
                    coeff = [int(tok) for tok in
                             right.strip("()").split(",") if tok.strip()]
                else:
                    coeff = int(right)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad coefficient: {exc}")
            if exps in mono:
                raise ConfigError(f"{path}:{lineno}: duplicate monomial {exps}")
            mono[exps] = coeff
    return symmetrize(spec, n, d, mono)
