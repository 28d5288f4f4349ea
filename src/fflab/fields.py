"""Finite fields F_q, q = p^f, with explicit moduli and table-based arithmetic.

* An element of F_{p^f} is a vector (c_0, ..., c_{f-1}) over F_p in the power
  basis of a monic irreducible modulus, *indexed* by the integer
  c_0 + c_1 p + ... + c_{f-1} p^{f-1}; in a prime field, by its canonical
  representative.  `find_irreducible` (cached per (p, f)) gives the
  reproducible default modulus: the first monic irreducible in
  little-endian coefficient order.
* All arithmetic goes through lookup tables on indices, so kernels work on
  plain integers and numpy integer arrays without leaving exact arithmetic.
  The tables hold indices as int16, so q <= 2^15: FieldSpec refuses a
  larger field with ValueError when constructed, before any table exists.

The tables are built once per field and process.  One O(q) Python walk of
the powers of the first primitive element g in index order gives
exp[k] = g^k and its inverse log (g is searched for: modulo x^2 + 2 over
F_5, x has order 8).  Every table is then an int16 numpy array, built by
broadcasting: mul and inv are exp[(log i +- log j) mod (q - 1)] with zero
masked; add, neg and sub act on the base-p digits of the indices; the
absolute trace (the sum of the Frobenius powers x^{p^k}, an integer in
0..p-1 that feeds the additive character) is the F_p-linear map fixed by
its values on the f basis elements, each checked to lie in F_p.  The arrays
are the only source: the Python lists that scalar loops read ("add", "mul",
..., and "exp" and "log" for pow) are tolist() copies made in the same
build, since a list lookup is about twice as fast as indexing an array.
"""

from __future__ import annotations

import functools

import numpy as np

# field indices are stored as int16
MAX_Q = 1 << 15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


# -- bare F_p[x] helpers on little-endian coefficient tuples -----------------
# Used for modulus validation before any FieldSpec exists.

def _fp_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mulmod(a, b, m, p):
    # a*b mod m over F_p; m monic
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            res[i + j] = (res[i + j] + x * y) % p
    dm = len(m) - 1
    while len(res) > dm:
        lead = res.pop()
        if lead:
            for k in range(dm):
                res[-dm + k] = (res[-dm + k] - lead * m[k]) % p
    return _fp_trim(res)


def _fp_powmod(a, e: int, m, p):
    # a^e mod m
    result = [1]
    base = _fp_mulmod(a, [1], m, p)
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, m, p)
        base = _fp_mulmod(base, base, m, p)
        e >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = _fp_trim(a), _fp_trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            # cancel the top coefficient of a against b
            c, shift = a[-1] * inv % p, len(a) - len(b)
            a = _fp_trim([(x - c * b[k - shift]) % p if k >= shift else x
                          for k, x in enumerate(a)])
        a, b = b, a
    return a


def _prime_factors(n: int) -> set:
    primes, k = set(), 2
    while k * k <= n:
        while n % k == 0:
            primes.add(k)
            n //= k
        k += 1
    if n > 1:
        primes.add(n)
    return primes


def is_irreducible_mod_p(coeffs, p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p (little-endian coeffs)."""
    m = list(coeffs)
    f = len(m) - 1
    if f < 1 or m[-1] != 1:
        return False
    if f == 1:
        return True

    def frobenius_minus_x(k):
        # x^{p^k} - x mod m
        d = _fp_powmod([0, 1], p ** k, m, p) + [0, 0]
        d[1] = (d[1] - 1) % p
        return _fp_trim(d)

    # x^{p^f} == x mod m, and x^{p^(f/r)} - x prime to m for each prime r | f
    return not frobenius_minus_x(f) and all(
        len(_fp_gcd(frobenius_minus_x(f // r), m, p)) == 1
        for r in _prime_factors(f))


def _coords(i: int, p: int, f: int) -> tuple:
    return tuple(i // p ** k % p for k in range(f))


def _digits(p: int, f: int) -> np.ndarray:
    """The (p^f, f) array of the coordinates of every index."""
    return np.arange(p ** f)[:, None] // p ** np.arange(f) % p


def _primitive(p: int, f: int, mod) -> list:
    """The coordinates of the first element of order p^f - 1 in index
    order."""
    q = p ** f
    primes = _prime_factors(q - 1)
    for g in range(1, q):
        c = list(_coords(g, p, f))
        if all(_fp_powmod(c, (q - 1) // r, mod, p) != [1] for r in primes):
            return c


@functools.lru_cache(maxsize=None)
def find_irreducible(p: int, f: int):
    """First monic irreducible of degree f over F_p in little-endian order.

    Deterministic: enumerates constant-first integer encodings, so the same
    modulus comes back on every run.
    """
    if f == 1:
        return (0, 1)
    for code in range(p ** f):
        coeffs = list(_coords(code, p, f)) + [1]
        if is_irreducible_mod_p(coeffs, p):
            return tuple(coeffs)
    raise ValueError(f"no irreducible of degree {f} over F_{p}")  # unreachable


_SPEC_CACHE: dict = {}


class FieldSpec:
    """A concrete finite field F_{p^f} with a fixed modulus.

    Instances with equal (p, f, modulus) are interchangeable; the arithmetic
    tables are cached per process and rebuilt after unpickling.
    """

    def __init__(self, p: int, f: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** f > MAX_Q:
            raise ValueError(f"q = {p}^{f} = {p ** f} exceeds 2^15: field "
                             f"indices must fit int16")
        if f == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise ValueError("prime field takes no modulus")
            modulus = None
        elif modulus is None:
            modulus = find_irreducible(p, f)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != f + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree f")
            if not is_irreducible_mod_p(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.f = f
        self.modulus = modulus
        self.q = p ** f
        self._tables = None

    # -- identity ------------------------------------------------------------

    def _key(self):
        return (self.p, self.f, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.f == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, f={self.f}, modulus={self.modulus})"

    def __getstate__(self):
        return self._key()

    def __setstate__(self, state):
        p, f, modulus = state
        self.__init__(p, f, modulus)

    # -- tables ----------------------------------------------------------------

    def _build(self):
        key = self._key()
        cached = _SPEC_CACHE.get(key)
        if cached is not None:
            self._tables = cached
            return cached
        p, f, q = self.p, self.f, self.q
        mod = list(self.modulus or (0, 1))
        digits = _digits(p, f)
        # exp[k] = g^k: one walk of the map "times g", whose matrix has the
        # coordinates of g x^j as its rows
        g = _primitive(p, f, mod)
        times_g = np.array([(_fp_mulmod(g, [0] * j + [1], mod, p)
                             + [0] * f)[:f] for j in range(f)])
        step = (digits @ times_g % p @ p ** np.arange(f)).tolist()
        walk = [1]
        for _ in range(q - 2):
            walk.append(step[walk[-1]])
        exp = np.array(walk, dtype=np.int16)
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1)
        mul = exp[np.add.outer(log, log) % (q - 1)]
        mul[0] = mul[:, 0] = 0
        inv = exp[-log % (q - 1)]
        inv[0] = 0
        add = np.zeros((q, q), dtype=np.int16)
        neg = np.zeros(q, dtype=np.int16)
        for k in range(f):
            col = digits[:, k].astype(np.int16)
            add += np.add.outer(col, col) % p * p ** k
            neg += -col % p * p ** k
        # tr(x^k) = sum of the Frobenius powers (x^k)^(p^j); x^k has index p^k
        basis_traces = []
        for k in range(f):
            acc = 0
            for j in range(f):
                acc = add[acc, exp[int(log[p ** k]) * p ** j % (q - 1)]]
            if acc >= p:
                raise AssertionError("trace left the prime field")
            basis_traces.append(acc)
        trace = (digits @ basis_traces % p).astype(np.int16)
        arrays = {"add": add, "sub": add[:, neg], "mul": mul, "neg": neg,
                  "inv": inv, "trace": trace}
        tables = {name: a.tolist() for name, a in arrays.items()}
        tables.update({f"np_{name}": a for name, a in arrays.items()})
        tables["exp"], tables["log"] = walk, log.tolist()
        _SPEC_CACHE[key] = tables
        self._tables = tables
        return tables

    @property
    def tables(self):
        return self._tables if self._tables is not None else self._build()

    # -- index arithmetic -----------------------------------------------------

    def add(self, i, j):
        return self.tables["add"][i][j]

    def sub(self, i, j):
        return self.tables["sub"][i][j]

    def mul(self, i, j):
        return self.tables["mul"][i][j]

    def neg(self, i):
        return self.tables["neg"][i]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.tables["inv"][i]

    def pow(self, i, k):
        if k < 0:
            return self.pow(self.inv(i), -k)
        if i == 0:
            return 0 if k else 1
        tables = self.tables
        return tables["exp"][tables["log"][i] * k % (self.q - 1)]

    def trace_idx(self, i) -> int:
        return self.tables["trace"][i]

    def coords(self, i):
        return _coords(i, self.p, self.f)

    def index(self, coords) -> int:
        return sum(int(c) % self.p * self.p ** k
                   for k, c in enumerate(coords))

    # -- element construction ---------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (reduced mod p, embedded as a constant) or a coordinate
        vector into a FieldElement."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        coords = tuple(int(v) % self.p for v in value)
        if len(coords) != self.f:
            raise ValueError(f"expected {self.f} coordinates")
        return FieldElement(self, self.index(coords))

    def from_index(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise ValueError("index out of range")
        return FieldElement(self, idx)

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    def __iter__(self):
        return (FieldElement(self, i) for i in range(self.q))


def extension(spec: FieldSpec, ell: int):
    """(E, embed): E = F_{q^ell} as FieldSpec(p, f ell) with its
    reproducible modulus, and embed the int64 array that maps every F_q
    index to its image in E.  Over a prime base the image of c is the
    constant c, index c of E.  For q = p^f, x (the class of the variable
    modulo spec.modulus) goes to the first root of spec.modulus in E, so
    embed is an injective ring homomorphism.  ell = 1 gives (spec, the
    identity) and builds nothing."""
    if ell == 1:
        return spec, np.arange(spec.q)
    ext = FieldSpec(spec.p, spec.f * ell)
    if spec.f == 1:
        return ext, np.arange(spec.p)
    add, mul = ext.tables["np_add"], ext.tables["np_mul"]
    # Horner over E of the modulus (row 0) and of the coordinate polynomial
    # of every F_q index, at every point of E
    coeffs = np.vstack([spec.modulus,
                        np.pad(_digits(spec.p, spec.f), ((0, 0), (0, 1)))])
    values = np.zeros((spec.q + 1, ext.q), dtype=np.int16)
    points = np.arange(ext.q)
    for col in coeffs.T[::-1]:
        values = add[mul[values, points], col[:, None]]
    root = np.flatnonzero(values[0] == 0)[0]
    return ext, values[1:, root].astype(np.int64)


class FieldElement:
    """An element of a FieldSpec, stored as its index."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        self.spec = spec
        self.idx = idx

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("mixed fields")
            return other.idx
        if isinstance(other, int):
            return other % self.spec.p
        return None

    def _binary(self, other, op):
        # op(self.idx, index of other), or NotImplemented for a foreign type
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, op(self.idx, j))

    def __add__(self, other):
        return self._binary(other, self.spec.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, self.spec.sub)

    def __rsub__(self, other):
        return self._binary(other, lambda i, j: self.spec.sub(j, i))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.idx))

    def __mul__(self, other):
        return self._binary(other, self.spec.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other, lambda i, j: self.spec.mul(i, self.spec.inv(j)))

    def __pow__(self, k):
        return FieldElement(self.spec, self.spec.pow(self.idx, k))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == other % self.spec.p
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.idx))

    def __bool__(self):
        return self.idx != 0

    @property
    def coords(self):
        return self.spec.coords(self.idx)

    def __repr__(self):
        if self.spec.f == 1:
            return f"F{self.spec.q}({self.idx})"
        return f"F{self.spec.q}{self.coords}"


def trace(x: FieldElement) -> int:
    """Absolute trace down to the prime field, as an integer in 0..p-1."""
    return x.spec.trace_idx(x.idx)
