"""Finite fields F_q, q = p^f, with explicit moduli and table-based arithmetic.

Representation conventions:

* An element of F_{p^f} is a vector (c_0, ..., c_{f-1}) over F_p in the power
  basis of the chosen monic irreducible modulus.  Elements are *indexed* by
  the integer c_0 + c_1 p + ... + c_{f-1} p^{f-1}; for a prime field the index
  is the canonical representative itself.
* All arithmetic goes through small lookup tables on indices, so enumeration
  kernels can work on plain integers (and on numpy integer arrays) without
  ever leaving exact arithmetic.
* There is no canonical-modulus table: constructing F_{p^f} with f > 1
  requires an explicit modulus.  `find_irreducible` provides a deterministic
  choice (first monic irreducible in little-endian coefficient order) for
  callers that need a reproducible default tower.

The absolute trace tr_{F_q/F_p}(x) = sum of Frobenius powers is exposed as an
integer in 0..p-1; it feeds the additive character.
"""

from __future__ import annotations

import numpy as np


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


def _fp_powmod_x(e: int, m, p):
    # x^e mod m
    result = [1]
    base = _fp_mulmod([0, 1], [1], m, p)
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, m, p)
        base = _fp_mulmod(base, base, m, p)
        e >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = _fp_trim(a), _fp_trim(b)
    while b:
        # a mod b
        a = list(a)
        db, lead = len(b) - 1, b[-1]
        inv = pow(lead, p - 2, p)
        while len(a) - 1 >= db and a:
            if a[-1]:
                f = a[-1] * inv % p
                for k in range(db + 1):
                    a[len(a) - 1 - db + k] = (a[len(a) - 1 - db + k] - f * b[k]) % p
            a.pop()
            a = _fp_trim(a)
        a, b = b, a
    return a


def is_irreducible_mod_p(coeffs, p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p (little-endian coeffs)."""
    m = list(coeffs)
    f = len(m) - 1
    if f < 1 or m[-1] != 1:
        return False
    if f == 1:
        return True
    # x^{p^f} == x mod m
    xq = _fp_powmod_x(p ** f, m, p)
    diff = list(xq) + [0] * (2 - len(xq))
    diff[1] = (diff[1] - 1) % p
    if _fp_trim(diff):
        return False
    primes = set()
    k, f0 = 2, f
    while k * k <= f0:
        while f0 % k == 0:
            primes.add(k)
            f0 //= k
        k += 1
    if f0 > 1:
        primes.add(f0)
    for r in primes:
        xe = _fp_powmod_x(p ** (f // r), m, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        g = _fp_gcd(diff, m, p)
        if len(g) - 1 != 0:
            return False
    return True


def find_irreducible(p: int, f: int):
    """First monic irreducible of degree f over F_p in little-endian order.

    Deterministic: enumerates constant-first integer encodings, so the same
    modulus comes back on every run.
    """
    if f == 1:
        return (0, 1)
    for code in range(p ** f):
        c, rest = [], code
        for _ in range(f):
            c.append(rest % p)
            rest //= p
        coeffs = c + [1]
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
        if f == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise ValueError("prime field takes no modulus")
            modulus = None
        else:
            if modulus is None:
                modulus = find_irreducible(p, f)
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

        def coords(i):
            c = []
            for _ in range(f):
                c.append(i % p)
                i //= p
            return tuple(c)

        def index(c):
            v, mult = 0, 1
            for x in c:
                v += (x % p) * mult
                mult *= p
            return v

        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for i in range(q):
            ci = coords(i)
            for j in range(i, q):
                cj = coords(j)
                s = index(tuple((a + b) % p for a, b in zip(ci, cj)))
                add[i][j] = s
                add[j][i] = s
        mod = list(self.modulus) if self.modulus else [0, 1]
        for i in range(q):
            ci = list(coords(i))
            for j in range(i, q):
                cj = list(coords(j))
                prod = _fp_mulmod(ci, cj, mod, p) if f > 1 else [ci[0] * cj[0] % p]
                prod = prod + [0] * (f - len(prod))
                v = index(tuple(prod))
                mul[i][j] = v
                mul[j][i] = v
        neg = [index(tuple((-x) % p for x in coords(i))) for i in range(q)]
        sub = [[add[i][neg[j]] for j in range(q)] for i in range(q)]
        inv = [0] * q
        for i in range(1, q):
            inv[i] = _pow_idx(mul, i, q - 2)
        # absolute trace: sum of x^{p^k}
        trace = [0] * q
        for i in range(q):
            acc, frob = 0, i
            for _ in range(f):
                acc = add[acc][frob]
                frob = _pow_idx(mul, frob, p)
            c = coords(acc)
            if any(c[1:]):
                raise AssertionError("trace left the prime field")
            trace[i] = c[0]
        tables = {
            "coords": coords, "index": index,
            "add": add, "sub": sub, "mul": mul, "neg": neg, "inv": inv,
            "trace": trace,
            "np_add": np.array(add, dtype=np.int16),
            "np_sub": np.array(sub, dtype=np.int16),
            "np_mul": np.array(mul, dtype=np.int16),
            "np_neg": np.array(neg, dtype=np.int16),
            "np_inv": np.array(inv, dtype=np.int16),
            "np_trace": np.array(trace, dtype=np.int16),
        }
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
        return _pow_idx(self.tables["mul"], i, k)

    def trace_idx(self, i) -> int:
        return self.tables["trace"][i]

    def coords(self, i):
        return self.tables["coords"](i)

    def index(self, coords) -> int:
        return self.tables["index"](coords)

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
    add, mul = ext.tables["add"], ext.tables["mul"]

    def value(coeffs, a):
        # Horner over E; the coefficients are prime-field indices
        acc = 0
        for c in reversed(coeffs):
            acc = add[mul[acc][a]][c]
        return acc

    root = next(a for a in range(ext.q) if value(spec.modulus, a) == 0)
    return ext, np.array([value(spec.coords(i), root)
                          for i in range(spec.q)])


def _pow_idx(mul, i, k):
    r, b = 1, i
    while k:
        if k & 1:
            r = mul[r][b]
        b = mul[b][b]
        k >>= 1
    return r


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

    def __add__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.idx, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.idx, j))

    def __rsub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(j, self.idx))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.idx))

    def __mul__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.idx, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.idx, self.spec.inv(j)))

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
