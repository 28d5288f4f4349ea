import pickle

import numpy as np
import pytest

from fflab import fields
from fflab.fields import (FieldSpec, _fp_mulmod, extension, find_irreducible,
                          is_prime, trace)


def _pow_idx(mul, i, k):
    r, b = 1, i
    while k:
        if k & 1:
            r = mul[r][b]
        b = mul[b][b]
        k >>= 1
    return r


def _double_loop_tables(spec):
    """The oracle: every table by a Python double loop over index pairs,
    one polynomial product mod the modulus per pair, O(q^2)."""
    p, f, q = spec.p, spec.f, spec.q
    coords = [[i // p ** k % p for k in range(f)] for i in range(q)]

    def index(c):
        v = 0
        for x in reversed(c):
            v = v * p + x % p
        return v

    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    mod = list(spec.modulus) if spec.modulus else [0, 1]
    for i, ci in enumerate(coords):
        for j in range(i, q):
            cj = coords[j]
            add[i][j] = add[j][i] = index([a + b for a, b in zip(ci, cj)])
            mul[i][j] = mul[j][i] = index(_fp_mulmod(ci, cj, mod, p))
    neg = [index([-x for x in c]) for c in coords]
    sub = [[add[i][neg[j]] for j in range(q)] for i in range(q)]
    inv = [0] + [_pow_idx(mul, i, q - 2) for i in range(1, q)]
    trace = []
    for i in range(q):
        acc, frob = 0, i
        for _ in range(f):
            acc = add[acc][frob]
            frob = _pow_idx(mul, frob, p)
        assert acc < p
        trace.append(acc)
    return {"add": add, "sub": sub, "mul": mul, "neg": neg, "inv": inv,
            "trace": trace}


@pytest.mark.parametrize("p,f,modulus", [
    (2, 1, None), (2, 2, None), (2, 3, None), (3, 2, None), (3, 4, None),
    (5, 1, None), (7, 2, None), (5, 3, None), (5, 4, None),
    (5, 2, (2, 0, 1)),      # the default F_25, where x has order 8
    (5, 2, (3, 0, 1)),
])
def test_tables_match_the_double_loop_oracle(p, f, modulus):
    spec = FieldSpec(p, f, modulus)
    tables = spec.tables
    for name, expected in _double_loop_tables(spec).items():
        assert tables[name] == expected, name
        assert tables[f"np_{name}"].dtype == np.int16
        assert tables[f"np_{name}"].tolist() == expected, name
    mul = tables["mul"]
    for i in range(min(q := spec.q, 40)):
        power = 1
        for k in range(2 * q + 1):
            assert spec.pow(i, k) == power
            power = mul[power][i]
        if i:
            assert spec.pow(i, -1) == spec.inv(i)
            assert spec.pow(i, -3) == spec.pow(spec.inv(i), 3)


def test_x_is_not_always_primitive():
    # modulo x^2 + 2 over F_5, x (index 5) has order 8, not 24
    spec = FieldSpec(5, 2)
    assert spec.modulus == (2, 0, 1)
    assert [k for k in range(1, 25) if spec.pow(5, k) == 1][0] == 8


def test_default_modulus_is_found_once(monkeypatch):
    # a cached find_irreducible, and no Rabin test of the modulus it found
    extension(FieldSpec(5), 3)
    calls = []
    test = fields.is_irreducible_mod_p
    monkeypatch.setattr(fields, "is_irreducible_mod_p",
                        lambda coeffs, p: calls.append(p) or test(coeffs, p))
    ext, _ = extension(FieldSpec(5), 3)
    assert ext.modulus == find_irreducible(5, 3)
    assert calls == []
    FieldSpec(5, 3, modulus=ext.modulus)    # an explicit modulus is tested
    assert calls == [5]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_find_irreducible_is_first_in_index_order():
    # x^2 + x + 1 is the only monic irreducible quadratic over F_2
    assert tuple(find_irreducible(2, 2)) == (1, 1, 1)
    # over F_5: x^2 and x^2 + 1 both split, x^2 + 2 is the first that does not
    assert tuple(find_irreducible(5, 2)) == (2, 0, 1)


def test_prime_field_arithmetic(spec5):
    assert spec5.q == 5
    assert spec5.add(2, 3) == 0
    assert spec5.mul(2, 3) == 1
    assert spec5.neg(2) == 3
    assert spec5.inv(3) == 2
    assert spec5.pow(2, 3) == 3
    with pytest.raises(ZeroDivisionError):
        spec5.inv(0)


def test_element_wrapper(spec5):
    a = spec5.element(2)
    b = spec5.element(4)
    assert (a + b).idx == 1
    assert (a * b).idx == 3
    assert (a - b).idx == 3
    assert (b / a).idx == 2
    assert a + 3 == spec5.element(0)
    assert list(spec5) == [spec5.from_index(i) for i in range(5)]


def test_extension_field_f25():
    spec = FieldSpec(5, 2)
    assert spec.q == 25
    # constants embed at their own indices
    for c in range(5):
        for cc in range(5):
            assert spec.add(c, cc) == (c + cc) % 5
            assert spec.mul(c, cc) == (c * cc) % 5
    # Frobenius fixes exactly the prime subfield
    fixed = [i for i in range(25) if spec.pow(i, 5) == i]
    assert fixed == list(range(5))
    # the multiplicative group has order 24
    for i in range(1, 25):
        assert spec.pow(i, 24) == 1


def test_trace_to_prime_subfield():
    spec = FieldSpec(5, 2)
    for i in range(25):
        expected = spec.add(i, spec.pow(i, 5))
        assert spec.trace_idx(i) == expected
        assert spec.trace_idx(i) < 5
    values = {spec.trace_idx(i) for i in range(25)}
    assert values == set(range(5))
    assert trace(spec.from_index(7)) == spec.trace_idx(7)


def test_explicit_modulus_accepted():
    spec = FieldSpec(5, 2, modulus=(2, 0, 1))
    assert spec.q == 25


def test_validation_errors():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(5, 0)
    with pytest.raises(ValueError):
        FieldSpec(5, 2, modulus=(1, 0, 1))     # x^2 + 1 splits mod 5
    with pytest.raises(ValueError):
        FieldSpec(5, 1, modulus=(2, 0, 1))     # prime field takes no modulus


def test_spec_pickles(spec5):
    clone = pickle.loads(pickle.dumps(spec5))
    assert clone == spec5
    assert clone.mul(3, 4) == 2


def test_coords_index_round_trip():
    spec = FieldSpec(3, 3)
    for i in range(27):
        assert spec.index(spec.coords(i)) == i


@pytest.mark.parametrize("p,f,ell", [(3, 2, 2), (2, 2, 3)])
def test_extension_embeds_as_an_injective_ring_homomorphism(p, f, ell):
    # F_9 -> F_81 and F_4 -> F_64
    spec = FieldSpec(p, f)
    ext, embed = extension(spec, ell)
    assert ext.q == spec.q ** ell
    assert (embed[0], embed[1]) == (0, 1)
    assert len(set(embed.tolist())) == spec.q
    for x in range(spec.q):
        for y in range(spec.q):
            assert embed[spec.add(x, y)] == ext.add(embed[x], embed[y])
            assert embed[spec.mul(x, y)] == ext.mul(embed[x], embed[y])


def test_extension_of_a_prime_field_keeps_its_constants():
    spec = FieldSpec(5)
    assert extension(spec, 1)[0] is spec
    ext, embed = extension(spec, 2)
    assert ext == FieldSpec(5, 2)
    assert embed.tolist() == [0, 1, 2, 3, 4]
