import functools
import itertools
import os
import random

import numpy as np
import pytest

from fflab.errors import ConfigError
from fflab.fields import FieldSpec
from fflab.circle import CountingProblem
from fflab.forms import (BoxKernel, HypersurfaceForm, block_distributions,
                         fermat_form, parse_form_file, symmetrize)
from fflab.moduli import total_solutions
from oracles import eval_form
from scalars import BinaryForm, Polynomial


def test_fermat_eval_field_points(spec5):
    form = fermat_form(spec5, 3, 3)
    for x in [(0, 0, 0), (1, 2, 3), (4, 4, 1)]:
        want = sum(pow(c, 3, 5) for c in x) % 5
        assert eval_form(form, list(x)) == want


def test_eval_on_polynomials_is_ring_eval(spec5):
    form = fermat_form(spec5, 2, 3)
    t = Polynomial.gen(spec5)
    one = Polynomial.one(spec5)
    val = eval_form(form, [t, one + t])
    # t^3 + (1+t)^3 = 2t^3 + 3t^2 + 3t + 1
    assert val == Polynomial.from_ints(spec5, [1, 3, 3, 2])


def test_eval_on_binary_forms(spec5):
    form = fermat_form(spec5, 2, 3)
    u = BinaryForm.from_ints(spec5, 1, [0, 1])
    v = BinaryForm.from_ints(spec5, 1, [1, 0])
    image = eval_form(form, [u, v])
    assert image.e == 3
    assert image == u * u * u + v * v * v


def test_symmetrize_validation(spec5):
    with pytest.raises(ValueError):
        symmetrize(spec5, 2, 5, {(5, 0): 1})          # p > d fails
    with pytest.raises(ValueError):
        symmetrize(spec5, 2, 2, {(2, 0): 1})          # d >= 3 fails
    with pytest.raises(ValueError):
        symmetrize(spec5, 2, 3, {(3, 0, 0): 1})       # wrong arity
    with pytest.raises(ValueError):
        symmetrize(spec5, 2, 3, {(2, 0): 1})          # wrong degree


VARIABLE_BLOCKS = [
    (3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, ((0,), (1,), (2,))),
    (3, {(3, 0, 0): 1, (2, 1, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1},
     ((0, 1), (2,))),
    # x0 and x2 meet only through x1; x3 is absent
    (4, {(2, 1, 0, 0): 1, (0, 1, 2, 0): 3}, ((0, 1, 2), (3,))),
    (3, {(0, 0, 3): 1, (1, 0, 2): 1, (0, 3, 0): 2}, ((0, 2), (1,))),
    (2, {(1, 2): 1}, ((0, 1),)),
]


@pytest.mark.parametrize("n,monomials,blocks", VARIABLE_BLOCKS)
def test_variable_blocks(spec5, n, monomials, blocks):
    form = symmetrize(spec5, n, 3, monomials)
    assert form.blocks == blocks
    # the dense tensor matches the sparse one and vanishes at every index
    # tuple that meets two blocks
    block_of = {i: k for k, block in enumerate(blocks) for i in block}
    for idx in itertools.product(range(n), repeat=3):
        assert form.dense[idx] == form.tensor.get(tuple(sorted(idx)), 0)
        if len({block_of[i] for i in idx}) > 1:
            assert form.dense[idx] == 0


@pytest.mark.parametrize("f", [1, 2])
def test_parts_sum_back_to_the_form(f):
    # F at a point is the sum of its parts at that point's block
    # coordinates, for the forms of test_variable_blocks and the two
    # kernel forms (over F_25 the mixed one has a coefficient outside F_5)
    spec, forms = _kernel_forms(5, f)
    forms += [symmetrize(spec, n, 3, monomials)
              for n, monomials, _ in VARIABLE_BLOCKS]
    rng = random.Random(f)
    for form in forms:
        assert len(form.parts) == len(form.blocks)
        for part, block in zip(form.parts, form.blocks):
            assert (part.spec, part.n, part.d) == (spec, len(block), 3)
        for _ in range(30):
            x = [rng.randrange(spec.q) for _ in range(form.n)]
            total = 0
            for part, block in zip(form.parts, form.blocks):
                total = spec.add(total, eval_form(part,
                                                  [x[i] for i in block]))
            assert total == eval_form(form, x)


def test_equal_blocks_give_equal_parts(spec5):
    fermat = fermat_form(spec5, 3, 3)
    cube = fermat_form(spec5, 1, 3)
    assert fermat.parts == (cube, cube, cube)
    assert len(dict.fromkeys(fermat.parts)) == 1
    # a one-block form is its own part; the parts of unequal blocks differ
    assert cube.parts == (cube,)
    mixed = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (0, 3, 0): 2,
                                     (0, 0, 3): 1})
    assert mixed.parts[0] == mixed.parts[2] != mixed.parts[1]
    # a variable the form does not contain is the zero form in one
    # variable: no monomial and a zero tensor
    absent = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (0, 3, 0): 2})
    zero = absent.parts[2]
    assert zero == HypersurfaceForm(spec5, 1, 3, {}, {})
    assert (zero.monomials, zero.tensor) == ({}, {})
    assert zero.dense.tolist() == [[[0]]]
    assert zero.parts == (zero,)


def test_parse_form_file_round_trip(tmp_path, spec5):
    path = tmp_path / "cubic.form"
    path.write_text("# comment line\n3 0 : 1\n2 1 : 1   # inline\n0 3 : 2\n")
    form = parse_form_file(str(path), spec5, 2, 3)
    want = symmetrize(spec5, 2, 3, {(3, 0): 1, (2, 1): 1, (0, 3): 2})
    assert form == want


def test_parse_form_file_extension_coeffs(tmp_path):
    spec = FieldSpec(5, 2)
    path = tmp_path / "ext.form"
    path.write_text("3 0 : (2,1)\n0 3 : 1\n")
    form = parse_form_file(str(path), spec, 2, 3)
    coeff = form.monomials[(3, 0)]
    assert spec.coords(coeff) == (2, 1)


@pytest.mark.parametrize("body,needle", [
    ("3 0\n", "missing ':'"),
    ("3 : 1\n", "expected 2 exponents"),
    ("2 0 : 1\n", "degree"),
    ("3 0 : x\n", ""),
])
def test_parse_form_file_errors(tmp_path, spec5, body, needle):
    path = tmp_path / "bad.form"
    path.write_text(body)
    with pytest.raises(ConfigError) as err:
        parse_form_file(str(path), spec5, 2, 3)
    assert "bad.form:1" in str(err.value)
    assert needle in str(err.value)


def test_multilinear_diagonal_matrix(spec5, prob_n2):
    # the tensor is normalized so that F(x) = sum T_ijk x_i x_j x_k; the
    # bilinear slice M[i][k] = Psi_i(v, e_k) = sum_j T_jki v_j, read off
    # form.dense as the Weyl layer reads it, is diag(v1, v2) for the
    # diagonal cubic at v
    def slice_at(form, v):
        return [[functools.reduce(spec5.add, (
            spec5.mul(int(form.dense[j, k, i]), v[j])
            for j in range(form.n))) for k in range(form.n)]
            for i in range(form.n)]

    assert slice_at(prob_n2.form, (1, 2)) == [[1, 0], [0, 2]]
    # sum_i x_i Psi_i(x, x) = x^T M(x) x recovers F(x), also for a
    # non-diagonal ternary cubic
    mixed = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (2, 1, 0): 1,
                                     (1, 1, 1): 3, (0, 0, 3): 2})
    for form in (prob_n2.form, mixed):
        for x in itertools.product(range(5), repeat=form.n):
            m = slice_at(form, x)
            acc = 0
            for j in range(form.n):
                for k in range(form.n):
                    acc = spec5.add(acc, spec5.mul(m[j][k],
                                                   spec5.mul(x[j], x[k])))
            assert acc == eval_form(form, list(x))


def test_separable_counts_walk_only_the_block_boxes(spec5, monkeypatch):
    # the Fermat n = 3, e = 1 form has three equal blocks of 5^2 tuples:
    # S, the sum table and the total count walk one of them, 25 tuples,
    # where the whole box has 5^6 = 15,625
    walked = []
    box = BoxKernel.box

    def counting(self):
        for codes, images in box(self):
            walked.append(len(codes))
            yield codes, images

    monkeypatch.setattr(BoxKernel, "box", counting)
    form = fermat_form(spec5, 3, 3)
    dists = block_distributions(form, 1)
    assert dists[0] is dists[1] is dists[2]
    assert sum(walked) == 25
    for run in (lambda: CountingProblem(spec5, form, 1).exp_sum((1, 2, 3, 4)),
                lambda: CountingProblem(spec5, form, 1).sum_table(),
                lambda: total_solutions(spec5, form, 1)):
        walked.clear()
        run()
        assert sum(walked) == 25
    assert total_solutions(spec5, form, 1) == 145
    # a variable the form does not contain is the zero form in one
    # variable: key 0, count q^(e+1)
    absent = symmetrize(spec5, 3, 3, {(3, 0, 0): 1, (0, 3, 0): 2})
    keys, counts = block_distributions(absent, 1)[2]
    assert (keys.tolist(), counts.tolist()) == ([0], [25])


MIXED_CUBIC = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "forms", "mixed_cubic_n2.form")


def _kernel_forms(p, f):
    spec = FieldSpec(p, f)
    mixed = {(3, 0, 0): 1, (2, 1, 0): 1, (1, 1, 1): 3, (0, 0, 3): 2}
    if f > 1:
        mixed[(0, 1, 2)] = (2, 1) + (0,) * (f - 2)    # outside F_p
    return spec, [fermat_form(spec, 3, 3), symmetrize(spec, 3, 3, mixed)]


@pytest.mark.parametrize("p,f,e", [
    pytest.param(5, f, e, id=f"{f}-{e}") for f in (1, 2) for e in (1, 2, 3)
] + [
    # q^2 = 117,649 > 2^15: the flat table index is built in int32
    pytest.param(7, 3, 1, id="343-1"),
])
def test_box_kernel_matches_eval_form(p, f, e):
    spec, forms = _kernel_forms(p, f)
    q = spec.q
    size = q ** (e + 1)
    rng = random.Random(f"{f}:{e}")
    rows = [[0, 0, 0], [size - 1] * 3]
    rows += [[rng.randrange(size) for _ in range(3)] for _ in range(40)]
    cases = [(form, rows) for form in forms]
    if (f, e) == (1, 1):
        # the mixed binary cubic at every tuple of its box
        cases.append((parse_form_file(MIXED_CUBIC, spec, 2, 3), [
            list(t) for t in itertools.product(range(size), repeat=2)]))
    for form, rows in cases:
        kernel = BoxKernel(form, e)
        if size <= 625:
            # codes number the coefficient space in itertools.product order
            assert kernel.powers[1].tolist() == [
                list(cs) for cs in itertools.product(range(q), repeat=e + 1)]
        got = kernel.images(np.array(rows, dtype=np.int64))
        assert got.shape == (len(rows), 3 * e + 1)
        for row, image in zip(rows, got.tolist()):
            tup = [BinaryForm(spec, e, [c // q ** (e - j) % q
                                        for j in range(e + 1)])
                   for c in row]
            assert image == list(eval_form(form, tup).coeffs)


def test_box_kernel_walks_the_box_in_product_order(spec5):
    form = symmetrize(spec5, 2, 3, {(3, 0): 1, (2, 1): 1, (0, 3): 2})
    kernel = BoxKernel(form, 1)
    blocks = list(kernel.box())
    codes = np.concatenate([c for c, _ in blocks]).tolist()
    assert codes == [list(t) for t in itertools.product(range(25), repeat=2)]
    space = list(itertools.product(range(5), repeat=2))
    images = np.concatenate([im for _, im in blocks]).tolist()
    for (a, b), image in zip(codes, images):
        polys = [Polynomial(spec5, space[a]), Polynomial(spec5, space[b])]
        value = eval_form(form, polys)
        assert image == [value.coeff(k) for k in range(4)]
