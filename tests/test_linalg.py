import numpy as np
import pytest

from fflab.fields import FieldSpec
from fflab.linalg import (batched_nullspace, batched_rank, poly_matrix_rank,
                          rank_mod_q, solve_nullspace)
from fflab.polys import Polynomial


def test_rank_mod_q_known(spec5):
    assert rank_mod_q(spec5, [[1, 2], [2, 4]]) == 1
    assert rank_mod_q(spec5, [[1, 2], [2, 3]]) == 2
    assert rank_mod_q(spec5, [[0, 0], [0, 0]]) == 0
    assert rank_mod_q(spec5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_extension_field():
    from fflab.fields import FieldSpec
    spec = FieldSpec(5, 2)
    g = 5                           # index of the generator coordinate
    # rows (1, g) and (g, g^2) are proportional over F_25
    g2 = spec.mul(g, g)
    assert rank_mod_q(spec, [[1, g], [g, g2]]) == 1
    assert rank_mod_q(spec, [[1, g], [0, 1]]) == 2


def test_nullspace_vectors_annihilate(spec5):
    rows = [[1, 2, 3, 0], [0, 1, 4, 1]]
    basis = solve_nullspace(spec5, rows)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            acc = 0
            for a, x in zip(row, vec):
                acc = spec5.add(acc, spec5.mul(a, x))
            assert acc == 0


def test_batched_rank_matches_loop(spec5):
    rng = np.random.default_rng(7)
    mats = rng.integers(0, 5, size=(50, 3, 4))
    got = batched_rank(spec5, mats)
    want = [rank_mod_q(spec5, m.tolist()) for m in mats]
    assert got.tolist() == want


@pytest.mark.parametrize("p", [181, 191])
def test_batched_rank_on_both_sides_of_the_int16_index(p):
    # 181^2 still fits int16; 191^2 does not, so its stacks are int32.
    # Products of 4 x 2 and 2 x 5 matrices: rank at most 2, so wrong
    # arithmetic shows as a higher rank
    spec = FieldSpec(p)
    rng = np.random.default_rng(3)
    mats = (rng.integers(0, p, size=(60, 4, 2))
            @ rng.integers(0, p, size=(60, 2, 5))) % p
    got = batched_rank(spec, mats)
    assert got.tolist() == [rank_mod_q(spec, m.tolist()) for m in mats]


@pytest.mark.parametrize("p,f", [(5, 1), (5, 2), (181, 1), (191, 1)])
def test_batched_nullspace_matches_the_loop(p, f):
    # sparse stacks, so that many are singular; solve_nullspace is the
    # oracle, vector for vector
    spec = FieldSpec(p, f)
    rng = np.random.default_rng(11)
    for shape in [(40, 4, 4), (30, 5, 7), (20, 7, 3), (5, 0, 3)]:
        mats = rng.integers(0, spec.q, size=shape)
        mats[rng.random(shape) < 0.6] = 0
        basis, free = batched_nullspace(spec, mats)
        for b in range(shape[0]):
            want = solve_nullspace(spec, mats[b].tolist())
            if not shape[1]:
                want = np.eye(shape[2], dtype=int).tolist()
            assert basis[b][free[b]].tolist() == want


def test_batched_solution_counts(spec5):
    mats = np.array([[[1, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]])
    ranks = batched_rank(spec5, mats)
    assert ranks.tolist() == [2, 1, 0]
    # A u = 0 has q^(C - rank) solutions u in F_q^C
    assert [5 ** (2 - r) for r in ranks.tolist()] == [1, 5, 25]


def test_poly_matrix_rank(spec5):
    t = Polynomial.gen(spec5)
    one = Polynomial.one(spec5)
    assert poly_matrix_rank([[t, one], [t * t, t]]) == 1
    assert poly_matrix_rank([[t, one], [one, t]]) == 2
    zero = Polynomial.zero(spec5)
    assert poly_matrix_rank([[zero, zero], [zero, zero]]) == 0


def test_poly_from_idx(spec5):
    # index coefficients and integer coefficients agree on F_5
    p = Polynomial(spec5, [1, 0, 3])
    assert p == Polynomial.from_ints(spec5, [1, 0, 3])
