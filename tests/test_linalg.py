import numpy as np
import pytest

from fflab.linalg import (batched_rank, poly_matrix_rank, rank_mod_q,
                          solve_nullspace)
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
