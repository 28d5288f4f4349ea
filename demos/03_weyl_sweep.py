"""Weyl differencing bound checked on every atom of the torus.

For the binary fixture the character depth is B = de + 1 = 4, so the
torus splits into 5^4 = 625 atoms.  On each one we compare
|S(alpha)|^(2^(d-1)) against the counting bound coming from two rounds
of squaring.  The comparison is exact: a float64 test with a certified
error bound decides it where it can, and arithmetic in Q(zeta_5) decides
the ties (the zero tail, where the bound is attained).
"""

import itertools

from fflab.circle import CountingProblem
from fflab.fields import FieldSpec
from fflab.forms import fermat_form
from fflab.weyl import check_weyl_batch


def main():
    spec = FieldSpec(5)
    prob = CountingProblem(spec, fermat_form(spec, 2, 3), 1)
    depth = prob.d * prob.e + 1

    # one batched call checks every atom, each given by its depth-B tail
    reports = check_weyl_batch(
        prob, list(itertools.product(range(spec.q), repeat=depth)))
    passed = sum(rep.passed for rep in reports)
    tight = sum(rep.details["cmp"] == 0 for rep in reports)

    total = spec.q ** depth
    print(f"atoms checked: {total}")
    print(f"inequality holds on: {passed} / {total}")
    print(f"atoms where the bound is tight (equality): {tight}")


if __name__ == "__main__":
    main()
