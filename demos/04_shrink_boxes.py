"""Shrinking the counting box costs a controlled power of q.

N(alpha) counts pairs in the full coefficient box whose differenced
phase vanishes; N_eta(alpha) shrinks the box by a factor q^(-eta(e+1))
per coordinate.  check_shrink_batch counts both for a list of phases and
checks the inequality

    N(alpha) <= q^((e+1)(d-1)n(1-eta)) * N_eta(alpha)

requires the parity condition (e+1)(eta+1)/2 integral, so the menu of
admissible eta depends on e in a parity-sensitive way.
"""

from fractions import Fraction

from fflab.circle import CountingProblem
from fflab.errors import ConfigError
from fflab.fields import FieldSpec
from fflab.forms import fermat_form
from fflab.weyl import check_shrink_batch


def admissible(e):
    return [Fraction(k, e + 1) for k in range(e + 2)
            if (k + e + 1) % 2 == 0]


def main():
    for e in (1, 2, 3, 4):
        print(f"e = {e}: admissible eta = {[str(x) for x in admissible(e)]}")

    spec = FieldSpec(5)
    prob = CountingProblem(spec, fermat_form(spec, 2, 3), 1)
    print()
    # a phase is its depth-B tail of digits at t^-1, t^-2, ...
    tails = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 3)]
    reports = {eta: check_shrink_batch(prob, tails, eta)
               for eta in admissible(1)}
    for k, tail in enumerate(tails):
        for eta, reps in reports.items():
            rep = reps[k]
            print(f"alpha tail {tail}, eta={eta}: "
                  f"N = {rep.details['N']}, N_eta = {rep.details['N_eta']}, "
                  f"bound = {rep.details['rhs']}, holds: {rep.passed}")

    print()
    try:
        check_shrink_batch(prob, tails[1:2], Fraction(1, 2))
    except ConfigError as exc:
        print(f"eta = 1/2 at e = 1 is rejected: {exc}")


if __name__ == "__main__":
    main()
