"""The major arcs alone contribute a clean power of q.

The major arc is the ball |alpha| < q^{-de-1} around 0, on which S is
constant: its subtotal, S(0) times the ball's measure q^{-de-1}, is
exactly q^mu_hat where mu_hat = (e+1)n - de - 1, the expected dimension
of the affine cone over the space of degree-e curves.  No limits, no
error terms: the equality holds at finite level.
"""

from fractions import Fraction

from fflab.audit import dims
from fflab.circle import CountingProblem
from fflab.fields import FieldSpec
from fflab.forms import fermat_form


def main():
    fixtures = [(5, 3), (7, 2)]
    for q, n in fixtures:
        spec = FieldSpec(q)
        prob = CountingProblem(spec, fermat_form(spec, n, 3), 1)
        report = dims(n, 3, 1)
        major = prob.major_total()
        expect = Fraction(q) ** report.mu_hat
        print(f"q={q}, n={n}: mu_hat = {report.mu_hat}, "
              f"major-arc subtotal = {major.to_rational()}, "
              f"q^mu_hat = {expect}, equal: {major == expect}")


if __name__ == "__main__":
    main()
