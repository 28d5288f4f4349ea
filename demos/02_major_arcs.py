"""The major arcs alone contribute a clean power of q.

Atoms close enough to a rational point with small denominator are
classified "major".  Their subtotal is exactly q^mu_hat where
mu_hat = (e+1)n - de - 1, the expected dimension of the affine cone
over the space of degree-e curves.  No limits, no error terms: the
equality holds at finite level.
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

    spec = FieldSpec(5)
    prob = CountingProblem(spec, fermat_form(spec, 3, 3), 1)
    unit = next(prob.dissect())        # deg r = 0 first: r = 1, a = 0
    kinds = [atom.kind for atom in prob.arc_atoms(unit)]
    print(f"unit arc atoms: {kinds.count('major')} major, "
          f"{kinds.count('minor')} minor "
          f"(the single deepest atom carries the main term)")


if __name__ == "__main__":
    main()
