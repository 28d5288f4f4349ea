"""Walk through the exact dissection identity on the standing fixture.

The unit ball of F_5((1/t)) splits into Farey arcs indexed by (r, a).
Integrating the counting kernel over every arc and adding everything back
up must reproduce the brute-force point count exactly, because every step
stays inside the cyclotomic ring Q(zeta_5).  The census and the subtotals
come from the fast route, which sums the arcs of each degree r at once;
the per-arc quadrature, the oracle, is shown agreeing on deg r <= 2.
"""

from fractions import Fraction

from fflab.circle import CountingProblem
from fflab.fields import FieldSpec
from fflab.forms import fermat_form


def main():
    spec = FieldSpec(5)
    prob = CountingProblem(spec, fermat_form(spec, 3, 3), 1)
    print("fixture: diagonal cubic in 3 variables over F_5, curves of degree 1")

    brute = prob.brute_count()
    print(f"brute-force count over the {spec.q}^6 coefficient box: {brute}")

    by_degree = prob.degree_subtotals()
    census = {deg: arcs for deg, (arcs, _) in by_degree.items()}
    print(f"dissection: {sum(census.values())} arcs, by deg r: {census}")
    total_measure = sum(Fraction(arcs, spec.q ** (deg + prob.arc_floor))
                        for deg, arcs in census.items())
    print(f"total arc measure: {total_measure} (the whole unit ball)")

    print("per-degree subtotals (exact rationals):")
    running = 0
    for deg, (_, subtotal) in sorted(by_degree.items()):
        as_q = subtotal.to_rational()
        running += as_q
        print(f"  deg r = {deg}: {as_q}")
    print(f"the fractional parts cancel: sum = {running}")

    oracle = {}
    for arc in prob.dissect():
        if arc.deg_r > 2:
            break
        arcs, total = oracle.get(arc.deg_r, (0, 0))
        oracle[arc.deg_r] = (arcs + 1, total + prob.integrate_arc(arc))
    agree = all(by_degree[deg] == oracle[deg] for deg in oracle)
    print(f"per-arc quadrature on deg r <= 2 agrees: {agree}")

    total = prob.dissection_total()
    print(f"dissection total {total.to_rational()} == brute count {brute}: "
          f"{total == brute}")
    print(f"evaluation budget spent: {prob.budget_spent}")


if __name__ == "__main__":
    main()
