"""Walk through the exact dissection identity on the standing fixture.

The unit ball of F_5((1/t)) splits into Farey arcs indexed by (r, a).
Integrating the counting kernel over every arc and adding everything back
up must reproduce the brute-force point count exactly, because every step
stays inside the cyclotomic ring Q(zeta_5).  The census and the subtotals
come from the fast route, which sums the arcs of each degree r at once.

The oracle needs no character at all.  Summed over the a coprime to r,
the arc integrals of psi(alpha g) are Ramanujan sums over F_q[t], so the
subtotal of degree D is q^-floor(Q) times a signed count of monic divisors
over the values V(g) = #{x in box : F(x) = g}: the sum of V(m h) over the
monic m of degree D, less the same over degree D - 1, with deg(m h) below
min(D + floor(Q), B).
"""

import itertools
from collections import Counter
from fractions import Fraction

from fflab.circle import CountingProblem
from fflab.fields import FieldSpec
from fflab.forms import BoxKernel, fermat_form


def low_digits(spec, m, h, width):
    """The coefficients of t^0..t^(width-1) of the product m h of two
    coefficient tuples (low degree first), through the field tables."""
    mul, add = spec.tables["mul"], spec.tables["add"]
    out = [0] * width
    for i, a in enumerate(m):
        for j, b in enumerate(h[:max(0, width - i)]):
            out[i + j] = add[out[i + j]][mul[a][b]]
    return tuple(out)


def divisor_count_subtotals(prob):
    """{deg r: subtotal} from the value distribution of the whole box."""
    spec, B, floor_q = prob.spec, prob.char_depth, prob.arc_floor
    values = Counter()
    for _, images in BoxKernel(prob.form, prob.e).box():
        values.update(map(tuple, images.tolist()))

    def multiples(deg, width):
        # sum of V(m h) over monic m of degree deg and h of degree < width
        ms = [low + (1,)
              for low in itertools.product(range(spec.q), repeat=deg)]
        hs = list(itertools.product(range(spec.q), repeat=width))
        return sum(values[low_digits(spec, m, h, B)] for m in ms for h in hs)

    out = {}
    for deg in range(floor_q + 1):
        below = min(deg + floor_q, B)
        count = multiples(deg, below - deg)
        if deg:
            count -= multiples(deg - 1, below - deg + 1)
        out[deg] = Fraction(count, spec.q ** floor_q)
    return out


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

    oracle = divisor_count_subtotals(prob)
    agree = all(by_degree[deg][1] == oracle[deg] for deg in by_degree)
    print(f"divisor counts over the values of F agree at every degree: "
          f"{agree}")

    total = prob.dissection_total()
    print(f"dissection total {total.to_rational()} == brute count {brute}: "
          f"{total == brute}")
    print(f"evaluation budget spent: {prob.budget_spent}")


if __name__ == "__main__":
    main()
