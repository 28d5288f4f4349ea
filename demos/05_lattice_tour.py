"""Tour of the special lattice pair attached to a symmetric phase matrix.

A symmetric gamma over F_q((1/t)) defines a pair of dual lattices in
dimension 2n.  We read the successive minima exponents R_v off
reduce_lattices, check them against the enumeration oracle, print them
also in the open convention (R_v + 1, for |x| < q^{R_v}), confirm the
duality and symmetry identities, then exercise the ratio and cape lemmas
that control point counts in skew boxes.
"""

from fractions import Fraction

from fflab.fields import FieldSpec
from fflab.latgon import (SpecialLatticePair, check_capes, check_ratio_lemmas,
                          check_sandwiches, minima_by_enumeration,
                          random_symmetric_gammas, reduce_lattices)


def _mirror_sums_are(exps, target):
    return all(r + s == target for r, s in zip(exps, reversed(exps)))


def main():
    spec = FieldSpec(5)

    [gamma] = random_symmetric_gammas(spec, 2, [7])
    pair = SpecialLatticePair(spec, gamma, 2)
    [closed] = reduce_lattices([pair.m_lattice])
    opened = tuple(r + 1 for r in closed)
    [enum] = minima_by_enumeration([pair.m_lattice])
    print(f"seed 7, m = 2")
    print(f"  minima (closed): {closed}  "
          f"reduce == enumerate: {closed == tuple(enum)}")
    print(f"  minima (open):   {opened}")
    print(f"  duality check:   {pair.duality.passed}")
    # R_v + R_{2n-v+1} is 0 for the closed exponents, 2 for the open ones
    print(f"  symmetry closed: {_mirror_sums_are(closed, 0)}, "
          f"open: {_mirror_sums_are(opened, 2)}")

    print("ratio lemma across box pairs:")
    zs = [(-1, 0), (-2, 0), (-2, -1), (0, 0)]
    reps = check_ratio_lemmas([(pair, z1, z2) for z1, z2 in zs])
    for (z1, z2), rep in zip(zs, reps):
        det = rep.details
        print(f"  z = ({z1}, {z2}): counts ({det['count1']}, {det['count2']}), "
              f"case {det['case']!r}, holds: {rep.passed}")

    a = Fraction(5, 2)
    [cape] = check_capes(spec, [(gamma, a, -1, 0)])
    [sand] = check_sandwiches([(pair, a, 0)])       # pair.m = floor(a) = 2
    print(f"cape lemma at a = {a}: K = {cape.details['K']}, "
          f"counts ({cape.details['count1']}, {cape.details['count2']}), "
          f"holds: {cape.passed}")
    print(f"sandwich at a = {a}, z = 0: holds: {sand.passed}")

    print("minima profiles over 100 seeded matrices (closed convention):")
    # a whole suite: one batched draw, one batched duality product and one
    # batched reduction
    pairs = SpecialLatticePair.suite(
        spec, random_symmetric_gammas(spec, 2, range(100)),
        [1 + (seed % 2) for seed in range(100)])
    histogram = {}
    for prof in reduce_lattices([p.m_lattice for p in pairs]):
        histogram[prof] = histogram.get(prof, 0) + 1
    for profile, freq in sorted(histogram.items(), key=lambda kv: -kv[1]):
        print(f"  {profile}: {freq}")


if __name__ == "__main__":
    main()
