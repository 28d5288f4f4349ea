"""Symbolic audit of the minor-arc exponent bookkeeping.

Every minor-arc cell (alpha, beta) must save a positive power of q
against the main term.  The audit classifies each cell, picks the better
of two bounding routes, and verifies the case analysis agrees with the
parity-floor shortcut.  Everything is exact rational arithmetic; no
point counting happens here, which is why three full grids finish in
well under a second.
"""

from fflab.audit import audit_minor_arcs, minor_arc_range, n0


def main():
    for d in (3, 4, 5):
        print(f"d = {d}: audit needs n > n0 = {n0(d)}")

    rep = audit_minor_arcs(3, 45, 1)
    print(f"grid d=3, n=45, e=1: {len(rep.cells)} cells, "
          f"passed: {rep.passed}, min saving: {rep.min_saving}")
    print("  alpha beta  case  eta  saving     route")
    for c in rep.cells:
        eta = "-" if c.eta_count is None else c.eta_count
        print(f"  {c.alpha:>5} {c.beta:>4}  {c.case_label:>4}  {eta:>3}  "
              f"{str(c.saving):>9}  {c.route:>5}")

    small = audit_minor_arcs(3, 4, 1)
    print(f"grid d=3, n=4 (below threshold): passed: {small.passed} "
          f"({len(small.failures)} failing cells, reported honestly)")

    cells = 0
    mismatches = 0
    worst = None
    for d in (3, 4, 5):
        n = n0(d) + 1
        for e in range(1, 9):
            r = audit_minor_arcs(d, n, e)
            assert r.passed
            cells += len(r.cells)
            mismatches += sum(1 for c in r.cells if not c.case_eta_match)
            if worst is None or r.min_saving < worst[0]:
                worst = (r.min_saving, d, n, e)
    print(f"full sweep d in (3,4,5) x e in 1..8: {cells} cells, "
          f"{mismatches} cells where the case label and the eta count "
          f"disagree (both routes still valid)")
    print(f"smallest saving anywhere: {worst[0]} at d={worst[1]}, "
          f"n={worst[2]}, e={worst[3]}")

    cells_11 = list(minor_arc_range(3, 1))
    print(f"minor-arc cell range at (d,e) = (3,1): {len(cells_11)} cells")


if __name__ == "__main__":
    main()
