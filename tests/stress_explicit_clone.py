"""Stress run of the explicit clone: explicit_clone(bool2).

Clones the flat Boolean-matrix double category on sizes 0..2 to explicit
tables and prints the time taken, including materializing bool2's
squares (ROADMAP Defect 3).  It checks the sizes of the square tables,
1,401,043 horizontal and 306,043 vertical composites, and that the clone
read exactly those pairs from one call of ``square_partners``: a clone
that tries all 9.5 million pairs of squares fails.  pytest does not
collect this module; run it from the repository root with

    PYTHONPATH=src python tests/stress_explicit_clone.py

It exits 1 when a count differs.
"""

import sys
import time

from dblcheck import core

EXPECTED = {"hcomp_sq": 1401043, "vcomp_sq": 306043,
            "square_partners": [(1401043, 306043)]}


def main():
    partners, handed = core.square_partners, []

    def counted(bounds):
        beside, below = partners(bounds)
        handed.append((sum(map(len, beside)), sum(map(len, below))))
        return beside, below

    d = core.bool_matrix_double_category(2)
    core.square_partners = counted
    try:
        start = time.perf_counter()
        e = core.explicit_clone(d)
        elapsed = time.perf_counter() - start
    finally:
        core.square_partners = partners
    counts = {"hcomp_sq": len(e._hs), "vcomp_sq": len(e._vs),
              "square_partners": handed}
    print("explicit_clone(bool2): %d squares, %d horizontal and %d vertical "
          "composites in %.2f s" % (e.n_squares, counts["hcomp_sq"],
                                    counts["vcomp_sq"], elapsed))
    if counts != EXPECTED:
        print("expected %s, got %s" % (EXPECTED, counts))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
