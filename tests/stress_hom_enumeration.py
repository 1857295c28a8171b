"""Stress run of the hom enumerators: hom(walk_v, parity).

Enumerates the lax functors walk_v -> parity and both kinds of
transformation between every ordered pair of them, checks the counts
ROADMAP D17 gives (32 functors, 8,192 horizontal and 8,192 vertical
transformations) and prints the time taken.  pytest does not collect
this module; run it from the repository root with

    PYTHONPATH=src python tests/stress_hom_enumeration.py

It exits 1 when a count differs.
"""

import sys
import time

from dblcheck.core import parity, walk_v
from dblcheck.hom import HOP, enumerate_lax_functors, enumerate_transforms
from dblcheck.transform import HorTransform, VertTransform

EXPECTED = {"functors": 32, "hor": 8192, "vert": 8192}


def main():
    start = time.perf_counter()
    functors = list(enumerate_lax_functors(walk_v(), parity(), HOP))
    counts = {"functors": len(functors), "hor": 0, "vert": 0}
    for F in functors:
        for G in functors:
            for tag, cls in (("hor", HorTransform), ("vert", VertTransform)):
                counts[tag] += sum(1 for _ in enumerate_transforms(cls, F, G))
    elapsed = time.perf_counter() - start
    print("hom(walk_v, parity): %d functors, %d horizontal and %d vertical "
          "transformations in %.2f s" % (
              counts["functors"], counts["hor"], counts["vert"], elapsed))
    if counts != EXPECTED:
        print("expected %s" % EXPECTED)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
