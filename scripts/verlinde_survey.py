#!/usr/bin/env python3
"""Survey good/bad prime verdicts across root-system types and levels.

For each (type, odd level l > h) pair, reads every prime up to --pmax from
`verlinde.prime_table` and counts the alcove weights whose dimension norm
is not a unit.  Cells: G = good, B = bad (certified witness), o = outside
the classifier's hypotheses (divisor prime below the Coxeter number).
"""

import argparse
import sys

from fuscat.arith import primes_upto
from fuscat.errors import PreconditionError
from fuscat.rootsys import build_root_system
from fuscat.verlinde import Verdict, alcove_norms, prime_table

CELLS = {Verdict.GOOD: "G", Verdict.BAD: "B", Verdict.OUTSIDE_THEOREM: "o"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", default="A1,A2,A3,D4")
    ap.add_argument("--lmax", type=int, default=21)
    ap.add_argument("--pmax", type=int, default=30)
    args = ap.parse_args()

    primes = primes_upto(args.pmax)
    for label in args.types.split(","):
        rs = build_root_system(label.strip())
        h = rs.coxeter_number
        print(f"\n{rs.label} (Coxeter number {h}); columns: p = {primes}")
        start = h + 1 if (h + 1) % 2 else h + 2
        for l in range(start, args.lmax + 1, 2):
            norms = alcove_norms(rs, l)
            cells = [CELLS[v.verdict] for v, _ in prime_table(rs, l, primes, norms)]
            nonunit = sum(1 for _, v in norms if abs(v) != 1)
            print(f"  l={l:<3d} {' '.join(cells)}   "
                  f"({len(norms)} simples, {nonunit} with non-unit norm)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
