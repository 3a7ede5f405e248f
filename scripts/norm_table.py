#!/usr/bin/env python3
"""Scan norms of 1 - zeta_n and compare against the prime-power rule.

Prints one row per conductor and a final verdict; exits nonzero if any
value deviates (it never should).
"""

import argparse
import sys
import time

from fuscat.arith import factorize
from fuscat.cyclotomic import CycNum, cyclotomic_at_one


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=200)
    ap.add_argument("--quiet", action="store_true", help="print only the summary")
    args = ap.parse_args()

    t0 = time.monotonic()
    mismatches = []
    for n in range(2, args.nmax + 1):
        norm = (1 - CycNum.zeta(n)).norm()
        rule = cyclotomic_at_one(n)
        fac = factorize(n)
        if norm != rule:
            mismatches.append(n)
        if not args.quiet:
            shape = (
                f"{list(fac)[0]}^{fac[list(fac)[0]]}" if len(fac) == 1 else "composite"
            )
            print(f"n={n:<4d} N(1-zeta_n)={norm!s:<5} {shape:<10} "
                  f"{'ok' if norm == rule else 'MISMATCH'}")
    dt = time.monotonic() - t0
    print(f"checked n = 2..{args.nmax} in {dt:.2f}s; mismatches: {mismatches or 'none'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
