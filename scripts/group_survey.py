#!/usr/bin/env python3
"""Survey the built-in group corpus: degrees, bad primes, Sylow structure.

For every group, prints the character degrees, the primes that are bad for
its representation category, and for each good prime dividing the order the
verified normal abelian Sylow subgroup.
"""

import argparse
import sys

from fuscat.errors import PreconditionError
from fuscat.finitegroup import (
    builtin_group,
    char_degrees,
    ito_michler_verify,
    rep_bad_primes,
    rep_good_primes,
)

CORPUS = [
    "S3", "S4", "S5", "S6", "A4", "A5", "A6",
    "D8", "D10", "D12", "D20", "D40",
    "C12", "C30", "Q8", "SL23", "S3xC4", "A4xC2",
    "D12xD12xD12", "SL23xSL23xC3", "S4xS4xS3", "C128", "C2xC2xC2xC2xC2xC2",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", default=",".join(CORPUS))
    args = ap.parse_args()

    for name in args.groups.split(","):
        g = builtin_group(name.strip())
        degs = char_degrees(g)
        bad = rep_bad_primes(g)
        print(f"{name:7s} |G|={g.order:<5d} degrees={list(degs)}")
        print(f"        bad primes: {sorted(bad) or 'none'}")
        for p in rep_good_primes(g):
            rep = ito_michler_verify(g, p)
            print(f"        p={p}: good; Sylow of order {rep.sylow_order} is "
                  f"normal and abelian, complement order {rep.complement_order}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
