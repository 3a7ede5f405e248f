"""Record the golden reply of every pool request into goldens.json.

    PYTHONPATH=src python3 perfbench/record_goldens.py

Run from the root of a checkout whose outputs are known good.  For each
request of each workload pool it stores the exit code and the SHA-256 of
stdout, plus the size that drives the request's cost: phi(n) of the
cyclotomic field, and |G|, |H| and the class count of G for group requests.
The benchmark checks every reply against this file and never writes it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import run_one  # noqa: E402
from workloads import WORKLOADS, argv_key  # noqa: E402


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def request_size(argv: tuple[str, ...]) -> dict:
    from fuscat.arith import totient
    from fuscat.finitegroup import builtin_group, parse_gens
    from fuscat.rootsys import build_root_system, enumerate_alcove

    command = argv[0]
    if command == "verlinde":
        l = int(_flag(argv, "--l"))
        size = {"phi": totient(2 * l)}
        if argv[1] != "classify":
            size["alcove"] = len(enumerate_alcove(build_root_system(_flag(argv, "--type")), l))
        return size
    if command == "cyc":
        return {"phi": totient(int(_flag(argv, "--n")))}
    if command == "lemma-norm":
        return {"phi": max(totient(n) for n in range(2, int(_flag(argv, "--nmax")) + 1))}
    if command == "amplitude":
        return {"phi": totient(2 * int(_flag(argv, "--l")))}
    g = builtin_group(_flag(argv, "--group"))
    h = g.subgroup(parse_gens(_flag(argv, "--subgroup-gens"), g.degree)) if command == "gtcat" else g
    return {"G": g.order, "H": h.order, "classes": len(g.conjugacy_classes())}


def main() -> int:
    import fuscat.cli as cli

    goldens = {}
    for workload in WORKLOADS.values():
        for argv in workload.pool():
            code, digest, _, error, latency = run_one(cli.main, list(argv))
            if error is not None or code != 0:
                print(f"not a valid pool request ({error or f'exit {code}'}): {argv}", file=sys.stderr)
                return 1
            goldens[argv_key(argv)] = {"exit": code, "sha256": digest, "size": request_size(argv)}
            print(f"{latency:8.3f} s  {workload.name}  {' '.join(argv)[:90]}", file=sys.stderr)
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
