"""Request pools and the seeded request stream of each benchmark workload.

A workload is a list of strata.  Every stratum groups pool entries of
similar cost and carries a share: the number of its requests in one round.
The stream is a sequence of rounds; each round holds every stratum's share,
in an order shuffled by the workload seed, and each request is drawn with
replacement from its stratum.  The fixed mix keeps the per-run cost close
across seeds while requests still repeat the way a user's would.  The
shares put the median and the 90th percentile of a run well inside one
narrow stratum each, so neither jumps between strata from seed to seed.

Every argv here is a valid input at the seed commit; `goldens.json` holds its
expected exit code and stdout hash.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Stratum:
    share: int
    entries: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[Stratum, ...]

    def pool(self) -> list[tuple[str, ...]]:
        return [argv for s in self.strata for argv in s.entries]

    def round_length(self) -> int:
        return sum(s.share for s in self.strata)


def argv_key(argv) -> str:
    """Canonical text of one request, the key of its golden reply."""
    return json.dumps(list(argv))


# ---------------------------------------------------------------------------
# alcove-sweep: many small Verlinde elements (phi(2l) <= 84)


def _verlinde(action: str, rs: str, l: int, *extra: str) -> tuple[str, ...]:
    argv = ("verlinde", action, "--type", rs, "--l", str(l))
    if action == "badprimes":
        argv += ("--pmax", "50")
    return argv + extra


def _simples(rs: str, *levels: int) -> tuple[tuple[str, ...], ...]:
    return tuple(_verlinde("simples", rs, l) for l in levels)


def _badprimes(rs: str, *levels: int) -> tuple[tuple[str, ...], ...]:
    return tuple(_verlinde("badprimes", rs, l) for l in levels)


def _json(rs: str, *levels: int) -> tuple[tuple[str, ...], ...]:
    return tuple(_verlinde("simples", rs, l, "--json") for l in levels)


# Comments give each stratum's cost per request at the reference speed
# (calibration.py), measured in the stream at the seed commit.
ALCOVE_SWEEP = Workload(
    name="alcove-sweep",
    strata=(
        # ~30 ms
        Stratum(2, _simples("A1", 21) + _badprimes("A1", 21) + _json("A1", 21)),
        # 70-80 ms
        Stratum(8, _simples("A1", 23, 25, 27) + _badprimes("A1", 23, 25, 27) + _json("A1", 25)),
        # 93-98 ms; holds the median
        Stratum(5, _simples("A2", 15) + _badprimes("A2", 15) + _json("A2", 15)),
        # 180-210 ms
        Stratum(3, _simples("A1", 29, 33) + _badprimes("A1", 29, 33) + _json("A1", 33)),
        # 240-330 ms
        Stratum(2, _simples("A1", 31, 35, 39) + _badprimes("A1", 31, 35) + _json("A1", 35)),
        # 410-500 ms; holds the 90th percentile
        Stratum(5, _simples("A1", 37) + _badprimes("A1", 37, 39) + _simples("A2", 17) + _badprimes("A2", 17)
                + _simples("A3", 15) + _badprimes("A3", 15) + _json("A3", 15)),
        # 550-750 ms
        Stratum(1, _simples("A1", 45) + _badprimes("A1", 45) + _simples("A2", 19, 21) + _badprimes("A2", 19, 21)
                + _simples("D4", 15) + _badprimes("D4", 15)),
        # 1.5-1.6 s
        Stratum(1, _simples("A4", 15) + _badprimes("A4", 15)),
    ),
)


# ---------------------------------------------------------------------------
# cyclotomic-large: one large element per request


class _Lcg:
    """Fixed 64-bit linear congruential generator, so the pool never depends
    on the host's random module."""

    def __init__(self, seed: int):
        self.x = seed

    def below(self, n: int) -> int:
        self.x = (self.x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.x >> 33) % n


POOL_SEED = 20110211
CYC_CONDUCTORS = (60, 72, 84, 90, 105, 120, 126, 150, 168, 180, 210, 240)


def _dense(gen: _Lcg, n: int, terms: int) -> str:
    """A z-expression with `terms` distinct powers below n and coefficients
    in +-1..3; the constant term is positive so argparse never sees a flag."""
    powers = sorted({1 + gen.below(n - 1) for _ in range(4 * terms)})
    picked = [0]
    while len(picked) < terms and powers:
        picked.append(powers.pop(gen.below(len(powers))))
    text = str(1 + gen.below(3))
    for d in sorted(picked[1:]):
        c = 1 + gen.below(3)
        text += f"{'-' if gen.below(2) else '+'}{c}*z^{d}"
    return text


def _cyc_pool() -> dict[int, dict[str, tuple[str, ...]]]:
    """Per conductor: a norm, a Galois image and a division request on the
    same dense element."""
    gen = _Lcg(POOL_SEED)
    pool = {}
    for n in CYC_CONDUCTORS:
        a = _dense(gen, n, 24)
        b = _dense(gen, n, 8)
        s = next(k for k in range(5 + gen.below(n // 2), n) if gcd(k, n) == 1)
        pool[n] = {"norm": ("cyc", a, "--n", str(n), "--norm"),
                   "galois": ("cyc", a, "--n", str(n), "--galois", str(s)),
                   "div": ("cyc", f"({a})/({b})", "--n", str(n))}
    return pool


_CYC = _cyc_pool()


def _cyc(kind: str, *conductors: int) -> tuple[tuple[str, ...], ...]:
    return tuple(_CYC[n][kind] for n in conductors)


def _classifies(*cases: tuple[str, int, int]) -> tuple[tuple[str, ...], ...]:
    return tuple(("verlinde", "classify", "--type", rs, "--l", str(l), "--p", str(p)) for rs, l, p in cases)


def _lemma(*nmax: int) -> tuple[tuple[str, ...], ...]:
    return tuple(("lemma-norm", "--nmax", str(n)) for n in nmax)


CYCLOTOMIC_LARGE = Workload(
    name="cyclotomic-large",
    strata=(
        # 4-12 ms
        Stratum(2, tuple(("amplitude", "t4", "--quantum", "--l", str(l)) for l in (5, 7, 9, 15, 21, 25, 35, 45))),
        # 8-21 ms
        Stratum(2, _cyc("galois", *CYC_CONDUCTORS)),
        # 13-28 ms
        Stratum(2, _cyc("norm", 60, 72, 84, 90) + _cyc("div", 60, 72, 84, 90)),
        # 28-44 ms
        Stratum(2, _classifies(("A4", 35, 5), ("A3", 35, 7), ("A2", 45, 5), ("A3", 45, 5)) + _lemma(60)),
        # 45-64 ms
        Stratum(2, _cyc("norm", 105, 120, 126) + _cyc("div", 120, 126) + _classifies(("A1", 63, 7))),
        # 70-77 ms; holds the median
        Stratum(6, _cyc("div", 105, 150) + _classifies(("A1", 75, 5), ("E6", 39, 13))),
        # 85-93 ms
        Stratum(1, _cyc("norm", 150) + _classifies(("A2", 63, 7), ("A2", 55, 5))),
        # 110-160 ms
        Stratum(2, _cyc("norm", 168, 180) + _cyc("div", 168, 180) + _lemma(80) + _classifies(("A5", 49, 7))),
        # 180-250 ms; holds the 90th percentile
        Stratum(5, _cyc("norm", 210) + _cyc("div", 210, 240) + _lemma(100)
                + _classifies(("A6", 55, 11), ("A1", 105, 5), ("A1", 85, 17), ("A1", 105, 7), ("A1", 91, 13),
                              ("A1", 99, 11))),
        # 300-720 ms
        Stratum(1, _cyc("norm", 240) + _lemma(120)
                + _classifies(("A2", 77, 7), ("D6", 55, 11), ("E6", 65, 13), ("A1", 121, 11), ("D4", 105, 7))),
    ),
)


# ---------------------------------------------------------------------------
# group-catalog: enumeration, classes, degrees, cosets; no cyclotomic work


def _gtcat(group: str, h: str) -> tuple[tuple[str, ...], ...]:
    return tuple(("gtcat", action, "--group", group, "--subgroup-gens", h) for action in ("simples", "badprimes"))


def _groups(*names: str) -> tuple[tuple[str, ...], ...]:
    return tuple(("group", "--group", g) for g in names)


def _ito(*cases: tuple[str, int]) -> tuple[tuple[str, ...], ...]:
    return tuple(("ito-michler", "--group", g, "--p", str(p)) for g, p in cases)


def _crosscheck(*names: str) -> tuple[tuple[str, ...], ...]:
    return tuple(("crosscheck", "--group", g) for g in names)


S5_GENS, S4_GENS, C5_GENS = "(1 2),(1 2 3 4 5)", "(1 2 3 4),(1 2)", "(1 2 3 4 5)"

A7_A4 = "(1 2 3),(1 2 4)"

GROUP_CATALOG = Workload(
    name="group-catalog",
    strata=(
        # 15-21 ms
        Stratum(2, _gtcat("S6", "(1 2 3 4 5 6)")),
        # 48-55 ms
        Stratum(3, _gtcat("A7", A7_A4)[:1] + _groups("SL23xS4") + _ito(("S4xS4xS3", 5), ("SL23xS4", 3))),
        # 72-77 ms
        Stratum(4, _gtcat("A7", A7_A4)[1:] + _gtcat("S7", C5_GENS)[:1] + _crosscheck("Q8", "D12", "SL23", "S4")),
        # 84-86 ms
        Stratum(1, _groups("A7") + _ito(("A7", 5),) + _crosscheck("S3xC4")),
        # 97-106 ms; holds the median
        Stratum(5, _gtcat("S7", C5_GENS)[1:] + _groups("S7", "D12xD12") + _ito(("S7", 2), ("D12xD12", 3))
                + _crosscheck("A5")),
        # 140-200 ms
        Stratum(2, _gtcat("S7", S4_GENS) + _gtcat("S6", S5_GENS)[:1] + _crosscheck("S5")),
        # 270-290 ms
        Stratum(2, _gtcat("S6", S5_GENS)[1:] + _groups("S7xC2", "S3xS3xS3xC2") + _ito(("S3xS3xS3xC2", 3),)),
        # ~520 ms
        Stratum(1, _gtcat("S7", S5_GENS)[:1]),
        # ~620 ms; holds the 90th percentile
        Stratum(3, _groups("S4xS4xS3")),
        # 0.86-1.26 s
        Stratum(1, _gtcat("S7", S5_GENS)[1:] + _gtcat("S4xS4xS3", "(1 2),(1 2 3 4)")[:1] + _groups("Q8xD8xC3")),
    ),
)

WORKLOADS = {w.name: w for w in (ALCOVE_SWEEP, CYCLOTOMIC_LARGE, GROUP_CATALOG)}


def request_stream(workload: Workload, seed: int, length: int) -> list[tuple[str, ...]]:
    """The first `length` requests of the workload's stream for `seed`."""
    rng = random.Random(f"{workload.name}/{seed}")
    slots = [s for s in workload.strata for _ in range(s.share)]
    out: list[tuple[str, ...]] = []
    while len(out) < length:
        rng.shuffle(slots)
        out += [s.entries[rng.randrange(len(s.entries))] for s in slots]
    return out[:length]
