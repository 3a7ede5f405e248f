"""Machine-speed probe that the benchmark times next to every request.

On a host whose CPUs are shared with other work, the same request can take
30% longer a minute later, and the speed can flip between two levels from
one request to the next.  `probe` is a fixed piece of interpreter work, with
no fuscat code in it, of the kind fuscat does: tuple hashing and dict
lookups as in group enumeration, big-integer products and remainders as in
cyclotomic norms.  Timing it beside each request gives the machine's current
speed; run.py scales each measured time by REFERENCE_S / (probe time around
it), so times are reported at one reference speed and drift of the host
cancels out.  No change to fuscat changes the probe, so a real speed-up
shows in full.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.005  # nominal probe time; reported times are scaled to it


def _work() -> int:
    table: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(6000):
        key = (i, i * 7 % 13, i ^ 5)
        table[key] = i
        acc += table[(i >> 1, (i >> 1) * 7 % 13, (i >> 1) ^ 5)]
    x, m = 3 ** 1500, 10 ** 400 + 7
    for _ in range(90):
        x = x * 12345678901234567 % m
    return acc + x % 97


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
