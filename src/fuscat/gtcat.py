"""Simple objects and bad primes of group-theoretical categories.

Only the trivial-cocycle case is computed: simples are indexed by pairs
(double coset HgH, irreducible character of the stabilizer H^g) with
dimension |H|/|H^g| * deg; a prime is bad exactly when it divides one of
these dimensions.  The trivial-cocycle restriction is stamped into every
report the CLI emits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import prime_witnesses
from .errors import InternalCheckError
from .finitegroup import Perm, PermGroup, char_degrees, double_coset_orbits

COCYCLE_RESTRICTION = "trivial cocycles only (omega = 1, psi = 1)"


@dataclass(frozen=True)
class GTSimple:
    coset_rep: Perm
    stabilizer_order: int
    irrep_degree: int
    dimension: int


def enumerate_simples(g: PermGroup, h: PermGroup) -> list[GTSimple]:
    """Simples of the bimodule category attached to (G, H), trivial cocycles."""
    simples = [
        GTSimple(rep, stab.order, d, (h.order // stab.order) * d)
        for rep, _, stab in double_coset_orbits(g, h)
        for d in char_degrees(stab)
    ]
    if sum(s.dimension**2 for s in simples) != g.order:
        raise InternalCheckError("sum of squared dimensions is not |G|")
    return simples


def gt_bad_primes(g: PermGroup, h: PermGroup) -> dict[int, GTSimple]:
    """Primes dividing the dimension of some simple, with witness simples."""
    return prime_witnesses((s.dimension, s) for s in enumerate_simples(g, h))
