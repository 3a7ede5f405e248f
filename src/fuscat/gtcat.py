"""Simple objects and bad primes of group-theoretical categories.

Only the trivial-cocycle case is computed: simples are indexed by pairs
(double coset HgH, irreducible character of the stabilizer H^g) with
dimension |H|/|H^g| * deg; a prime is bad exactly when it divides one of
these dimensions.  The trivial-cocycle restriction is stamped into every
report the CLI emits.

Each verdict is checked a second way, with no degree: by Ito-Michler, p
divides a degree of the stabilizer K exactly when K's Sylow p-subgroup is
not normal and abelian, so p is bad exactly when some K has p | [H:K] or
such a Sylow p-subgroup (Ito 1951; Michler 1986).
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import prime_factors, prime_witnesses
from .errors import InternalCheckError
from .finitegroup import Perm, PermGroup, _sylow_structure, char_degrees, double_coset_orbits

COCYCLE_RESTRICTION = "trivial cocycles only (omega = 1, psi = 1)"


class GTSimple(NamedTuple):
    coset_rep: Perm
    stabilizer: PermGroup  # H^g, the stabilizer of the coset Hg
    irrep_degree: int
    dimension: int

    @property
    def stabilizer_order(self) -> int:
        return self.stabilizer.order


def enumerate_simples(g: PermGroup, h: PermGroup) -> list[GTSimple]:
    """Simples of the bimodule category attached to (G, H), trivial cocycles."""
    simples = [
        GTSimple(rep, stab, d, (h.order // stab.order) * d)
        for rep, _, stab in double_coset_orbits(g, h)
        for d in char_degrees(stab)
    ]
    if sum(s.dimension**2 for s in simples) != g.order:
        raise InternalCheckError("sum of squared dimensions is not |G|")
    return simples


def gt_bad_primes(
    g: PermGroup, h: PermGroup, simples: list[GTSimple] | None = None
) -> dict[int, GTSimple]:
    """Primes dividing the dimension of some simple, with witness simples,
    checked against the stabilizers' Sylow subgroups.  `simples` are those
    of (g, h) when the caller has them already."""
    if simples is None:
        simples = enumerate_simples(g, h)
    bad = prime_witnesses((s.dimension, s) for s in simples)
    stabilizers = list({id(s.stabilizer): s.stabilizer for s in simples}.values())
    by_sylow = [
        p for p in prime_factors(g.order)
        if any((h.order // k.order) % p == 0 or (k.order % p == 0 and not _sylow_structure(k, p)[1])
               for k in stabilizers)
    ]
    if by_sylow != sorted(bad):
        raise InternalCheckError(
            f"gtcat verdicts fail the Ito-Michler check: the dimensions give the bad primes "
            f"{sorted(bad)}, the stabilizers' Sylow subgroups {by_sylow}"
        )
    return bad
