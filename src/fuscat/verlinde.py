"""Quantum dimensions at roots of unity and the good/bad prime classifier.

At q = zeta_{2l} the quantum integer is [m] = q^(1-m) (y^m - 1)/(y - 1)
with y = q^2 = zeta_l, so the quantum Weyl product over the positive roots
is the unit q^(sum b - sum a) times the principal specialisation
P(y) = prod (1 - y^a) / prod (1 - y^b), a = (lambda+rho, alpha) and
b = (rho, alpha).  P is a polynomial with integer coefficients; `qdim`
builds it with the binomial quotient of `cyclotomic` (the kernel that also
gives Phi_n), folds it to P(q^2) by one scatter and multiplies it by the
unit q^(sum b - sum a) in Q(zeta_{2l}).

Norms of the dimensions decide divisibility by a prime.  They come from
the prime-power lemma, not from a product of Galois conjugates: with
d = l/gcd(l, m), N(1 - zeta_l^m) = Phi_d(1)^(phi(2l)/phi(d)), which is
p^(phi(2l)/phi(d)) when d = p^k and 1 when d has two or more prime
factors; the unit and the N(1 - zeta_l) factors cancel.  The divisor
ledger of a call factors l once (by `arith.factorize`, which refuses an l
it cannot factor within its trial bound) and enters each pairing's
(Phi_d(1), phi(2l)/phi(d)) when first met; a norm above NORM_BITS_LIMIT
bits is refused before it is built.  `CycNum.norm` stays the generic
route and the tests' oracle.

One dimension per key.  At q = zeta_{2l} we have q^l = -1, so
[a] = [l - a].  Every alcove pairing lies in 1..l-1 and the denominators
(rho, alpha) do not depend on the weight, so a dimension and its norm
depend only on the key of the weight: the sorted tuple of min(a, l - a)
over the positive roots.  `simple_objects` and `alcove_norms` build each
distinct value once per call, in a dict local to the call, with one
divisor ledger; an A4 alcove at l = 15 has 1001 weights and 106 keys.
Nothing is kept between calls.

Pairing coordinates.  (lambda+rho, alpha) = sum_i c_i (w_i + 1) is linear
in the weight, so `rootsys.alcove_walk`, the one walk of the alcove,
yields every weight with its pairings, carried down the recursion by
adding root column i when w_i is raised by one; the alcove routes take
each key in the same pass.  The checks that a weight is dominant and lies
in the alcove stay on the public `qdim` and `qdim_norm` (and so on
`classify_prime`), through `_weyl_pairings`; the weights of the walk meet
them by construction.  The alcove is counted first (`rootsys.alcove_size`,
which owns the alcove's shape) and an alcove above the enumeration cap
(FUSCAT_ENUM_CAP, else 20000) is refused by `check_alcove_size`, which
returns the count, before any weight is built; the walk refuses a level
l <= h when it is created, before l is factored.
The crosscheck harness bounds its own fixed alcoves by its --cap and
checks them weight by weight through the public routes.

The classifier only answers inside its hypotheses (l odd, l > h, and for
divisor primes p >= h); everything else is reported OutsideTheorem rather
than guessed.  An exhaustive alcove scan of the necessary condition (p
divides the norm of some dimension) serves as an independent check.
`prime_table` is the one per-prime route: each verdict with its scan hits.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, prod
from typing import Callable, NamedTuple, TypeVar

from .arith import factorize, is_prime
from .cyclotomic import CycNum, _principal_specialisation, _scatter
from .errors import InternalCheckError, PreconditionError
from .finitegroup import ENUM_CAP_ENV, enum_cap
from .rootsys import RootSystem, Weight, alcove_size, alcove_walk, pairing, rho_pairing


# a dimension norm is refused above this many bits before it is built: at
# the limit the power takes about 0.5 s (2-vCPU host), while the largest
# norm of A1 at l = 2^14, an alcove under the default cap, has 16383 bits
NORM_BITS_LIMIT = 1 << 22


class Verdict(Enum):
    GOOD = "Good"
    BAD = "Bad"
    OUTSIDE_THEOREM = "OutsideTheorem"


# machine-readable reason tags for PrimeVerdict
REASON_COPRIME_CONSTRUCTION = "coprime-construction"
REASON_LEVEL_PRIME_SYMMETRIC = "level-prime-symmetric"
REASON_LEVEL_DIVISOR_WITNESS = "level-divisor-witness"
REASON_HYPOTHESIS_FAILURE = "hypothesis-failure"


class PrimeVerdict(NamedTuple):
    prime: int
    verdict: Verdict
    reason: str
    witness: Weight | None = None
    detail: str | None = None


class VerlindeSimple(NamedTuple):
    weight: Weight
    qdim: CycNum
    qdim_norm: int


def _weyl_pairings(rs: RootSystem, l: int, weight: Weight) -> tuple[list[int], list[int]]:
    """(lambda+rho, alpha) and (rho, alpha) over the positive roots, for a
    weight checked to lie in the level-l alcove."""
    if len(weight) != rs.rank or any(w < 0 for w in weight):
        raise PreconditionError(f"{weight} is not a dominant weight of {rs.label}")
    if pairing(weight, rs.highest_root) >= l:
        raise PreconditionError(f"weight {weight} lies outside the level-{l} alcove")
    roots = rs.positive_roots
    return [pairing(weight, a) for a in roots], [rho_pairing(a) for a in roots]


def qdim(rs: RootSystem, l: int, weight: Weight) -> CycNum:
    """Quantum dimension of the simple labelled by an alcove weight.

    Product over positive roots of [(lambda+rho, alpha)] / [(rho, alpha)]
    at q = zeta_{2l}, evaluated as q^(sum b - sum a) P(q^2); the alcove
    condition keeps every factor nonzero.  The value lives in Q(zeta_{2l}).
    """
    return _qdim(l, *_weyl_pairings(rs, l, weight))


def qdim_norm(rs: RootSystem, l: int, weight: Weight) -> int:
    """Field norm of qdim(rs, l, weight) from Q(zeta_{2l}), by the prime-power ledger.

    [m] has norm N(1 - zeta_d)/N(1 - zeta_l) with d = l/gcd(l, m), and
    N(1 - zeta_d) = Phi_d(1)^(phi(2l)/phi(d)); the N(1 - zeta_l) factors of
    numerator and denominator cancel, and so do the units.
    """
    return _qdim_norm(l, *_weyl_pairings(rs, l, weight), _DivisorLedger(l))


def _qdim(l: int, nums: list[int], dens: list[int]) -> CycNum:
    n = 2 * l
    folded = _scatter(_principal_specialisation(nums, dens), 2, n)
    return CycNum.zeta(n, sum(dens) - sum(nums)) * CycNum(n, folded)


class _DivisorLedger(dict):
    """The norm ledger of level l: pairing a -> (Phi_d(1), phi(2l)/phi(d))
    with d = l/gcd(l, a), so that N(1 - zeta_l^a) = Phi_d(1)^(phi(2l)/phi(d));
    Phi_d(1) is 1 when d is not a prime power.

    l is factored once, and phi(2l) and each phi(d) come from its primes.
    A pairing is entered when first met, so a level with many divisors
    costs no more than its pairings ask for.  A ledger lives for one call.
    """

    def __init__(self, l: int):
        super().__init__()
        self.l = l
        self.primes = list(factorize(l))
        self.phi_n = (2 if l % 2 == 0 else 1) * _totient(l, self.primes)

    def __missing__(self, a: int) -> tuple[int, int]:
        d = self.l // gcd(self.l, a)
        ps = [p for p in self.primes if d % p == 0]
        value = self[a] = (ps[0] if len(ps) == 1 else 1, self.phi_n // _totient(d, ps))
        return value


def _totient(n: int, primes: list[int]) -> int:
    """phi(n) from the primes that divide n."""
    return n // prod(primes) * prod(p - 1 for p in primes)


def _qdim_norm(l: int, nums: list[int], dens: list[int], ledger: _DivisorLedger) -> int:
    exponents: dict[int, int] = {}
    for pairings, sign in ((nums, 1), (dens, -1)):
        for a in pairings:
            p, e = ledger[a]
            if p > 1:
                exponents[p] = exponents.get(p, 0) + sign * e
    if any(e < 0 for e in exponents.values()):
        raise InternalCheckError(f"dimension norm for pairings {nums} over {dens} is not an integer")
    bits = sum(e * p.bit_length() for p, e in exponents.items())
    if bits > NORM_BITS_LIMIT:
        raise PreconditionError(
            f"the dimension norm at l={l} would have up to {bits} bits, above the limit {NORM_BITS_LIMIT}"
        )
    return prod(p**e for p, e in exponents.items())


T = TypeVar("T")


def check_alcove_size(rs: RootSystem, l: int, cap: int) -> int:
    """The number of weights of the level-l alcove, counted before any weight
    is built; an alcove with more than the enumeration cap is refused."""
    weights = alcove_size(rs, l, cap)
    if weights > cap:
        raise PreconditionError(
            f"the level-{l} alcove of {rs.label} has more weights than the enumeration cap {cap}; "
            f"raise it via {ENUM_CAP_ENV} or the cap argument"
        )
    return weights


def _per_key(rs: RootSystem, l: int,
             build: Callable[[int, list[int], list[int], _DivisorLedger], T]) -> list[tuple[Weight, T]]:
    """(weight, build(l, nums, dens, ledger)) over the level-l alcove,
    calling build once per distinct dimension key, with one divisor ledger
    for the call.  The alcove is counted first and refused above the
    enumeration cap, and the walk checks the level before l is factored."""
    check_alcove_size(rs, l, enum_cap(None))
    walk = alcove_walk(rs, l)
    dens = [rho_pairing(a) for a in rs.positive_roots]
    ledger = _DivisorLedger(l)
    fold = [min(a, l - a) for a in range(l)]
    values: dict[tuple[int, ...], T] = {}
    out = []
    for w, nums in walk:
        key = tuple(sorted(map(fold.__getitem__, nums)))
        value = values.get(key)
        if value is None:
            value = values[key] = build(l, nums, dens, ledger)
        out.append((w, value))
    return out


def _dimension_and_norm(l: int, nums: list[int], dens: list[int],
                        ledger: _DivisorLedger) -> tuple[CycNum, int]:
    return _qdim(l, nums, dens), _qdim_norm(l, nums, dens, ledger)


def simple_objects(rs: RootSystem, l: int) -> list[VerlindeSimple]:
    """All alcove simples with their exact dimensions and dimension norms;
    weights with equal keys share one dimension, built once.  An alcove
    above the enumeration cap (FUSCAT_ENUM_CAP, else 20000) is refused."""
    return [VerlindeSimple(w, d, n) for w, (d, n) in _per_key(rs, l, _dimension_and_norm)]


def alcove_norms(rs: RootSystem, l: int) -> list[tuple[Weight, int]]:
    """Every alcove weight with its dimension norm, one ledger per key and
    no dimension built; the alcove is bounded as in `simple_objects`."""
    return _per_key(rs, l, _qdim_norm)


def _check_theorem_hypotheses(rs: RootSystem, l: int) -> None:
    h = rs.coxeter_number
    if l % 2 == 0:
        raise PreconditionError(f"classifier requires odd l, got l={l}")
    if l <= h:
        raise PreconditionError(f"classifier requires l > h; l={l}, h={h} for {rs.label}")


def classify_prime(rs: RootSystem, l: int, p: int) -> PrimeVerdict:
    """Good/bad verdict for p, valid for odd l > h.

    Coprime p admit the root-of-unity construction in characteristic p;
    for prime l the remaining p = l has a symmetric-category reduction.
    For composite l a divisor prime p >= h is bad, certified by the
    witness weight (l/p - 1)*rho whose dimension norm p divides; divisor
    primes p < h are outside the classification (it genuinely fails
    there) and are reported as such.
    """
    _check_theorem_hypotheses(rs, l)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    h = rs.coxeter_number
    if gcd(p, l) == 1:
        return PrimeVerdict(p, Verdict.GOOD, REASON_COPRIME_CONSTRUCTION)
    if is_prime(l):
        return PrimeVerdict(p, Verdict.GOOD, REASON_LEVEL_PRIME_SYMMETRIC)
    if p < h:
        return PrimeVerdict(
            p,
            Verdict.OUTSIDE_THEOREM,
            REASON_HYPOTHESIS_FAILURE,
            detail=f"p={p} divides composite l={l} but p < h={h}",
        )
    witness: Weight = tuple([l // p - 1] * rs.rank)
    norm = qdim_norm(rs, l, witness)
    if norm % p:
        raise InternalCheckError(
            f"witness weight {witness} has norm {norm} not divisible by {p}"
        )
    return PrimeVerdict(p, Verdict.BAD, REASON_LEVEL_DIVISOR_WITNESS, witness=witness)


def prime_table(rs: RootSystem, l: int, primes: list[int],
                norms: list[tuple[Weight, int]]) -> list[tuple[PrimeVerdict, list[Weight]]]:
    """Each prime's verdict with the weights of norms = alcove_norms(rs, l)
    whose norm it divides.  Failed classifier hypotheses (an even l) give
    every prime an OutsideTheorem row; other refusals propagate."""
    try:
        _check_theorem_hypotheses(rs, l)
    except PreconditionError as exc:
        verdicts = [PrimeVerdict(p, Verdict.OUTSIDE_THEOREM, REASON_HYPOTHESIS_FAILURE, detail=str(exc))
                    for p in primes]
    else:
        verdicts = [classify_prime(rs, l, p) for p in primes]
    return [(v, _scan(norms, l, v.prime)) for v in verdicts]


def _scan(norms: list[tuple[Weight, int]], l: int, p: int) -> list[Weight]:
    """The weights whose norm p divides.  A norm's prime factors are the
    values Phi_d(1) with d | l, so a prime not dividing l has none."""
    return [w for w, n in norms if n % p == 0] if l % p == 0 else []


def scan_dimension_witnesses(rs: RootSystem, l: int, p: int) -> list[Weight]:
    """All alcove weights whose dimension norm p divides (necessary condition).

    Runs for any l > h, including even l where the classifier refuses; a
    non-empty result only certifies failure of the coprimality condition.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return _scan(alcove_norms(rs, l), l, p)
