"""Small integer helpers: primality, factorization, totient, prime witnesses."""

from __future__ import annotations

from collections.abc import Iterable
from typing import TypeVar

from .errors import PreconditionError

T = TypeVar("T")


# Miller-Rabin with the first 13 prime bases is deterministic below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality below 3317044064679887385961981 by deterministic
    Miller-Rabin; larger n are refused rather than answered unproven."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise PreconditionError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


# factorize divides by every candidate up to this bound, so every n below
# its square factors completely; past it, only a provable prime is accepted
# as the last factor.  A refusal costs about 0.1 s (2-vCPU host)
TRIAL_BOUND = 1 << 20


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by trial division up to
    TRIAL_BOUND.  A cofactor left with no factor up to its square root is
    prime; one past TRIAL_BOUND squared is accepted only when Miller-Rabin
    proves it prime, and any other n is refused rather than divided
    without bound."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    m, f = n, 2
    while f * f <= m:
        if f > TRIAL_BOUND:
            if not (m < _MR_LIMIT and is_prime(m)):
                raise PreconditionError(
                    f"cannot factor {n}: {m} has no prime factor up to {TRIAL_BOUND} and is not provably prime"
                )
            break
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n)) if n > 1 else []


def prime_witnesses(pairs: Iterable[tuple[int, T]]) -> dict[int, T]:
    """Each prime dividing some n of the (n, witness) pairs, mapped to the
    witness of the first such n; primes in increasing order."""
    out: dict[int, T] = {}
    for n, witness in pairs:
        for p in prime_factors(n):
            out.setdefault(p, witness)
    return dict(sorted(out.items()))


def totient(n: int) -> int:
    t = n
    for p in factorize(n):
        t = t // p * (p - 1)
    return t


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out
