import random
import time

import pytest
import sympy

from fuscat.arith import TRIAL_BOUND, factorize, is_prime
from fuscat.errors import PreconditionError

PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_against_sympy_below_100000():
    assert [n for n in range(100000) if is_prime(n)] == list(sympy.primerange(0, 100000))


def test_is_prime_against_sympy_on_random_large_n():
    rng = random.Random(61)
    for bits in (61, 64, 81):
        for _ in range(2000):
            n = rng.getrandbits(bits) | 1
            if n < PSI_13:
                assert is_prime(n) == sympy.isprime(n), n
    assert is_prime(2**61 - 1) and is_prime(1000000000000000003)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, PSI_12])
def test_strong_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


def test_psi13_and_beyond_are_refused():
    for n in (PSI_13, 2**89 - 1, 2**127 - 1):
        with pytest.raises(PreconditionError):
            is_prime(n)
    # numbers with a small factor are answered at any size
    assert not is_prime(PSI_13 + 1) and not is_prime(41 * 2**200)


def test_factorize_against_sympy():
    rng = random.Random(7)
    below = [rng.randrange(1, (TRIAL_BOUND + 1) ** 2) for _ in range(300)]
    # a prime cofactor past the trial bound, proved by Miller-Rabin
    past = [3 * 1000000000000000000000007, 2**10 * (2**61 - 1), 7 * 1048589]
    for n in list(range(1, 3000)) + below + past + [TRIAL_BOUND**2, (TRIAL_BOUND + 1) ** 2 - 2]:
        fac = factorize(n)
        assert fac == sympy.factorint(n) and list(fac) == sorted(fac), n


@pytest.mark.parametrize("n", [
    300000000000000000000000000003,
    9000000000000000000000000000000000000000000000000000000000000003,
    1048583 * 1048589,  # two primes just past the trial bound
    3 * PSI_13**2,
])
def test_factorize_refuses_what_it_cannot_finish(n):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="cannot factor"):
        factorize(n)
    assert time.perf_counter() - start < 1
