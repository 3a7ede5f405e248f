from math import gcd

import pytest
import sympy

from fuscat.arith import primes_upto
from fuscat.cyclotomic import CycNum, q_integer
from fuscat.errors import PreconditionError
from fuscat.rootsys import build_root_system, enumerate_alcove, pairing, rho_pairing
from fuscat.verlinde import (
    REASON_HYPOTHESIS_FAILURE,
    PrimeVerdict,
    Verdict,
    alcove_norms,
    classify_prime,
    prime_table,
    qdim,
    qdim_norm,
    scan_dimension_witnesses,
    simple_objects,
)

from cyc_helpers import is_integral
from test_pool_replay import WORKLOADS

A1 = build_root_system("A1")
A2 = build_root_system("A2")


def test_qdim_of_zero_weight_is_one():
    for label, l in [("A1", 5), ("A2", 7), ("D4", 9), ("E6", 14)]:
        rs = build_root_system(label)
        assert qdim(rs, l, (0,) * rs.rank) == 1


def test_a1_dims_are_quantum_integers():
    for l in (5, 7, 8, 9):
        for (m,) in enumerate_alcove(A1, l):
            assert qdim(A1, l, (m,)) == q_integer(m + 1, l)


def test_a1_l8_dimension_table():
    dims = [s.qdim for s in simple_objects(A1, 8)]
    sqrt2 = CycNum.zeta(16, 2) - CycNum.zeta(16, 6)
    assert dims[0] == 1 and dims[6] == 1
    assert dims[2] == 1 + sqrt2 and dims[4] == 1 + sqrt2
    assert dims[1] == q_integer(2, 8) and dims[3] == q_integer(4, 8)
    assert dims[5] == q_integer(6, 8)
    # the even-weight simples all have unit norm
    for s in simple_objects(A1, 8):
        if s.weight[0] % 2 == 0:
            assert abs(s.qdim_norm) == 1


def test_a1_l9_witness_dimension():
    d = qdim(A1, 9, (2,))
    assert d == q_integer(3, 9)
    assert d == 1 + CycNum.zeta(18, 2) + CycNum.zeta(18) ** -2
    assert d.norm() % 3 == 0
    # independent check through the resultant
    x = sympy.Symbol("x")
    poly = sum(c * x**i for i, c in enumerate(d.coeffs))
    assert int(sympy.resultant(sympy.cyclotomic_poly(18, x), poly)) % 3 == 0


def test_qdim_outside_alcove_rejected():
    with pytest.raises(PreconditionError):
        qdim(A1, 8, (7,))
    with pytest.raises(PreconditionError):
        qdim(A2, 5, (-1, 0))
    with pytest.raises(PreconditionError):
        qdim(A2, 5, (0,))


@pytest.mark.parametrize("label,l", [("A1", 7), ("A1", 8), ("A2", 9), ("D4", 11)])
def test_qdims_are_algebraic_integers(label, l):
    rs = build_root_system(label)
    for s in simple_objects(rs, l):
        assert is_integral(s.qdim)


def test_classify_bad_cases():
    v = classify_prime(A1, 9, 3)
    assert v.verdict == Verdict.BAD and v.witness == (2,)
    v = classify_prime(A2, 9, 3)
    assert v.verdict == Verdict.BAD and v.witness == (2, 2)
    v = classify_prime(A1, 15, 3)
    assert v.verdict == Verdict.BAD and v.witness == (4,)
    v = classify_prime(A1, 15, 5)
    assert v.verdict == Verdict.BAD and v.witness == (2,)


def test_classify_good_for_prime_level():
    for p in (2, 3, 5, 7, 11, 97):
        v = classify_prime(A1, 7, p)
        assert v.verdict == Verdict.GOOD
        assert v.reason == ("level-prime-symmetric" if p == 7 else "coprime-construction")


def test_classify_outside_theorem_below_coxeter():
    d4 = build_root_system("D4")
    v = classify_prime(d4, 9, 3)  # 3 divides 9 but 3 < h = 6
    assert v.verdict == Verdict.OUTSIDE_THEOREM
    assert v.reason == "hypothesis-failure"


def test_classify_hypothesis_errors():
    with pytest.raises(PreconditionError):
        classify_prime(A1, 8, 2)  # even level
    with pytest.raises(PreconditionError):
        classify_prime(A2, 3, 2)  # level not above the Coxeter number
    with pytest.raises(PreconditionError):
        classify_prime(A1, 9, 4)  # not a prime


def test_scan_prime_level_has_no_witnesses():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        assert scan_dimension_witnesses(A1, 7, p) == []


def test_scan_confirms_classifier_witnesses():
    for rs, l, p in [(A1, 9, 3), (A2, 9, 3), (A1, 15, 3), (A1, 15, 5)]:
        v = classify_prime(rs, l, p)
        witnesses = scan_dimension_witnesses(rs, l, p)
        assert v.witness in witnesses


def test_scan_runs_for_even_level():
    # the full alcove at l=8 does have non-unit dimensions at odd weights
    assert scan_dimension_witnesses(A1, 8, 2) == [(1,), (3,), (5,)]
    assert scan_dimension_witnesses(A1, 8, 3) == []


# (type, l) of every alcove the alcove-sweep benchmark pool asks for
POOL_ALCOVES = sorted({(argv[3], int(argv[5])) for argv in WORKLOADS.WORKLOADS["alcove-sweep"].pool()})


def brute_force_scans(rs, l, primes):
    """Per prime, the alcove weights whose norm it divides, each norm from
    the public qdim_norm."""
    norms = [(w, qdim_norm(rs, l, w)) for w in enumerate_alcove(rs, l)]
    return [[w for w, n in norms if n % p == 0] for p in primes]


@pytest.mark.parametrize("label, l", POOL_ALCOVES)
def test_prime_table_is_classify_prime_and_a_brute_force_scan(label, l):
    rs = build_root_system(label)
    primes = primes_upto(50)
    table = prime_table(rs, l, primes, alcove_norms(rs, l))
    assert [v for v, _ in table] == [classify_prime(rs, l, p) for p in primes]
    assert [hits for _, hits in table] == brute_force_scans(rs, l, primes)


def test_prime_table_reports_an_even_level_outside_the_theorem():
    with pytest.raises(PreconditionError, match="^classifier requires odd l, got l=10$"):
        classify_prime(A1, 10, 2)
    primes = primes_upto(50)
    table = prime_table(A1, 10, primes, alcove_norms(A1, 10))
    assert [v for v, _ in table] == [
        PrimeVerdict(p, Verdict.OUTSIDE_THEOREM, REASON_HYPOTHESIS_FAILURE,
                     detail="classifier requires odd l, got l=10")
        for p in primes
    ]
    assert [hits for _, hits in table] == brute_force_scans(A1, 10, primes)
    assert [p for p, (_, hits) in zip(primes, table) if hits] == [2, 5]


def test_qdim_galois_twist_preserves_norms():
    # evaluating the dimension formula at q = zeta_{2l}^s gives a Galois
    # conjugate, so norms must agree
    for rs, l in [(A1, 7), (A2, 9)]:
        n = 2 * l
        for s in (3, 5, 7):
            if gcd(s, n) != 1:
                continue
            for w in enumerate_alcove(rs, l)[:6]:
                base = qdim(rs, l, w)
                num = CycNum.from_int(1)
                den = CycNum.from_int(1)
                for alpha in rs.positive_roots:
                    num = num * _twisted_q_integer(pairing(w, alpha), l, s)
                    den = den * _twisted_q_integer(rho_pairing(alpha), l, s)
                twisted = num / den
                assert twisted == base.galois(s)
                assert twisted.norm() == base.norm()


def _twisted_q_integer(m, l, s):
    n = 2 * l
    total = CycNum.from_int(0)
    for k in range(m):
        total = total + CycNum.zeta(n, (s * (m - 1 - 2 * k)) % n)
    return total


@pytest.mark.parametrize("label, l", [("A1", 21), ("A2", 15), ("A3", 15)])
def test_simple_objects_match_the_public_routes(label, l):
    rs = build_root_system(label)
    expected = [(w, qdim(rs, l, w), qdim_norm(rs, l, w)) for w in enumerate_alcove(rs, l)]
    assert [(s.weight, s.qdim, s.qdim_norm) for s in simple_objects(rs, l)] == expected
