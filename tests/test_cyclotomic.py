import random
import sys
from collections import deque
from fractions import Fraction
from math import gcd, log2

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import cyclotomic
from fuscat.cyclotomic import (
    CycNum,
    _cyclic_mul,
    _reduce_mod_phi,
    _scatter,
    _split_primes,
    _units,
    cyclotomic_at_one,
    cyclotomic_polynomial,
    parse_element,
    q_integer,
)
from fuscat.arith import factorize, is_prime, totient
from fuscat.errors import InternalCheckError, PreconditionError

from cyc_helpers import is_integral

# small conductors for randomized properties; kept small so 1000-case
# acceptance sweeps stay fast
CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24]


def conjugate_numerator_product(a, skip_identity):
    """Product of the numerator's Galois conjugates modulo x^n - 1, by a
    balanced product tree: the definitional route to norms and inverses."""
    n = a.conductor
    items = deque(_scatter(a.coeffs, s, n) for s in _units(n) if s > 1 or not skip_identity)
    if not items:
        return [1]
    while len(items) > 1:
        items.append(_cyclic_mul(items.popleft(), items.popleft(), n))
    return items[0]


def oracle_norm(a):
    red = _reduce_mod_phi(conjugate_numerator_product(a, skip_identity=False), a.conductor)
    assert not any(red[1:])
    return Fraction(red[0], a.den ** totient(a.conductor))


def oracle_inverse(a):
    n = a.conductor
    cofactor = conjugate_numerator_product(a, skip_identity=True)
    full = _reduce_mod_phi(_cyclic_mul(cofactor, list(a.coeffs), n), n)
    assert not any(full[1:])
    return CycNum(n, [a.den * v for v in cofactor], full[0])


def dense(rng, n, terms, den=1):
    """An element of Q(zeta_n) with `terms` distinct powers below n and
    coefficients in +-1..3."""
    vec = [0] * n
    for d in rng.sample(range(n), terms):
        vec[d] = rng.choice((-3, -2, -1, 1, 2, 3))
    return CycNum(n, vec, den)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --- cyclotomic polynomials


def test_phi_small_cases():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    # brute-force check: Phi_1 * Phi_2 * Phi_4 = x^4 - 1
    prod = [1]
    for d in (1, 2, 4):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d).coeffs))
    assert prod == [-1, 0, 0, 0, 1]


def test_phi_12_by_division_oracle():
    # divide x^12 - 1 by the product of the proper-divisor polynomials
    prod = [1]
    for d in (1, 2, 3, 4, 6):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d).coeffs))
    target = [-1] + [0] * 11 + [1]
    quot = sympy.Poly(list(reversed(target)), sympy.Symbol("x")).div(
        sympy.Poly(list(reversed(prod)), sympy.Symbol("x"))
    )
    assert quot[1].is_zero
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)
    assert [int(c) for c in reversed(quot[0].all_coeffs())] == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", list(range(1, 201)))
def test_phi_product_identity(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d).coeffs))
    assert prod == [-1] + [0] * (n - 1) + [1]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 105, 128, 200, 210, 240, 242])
def test_phi_against_sympy(n):
    x = sympy.Symbol("x")
    ours = list(cyclotomic_polynomial(n).coeffs)
    theirs = [int(c) for c in reversed(sympy.cyclotomic_poly(n, x).as_poly(x).all_coeffs())]
    assert ours == theirs


def test_phi_degree_is_totient():
    for n in range(1, 80):
        assert len(cyclotomic_polynomial(n).coeffs) - 1 == totient(n)


# --- field arithmetic examples


def test_difference_of_squares():
    z = CycNum.zeta(8)
    assert (1 + z) * (1 - z) == 1 - z**2


def test_inverse_of_zeta4():
    assert 1 / CycNum.zeta(4) == -CycNum.zeta(4)


def test_sqrt2_squares_to_two():
    z = CycNum.zeta(8)
    assert (z + z**-1) ** 2 == 2


def test_division_by_zero():
    with pytest.raises(PreconditionError):
        CycNum.from_int(1) / CycNum.from_int(0)


def test_equality_across_conductors():
    assert CycNum.zeta(4) == CycNum.zeta(12, 3)
    assert CycNum.from_int(1) == CycNum(8, [1])
    assert CycNum.zeta(3) != CycNum.zeta(4)


def test_canonical_form_reduces_gcd():
    a = CycNum(8, [2, 4, 0, 6], 10)
    assert a.coeffs == (1, 2, 0, 3) and a.den == 5
    assert CycNum(5, [0, 0, 0, 0], 7) == 0


def fully_reduced(a):
    """a rebuilt from a vector longer than phi(n), so the constructor
    reduces modulo Phi_n and divides out the gcd."""
    return CycNum(a.conductor, list(a.coeffs) + [0] * a.conductor, a.den)


def same_value(*values):
    forms = {(v.conductor, v.coeffs, v.den) for v in values}
    return len(forms) == 1 and all(type(c) is int for c in values[0].coeffs)


def test_one_minus_zeta_does_not_depend_on_how_it_was_built():
    for n in range(2, 121):
        z = CycNum.zeta(n)
        built = [1 - z, -(z - 1), CycNum(n, [1, -1])]
        assert same_value(*built, fully_reduced(built[0])), n
        assert len({v.norm() for v in built}) == 1
        assert built[0].norm() == cyclotomic_at_one(n)
        for r in (CycNum.from_int(-4), CycNum.from_fraction(Fraction(6, -4))):  # lifted, not reduced
            assert same_value(r._lift(n), fully_reduced(CycNum(n, [r.coeffs[0]], r.den)))


def test_one_minus_zeta_from_one_constructor_call():
    # the vector (1, -1) reduced modulo Phi_n, as `lemma-norm` builds it
    assert all(CycNum(n, [1, -1]) == 1 - CycNum.zeta(n) for n in range(1, 201))


@pytest.mark.parametrize("n", [12, 60, 105])
def test_differences_do_not_depend_on_how_they_were_built(n):
    rng = random.Random(n)
    for _ in range(25):
        a = dense(rng, n, rng.randint(1, min(n, 12)), den=rng.randint(1, 12))
        b = dense(rng, n, rng.randint(1, min(n, 12)), den=rng.randint(1, 12))
        k = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        c = dense(rng, n // 3, rng.randint(1, 4), den=rng.randint(1, 6))  # a lift from a subfield
        assert same_value(a - b, a + (-b), fully_reduced(a - b))
        assert same_value(k - a, -(a - k), fully_reduced(k - a))
        assert same_value(a - c, a + (-c), -(c - a), fully_reduced(a - c))
        assert same_value(-a, fully_reduced(-a)) and -(-a) == a


def assert_canonical(a):
    b = fully_reduced(a)
    assert (a.conductor, a.coeffs, a.den) == (b.conductor, b.coeffs, b.den)
    assert all(type(c) is int for c in a.coeffs)
    assert len(a.coeffs) == totient(a.conductor) and a.den > 0
    assert gcd(*a.coeffs, a.den) == 1


@st.composite
def raw_elements(draw):
    """An element from a raw vector of up to n + 3 entries and a signed denominator."""
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(st.integers(-20, 20), max_size=n + 3))
    return CycNum(n, coeffs, draw(st.integers(-12, 12).filter(bool)))


@given(raw_elements(), raw_elements(), st.integers(-30, 30),
       st.fractions(-10, 10, max_denominator=12), st.data())
@settings(max_examples=150, deadline=None)
def test_every_route_builds_the_canonical_form(a, b, k, f, data):
    n = a.conductor
    s = data.draw(st.sampled_from(_units(n)))
    l = data.draw(st.integers(2, 12))
    results = [
        -a, CycNum.from_int(k), CycNum.from_fraction(f),
        a + b, a - b, a * b,  # b has its own conductor: both are lifted
        a + k, k - a, a * k, a + f, f - a, a * f, CycNum.from_fraction(f) * b,
        a.galois(s), CycNum.zeta(n, k), q_integer(k, l),
        parse_element(f"({a}) * ({a}) - {k}*z^{s} / (z + 2)", n),
    ]
    if a:
        results += [a.inverse(), b / a, k / a]
    for r in results:
        assert_canonical(r)


# --- Galois action and norms


def test_galois_basic():
    assert CycNum.zeta(5).galois(2) == CycNum.zeta(5, 2)
    assert CycNum.from_fraction(Fraction(3, 7)).galois(1) == Fraction(3, 7)
    r = CycNum(12, [5, 0, 0, 0], 3)
    assert r.galois(7) == r  # rationals are fixed


def test_galois_requires_coprime():
    with pytest.raises(PreconditionError):
        CycNum.zeta(8).galois(2)


def test_norm_examples():
    assert (1 - CycNum.zeta(6)).norm() == 1
    assert (1 - CycNum.zeta(9)).norm() == 3
    assert (1 - CycNum.zeta(2)).norm() == 2  # degenerate conductor, field is Q


@pytest.mark.parametrize("n", list(range(2, 121)))
def test_norm_one_minus_zeta_rule(n):
    fac = factorize(n)
    expected = list(fac)[0] if len(fac) == 1 else 1
    assert (1 - CycNum.zeta(n)).norm() == expected


def test_norm_of_zero_is_zero():
    assert CycNum.from_int(0).norm() == 0
    assert CycNum(12, [0, 0, 0, 0]).norm() == 0


def test_norm_of_rational_is_power():
    assert CycNum(12, [3, 0, 0, 0]).norm() == 3 ** totient(12)


def test_norm_against_resultant_oracle():
    x = sympy.Symbol("x")
    rng = random.Random(105240)
    cases = [
        (12, [1, 1, 0, 2]),
        (7, [2, -1, 0, 0, 1, 3]),
        (16, [1, 0, 1, 0, 0, 0, -1, 0]),
        (9, [0, 1, 1, -2, 0, 5]),
        (105, [rng.randint(-3, 3) for _ in range(48)]),
        (240, [rng.randint(-3, 3) for _ in range(64)]),
    ]
    for n, coeffs in cases:
        ours = CycNum(n, coeffs).norm()
        poly = sum(c * x**i for i, c in enumerate(coeffs))
        theirs = sympy.resultant(sympy.cyclotomic_poly(n, x), poly)
        assert ours == int(theirs)


def test_norm_one_minus_zeta_against_the_conjugate_product():
    for n in range(1, 201):
        a = 1 - CycNum.zeta(n)
        assert a.norm() == oracle_norm(a), n


@st.composite
def dense_elements(draw):
    n = draw(st.integers(1, 120))
    phi = totient(n)
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=phi, max_size=phi))
    val = CycNum(n, coeffs, draw(st.integers(2, 30)))
    return val + 1 if val.is_zero else val


@given(dense_elements())
@settings(max_examples=30, deadline=None)
def test_norm_and_inverse_against_the_conjugate_product(a):
    assert a.norm() == oracle_norm(a)
    inv = a.inverse()
    assert inv == oracle_inverse(a)
    assert a * inv == 1


@pytest.mark.parametrize("n", [210, 240])
def test_dense_large_conductor_against_the_conjugate_product(n):
    rng = random.Random(n)
    a = dense(rng, n, 24)
    b = dense(rng, n, 8, den=rng.randint(2, 9))
    for x in (a, b):
        assert x.norm() == oracle_norm(x)
        assert x.inverse() == oracle_inverse(x)
    assert (a / b) * b == a


@pytest.mark.parametrize("n", [5, 12, 60, 105])
def test_inverse_skips_a_prime_dividing_the_norm(n):
    p, w = next(_split_primes(n))
    a = CycNum(n, [-w, 1])  # z - w, whose norm is +-Phi_n(w) = 0 (mod p)
    assert a.norm().numerator % p == 0
    assert a.norm() == oracle_norm(a)
    assert a.inverse() == oracle_inverse(a)
    b = a * dense(random.Random(n), n, min(n, 8))
    assert b.inverse() == oracle_inverse(b)


def _primes_drawn(monkeypatch):
    """Patch `_split_primes` to count the primes each call draws."""
    calls = []
    split_primes = cyclotomic._split_primes

    def counted(n):
        calls.append(0)
        for pair in split_primes(n):
            calls[-1] += 1
            yield pair

    monkeypatch.setattr(cyclotomic, "_split_primes", counted)
    return calls


def _past_one_step():
    """Two elements whose bounds need more than one step of primes: 16
    coefficients of 40 digits at n = 60, and a 1-norm near 1000 at n = 240."""
    rng = random.Random(1040)
    huge = CycNum(60, [rng.randint(-10**40, 10**40) for _ in range(16)])
    vec = [0] * 64  # below phi(240), so the power basis keeps the 1-norm
    for d in rng.sample(range(64), 24):
        vec[d] = rng.choice((-1, 1)) * rng.randint(30, 50)
    wide = CycNum(240, vec)
    assert 900 < sum(map(abs, wide.coeffs)) < 1500
    return huge, wide


def test_bounds_past_one_step_against_the_conjugate_product(monkeypatch):
    calls = _primes_drawn(monkeypatch)
    for a in _past_one_step():
        calls.clear()
        assert a.norm() == oracle_norm(a)
        assert calls[0] > cyclotomic._STEP_PRIMES
        calls.clear()
        assert a.inverse() == oracle_inverse(a)
        assert calls[0] > cyclotomic._STEP_PRIMES


def _fewest_primes(a, with_cofactor):
    """The fewest split primes whose product passes the bound B: 2 ||f||_1^phi(n),
    raised to 2 ||f||_1^(phi(n)-1) times the reduction height of Phi_n when the
    cofactor is asked for."""
    n, phi, l1 = a.conductor, len(a.coeffs), sum(map(abs, a.coeffs))
    bound = 2 * l1**phi
    if with_cofactor:
        bound = max(bound, 2 * l1 ** (phi - 1) * cyclotomic._reduction_height(n))
    m = 1
    for k, (p, _) in enumerate(_split_primes(n), 1):
        m *= p
        if m > bound:
            return k


def _stopping_cases():
    rng = random.Random(595)
    cases = {f"dense-{n}": dense(rng, n, 24) for n in (60, 105, 210, 240)}
    cases["unit-105"] = CycNum.zeta(105, 31)
    cases["2+z-595"] = CycNum(595, [2, 1])  # ||f||_1 = 3, below 4, the reduction height of Phi_595
    cases["huge-60"], cases["wide-240"] = _past_one_step()
    return [pytest.param(a, id=name) for name, a in cases.items()]


@pytest.mark.parametrize("a", _stopping_cases())
def test_norm_and_inverse_draw_the_fewest_primes_past_the_bound(monkeypatch, a):
    want_norm, want_inverse = _fewest_primes(a, False), _fewest_primes(a, True)
    calls = _primes_drawn(monkeypatch)
    a.norm()
    a.inverse()
    assert calls == [want_norm, want_inverse]


@pytest.mark.parametrize("n", [5, 12, 60, 105])
def test_a_zero_value_inside_the_first_step(n):
    primes = _split_primes(n)
    p1, _ = next(primes)
    p2, w2 = next(primes)
    a = CycNum(n, [-w2, 1])  # z - w2: a zero value modulo p2 but not modulo p1
    assert a.norm().numerator % p2 == 0 and a.norm().numerator % p1 != 0
    assert a.norm() == oracle_norm(a)
    assert a.inverse() == oracle_inverse(a)
    b = a * dense(random.Random(n), n, min(n, 8))
    assert b.inverse() == oracle_inverse(b)


def test_split_primes_are_primes_with_primitive_roots():
    for n in (1, 2, 7, 60, 240):
        primes = _split_primes(n)
        for _ in range(3):
            p, w = next(primes)
            assert p < 2**61 and (p - 1) % n == 0 and is_prime(p)
            assert pow(w, n, p) == 1
            assert all(pow(w, n // q, p) != 1 for q in factorize(n))


def test_a_failed_exact_check_is_an_internal_error_with_no_prime_added(monkeypatch):
    a = dense(random.Random(7), 60, 12)
    calls, drawn_at_check = _primes_drawn(monkeypatch), []

    def fail(coeffs, cofactor, norm, n):
        drawn_at_check.append(calls[-1])
        return False

    monkeypatch.setattr(cyclotomic, "_is_cofactor", fail)
    with pytest.raises(InternalCheckError, match="fails the exact check"):
        a.inverse()
    assert drawn_at_check == calls == [_fewest_primes(a, True)]


class _PrimeDrawn(Exception):
    """Raised in place of the first split prime: the work check has passed."""


def _draw_no_prime(monkeypatch, admitted):
    """Patch `_split_primes`: an admitted request raises `_PrimeDrawn` at its
    first prime, a refused one must draw none."""

    def draw(n):
        if not admitted:
            pytest.fail("a prime was drawn")
        raise _PrimeDrawn

    monkeypatch.setattr(cyclotomic, "_split_primes", draw)


def test_inverse_refuses_above_the_work_limit_before_any_work(monkeypatch):
    _draw_no_prime(monkeypatch, admitted=False)
    # 886 * log2(294) is about 7265 bits, 15 steps, each of 3 * 886 values,
    # 886^2 power sums, 886 * 887 / 2 interpolation terms (Phi_887 has no
    # zero coefficient), 8 * 1000 for its primes and (887 + 4) * 15 for the
    # CRT: 15 * 1201960 = 18029400 multiplications
    a = CycNum(887, [99, 98, 97])
    refusal = "^inverse in Q.* 18029400 multiplications, above the limit 12000000"
    for invert in (CycNum.inverse, lambda x: 1 / x, lambda x: x**-2):
        with pytest.raises(PreconditionError, match=refusal):
            invert(a)
    with pytest.raises(PreconditionError, match="above the limit 12000000"):
        parse_element("1/(99+98*z+97*z^2)", 887)


def test_norm_refuses_above_the_work_limit_before_any_work(monkeypatch):
    _draw_no_prime(monkeypatch, admitted=True)
    assert cyclotomic.WORK_LIMIT == 12_000_000
    # 886 * log2(600) is about 8177 bits, 17 steps, each of 600 * 886 values,
    # 8 * 1000 for its primes and (1 + 4) * 17 for the CRT: 9174645
    with pytest.raises(_PrimeDrawn):
        CycNum(887, [1] * 600).norm()
    # 886 * log2(800) is about 8545 bits, 18 steps: 18 * (800 * 886 + 8000 + 90) = 12904020
    _draw_no_prime(monkeypatch, admitted=False)
    with pytest.raises(PreconditionError, match="^norm in Q.* 12904020 multiplications, above the limit"):
        CycNum(887, [1] * 800).norm()
    # 2 * 10^6 bits at n = 3, 4082 steps of 2 * 2 values: 8 * 1000 for the
    # primes and (1 + 4) * 4082 for the CRT against a modulus that grows to
    # 2 * 10^6 bits give 4082 * 28414 = 115985948; the values alone count 16328
    with pytest.raises(PreconditionError, match="^norm in Q.* 115985948 multiplications, above the limit"):
        CycNum(3, [2**1_000_000, 1]).norm()


def test_cofactor_is_never_returned_unchecked(monkeypatch):
    seen = []

    def never(coeffs, cofactor, norm, n):
        seen.append(1)
        return False

    monkeypatch.setattr(cyclotomic, "_is_cofactor", never)
    with pytest.raises(InternalCheckError):
        dense(random.Random(7), 60, 12).inverse()
    assert seen


@pytest.mark.parametrize("n", [883, 887, 899])
def test_the_largest_inverses_the_bit_limit_admitted_stay_admitted(monkeypatch, n):
    # every inverse with phi(n) * log2 ||f||_1 <= 4096 stays admitted; at a
    # large conductor the one with most work has floor(2^(4096/phi)) unit terms
    phi = totient(n)
    terms = int(2 ** (4096 / phi))
    assert phi * log2(terms) <= 4096 < phi * log2(terms + 1)
    _draw_no_prime(monkeypatch, admitted=True)
    with pytest.raises(_PrimeDrawn):
        CycNum(n, [1] * terms).inverse()


def is_p_unit(a, p):
    """True iff the algebraic integer a has norm coprime to the prime p."""
    if not is_integral(a):
        raise PreconditionError("p-unit test is defined for algebraic integers only")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return a.norm().numerator % p != 0


def test_is_p_unit():
    assert not is_p_unit(1 - CycNum.zeta(9), 3)
    for p in (2, 3, 5, 7, 11):
        assert is_p_unit(CycNum.from_int(1), p)
    with pytest.raises(PreconditionError):
        is_p_unit(CycNum(4, [1], 2), 3)
    with pytest.raises(PreconditionError):
        is_p_unit(CycNum.from_int(1), 6)


def test_one_plus_sqrt2_is_a_unit():
    # 1 + zeta_16^2 + zeta_16^-2 = 1 + sqrt(2); its full conjugate product
    # over Q(zeta_16) is exactly 1, so it is a p-unit for every p
    a = 1 + CycNum.zeta(16, 2) + CycNum.zeta(16) ** -2
    assert a.norm() == 1
    for p in (2, 3, 5, 7):
        assert is_p_unit(a, p)


# --- quantum integers


def test_q_integer_basics():
    assert q_integer(0, 8) == 0
    assert q_integer(1, 8) == 1
    assert q_integer(-3, 8) == -q_integer(3, 8)
    with pytest.raises(PreconditionError):
        q_integer(2, 1)


def test_q_integer_3_at_l8_is_one_plus_sqrt2():
    expected = 1 + CycNum.zeta(16, 2) + CycNum.zeta(16, 14)
    assert q_integer(3, 8) == expected
    sqrt2 = CycNum.zeta(16, 2) - CycNum.zeta(16, 6)
    assert sqrt2 * sqrt2 == 2
    assert q_integer(3, 8) == 1 + sqrt2


def test_q_integer_7_at_l8_by_expansion():
    # direct monomial expansion, independent of the implementation loop
    z = CycNum.zeta(16)
    total = CycNum.from_int(0)
    for k in range(7):
        total = total + z ** (6 - 2 * k)
    assert total == 1
    assert q_integer(7, 8) == 1


def test_q_integer_satisfies_defining_ratio():
    for l in (5, 8, 9):
        q = CycNum.zeta(2 * l)
        for m in range(2, l):
            assert q_integer(m, l) * (q - q**-1) == q**m - q**-m


# --- element grammar and serialization


def test_parse_element():
    assert parse_element("(1+z)*(1-z)", 8) == 1 - CycNum.zeta(8) ** 2
    assert parse_element("z^-2 + z^2 + 1", 16) == q_integer(3, 8)
    assert parse_element("1/ (1-z)", 4) == (1 - CycNum.zeta(4)).inverse()
    assert parse_element("-7", 1) == -7


@pytest.mark.parametrize("bad", ["w + 1", "z**z", "1.5", "import os", "z^(1/2)", "True+z", "False", "z^True"])
def test_parse_element_rejects(bad):
    with pytest.raises(PreconditionError):
        parse_element(bad, 8)


def test_cyclotomic_at_one_matches_the_polynomial():
    def evaluate(poly, x):  # Horner's rule
        acc = 0
        for c in reversed(poly.coeffs):
            acc = acc * x + c
        return acc

    for n in range(1, 301):
        assert cyclotomic_at_one(n) == evaluate(cyclotomic_polynomial(n), 1)
    with pytest.raises(PreconditionError):
        cyclotomic_at_one(0)


def test_parse_element_bounds_powers():
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    bits = int(digits * log2(10))
    # 2^e has about e bits: just inside the limit it is built, past it refused
    assert parse_element(f"2^{bits - 8}", 5) == 2 ** (bits - 8)
    with pytest.raises(PreconditionError):
        parse_element(f"2^{bits + 8}", 5)
    with pytest.raises(PreconditionError):
        parse_element("(3/2)^-100000", 5)  # the denominator counts as well
    # powers of z have coefficient 1-norm 1 and stay free
    assert parse_element("z^1000000", 5) == CycNum.zeta(5, 1000000)
    assert parse_element("(-z^2)^-999999", 7) == -CycNum.zeta(7, -2 * 999999)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 240])
def test_z_powers_against_repeated_multiplication(n):
    z = CycNum.zeta(n)
    for k in sorted({0, 1, -1, n - 1, n, n + 1, 2 * n + 3, -(2 * n + 3), 10**30 + 7}):
        parsed = parse_element(f"z^{k}", n)
        assert parsed == z**k and parsed.conductor == n
        assert parse_element(f"3*z^({k}) - z", n) == 3 * z**k - z


def from_json(data):
    """The CycNum that `CycNum.to_json` wrote."""
    return CycNum(int(data["conductor"]), [int(v) for v in data["numerator"]], int(data["denominator"]))


def test_json_round_trip():
    a = CycNum(16, [1, 0, 2, 0, 0, 0, -1, 0], 3)
    assert from_json(a.to_json()) == a
    assert a.to_json()["denominator"] == "3"
    assert all(isinstance(v, str) for v in a.to_json()["numerator"])


# --- randomized properties


@st.composite
def cycnums(draw, integral=False, nonzero=False, conductor=None):
    n = conductor if conductor is not None else draw(st.sampled_from(CONDUCTORS))
    phi = totient(n)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    den = 1 if integral else draw(st.integers(1, 12))
    val = CycNum(n, coeffs, den)
    if nonzero and val.is_zero:
        val = val + 1
    return val


@st.composite
def cycnum_pairs(draw, integral=False):
    # norms are multiplicative within one field, so share a conductor
    n = draw(st.sampled_from(CONDUCTORS))
    a = draw(cycnums(integral=integral, conductor=n))
    b = draw(cycnums(integral=integral, conductor=n))
    return a, b


@given(cycnum_pairs(integral=True))
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative(pair):
    a, b = pair
    assert (a * b).norm() == a.norm() * b.norm()


@given(cycnums(), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_norm_galois_invariant(a, s):
    n = a.conductor
    if gcd(s, n) != 1:
        s = 1
    assert a.galois(s).norm() == a.norm()


@given(cycnums(), st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_galois_composition(a, s, t):
    n = a.conductor
    if gcd(s, n) != 1 or gcd(t, n) != 1:
        s = t = 1
    assert a.galois(s).galois(t) == a.galois(s * t % n)


@given(cycnums(), cycnums(nonzero=True))
@settings(max_examples=150, deadline=None)
def test_div_mul_round_trip(a, b):
    assert (a * b) / b == a
    assert (a / b) * b == a


@given(cycnums(), cycnums(), cycnums())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


def test_prime_power_valuation_ratio():
    # for order p^(s+1), the norm of 1 - v is p while the field degree is
    # p^s (p - 1); the valuation per unit degree is 1/(p^s (p-1))
    for n in (4, 8, 9, 16, 25, 27, 32, 49, 121, 125, 128):
        fac = factorize(n)
        (p, e), = fac.items()
        deg = totient(n)
        norm = int((1 - CycNum.zeta(n)).norm())
        vp = 0
        while norm % p == 0:
            norm //= p
            vp += 1
        assert norm == 1
        assert Fraction(vp, deg) == Fraction(1, p ** (e - 1) * (p - 1))
