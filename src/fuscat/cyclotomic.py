"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as an integer coefficient vector over the power basis
1, z, ..., z^(phi(n)-1) of Q(zeta_n) (z a fixed primitive n-th root of
unity), together with a positive integer denominator.  All arithmetic is
exact; the canonical form divides out the gcd of the coefficients and the
denominator, so an element is an algebraic integer iff its denominator
is 1 (the power basis generates the full ring of integers of Q(zeta_n)).
Every element is built by the one constructor.  Only a vector longer than
phi(n) is reduced modulo Phi_n; one no longer (a negation, a sum or a
difference) is only padded and divided by its gcd, and a rational lifts to
a larger conductor without reduction, as its one-entry vector.

Each coefficient operation has one kernel.  `_principal_specialisation`
is the binomial quotient prod (1 - x^a) / prod (1 - x^b) in Z[x]; it gives
Phi_n by Moebius inversion of x^n - 1 = prod_{d | n} Phi_d, and the
Verlinde quantum dimensions.  `_scatter` is the index map f(x) -> f(x^s)
modulo x^n - 1 behind Galois conjugation and lifts to a larger conductor.
`_norm_and_cofactor` gives field norms and inverses by multi-modular
evaluation (Cohen, A Course in Computational Algebraic Number Theory,
sections 3.3 and 4.3).  It works in steps, each
modulo a product M of up to eight split primes p = 1 (mod n); the CRT W of
their roots of unity is a primitive n-th root modulo every p, so the
conjugates of an element modulo M are its values at the powers W^s.  The
cofactor N/f takes at each root the product of the other values, from
prefix and suffix products, and is interpolated on the roots of Phi_n with
one batch inverse per step (Montgomery's trick); norm and cofactor are
combined by CRT over the steps under a certified bound and an exact check.
The setup that depends only on the conductor is taken once per conductor
(the units mod n, the low terms of Phi_n, the divisors behind Phi_n'), and
a step's powers of W once per conductor and step; the primes are still
drawn from `_split_primes` on every call.  An inverse is refused before
any work when phi(n) log2 ||f||_1 passes `INVERSE_BITS_LIMIT`.

`parse_element` evaluates the CLI grammar in Z[x]/(x^n - 1), as sparse
coefficient maps over one denominator, and reduces modulo Phi_n once.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from math import gcd, lcm, log2
from operator import add, index, mul

from .arith import factorize, is_prime, totient
from .errors import InternalCheckError, PreconditionError


# ---------------------------------------------------------------------------
# integer polynomials (coefficient tuples, ascending degree)


@dataclass(frozen=True)
class CycPoly:
    """Univariate polynomial over Z, coefficients in ascending degree."""

    coeffs: tuple[int, ...]


def _principal_specialisation(nums: list[int], dens: list[int]) -> list[int]:
    """Coefficients of prod (1 - x^a) / prod (1 - x^b) in Z[x].

    Factors common to both sides cancel first, and every product comes
    before any division.  Multiplying by 1 - x^a and dividing by 1 - x^b
    are O(degree) recurrences; every division must be exact.
    """
    net = Counter(nums)
    net.subtract(dens)
    c = [1]
    for a in net.elements():
        c += [0] * a
        c = c[:a] + [x - y for x, y in zip(c[a:], c)]
    for b in (-net).elements():
        # quotient q_k = c_k + q_(k-b): a running sum along each residue class mod b
        for r in range(b):
            c[r::b] = accumulate(c[r::b])
        if any(c[len(c) - b :]):
            raise InternalCheckError(f"1 - x^{b} does not divide the binomial product")
        del c[len(c) - b :]
    return c


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> CycPoly:
    """The n-th cyclotomic polynomial: x - 1 for n = 1, and for n > 1 the
    Moebius inversion of x^n - 1 = prod_{d | n} Phi_d, the binomial quotient
    prod_{d | n} (1 - x^d)^mu(n/d), with the divisors split by `_slope_factors`."""
    if n < 1:
        raise PreconditionError("cyclotomic polynomial needs n >= 1")
    if n == 1:
        f = [-1, 1]
    else:
        over, under = _slope_factors(n)
        f = _principal_specialisation([n, *under], over)
    if f[-1] != 1 or len(f) - 1 != totient(n):
        raise InternalCheckError(f"cyclotomic polynomial for n={n} is malformed")
    return CycPoly(tuple(f))


def cyclotomic_at_one(n: int) -> int:
    """Phi_n(1) without building Phi_n: p when n = p^k, 1 when n has two or
    more prime factors, and 0 for n = 1."""
    if n < 1:
        raise PreconditionError("cyclotomic polynomial needs n >= 1")
    if n == 1:
        return 0
    primes = list(factorize(n))
    return primes[0] if len(primes) == 1 else 1


@lru_cache(maxsize=None)
def _low_terms(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (j, c_j) of Phi_n below its leading one."""
    phi = cyclotomic_polynomial(n).coeffs
    return tuple((j, v) for j, v in enumerate(phi[:-1]) if v)


def _reduce_mod_phi(coeffs: list[int], n: int) -> list[int]:
    """Remainder of a coefficient list modulo Phi_n, padded to length phi(n);
    a list no longer than phi(n) is only padded."""
    deg = len(cyclotomic_polynomial(n).coeffs) - 1
    if len(coeffs) <= deg:
        return coeffs + [0] * (deg - len(coeffs))
    low = _low_terms(n)
    c = coeffs[:]
    for k in range(len(c) - 1, deg - 1, -1):
        t = c[k]
        if t:
            c[k] = 0
            base = k - deg
            for j, v in low:
                c[base + j] -= t * v
    del c[deg:]
    return c


def _cyclic_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two coefficient lists modulo x^n - 1 (sparse-aware)."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


def _scatter(coeffs, s: int, n: int) -> list[int]:
    """Coefficients of f(x^s) modulo x^n - 1, f given by its coefficients."""
    out = [0] * n
    for i, v in enumerate(coeffs):
        if v:
            out[i * s % n] += v
    return out


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    return tuple(s for s in range(1, n + 1) if gcd(s, n) == 1)


# ---------------------------------------------------------------------------
# multi-modular norms and cofactors

# conductor -> the (p, w) pairs found so far, largest p first
_SPLIT_PRIMES: dict[int, list[tuple[int, int]]] = {}


# a step of the norm and cofactor kernel works modulo the product of at most
# this many split primes, about 490 bits: CPython's cost per multiply is
# nearly flat up to a few hundred bits, while its long division is quadratic
_STEP_PRIMES = 8


def _split_primes(n: int):
    """Primes p = 1 (mod n) below 2^61, largest first, each with a primitive
    n-th root of unity w mod p.  Found lazily; only the pairs are kept."""
    found = _SPLIT_PRIMES.setdefault(n, [])
    for i in count():
        if i == len(found):
            p = found[-1][0] - n if found else ((1 << 61) - 2) // n * n + 1
            while p > 1 and not is_prime(p):
                p -= n
            if p == 1:
                raise PreconditionError(f"no prime p = 1 (mod {n}) is left below 2^61")
            found.append((p, _root_of_unity(n, p)))
        yield found[i]


def _root_of_unity(n: int, p: int) -> int:
    """A primitive n-th root of unity modulo a prime p = 1 (mod n)."""
    for g in count(2):
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in factorize(n)):
            return w


def _crt(xs: list[int], m: int, rs: list[int], p: int) -> tuple[list[int], int]:
    """The symmetric residues mod m*p of the integers = xs (mod m) and
    = rs (mod p), and m*p."""
    t, mp = pow(m, -1, p), m * p
    ys = [(x + m * ((r - x) * t % p)) % mp for x, r in zip(xs, rs)]
    return [y - mp if 2 * y > mp else y for y in ys], mp


@lru_cache(maxsize=None)
def _reduction_height(n: int) -> int:
    """The largest |coefficient| of x^k modulo Phi_n over 0 <= k < n."""
    phi = cyclotomic_polynomial(n).coeffs
    r, height = [0] * (len(phi) - 2) + [1], 1
    for _ in range(n - len(phi) + 1):
        r = [a - r[-1] * b for a, b in zip([0] + r[:-1], phi)]
        height = max(height, *map(abs, r))
    return height


def _is_cofactor(coeffs, cofactor: list[int], norm: int, n: int) -> bool:
    """f * C == N modulo Phi_n, exactly."""
    return _reduce_mod_phi(_cyclic_mul(list(coeffs), cofactor, n), n) == [norm] + [0] * (len(coeffs) - 1)


def _norm_and_cofactor(coeffs, n: int, with_cofactor: bool) -> tuple[int, list[int] | None]:
    """The norm N of f = sum c_i z^i in Z[zeta_n] and, if asked (f nonzero),
    its cofactor C = N / f in the power basis.

    The work goes in steps, each modulo the product M of the next split
    primes p: up to `_STEP_PRIMES` of them, and no more than the bounds
    below still need.  W, the CRT of their roots w, is a primitive n-th root
    of unity modulo every p, so the conjugates of f modulo M are its values
    at a_s = W^s for the units s mod n, and N is their product.

    N is combined by CRT over the steps until the modulus passes
    2 ||f||_1^phi(n), which bounds 2 |N| because every conjugate has
    absolute value at most ||f||_1.  C, whose value at a_s is the product
    of the other values, taken from prefix and suffix products (see
    `_cofactor_residues`), is combined over the steps until the last prime
    of one leaves it unchanged (its symmetric residues are those modulo the
    primes before) or its modulus passes 2 ||f||_1^(phi(n)-1) times the
    reduction height of Phi_n, which bounds twice its coefficients.  Once N
    is certified, C is returned only if f * C == N holds exactly modulo
    Phi_n.  A check that fails is followed by more steps of C, and one still
    failing past that bound is an internal error.
    """
    units = _units(n)
    terms = [(i, c) for i, c in enumerate(coeffs) if c]
    if not terms:
        return 0, None
    l1 = sum(abs(c) for _, c in terms)
    norm_bound = 2 * l1 ** len(units)
    norm, norm_mod = [0], 1
    cofactor, cof_mod = [0] * len(units), 1
    cof_bound = 2 * l1 ** (len(units) - 1) * _reduction_height(n) if with_cofactor else 0
    primes = _split_primes(n)
    settled = not with_cofactor  # C is not asked for, or a step left it unchanged
    while True:
        need = max(norm_bound // norm_mod if norm_mod <= norm_bound else 0,
                   0 if settled else cof_bound // cof_mod)
        step, m = [], 1
        for k, (p, w) in enumerate(primes, 1):
            step.append((p, w))
            m *= p
            if k == _STEP_PRIMES or m > need:
                break
        powers = _step_powers(n, tuple(step))
        mod_terms = [(i, c if -m < c < m else c % m) for i, c in terms]
        columns = [[c * powers[i * s % n] for s in units] for i, c in mod_terms]
        values = [v % m for v in map(sum, zip(*columns))]
        if norm_mod <= norm_bound:
            norm_m = 1
            for v in values:
                norm_m = norm_m * v % m
            norm, norm_mod = _crt(norm, norm_mod, [norm_m], m)
        if not settled:
            residues = _cofactor_residues(values, powers, units, n, m)
            cofactor, cof_mod = _crt(cofactor, cof_mod, residues, m)
            certified = cof_mod > cof_bound
            # unchanged by the step's last prime p: C has the same symmetric residues mod cof_mod / p
            below = cof_mod // p
            settled = certified or all(-below < 2 * y <= below for y in cofactor)
        if norm_mod <= norm_bound or not settled:
            continue
        if not with_cofactor:
            return norm[0], None
        if _is_cofactor(coeffs, cofactor, norm[0], n):
            return norm[0], cofactor
        if certified:
            raise InternalCheckError("the multi-modular cofactor fails the exact check")
        settled = False


# (conductor, step) pairs whose powers of W are kept; a step's powers take at
# most n numbers of about 490 bits, some 80 kB at the largest conductor
_STEP_CACHE = 256


@lru_cache(maxsize=_STEP_CACHE)
def _step_powers(n: int, step: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """W^0, ..., W^(n-1) modulo M, the product of the step's primes p, where
    W = w (mod p) is the CRT of their roots w."""
    root, m = 0, 1
    for p, w in step:
        root, m = root + m * ((w - root) * pow(m, -1, p) % p), m * p
    return tuple(accumulate(range(n - 1), lambda x, _: x * root % m, initial=1))


@lru_cache(maxsize=None)
def _slope_factors(n: int) -> tuple[list[int], list[int]]:
    """The divisors d < n of n with mu(n/d) = -1 and = 1: 1/Phi_n'(a) is
    a prod_over (a^d - 1) / (n prod_under (a^d - 1)) at a root a of Phi_n."""
    signed = [(1, 1)]  # (e, mu(e)) for the squarefree divisors e of n
    for q in factorize(n):
        signed += [(e * q, -mu) for e, mu in signed]
    return ([n // e for e, mu in signed if mu == -1],
            [n // e for e, mu in signed if mu == 1 and e > 1])


def _cofactor_residues(values: list[int], powers, units, n: int, m: int) -> list[int]:
    """The cofactor C = N / f modulo m, from the values f(a_s) at the roots
    a_s = W^s of Phi_n and the powers of W.

    C(a_s) is the product of the other values, a prefix times a suffix
    product, so it holds even where f(a_s) = 0 modulo a prime of m.  C is
    the Lagrange interpolant sum_s t_s Phi_n / (x - a_s), t_s = C(a_s) /
    Phi_n'(a_s); its x^j coefficient is sum_{i > j} phi_i S_(i-j-1), with
    S_j = sum_s t_s a_s^j the power sums.  At each root
    1 / Phi_n'(a) = a prod_{d | n, d < n} (a^d - 1)^(-mu(n/d)) / n, from
    x^n - 1 = Phi_n(x) prod_{d | n, d < n} Phi_d(x); the factors are units
    modulo m, as no prime of m divides n, and all the roots' denominators are
    inverted in one batch with a single modular inverse.
    """
    phi = len(units)
    prefix = list(accumulate(values, lambda x, y: x * y % m, initial=1))
    suffix = list(accumulate(reversed(values), lambda x, y: x * y % m, initial=1))
    # t_s = C(a_s) a_s prod_(d in over) (a_s^d - 1) / (n prod_(d in under) (a_s^d - 1))
    over, under = _slope_factors(n)
    tops, bottoms = [], []
    for k, s in enumerate(units):
        top, bottom = prefix[k] * suffix[phi - 1 - k] % m * powers[s % n] % m, n
        for d in over:
            top = top * (powers[s * d % n] - 1) % m
        for d in under:
            bottom = bottom * (powers[s * d % n] - 1) % m
        tops.append(top)
        bottoms.append(bottom)
    lead = list(accumulate(bottoms, lambda x, y: x * y % m, initial=1))
    inv = pow(lead[-1], -1, m)
    ts = [0] * phi
    for k in range(phi - 1, -1, -1):
        ts[k] = tops[k] * (inv * lead[k] % m) % m
        inv = inv * bottoms[k] % m
    sums = [sum(map(mul, ts, [powers[s * j % n] for s in units])) % m for j in range(phi)]
    residues = [0] * phi
    for i, c in enumerate(cyclotomic_polynomial(n).coeffs):
        if i and c:
            residues[:i] = map(add, residues[:i], map(c.__mul__, sums[i - 1 :: -1]))
    return [r % m for r in residues]


# ---------------------------------------------------------------------------
# cyclotomic numbers

# an inverse is refused, before any work, when phi(n) * log2 ||f||_1 of its
# numerator f passes this many bits: that bounds the cofactor's size and so
# the number of its multi-modular steps, each of about phi(n)^2
# multiplications.  At n = 887, 1/(2+z+z^3) (1772 bits) takes about 1.7 s and
# 1/(23+z) (4062 bits) about 4.4 s; 1/(99+98z+97z^2) (7265 bits) took 10 s
# (2-vCPU host, interpreter start included)
INVERSE_BITS_LIMIT = 4096


class CycNum:
    """An element of Q(zeta_n) in canonical reduced form. Immutable."""

    __slots__ = ("conductor", "coeffs", "den")

    def __init__(self, conductor: int, coeffs, den: int = 1):
        if conductor < 1:
            raise PreconditionError("conductor must be a positive integer")
        if den == 0:
            raise PreconditionError("denominator must be nonzero")
        vec = _reduce_mod_phi(list(map(index, coeffs)), conductor)
        g = gcd(*vec, den)  # |den| when vec is zero, so zero has den 1
        if den < 0:
            g = -g
        if g != 1:
            vec = [v // g for v in vec]
            den //= g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("CycNum is immutable")

    # -- constructors

    @classmethod
    def from_int(cls, v: int) -> "CycNum":
        return cls(1, [v])

    @classmethod
    def from_fraction(cls, f: Fraction) -> "CycNum":
        return cls(1, [f.numerator], f.denominator)

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        """zeta_n^power as an element of Q(zeta_n)."""
        if n < 1:
            raise PreconditionError("conductor must be a positive integer")
        e = power % n
        vec = [0] * (e + 1)
        vec[e] = 1
        return cls(n, vec)

    @classmethod
    def zero(cls) -> "CycNum":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "CycNum":
        return cls(1, [1])

    # -- structure

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise PreconditionError("element is not rational")
        return Fraction(self.coeffs[0], self.den)

    def _lift(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m); requires conductor | m.  A rational keeps
        its one-entry vector, which the constructor only pads."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise InternalCheckError("lift target is not a multiple of the conductor")
        coeffs = self.coeffs if n == 1 else _scatter(self.coeffs, m // n, m)
        return CycNum(m, coeffs, self.den)

    @staticmethod
    def _pair(a: "CycNum", b: "CycNum") -> tuple["CycNum", "CycNum"]:
        m = lcm(a.conductor, b.conductor)
        return a._lift(m), b._lift(m)

    @staticmethod
    def _coerce(v) -> "CycNum | None":
        if isinstance(v, CycNum):
            return v
        if isinstance(v, int):
            return CycNum.from_int(v)
        if isinstance(v, Fraction):
            return CycNum.from_fraction(v)
        return None

    # -- ring/field operations

    @staticmethod
    def _combine(a: "CycNum", b: "CycNum", sign: int) -> "CycNum":
        """a + sign * b; the vector comes out of length phi(n), so it is not reduced."""
        a, b = CycNum._pair(a, b)
        ka, kb = b.den, sign * a.den
        vec = [x * ka + y * kb for x, y in zip(a.coeffs, b.coeffs)]
        return CycNum(a.conductor, vec, a.den * b.den)

    def __add__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.conductor, [-v for v in self.coeffs], self.den)

    def __sub__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(self, other, -1)

    def __rsub__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, self, -1)

    def __mul__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(self, other)
        n = a.conductor
        vec = _cyclic_mul(list(a.coeffs), list(b.coeffs), n)
        return CycNum(n, vec, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse: den * C / N, with N the numerator's norm and
        C = N / numerator its cofactor in Z[zeta_n]."""
        if self.is_zero:
            raise PreconditionError("division by zero")
        n = self.conductor
        bits = len(self.coeffs) * log2(sum(map(abs, self.coeffs)))
        if bits > INVERSE_BITS_LIMIT:
            raise PreconditionError(
                f"inverse in Q(zeta_{n}) of an element with phi(n) * log2 ||f||_1 = {bits:.0f} "
                f"exceeds the limit {INVERSE_BITS_LIMIT}"
            )
        norm, cofactor = _norm_and_cofactor(self.coeffs, n, with_cofactor=True)
        return CycNum(n, [self.den * v for v in cofactor], norm)

    def __truediv__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycNum":
        return self.inverse() * other

    def __pow__(self, k: int) -> "CycNum":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        acc = CycNum.one()
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(self, other)
        return a.coeffs == b.coeffs and a.den == b.den

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- Galois theory

    def galois(self, s: int) -> "CycNum":
        """Apply the automorphism zeta_n -> zeta_n^s; s must be coprime to n."""
        n = self.conductor
        if gcd(s, n) != 1:
            raise PreconditionError(f"{s} is not coprime to the conductor {n}")
        return CycNum(n, _scatter(self.coeffs, s % n, n), self.den)

    def norm(self) -> Fraction:
        """Field norm to Q: the product of all Galois conjugates."""
        norm, _ = _norm_and_cofactor(self.coeffs, self.conductor, with_cofactor=False)
        return Fraction(norm, self.den ** len(self.coeffs))

    # -- serialization / display

    def to_json(self) -> dict:
        return {
            "conductor": str(self.conductor),
            "numerator": [str(v) for v in self.coeffs],
            "denominator": str(self.den),
        }

    def __str__(self) -> str:
        terms = []
        for i, v in enumerate(self.coeffs):
            if v:
                var = "" if i == 0 else "z" if i == 1 else f"z^{i}"
                mag = "" if (abs(v) == 1 and var) else str(abs(v))
                sep = "*" if mag and var else ""
                terms.append(("-" if v < 0 else "+", f"{mag}{sep}{var}"))
        if not terms:
            body = "0"
        else:
            sign, t = terms[0]
            body = ("-" if sign == "-" else "") + t
            for sign, t in terms[1:]:
                body += f" {sign} {t}"
        if self.den != 1:
            body = f"({body})/{self.den}"
        return body

    def __repr__(self) -> str:
        return f"CycNum(n={self.conductor}: {self})"


# ---------------------------------------------------------------------------
# derived operations


def q_integer(m: int, l: int) -> CycNum:
    """Quantum integer [m] = (q^m - q^-m)/(q - q^-1) at q = zeta_{2l}.

    Evaluated in the expanded form q^(m-1) + q^(m-3) + ... + q^(1-m), so the
    result is always an algebraic integer; [0] = 0 and [-m] = -[m].
    """
    if l < 2:
        raise PreconditionError("q-integers need l >= 2")
    if m < 0:
        return -q_integer(-m, l)
    n = 2 * l
    vec = [0] * n
    for k in range(m):
        vec[(m - 1 - 2 * k) % n] += 1
    return CycNum(n, vec)


# ---------------------------------------------------------------------------
# plain-text element grammar (CLI input)

_ALLOWED_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def parse_element(text: str, conductor: int) -> CycNum:
    """Parse `z`-expressions: integers, z, + - * / ^ and parentheses.

    The value is returned in Q(zeta_conductor), whatever it simplifies to,
    so its norm and Galois images are taken over the field that z names.
    It is evaluated in Z[x]/(x^n - 1), as a sparse map from exponent to
    coefficient over one denominator, and reduced modulo Phi_n once at the
    end; a `CycNum` is built before that only where the field is needed: a
    divisor with more than one term, which is inverted, the base of a power
    other than z, and an exponent with a term in z.
    """
    if conductor < 1:
        raise PreconditionError("conductor must be a positive integer")
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
        return _field_value(_eval_node(tree.body, conductor), conductor)
    except SyntaxError as exc:
        raise PreconditionError(f"cannot parse element expression: {exc.msg}") from None
    except RecursionError:
        raise PreconditionError("element expression is too long or too deeply nested") from None


def _max_str_digits() -> int:
    """The interpreter's int-to-str limit, or its default when the limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def check_str_digits(what: str, *ints: int) -> None:
    """Refuse integers with more decimal digits than the int-to-str limit,
    so that rendering them cannot fail."""
    digits = _max_str_digits()
    bound = 10**digits
    if any(abs(v) >= bound for v in ints):
        raise PreconditionError(f"{what} has an integer of more than {digits} decimal digits")


def _check_power_size(a: CycNum, k: int) -> None:
    """Refuse a^k when k * log2 of the larger of a's coefficient 1-norm and
    its denominator passes the int-to-str limit, before any of it is
    computed."""
    digits = _max_str_digits()
    bits = log2(max(sum(abs(c) for c in a.coeffs), a.den))
    if bits and k > digits * log2(10) / bits:  # k may be too large for a float
        raise PreconditionError(
            f"power with a {k.bit_length()}-bit exponent would exceed {digits} decimal digits"
        )


# an element of Z[x]/(x^n - 1) over a positive denominator: {exponent mod n: coefficient}, den
_RingValue = tuple[dict[int, int], int]


def _field_value(value: _RingValue, n: int) -> CycNum:
    terms, den = value
    vec = [0] * (max(terms, default=0) + 1)
    for e, c in terms.items():
        vec[e] = c
    return CycNum(n, vec, den)


def _ring_value(a: CycNum, n: int) -> _RingValue:
    """A preimage of a in Z[x]/(x^n - 1); a's conductor divides n."""
    step = n // a.conductor
    return {i * step: c for i, c in enumerate(a.coeffs) if c}, a.den


def _ring_add(a: _RingValue, b: _RingValue, sign: int) -> _RingValue:
    """a + sign * b."""
    (ta, da), (tb, db) = a, b
    den = lcm(da, db)
    ka, kb = den // da, sign * (den // db)
    out = {e: c * ka for e, c in ta.items()}
    for e, c in tb.items():
        out[e] = out.get(e, 0) + c * kb
    return {e: c for e, c in out.items() if c}, den


def _ring_mul(a: _RingValue, b: _RingValue, n: int) -> _RingValue:
    (ta, da), (tb, db) = a, b
    out: dict[int, int] = {}
    for e, c in ta.items():
        for f, d in tb.items():
            k = (e + f) % n
            out[k] = out.get(k, 0) + c * d
    return {e: c for e, c in out.items() if c}, da * db


def _ring_inverse(b: _RingValue, n: int) -> _RingValue:
    """1 / b; a single term c z^e inverts to z^-e / c with no field work."""
    terms, den = b
    if len(terms) > 1:
        return _ring_value(_field_value(b, n).inverse(), n)
    if not terms:
        raise PreconditionError("division by zero")
    ((e, c),) = terms.items()
    return {-e % n: den if c > 0 else -den}, abs(c)


def _eval_node(node: ast.AST, n: int) -> _RingValue:
    if isinstance(node, ast.Constant):
        if type(node.value) is int:  # not bool, which is an int subclass
            return {0: node.value} if node.value else {}, 1
        raise PreconditionError("only integer literals are allowed")
    if isinstance(node, ast.Name):
        if node.id == "z":
            return {1 % n: 1}, 1
        raise PreconditionError(f"unknown symbol {node.id!r} (only z is allowed)")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        terms, den = _eval_node(node.operand, n)
        return ({e: -c for e, c in terms.items()} if isinstance(node.op, ast.USub) else terms), den
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        a = _eval_node(node.left, n)
        b = _eval_node(node.right, n)
        if isinstance(node.op, ast.Pow):
            k = _integer_exponent(b, n)
            if isinstance(node.left, ast.Name):  # the only name is z: z^k is zeta_n^k
                return {k % n: 1}, 1
            base = _field_value(a, n)
            if k < 0:
                base, k = base.inverse(), -k
            _check_power_size(base, k)
            return _ring_value(base**k, n)
        if isinstance(node.op, ast.Add):
            return _ring_add(a, b, 1)
        if isinstance(node.op, ast.Sub):
            return _ring_add(a, b, -1)
        if isinstance(node.op, ast.Mult):
            return _ring_mul(a, b, n)
        return _ring_mul(a, _ring_inverse(b, n), n)
    raise PreconditionError("unsupported syntax in element expression")


def _integer_exponent(e: _RingValue, n: int) -> int:
    """The integer that an exponent's value is; anything else is refused."""
    terms, den = e
    if set(terms) - {0}:  # a term in z: the field decides whether it is rational
        v = _field_value(e, n)
        if not v.is_rational:
            raise PreconditionError("exponents must be integers")
        terms, den = {0: v.coeffs[0]}, v.den
    num = terms.get(0, 0)
    if num % den:
        raise PreconditionError("exponents must be integers")
    return num // den
