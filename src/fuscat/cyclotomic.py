"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as an integer coefficient vector over the power basis
1, z, ..., z^(phi(n)-1) of Q(zeta_n) (z a fixed primitive n-th root of
unity), together with a positive integer denominator.  All arithmetic is
exact; the canonical form divides out the gcd of the coefficients and the
denominator, so an element is an algebraic integer iff its denominator
is 1 (the power basis generates the full ring of integers of Q(zeta_n)).

Field norms are computed as the explicit product over all Galois
conjugates, evaluated modulo x^n - 1 with a balanced product tree and
reduced modulo the n-th cyclotomic polynomial only at the end.
"""

from __future__ import annotations

import ast
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, log2

from .arith import divisors, factorize, is_prime, totient
from .errors import InternalCheckError, PreconditionError


# ---------------------------------------------------------------------------
# integer polynomials (coefficient tuples, ascending degree)


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide num by the monic polynomial den; remainder must vanish."""
    num = num[:]
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        t = num[k]
        if t:
            quot[k - dd] = t
            for j, c in enumerate(den):
                num[k - dd + j] -= t * c
    if any(num):
        raise InternalCheckError("polynomial division left a remainder")
    return _trim(quot)


@dataclass(frozen=True)
class CycPoly:
    """Univariate polynomial over Z, coefficients in ascending degree."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                term = "x" if i == 1 else f"x^{i}" if i else ""
                if abs(c) != 1 or not term:
                    term = f"{abs(c)}{'*' if term else ''}{term}"
                terms.append(("- " if c < 0 else "+ ") + term)
        if not terms:
            return "0"
        head = terms[-1].lstrip("+ ")
        if terms[-1].startswith("- "):
            head = "-" + terms[-1][2:]
        return " ".join([head] + list(reversed(terms[:-1])))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> CycPoly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise PreconditionError("cyclotomic polynomial needs n >= 1")
    f = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            f = _poly_div_exact(f, cyclotomic_polynomial(d).coeffs)
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


def _phi(n: int) -> int:
    return cyclotomic_polynomial(n).degree


def _reduce_mod_phi(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Remainder of a coefficient list modulo Phi_n, padded to length phi(n)."""
    phi = cyclotomic_polynomial(n).coeffs
    deg = len(phi) - 1
    c = coeffs[:]
    for k in range(len(c) - 1, deg - 1, -1):
        t = c[k]
        if t:
            c[k] = 0
            base = k - deg
            for j in range(deg):
                c[base + j] -= t * phi[j]
    c = c[:deg]
    c += [0] * (deg - len(c))
    return tuple(c)


def _cyclic_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two coefficient lists modulo x^n - 1 (sparse-aware)."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


def _balanced_product(factors: list[list[int]], n: int) -> list[int]:
    """Balanced product tree of coefficient lists modulo x^n - 1."""
    if not factors:
        return [1] + [0] * (n - 1)
    items = deque(factors)
    while len(items) > 1:
        items.append(_cyclic_mul(items.popleft(), items.popleft(), n))
    return items[0]


def _units(n: int) -> list[int]:
    return [s for s in range(1, n + 1) if gcd(s, n) == 1]


# ---------------------------------------------------------------------------
# cyclotomic numbers


class CycNum:
    """An element of Q(zeta_n) in canonical reduced form. Immutable."""

    __slots__ = ("conductor", "coeffs", "den")

    def __init__(self, conductor: int, coeffs, den: int = 1):
        if conductor < 1:
            raise PreconditionError("conductor must be a positive integer")
        if den == 0:
            raise PreconditionError("denominator must be nonzero")
        c = [int(v) for v in coeffs]
        if len(c) > conductor:
            folded = [0] * conductor
            for i, v in enumerate(c):
                folded[i % conductor] += v
            c = folded
        vec = list(_reduce_mod_phi(c, conductor))
        if den < 0:
            den, vec = -den, [-v for v in vec]
        g = 0
        for v in vec:
            g = gcd(g, v)
        g = gcd(g, den)
        if g > 1:
            vec = [v // g for v in vec]
            den //= g
        if not any(vec):
            den = 1
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
        f = Fraction(f)
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
    def is_integral(self) -> bool:
        """True iff the element is an algebraic integer."""
        return self.den == 1

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise PreconditionError("element is not rational")
        return Fraction(self.coeffs[0], self.den)

    def _lift(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise InternalCheckError("lift target is not a multiple of the conductor")
        stride = m // n
        vec = [0] * ((len(self.coeffs) - 1) * stride + 1)
        for i, v in enumerate(self.coeffs):
            vec[i * stride] = v
        return CycNum(m, vec, self.den)

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

    def __add__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(self, other)
        vec = [x * b.den + y * a.den for x, y in zip(a.coeffs, b.coeffs)]
        return CycNum(a.conductor, vec, a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.conductor, [-v for v in self.coeffs], self.den)

    def __sub__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycNum":
        return -(self - other)

    def __mul__(self, other) -> "CycNum":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(self, other)
        n = a.conductor
        vec = _cyclic_mul(list(a.coeffs), list(b.coeffs), n)
        return CycNum(n, vec, a.den * b.den)

    __rmul__ = __mul__

    def _conjugate_numerator_product(self, skip_identity: bool) -> list[int]:
        n = self.conductor
        nums = list(self.coeffs)
        factors = []
        for s in _units(n):
            if skip_identity and s == 1:
                continue
            vec = [0] * n
            for i, v in enumerate(nums):
                if v:
                    vec[(i * s) % n] += v
            factors.append(vec)
        return _balanced_product(factors, n)

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the product of nontrivial conjugates."""
        if self.is_zero:
            raise PreconditionError("division by zero")
        n = self.conductor
        cofactor = self._conjugate_numerator_product(skip_identity=True)
        full = _reduce_mod_phi(
            _cyclic_mul(cofactor, list(self.coeffs), n), n
        )
        if any(full[1:]):
            raise InternalCheckError("conjugate product is not rational")
        return CycNum(n, [self.den * v for v in cofactor], full[0])

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
        s %= n
        if gcd(s if s else n, n) != 1:
            raise PreconditionError(f"{s} is not coprime to the conductor {n}")
        vec = [0] * n
        for i, v in enumerate(self.coeffs):
            if v:
                vec[(i * s) % n] += v
        return CycNum(n, vec, self.den)

    def norm(self) -> Fraction:
        """Field norm to Q: the product of all Galois conjugates."""
        n = self.conductor
        prod = self._conjugate_numerator_product(skip_identity=False)
        red = _reduce_mod_phi(prod, n)
        if any(red[1:]):
            raise InternalCheckError("norm did not reduce to a rational number")
        return Fraction(red[0], self.den ** _phi(n))

    # -- serialization / display

    def to_json(self) -> dict:
        return {
            "conductor": str(self.conductor),
            "numerator": [str(v) for v in self.coeffs],
            "denominator": str(self.den),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CycNum":
        return cls(
            int(data["conductor"]),
            [int(v) for v in data["numerator"]],
            int(data["denominator"]),
        )

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


def is_p_unit(a: CycNum, p: int) -> bool:
    """True iff the algebraic integer a has norm coprime to the prime p."""
    if not a.is_integral:
        raise PreconditionError("p-unit test is defined for algebraic integers only")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return a.norm().numerator % p != 0


@lru_cache(maxsize=8192)
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
    """Parse `z`-expressions: integers, z, + - * / ^ and parentheses."""
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise PreconditionError(f"cannot parse element expression: {exc.msg}") from None
    return _eval_node(tree.body, conductor)


def _check_power_size(a: CycNum, k: int) -> None:
    """Refuse a^k when k * log2 of the larger of a's coefficient 1-norm and
    its denominator passes the interpreter's int-to-str limit (its default
    when the limit is off), before any of it is computed."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    bits = log2(max(sum(abs(c) for c in a.coeffs), a.den))
    if bits and k > digits * log2(10) / bits:  # k may be too large for a float
        raise PreconditionError(
            f"power with a {k.bit_length()}-bit exponent would exceed {digits} decimal digits"
        )


def _eval_node(node: ast.AST, n: int) -> CycNum:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return CycNum.from_int(node.value)
        raise PreconditionError("only integer literals are allowed")
    if isinstance(node, ast.Name):
        if node.id == "z":
            return CycNum.zeta(n)
        raise PreconditionError(f"unknown symbol {node.id!r} (only z is allowed)")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, n)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        a = _eval_node(node.left, n)
        if isinstance(node.op, ast.Pow):
            e = _eval_node(node.right, n)
            if not (e.is_rational and e.den == 1):
                raise PreconditionError("exponents must be integers")
            k = int(e.as_fraction())
            if k < 0:
                a, k = a.inverse(), -k
            _check_power_size(a, k)
            return a ** k
        b = _eval_node(node.right, n)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        return a / b
    raise PreconditionError("unsupported syntax in element expression")
