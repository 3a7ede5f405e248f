"""Trivalent-graph amplitude certificates.

A Tensor3 packages the structure constants of an antisymmetric product m
on a 3-dimensional space together with the Gram matrix of an invariant
symmetric pairing b.  Amplitudes of the two smallest planar trivalent
graphs are evaluated by index contraction, with raised indices supplied by
the inverse Gram matrix, so everything stays in exact rational arithmetic:

    A(T2) = Tr(m m*)            (theta graph: two vertices, three edges)
    A(T4) = Tr(m (1 x m) (m* x 1) m*)   (square with diagonals)

Every tensor and matrix product in this module (the invariance check, the
dual product m*, both graph amplitudes, the trace form and the Casimir
route) is one exact Einstein summation through the kernel `_contract`,
which scales each operand to integers by the lcm of its denominators, sums
over plain integers and divides by the product of the scales once at the
end.  Its index bookkeeping (which entries join, where each product lands)
depends on the spec alone and is planned once per spec.

The normalization-independent certificate rescales the vertex so that the
two-vertex bubble subgraph acts as the identity morphism on an edge (the
closed theta graph then evaluates to the loop value dim X); the square
amplitude becomes dim^2 A(T4)/A(T2)^2, which is invariant under rescaling
either m or b.  The quantum analogue of the square graph for the rank-one
root system is evaluated from its closed form in quantum integers.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .arith import primes_upto
from .cyclotomic import CycNum, q_integer
from .errors import InternalCheckError, PreconditionError

Mat3 = tuple[tuple[Fraction, ...], ...]


class Tensor3:
    """Structure constants m[i][j][k] (coefficient of e_k in m(e_i, e_j))
    and the Gram matrix gram[i][j] = b(e_i, e_j), validated when built.
    Immutable; equal when both fields are."""

    __slots__ = ("m", "gram")

    def __init__(self, m: tuple[tuple[tuple[Fraction, ...], ...], ...], gram: Mat3):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "gram", gram)
        self.validate()

    def __setattr__(self, *_):
        raise AttributeError("Tensor3 is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.m, self.gram) == (other.m, other.gram)

    def __hash__(self) -> int:
        return hash((self.m, self.gram))

    def __repr__(self) -> str:
        return f"Tensor3(m={self.m!r}, gram={self.gram!r})"

    def validate(self) -> None:
        for i, j in product(range(3), repeat=2):
            if self.gram[i][j] != self.gram[j][i]:
                raise PreconditionError("pairing is not symmetric")
            for k in range(3):
                if self.m[i][j][k] != -self.m[j][i][k]:
                    raise PreconditionError("product is not antisymmetric")
        if _det3(self.gram) == 0:
            raise PreconditionError("pairing is degenerate")
        low = _contract("ijl,lk->ijk", self.m, self.gram)  # b(m(e_i, e_j), e_k)
        for i, j, k in product(range(3), repeat=3):
            if low[i][j][k] != low[j][k][i]:
                raise PreconditionError("pairing is not invariant for the product")


@lru_cache(maxsize=None)
def _contraction_plan(spec: str):
    """The index bookkeeping of a spec, which depends on nothing else.

    Per operand: its depth; the (shared, new) letter values of each of its
    entries in row-major order; the shared letter values of each key of the
    accumulator; and the key after the join of each accumulator key and new
    letter values, with the letters nothing later carries dropped.  Then
    the final accumulator key of each output entry in row-major order.
    """
    inputs, out = spec.split("->")
    terms = inputs.split(",")
    acc_sub, steps = "", []
    for n, sub in enumerate(terms):
        new = "".join(c for c in sub if c not in acc_sub)
        shared = [c for c in sub if c in acc_sub]
        letters = acc_sub + new
        later = set(out).union(*terms[n + 1:])
        keep = "".join(c for c in letters if c in later)
        entries = []
        for idx in product(range(3), repeat=len(sub)):
            at = dict(zip(sub, idx))
            entries.append((tuple(at[c] for c in shared), tuple(at[c] for c in new)))
        in_acc = [acc_sub.index(c) for c in shared]
        pick = [letters.index(c) for c in keep]
        acc_keys = list(product(range(3), repeat=len(acc_sub)))
        shared_of = {ka: tuple(ka[i] for i in in_acc) for ka in acc_keys}
        joined_key = {(ka, kb): tuple((ka + kb)[i] for i in pick)
                      for ka in acc_keys for kb in product(range(3), repeat=len(new))}
        steps.append((len(sub), entries, shared_of, joined_key))
        acc_sub = keep
    order = [tuple(idx[out.index(c)] for c in acc_sub) for idx in product(range(3), repeat=len(out))]
    return steps, order, len(out)


def _contract(spec: str, *tensors):
    """Exact Einstein summation over range(3), e.g. "lk,ijk,ia,jc->lac".

    Each operand is a nested sequence of integers or Fractions indexed by
    the distinct letters of its term.  Each operand is scaled to integers
    by the lcm of its denominators, and the sums run over plain integers
    under the product of those scales, which divides the result once at the
    end.  Operands join two at a time from the left, and a letter is summed
    as soon as neither a later operand nor the output carries it; zero
    entries are skipped.  Returns nested tuples of Fractions in the order of
    the output letters, or one Fraction when the output is empty.
    """
    steps, order, rank = _contraction_plan(spec)
    acc, den = {(): 1}, 1
    for (depth, entries, shared_of, joined_key), t in zip(steps, tensors, strict=True):
        for _ in range(depth - 1):
            t = [v for row in t for v in row]
        scale = lcm(*(v.denominator for v in t))  # a zero entry has denominator 1
        den *= scale
        rows = defaultdict(list)  # entries of t, times scale, grouped by their shared letters
        for (shared, new), v in zip(entries, t):
            if x := v.numerator * (scale // v.denominator):
                rows[shared].append((new, x))
        joined = defaultdict(int)
        for ka, va in acc.items():
            for kb, vb in rows[shared_of[ka]]:
                joined[joined_key[ka, kb]] += va * vb
        acc = {k: v for k, v in joined.items() if v}
    values = [Fraction(acc.get(k, 0), den) for k in order]
    for _ in range(rank):
        values = [tuple(values[i:i + 3]) for i in range(0, len(values), 3)]
    return values[0]


def _det3(g: Mat3) -> Fraction:
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def _inv3(g: Mat3) -> Mat3:
    d = _det3(g)
    if d == 0:
        raise PreconditionError("pairing is degenerate")
    cof = [
        [
            (g[(r + 1) % 3][(c + 1) % 3] * g[(r + 2) % 3][(c + 2) % 3]
             - g[(r + 1) % 3][(c + 2) % 3] * g[(r + 2) % 3][(c + 1) % 3])
            for r in range(3)
        ]
        for c in range(3)
    ]
    return tuple(tuple(v / d for v in row) for row in cof)


def _dualized_product(t: Tensor3):
    """(m*)[l][a][c]: components of the map X -> X (x) X dual to m under b."""
    ginv = _inv3(t.gram)
    return _contract("lk,ijk,ia,jc->lac", t.gram, t.m, ginv, ginv)


def sl2_adjoint() -> Tensor3:
    """The rank-three Lie bracket tensor in the basis (e, h, f), with the
    trace form of the adjoint action as the pairing."""
    m = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]

    def set_bracket(i, j, coeffs):
        for k, c in enumerate(coeffs):
            m[i][j][k] = Fraction(c)
            m[j][i][k] = Fraction(-c)

    set_bracket(0, 1, (-2, 0, 0))  # [e, h] = -2e
    set_bracket(0, 2, (0, 1, 0))   # [e, f] = h
    set_bracket(1, 2, (0, 0, -2))  # [h, f] = -2f
    gram = _contract("ilk,jkl->ij", m, m)  # Tr(ad e_i ad e_j), (ad e_i)[k][l] = m[i][l][k]
    return Tensor3(m=tuple(tuple(tuple(r) for r in row) for row in m), gram=gram)


def _theta(t: Tensor3, mstar) -> Fraction:
    return _contract("lac,acl->", mstar, t.m)


def _square(t: Tensor3, mstar) -> Fraction:
    return _contract("tab,acd,dbe,cet->", mstar, mstar, t.m, t.m)


def amplitude_T4_normalized(t: Tensor3) -> Fraction:
    """Square amplitude with the bubble-normalized vertex.

    The vertex is rescaled so that the open two-vertex bubble equals the
    identity on an edge, which makes the square graph evaluate to
    dim^2 A(T4)/A(T2)^2; the double ratio is invariant under rescaling
    either the product or the pairing.  m* is built once for both graphs.
    """
    mstar = _dualized_product(t)
    a2 = _theta(t, mstar)
    if a2 == 0:
        raise PreconditionError("theta-graph amplitude vanishes; cannot normalize")
    return 9 * _square(t, mstar) / a2**2


def casimir_square_coefficient(t: Tensor3) -> Fraction:
    """Independent route to the normalized square amplitude.

    In the representation of the algebra on itself, the quartic contraction
    sum_{a,b} y_a y_b y^a y^b (dual bases with respect to the pairing) acts
    as a scalar, and its trace equals this coefficient times the square of
    the Casimir scalar (the scalar by which sum_a y_a y^a acts).  With
    (ad y_a)[r][s] = m[a][s][r] and y^a = sum_b ginv[a][b] y_b, both are
    exact 3x3 matrices.
    """
    ginv = _inv3(t.gram)
    casimir = _contract("asr,ab,bts->rt", t.m, ginv, t.m)
    lhs = _contract("asr,bts,ax,xut,by,ycu->rc", t.m, t.m, ginv, t.m, ginv, t.m)
    trace = 3 * _scalar_of(lhs)
    r = _scalar_of(casimir)
    if r == 0:
        raise InternalCheckError("quadratic element vanished")
    return trace / r**2


def _scalar_of(m: Mat3) -> Fraction:
    for i in range(3):
        for j in range(3):
            if i != j and m[i][j] != 0:
                raise InternalCheckError("matrix is not scalar")
    if m[0][0] != m[1][1] or m[1][1] != m[2][2]:
        raise InternalCheckError("matrix is not scalar")
    return m[0][0]


def quantum_T4(l: int) -> CycNum:
    """Square-graph amplitude [3]([3]-2)/([3]-1) at q = zeta_{2l}.

    At l = 8 the value squares to 1/2, so its canonical form has an even
    denominator: the certificate that 2 is not invertible against it.
    """
    q3 = q_integer(3, l)
    den = q3 - 1
    if den.is_zero:
        raise PreconditionError(f"amplitude denominator [3]-1 vanishes at l={l}")
    return (q3 * (q3 - 2)) / den


def quantum_certificate(l: int, pmax: int = 50) -> dict:
    """Denominator divisibility data for the quantum square amplitude."""
    val = quantum_T4(l)
    sq = val * val
    return {
        "l": l,
        "value": val,
        "square": sq.as_fraction() if sq.is_rational else None,
        "denominator": val.den,
        "denominator_primes": [p for p in primes_upto(pmax) if val.den % p == 0],
    }
