"""Finite permutation groups at desk scale.

Groups are enumerated explicitly (orbit closure of the generators) up to a
configurable cap on the order, which also bounds the element table at
TABLE_FACTOR x cap points (order x degree); conjugacy classes are computed
on the element table.  A group records the cap it was admitted under, and
its subgroups, double-coset stabilizers and the tables it builds on first
need are enumerated under that cap: they pass both bounds.
Every product a*b is one C-level gather, `operator.itemgetter(*a)(b)`,
and a loop that multiplies by a fixed operand builds its gather once.
Double cosets and their stabilizers come from one pass over the H-orbits
on the right cosets H\\G, and the cosets are an orbit themselves: that of
H under right multiplication by G's generators, each coset Hy named by
its least element, found greedily down a stabilizer chain of H read off
H's table.  Nothing of G is enumerated for it.  The stabilizer of the
coset Hx is H n x^-1 H x; `stabilizer_intersection(g, h, y)` builds
H n yHy^-1 from the definition, so the tests check the route against it
at y = x^-1.

Every conjugacy class record carries the order of its elements, set by
the route that made the class, and every element table is the closure of
the group's generators, built only when something asks for it.

An `x`-joined builtin G1 x ... x Gr answers from its factors: its order is
the product of theirs, its classes are the products of their classes (of
order the lcm of theirs), its character degrees the products d1*...*dr of
theirs (Irr(G x H) = Irr(G) (x) Irr(H)).  Every factor route first checks
that the factors' generators, shifted into place, are the product's own.

A builtin Sn or An answers from the partitions of n, once its generators
are checked to be the builtin's own: one class per partition, of size
n!/z and order the lcm of the parts, led by its least element (fixed
points first, then cycles on consecutive points in increasing length); An
keeps the even partitions and splits one with distinct odd parts into two
halves.  Its degrees come from the hook-length formula (for An, one per
pair of conjugate partitions and two halves for a self-conjugate one).
Membership needs no table: Sn holds every permutation of its points, An
the even ones, and a product tests each factor's block of points in that
factor.  A builtin Dn (order n = 2m, on m points) answers the same way
from its rotations and reflections: the classes {r^k, r^-k}, of order
m/gcd(k, m), and one or two classes of reflections, of order 2, and the
degrees 1 and 2 in closed form.  When a product's or a named group's
table is built, `class_of` checks the conjugation orbits on it, with
their walked orders, against these closed-form classes.  A group with as
many classes as elements is abelian and has all degrees 1.  Every other
group takes the class-multiplication-coefficient method: the integer
class matrices (sparse, as each column of M_i has at most |C_i| nonzeros)
commute and split into common one-dimensional eigenspaces over a prime
field F_q chosen with q = 1 mod exp(G) and q > 2*sqrt(|G|); each common
eigenvector is a central character, and the squared degree is recovered
from the orthogonality sum and lifted to the unique integer square root
in (0, sqrt(|G|)].  Only degrees are computed; character values are
never needed downstream.

The Ito-Michler theorem (p divides no irreducible degree exactly when the
Sylow p-subgroup is normal and abelian) is checked in both directions from
class data alone, for every group alike, products included: the classes of
p-power order sum to |G|_p exactly when the Sylow p-subgroup is normal,
and a normal one is abelian exactly when p divides none of their sizes.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm, prod
from operator import itemgetter
from typing import NamedTuple

from .arith import is_prime, p_part, prime_factors, prime_witnesses
from .errors import InternalCheckError, PreconditionError

Perm = tuple[int, ...]

DEFAULT_ENUM_CAP = 20000
ENUM_CAP_ENV = "FUSCAT_ENUM_CAP"
# the cap also bounds an element table, order x degree points, at TABLE_FACTOR x cap
TABLE_FACTOR = 100


def enum_cap(cap: int | None) -> int:
    """The cap in force: cap, else $FUSCAT_ENUM_CAP, else the default; refuses bad values."""
    if cap is None:
        env = os.environ.get(ENUM_CAP_ENV)
        try:
            cap = int(env) if env else DEFAULT_ENUM_CAP
        except ValueError:
            raise PreconditionError(f"{ENUM_CAP_ENV}={env!r} is not an integer") from None
    if cap < 1:
        raise PreconditionError(f"the enumeration cap must be positive, got {cap}")
    return cap


def _cap_exceeded(cap: int) -> PreconditionError:
    return PreconditionError(
        f"group order exceeds the enumeration cap {cap}; "
        f"raise it via {ENUM_CAP_ENV} or the cap argument"
    )


def _table_exceeded(cap: int) -> PreconditionError:
    return PreconditionError(
        f"the element table (order x degree) exceeds {TABLE_FACTOR} x the enumeration cap {cap}; "
        f"raise the cap via {ENUM_CAP_ENV} or the cap argument"
    )


# ---------------------------------------------------------------------------
# permutations: tuples of images, 0-indexed; a*b applies a first, then b


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def _gather(a: Perm) -> Callable[[Perm], Perm]:
    """x -> a*x, that is (a*x)[i] = x[a[i]], as one C-level gather."""
    if len(a) > 1:
        return itemgetter(*a)
    # itemgetter with a single index returns the item, not a 1-tuple
    return lambda x: tuple(map(x.__getitem__, a))


def perm_mul(a: Perm, b: Perm) -> Perm:
    return _gather(a)(b)


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def perm_order(a: Perm) -> int:
    return lcm(*map(len, _cycles(a)))


def _cycles(a: Perm) -> list[list[int]]:
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if not seen[start]:
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = a[i]
            if len(cyc) > 1:
                out.append(cyc)
    return out


def _parity(a: Perm) -> int:
    """0 for an even permutation, 1 for an odd one."""
    return sum(len(c) - 1 for c in _cycles(a)) % 2


def perm_to_cycles(a: Perm) -> str:
    """Cycle notation, 1-indexed; 'e' for the identity."""
    cycs = _cycles(a)
    if not cycs:
        return "e"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycs)


def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse 1-indexed cycle notation like '(1 2)(3 4)'; 'e' or '()' is the identity.

    Several cycles compose left to right (the leftmost acts first).
    """
    text = text.strip()
    if text in ("e", "()", "id", ""):
        return perm_identity(degree or 1)
    if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", text):
        raise PreconditionError(f"cannot parse permutation {text!r}")
    cycles = []
    maxpt = 0
    for body in re.findall(r"\(([^()]*)\)", text):
        pts = [int(t) for t in re.split(r"[\s,]+", body.strip()) if t]
        if len(pts) != len(set(pts)):
            raise PreconditionError(f"repeated point in cycle ({body})")
        if any(p < 1 for p in pts):
            raise PreconditionError("points are 1-indexed positive integers")
        cycles.append([p - 1 for p in pts])
        maxpt = max(maxpt, max(pts))
    deg = max(degree or 0, maxpt)
    acc = perm_identity(deg)
    for cyc in cycles:
        img = list(perm_identity(deg))
        for i, pt in enumerate(cyc):
            img[pt] = cyc[(i + 1) % len(cyc)]
        acc = perm_mul(acc, tuple(img))
    return acc


def parse_gens(text: str, degree: int | None = None) -> list[Perm]:
    """Parse a comma-separated list of permutations in cycle notation; a
    comma inside a cycle, before its closing parenthesis, separates points."""
    parts = re.split(r",(?![^()]*\))", text)
    raw = [parse_perm(p, degree) for p in parts if p.strip()]
    if not raw:
        raise PreconditionError("no generators given")
    deg = max(len(p) for p in raw)
    if degree:
        deg = max(deg, degree)
    return [_pad(p, deg) for p in raw]


def _pad(p: Perm, degree: int) -> Perm:
    return p if len(p) == degree else p + tuple(range(len(p), degree))


# ---------------------------------------------------------------------------
# groups


class ConjugacyClass(NamedTuple):
    rep: Perm  # the least element of the class
    size: int
    order: int  # the order of every element of the class


class PermGroup:
    """A finite permutation group.  `from_generators` enumerates its sorted
    element table at once; a direct product of recorded factors and a named
    S_n, A_n or D_n build it, as the closure of their generators, only on
    first need."""

    def __init__(
        self,
        degree: int,
        generators: list[Perm],
        elements: list[Perm] | None = None,
        factors: tuple[PermGroup, ...] = (),
        family: tuple[str, int] | None = None,
        cap: int | None = None,
    ):
        self.degree = degree
        # the enumeration cap the group was admitted under
        self.cap = cap
        self.generators = [_pad(g, degree) for g in generators]
        # G1, ..., Gr when the group was built as their direct product
        self.factors = factors
        # ("S", n), ("A", n) or ("D", n) when the group was built as the
        # builtin Sn, An or Dn (for Dn, n is the order)
        self.family = family
        self._elements = None if elements is None else sorted(elements)
        if elements is not None:
            self._order = len(self._elements)
        elif family:
            fam, n = family
            self._order = n if fam == "D" else factorial(n) // (2 if fam == "A" and n > 1 else 1)
        else:
            self._order = prod(f.order for f in factors)
        self._index: dict[Perm, int] | None = None
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: list[int] | None = None
        self._members: list[tuple[int, ...]] | None = None
        self._degrees: tuple[int, ...] | None = None

    @classmethod
    def from_generators(cls, generators: list[Perm], cap: int | None = None) -> "PermGroup":
        """The group the generators generate, enumerated by orbit closure.

        Refused once it has more than `cap` elements, or more than
        TABLE_FACTOR * cap table points (order x degree).  The group records
        the cap; closures inside it are enumerated under the same cap, which
        they cannot trip.
        """
        if not generators:
            raise PreconditionError("need at least one generator")
        deg = max(len(g) for g in generators)
        gens = [_pad(g, deg) for g in generators]
        cap = enum_cap(cap)
        limit = min(cap, TABLE_FACTOR * cap // deg)
        # closure under left multiplication u -> s*u: the same set as the
        # right closure, and the constructor sorts it
        left = [_gather(s) for s in gens]
        seen = {perm_identity(deg)}
        frontier = [perm_identity(deg)]
        while frontier:
            nxt = []
            for u in frontier:
                for s in left:
                    v = s(u)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
                        if len(seen) > limit:
                            raise _cap_exceeded(cap) if len(seen) > cap else _table_exceeded(cap)
            frontier = nxt
        return cls(deg, gens, list(seen), cap=cap)

    @property
    def order(self) -> int:
        return self._order

    @property
    def elements(self) -> list[Perm]:
        """The sorted element table: for a group built without one, the
        closure of its generators, which reads neither factors nor family."""
        if self._elements is None:
            self._elements = PermGroup.from_generators(self.generators, self.cap).elements
        return self._elements

    @property
    def index(self) -> dict[Perm, int]:
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.elements)}
        return self._index

    # the identity is the least permutation, so it heads the sorted table
    identity_index = 0

    def __contains__(self, p: Perm) -> bool:
        """A named Sn holds every permutation of its points, a named An the
        even ones, a named Dn on m points the rotations p[i] = p[0] + i and
        reflections p[i] = p[0] - i (mod m); a product holds p when each
        factor's block of points, shifted to the factor's own, is an
        element of that factor (so no point leaves its block).  Any other
        group looks p up in its `index`."""
        if self.factors:
            return len(p) == self.degree and all(
                _shift(p[offset:offset + f.degree], -offset) in f
                for f, offset in _offsets(_checked_factors(self))
            )
        if self.family:
            fam, n = _checked_family(self)
            if fam == "D":
                m = n // 2
                return len(p) == m and (
                    all(x == (p[0] + i) % m for i, x in enumerate(p))
                    or all(x == (p[0] - i) % m for i, x in enumerate(p)))
            return sorted(p) == list(range(n)) and (fam == "S" or _parity(p) == 0)
        return p in self.index

    def subgroup(self, generators: list[Perm]) -> "PermGroup":
        gens = [_pad(g, self.degree) for g in generators]
        for g in gens:
            if g not in self:
                raise PreconditionError(f"{perm_to_cycles(g)} is not an element of the group")
        return PermGroup.from_generators(gens, self.cap)

    def is_subgroup(self, other: "PermGroup") -> bool:
        return other.degree == self.degree and all(g in self for g in other.generators)

    def exponent(self) -> int:
        return lcm(*(c.order for c in self.conjugacy_classes()))

    # -- conjugacy classes

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        """Classes ordered by their least element.  For a product these are
        the Cartesian products of the factors' classes: lex order on the
        joined reps is lex order on the tuples of factor reps, and the order
        of a product class is the lcm of its factor classes' orders.  For a
        named S_n or A_n they come from the partitions of n, for a named D_n
        from its rotations and reflections, orders in closed form; any other
        group walks one representative's cycles per class."""
        if self._classes is None:
            if self.factors:
                classes = [ConjugacyClass((), 1, 1)]
                for f, offset in _offsets(_checked_factors(self)):
                    part = [c._replace(rep=_shift(c.rep, offset)) for c in f.conjugacy_classes()]
                    classes = [ConjugacyClass(a.rep + b.rep, a.size * b.size, lcm(a.order, b.order))
                               for a in classes for b in part]
            elif self.family:
                fam, n = _checked_family(self)
                classes = _dihedral_classes(n) if fam == "D" else _partition_classes(fam, n)
            else:
                classes = self._enumerate_classes()
            if sum(c.size for c in classes) != self.order:
                raise InternalCheckError("conjugacy classes do not partition the group")
            if any(self.order % c.size for c in classes):
                raise InternalCheckError("conjugacy class size does not divide the order")
            self._classes = classes
        return self._classes

    def class_of(self) -> list[int]:
        """Element index -> conjugacy class index."""
        classes = self.conjugacy_classes()  # fills class_of unless self is a product or named
        # the orbits on a product's or a named group's table, with their
        # walked orders, must be the classes its factors, the partitions or
        # the dihedral rule gave
        if self._class_of is None and self._enumerate_classes() != classes:
            whose = ("the factors'" if self.factors
                     else "the dihedral" if self.family[0] == "D" else "the partition")
            raise InternalCheckError(f"conjugation orbits do not match {whose} classes")
        return self._class_of

    def class_members(self) -> list[tuple[int, ...]]:
        """Per class, the indices of its elements in increasing order."""
        if self._members is None:
            members: list[list[int]] = [[] for _ in self.conjugacy_classes()]
            for i, c in enumerate(self.class_of()):
                members[c].append(i)
            self._members = [tuple(m) for m in members]
        return self._members

    def _enumerate_classes(self) -> list[ConjugacyClass]:
        """Conjugation orbits on the element table, each led by its least
        element and with its order walked once; fills `class_of`."""
        elements, index = self.elements, self.index
        class_of = [-1] * self.order
        out: list[ConjugacyClass] = []
        # g^-1 x g = (g^-1 * x) * g: the first gather is fixed per generator
        conj = [(_gather(perm_inv(g)), g) for g in self.generators]
        for start in range(self.order):
            if class_of[start] >= 0:
                continue
            cid = len(out)
            class_of[start] = cid
            size = 1
            queue = [start]
            while queue:
                x = elements[queue.pop()]
                for gi, g in conj:
                    j = index[_gather(gi(x))(g)]
                    if class_of[j] < 0:
                        class_of[j] = cid
                        size += 1
                        queue.append(j)
            out.append(ConjugacyClass(elements[start], size, perm_order(elements[start])))
        self._class_of = class_of
        return out


def _shift(p: Perm, offset: int) -> Perm:
    """p acting on the points offset, offset + 1, ..., offset + len(p) - 1."""
    return tuple(v + offset for v in p) if offset else p


def _offsets(gs: tuple[PermGroup, ...]) -> list[tuple[PermGroup, int]]:
    """Each factor with the first point it acts on in the product."""
    out, offset = [], 0
    for g in gs:
        out.append((g, offset))
        offset += g.degree
    return out


def _product_generators(gs: tuple[PermGroup, ...]) -> list[Perm]:
    """The factors' generators, each shifted into place and fixing every
    point outside its factor."""
    total = sum(g.degree for g in gs)
    return [
        perm_identity(offset) + _shift(s, offset) + tuple(range(offset + g.degree, total))
        for g, offset in _offsets(gs)
        for s in g.generators
    ]


def _checked_factors(g: PermGroup) -> tuple[PermGroup, ...]:
    """The recorded factors, once their generators, shifted into place, are
    exactly the group's generators: the tie between the factor routes and
    the group the generators define."""
    if not g.factors or _product_generators(g.factors) != g.generators:
        raise InternalCheckError("the recorded factors do not generate the group")
    return g.factors


# ---------------------------------------------------------------------------
# S_n and A_n from the partitions of n


def _checked_family(g: PermGroup) -> tuple[str, int]:
    """The recorded family and n, once the group's generators are exactly
    the builtin Sn's, An's or Dn's: the tie between the closed-form routes
    and the group the generators define."""
    if not g.family or _family_generators(*g.family) != tuple(g.generators):
        raise InternalCheckError("the recorded family does not generate the group")
    return g.family


def _partitions(n: int, most: int | None = None):
    """The partitions of n into parts of at most `most`, each a
    non-increasing tuple."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _least_of_type(parts: tuple[int, ...]) -> Perm:
    """The least permutation of cycle type `parts`: the fixed points first,
    then the cycles on consecutive points in increasing length."""
    out: list[int] = []
    for length in sorted(parts):
        start = len(out)
        out += range(start + 1, start + length)
        out.append(start)
    return tuple(out)


def _partition_classes(family: str, n: int) -> list[ConjugacyClass]:
    """The classes of S_n or A_n, ordered by least element.

    S_n has one class per partition, of size n!/z (z = prod i^m_i m_i!,
    the centralizer order) and order the lcm of the parts.  A_n keeps the
    even partitions, and one with distinct odd parts splits into two
    halves: its centralizer lies in A_n, so only odd permutations
    conjugate one half to the other.  The second half's least element is
    then the second least of the S_n class, the first with its last two
    points swapped (any other permutation that agrees with it up to there
    changes the cycle type).
    """
    alternating = family == "A" and n > 1
    out = []
    for parts in _partitions(n):
        if alternating and (n - len(parts)) % 2:
            continue
        rep = _least_of_type(parts)
        size = factorial(n) // prod(k ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))
        order = lcm(*parts)
        if alternating and len(set(parts)) == len(parts) and all(k % 2 for k in parts):
            swap = list(range(n))
            swap[-2:] = n - 1, n - 2
            other = tuple(swap[rep[swap[i]]] for i in range(n))
            out += [ConjugacyClass(rep, size // 2, order), ConjugacyClass(other, size // 2, order)]
        else:
            out.append(ConjugacyClass(rep, size, order))
    return sorted(out)


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for k in parts if k > j) for j in range(parts[0]))


def _hook_degrees(family: str, n: int) -> list[int]:
    """Irreducible degrees of S_n or A_n.  S_n has f = n!/prod(hook
    lengths) per partition (Frame, Robinson and Thrall); A_n has one degree
    f per pair of conjugate partitions, and two halves f/2 for a
    self-conjugate one."""
    out = []
    for parts in _partitions(n):
        conj = _conjugate(parts)
        hooks = prod(k - j + conj[j] - i - 1 for i, k in enumerate(parts) for j in range(k))
        f = factorial(n) // hooks
        if family == "S" or n < 2:
            out.append(f)
        elif parts == conj:
            out += [f // 2, f // 2]
        elif parts > conj:
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# D_n, of order n = 2m, on the m vertices of a polygon


def _dihedral_classes(n: int) -> list[ConjugacyClass]:
    """The classes of D_n, ordered by least element.

    With r: i -> i + 1 and s_k: i -> k - i (mod m), the classes are
    {r^k, r^-k} for 0 <= k <= m/2, led by r^k, of order m/gcd(k, m), and
    the reflections, of order 2: one class of m for m odd; for m even, the
    s_k with k even and those with k odd, m/2 each, led by s_0 and s_1
    (r^j s_k r^-j = s_(k+2j) and s_j s_k s_j = s_(2j-k)).
    """
    m = n // 2
    rotations = [ConjugacyClass(tuple(range(k, m)) + tuple(range(k)), 1 if 2 * k in (0, m) else 2,
                                m // gcd(k, m))
                 for k in range(m // 2 + 1)]
    parities = 1 if m % 2 else 2
    reflections = [ConjugacyClass(tuple((k - i) % m for i in range(m)), m // parities, 2)
                   for k in range(parities)]
    return sorted(rotations + reflections)


def _dihedral_degrees(n: int) -> list[int]:
    """Irreducible degrees of D_n, n = 2m: 2 linear characters and (m-1)/2
    of degree 2 for m odd, 4 linear and (m-2)/2 of degree 2 for m even."""
    m = n // 2
    linear = 2 if m % 2 else 4
    return [1] * linear + [2] * ((m - linear // 2) // 2)


# ---------------------------------------------------------------------------
# linear algebra over a prime field (lists of ints mod q)


def _mat_vec(m: list[dict[int, int]], v: list[int], q: int) -> list[int]:
    return [sum(c * v[k] for k, c in row.items()) % q for row in m]


def _combination(coeffs: list[int], rows: list[list[int]], q: int) -> list[int]:
    """sum_s coeffs[s] * rows[s] mod q."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return [x % q for x in out]


def _row_reduce(rows: list[list[int]], ncols: int, q: int) -> list[int]:
    """Row-reduce in place mod q over the first ncols columns; returns the pivots."""
    pivots: list[int] = []
    for c in range(ncols):
        rr = len(pivots)
        if rr == len(rows):  # every row has its pivot
            break
        piv = next((i for i in range(rr, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[rr], rows[piv] = rows[piv], rows[rr]
        inv = pow(rows[rr][c], -1, q)
        rows[rr] = [v * inv % q for v in rows[rr]]
        for i in range(len(rows)):
            if i != rr and rows[i][c] % q:
                t = rows[i][c]
                rows[i] = [(vi - t * vr) % q for vi, vr in zip(rows[i], rows[rr])]
        pivots.append(c)
    return pivots


def _kernel(m: list[list[int]], q: int) -> list[list[int]]:
    """Basis of the kernel of a square matrix mod q."""
    d = len(m)
    rows = [r[:] for r in m]
    pivots = _row_reduce(rows, d, q)
    basis = []
    for fc in range(d):
        if fc in pivots:
            continue
        v = [0] * d
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-rows[ri][fc]) % q
        basis.append(v)
    return basis


def _hessenberg(m: list[list[int]], q: int) -> list[list[int]]:
    n = len(m)
    h = [row[:] for row in m]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] % q), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][j + 1] = h[r][j + 1], h[r][piv]
        inv = pow(h[j + 1][j], -1, q)
        for i in range(j + 2, n):
            t = h[i][j] % q
            if t:
                u = t * inv % q
                hi, hj = h[i], h[j + 1]
                for c in range(n):
                    hi[c] = (hi[c] - u * hj[c]) % q
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + u * h[r][i]) % q
    return h


def _charpoly(m: list[list[int]], q: int) -> list[int]:
    """Characteristic polynomial mod q via Hessenberg form (ascending coeffs)."""
    n = len(m)
    h = _hessenberg(m, q)
    polys = [[1]]
    for size in range(1, n + 1):
        a = h[size - 1][size - 1] % q
        prev = polys[size - 1]
        cur = [0] * (len(prev) + 1)
        for idx, c in enumerate(prev):
            cur[idx + 1] = (cur[idx + 1] + c) % q
            cur[idx] = (cur[idx] - a * c) % q
        run = 1
        for i in range(size - 1, 0, -1):
            run = run * h[i][i - 1] % q
            t = h[i - 1][size - 1] * run % q
            if t:
                for idx, c in enumerate(polys[i - 1]):
                    cur[idx] = (cur[idx] - t * c) % q
        polys.append(cur)
    return polys[n]


def _poly_roots(coeffs: list[int], q: int) -> list[int]:
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        if acc == 0:
            roots.append(x)
    return roots


# ---------------------------------------------------------------------------
# character degrees


def _splitting_prime(order: int, exponent: int) -> int:
    m = 1
    while m <= 10**6:
        q = m * exponent + 1
        if q * q > 4 * order and is_prime(q):
            return q
        m += 1
    raise InternalCheckError("no splitting prime found below the search bound")


def _class_matrix(g: PermGroup, i: int) -> list[dict[int, int]]:
    """M_i[j][k] = number of ways a fixed element of class k splits as x*y
    with x in class i and y in class j; row j is a dict of its nonzero entries."""
    classes = g.conjugacy_classes()
    class_of = g.class_of()
    elements, index = g.elements, g.index
    mat: list[dict[int, int]] = [{} for _ in classes]
    xs = [_gather(perm_inv(elements[idx])) for idx in g.class_members()[i]]
    for kk, c in enumerate(classes):
        for xinv in xs:
            row = mat[class_of[index[xinv(c.rep)]]]
            row[kk] = row.get(kk, 0) + 1
    return mat


def char_degrees(g: PermGroup) -> tuple[int, ...]:
    """Sorted multiset of irreducible character degrees: the products of the
    factors' degrees for a recorded direct product, the hook-length degrees
    for a named S_n or A_n, the closed-form ones and twos for a named D_n,
    all ones for an abelian group, else class-matrix eigensplitting.  Every
    route must give one degree per conjugacy class of g with squares
    summing to |g|."""
    if g._degrees is not None:
        return g._degrees
    if g.factors:
        degrees = sorted(_product_degrees(g))
    elif g.family:
        fam, n = _checked_family(g)
        degrees = sorted(_dihedral_degrees(n) if fam == "D" else _hook_degrees(fam, n))
    elif len(g.conjugacy_classes()) == g.order:  # abelian: every irreducible is linear
        degrees = [1] * g.order
    else:
        degrees = sorted(_split_degrees(g))
    if len(degrees) != len(g.conjugacy_classes()) or sum(d * d for d in degrees) != g.order:
        raise InternalCheckError("character degrees fail the class-count or sum-of-squares check")
    g._degrees = tuple(degrees)
    return g._degrees


def _product_degrees(g: PermGroup) -> list[int]:
    """Irr(G1 x ... x Gr) = {chi1 (x) ... (x) chir}: all products of one degree per factor."""
    degrees = [1]
    for f in _checked_factors(g):
        degrees = [d * e for d in degrees for e in char_degrees(f)]
    return degrees


def _split_degrees(g: PermGroup) -> list[int]:
    """Degrees from the common eigenlines of the class matrices over F_q."""
    classes = g.conjugacy_classes()
    k = len(classes)
    order = g.order
    q = _splitting_prime(order, g.exponent())

    # split the class algebra into common eigenlines
    spaces: list[list[list[int]]] = [[[1 if r == s else 0 for r in range(k)] for s in range(k)]]
    for i in range(k):
        if all(len(w) == 1 for w in spaces):
            break
        if i == g.class_of()[g.identity_index]:
            continue
        mat = _class_matrix(g, i)
        refined: list[list[list[int]]] = []
        for w in spaces:
            if len(w) == 1:
                refined.append(w)
                continue
            # w is in reduced echelon form: a vector of its span has its
            # coordinates at the pivots, each row's first nonzero entry, a 1
            pivots = [v.index(1) for v in w]
            images = [_mat_vec(mat, v, q) for v in w]
            # matrix of the class operator restricted to span(w), in basis w
            rt = [[img[p] for img in images] for p in pivots]
            if any(_combination([img[p] for p in pivots], w, q) != img for img in images):
                raise InternalCheckError("subspace is not invariant under the class matrix")
            total = 0
            for lam in _poly_roots(_charpoly(rt, q), q):
                shifted = [
                    [(rt[a][b] - (lam if a == b else 0)) % q for b in range(len(w))]
                    for a in range(len(w))
                ]
                eigenspace = [_combination(coords, w, q) for coords in _kernel(shifted, q)]
                if eigenspace:
                    if len(_row_reduce(eigenspace, k, q)) != len(eigenspace):
                        raise InternalCheckError("subspace basis is rank-deficient")
                    refined.append(eigenspace)
                    total += len(eigenspace)
            if total != len(w):
                raise InternalCheckError("class-matrix eigenspaces failed to split")
        spaces = refined
    if any(len(w) != 1 for w in spaces):
        raise InternalCheckError("class matrices did not split the class algebra")

    class_of, index = g.class_of(), g.index
    id_class = class_of[g.identity_index]
    inv_class = [class_of[index[perm_inv(c.rep)]] for c in classes]
    sqrt_table = {d * d % q: d for d in range(1, isqrt(order) + 1)}
    degrees = []
    for (vec,) in spaces:
        if vec[id_class] % q == 0:
            raise InternalCheckError("central character vanishes on the identity class")
        scale = pow(vec[id_class], -1, q)
        omega = [v * scale % q for v in vec]
        s = 0
        for c in range(k):
            s = (s + omega[c] * omega[inv_class[c]] * pow(classes[c].size, -1, q)) % q
        if s == 0:
            raise InternalCheckError("orthogonality sum vanished")
        d2 = order * pow(s, -1, q) % q
        d = sqrt_table.get(d2)
        if d is None or order % d:
            raise InternalCheckError(f"no valid degree lift for d^2 = {d2} mod {q}")
        degrees.append(d)
    return degrees


# ---------------------------------------------------------------------------
# prime criteria and structural verification


def rep_bad_primes(g: PermGroup) -> dict[int, int]:
    """Primes dividing some irreducible degree, each with a witnessing degree."""
    return prime_witnesses((d, d) for d in char_degrees(g))


def rep_good_primes(g: PermGroup) -> list[int]:
    """Primes dividing |G| that divide no irreducible degree."""
    degrees = char_degrees(g)
    return [p for p in prime_factors(g.order) if all(d % p for d in degrees)]


class ItoMichlerReport(NamedTuple):
    prime: int
    applicable: bool
    offending_degree: int | None
    sylow_order: int | None
    complement_order: int | None
    sylow_abelian: bool | None
    sylow_normal: bool | None
    reason: str | None = None


def ito_michler_verify(g: PermGroup, p: int) -> ItoMichlerReport:
    """Check the Ito-Michler theorem at p, both ways: p divides no
    irreducible degree exactly when the Sylow p-subgroup is normal and
    abelian (`_sylow_structure`).  A failure either way is an internal
    violation, since the theorem is unconditional."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if g.order % p:
        return ItoMichlerReport(p, False, None, None, None, None, None,
                                reason=f"{p} does not divide the group order")
    offending = next((d for d in char_degrees(g) if d % p == 0), None)
    normal, abelian = _sylow_structure(g, p)
    if (offending is None) != abelian:
        degrees = "divides no degree" if offending is None else f"divides the degree {offending}"
        raise InternalCheckError(
            f"Ito-Michler violation for p={p}: p {degrees}, but the Sylow {p}-subgroup "
            f"has normal={normal}, abelian={abelian}"
        )
    if offending is not None:
        return ItoMichlerReport(p, False, offending, None, None, None, None,
                                reason=f"{p} divides the irreducible degree {offending}")
    sylow = p_part(g.order, p)
    return ItoMichlerReport(p, True, None, sylow, g.order // sylow, True, True)


def _sylow_structure(g: PermGroup, p: int) -> tuple[bool, bool]:
    """Whether the Sylow p-subgroup P is normal, and whether it is normal
    and abelian, from the classes alone.

    The p-elements are the classes whose representative has p-power order;
    they cover every Sylow p-subgroup, so P is normal exactly when they
    number |G|_p.  A normal P is abelian exactly when p divides none of
    their class sizes: C_G(x) has p'-index exactly when it contains a
    Sylow p-subgroup, which is then P.
    """
    sizes = [c.size for c in g.conjugacy_classes() if p_part(c.order, p) == c.order]
    normal = sum(sizes) == p_part(g.order, p)
    return normal, normal and all(size % p for size in sizes)


# ---------------------------------------------------------------------------
# double cosets and stabilizers


# per level of a stabilizer chain: the gather of the orbit's points, and a gather per point
_Chain = list[tuple[Callable[[Perm], Perm], list[Callable[[Perm], Perm] | None]]]


def _coset_chain(h: PermGroup) -> _Chain:
    """H's stabilizer chain on the base points 0, 1, 2, ..., read off its
    sorted table.  Level k holds the elements of H that fix 0, ..., k-1, and
    an element that moves k first lies there.  Per level: a gather y ->
    (y[k], y[b], ...) of the orbit of k, k first, and for each point b of
    it one element t with t[k] = b, as the gather y -> t*y (none for k).
    Levels whose orbit is {k} alone are left out."""
    levels: dict[int, dict[int, Callable[[Perm], Perm] | None]] = {}
    for a in h.elements:
        k = next((i for i, v in enumerate(a) if v != i), None)
        if k is not None:
            moves = levels.setdefault(k, {k: None})
            if a[k] not in moves:
                moves[a[k]] = _gather(a)
    return [(itemgetter(*moves), list(moves.values())) for _, moves in sorted(levels.items())]


def _least_in_coset(chain: _Chain, y: Perm) -> Perm:
    """min{h*y : h in H}, the least element of the coset Hy, greedily down
    H's chain: the elements of level k leave the entries before k alone,
    and t*y has y[t[k]] at k, so the least y[b] over the orbit of k fixes
    entry k."""
    for orbit_values, moves in chain:
        values = orbit_values(y)
        i = values.index(min(values))
        if i:
            y = moves[i](y)
    return y


def double_coset_orbits(g: PermGroup, h: PermGroup) -> list[tuple[Perm, int, PermGroup]]:
    """Double cosets HxH as the H-orbits on the right cosets H\\G, one pass.

    Each coset Hy is named by its least element, found greedily down H's
    chain (`_least_in_coset`).  The cosets are the orbit of H under right
    multiplication by G's generators, |G|/|H| of them; nothing of G is
    enumerated.  Returns (x, |HxH|, K) per double coset, ordered by x, the
    lexicographically minimal element of HxH and so the least name in its
    orbit; K = H n x^-1 H x is the stabilizer of the coset Hx, generated
    by the orbit's Schreier generators.  H = G is one double coset, led by
    the identity, with stabilizer H.
    Within one call every distinct stabilizer subgroup is one `PermGroup`,
    so its classes and degrees are computed once: H itself for an orbit of
    length 1, the group already built for a Schreier generator set already
    seen (every free orbit shares one trivial group), and an earlier
    stabilizer for a new closure with the same element table.  Nothing is
    kept between calls.
    """
    if not g.is_subgroup(h):
        raise PreconditionError("H is not a subgroup of G")
    identity = perm_identity(g.degree)
    if h.order == g.order:
        return [(identity, g.order, h)]
    chain = _coset_chain(h)
    count = g.order // h.order
    cosets = {identity}
    found = [identity]  # walked as it grows
    for y in found:
        gy = _gather(y)
        for s in g.generators:
            c = _least_in_coset(chain, gy(s))
            if c not in cosets:
                cosets.add(c)
                found.append(c)
                if len(found) > count:
                    raise InternalCheckError("more right cosets of H than |G|/|H|")
    if len(found) * h.order != g.order:
        raise InternalCheckError("the number of cosets times |H| is not |G|")
    by_schreier: dict[frozenset[Perm], PermGroup] = {}
    by_table: dict[tuple[Perm, ...], PermGroup] = {}
    done: set[Perm] = set()
    out = []
    # the least name whose coset is not done is the minimum of its double coset
    for x in sorted(cosets):
        if x in done:
            continue
        transversal = {x: identity}  # coset c -> t in H with (Hx)t = c
        orbit = [x]
        schreier = set()
        gx = _gather(x)
        for c in orbit:
            gt = _gather(transversal[c])
            for s in h.generators:
                ts = gt(s)
                d = _least_in_coset(chain, gx(ts))
                if d not in transversal:
                    transversal[d] = ts
                    orbit.append(d)
                elif ts != transversal[d]:  # else the Schreier generator is the identity
                    schreier.add(perm_mul(ts, perm_inv(transversal[d])))
        done.update(orbit)
        if len(orbit) == 1:  # Hx = Hxh for every h: the Schreier generators are h's own
            stab = h
        else:
            key = frozenset(schreier)
            stab = by_schreier.get(key)
            if stab is None:
                stab = PermGroup.from_generators(sorted(schreier) or [identity], h.cap)
                stab = by_schreier[key] = by_table.setdefault(tuple(stab.elements), stab)
        if len(orbit) * stab.order != h.order:
            raise InternalCheckError("orbit length times stabilizer order is not |H|")
        out.append((x, len(orbit) * h.order, stab))
    if sum(size for _, size, _ in out) != g.order:
        raise InternalCheckError("double cosets do not partition the group")
    return out


def double_cosets(g: PermGroup, h: PermGroup) -> list[tuple[Perm, int]]:
    """Partition of G into sets HxH; representatives are lexicographically
    minimal and the list is ordered by representative."""
    return [(x, size) for x, size, _ in double_coset_orbits(g, h)]


def stabilizer_intersection(g: PermGroup, h: PermGroup, x: Perm) -> PermGroup:
    """The subgroup H n xHx^-1 of G, built from the definition.  This is
    the stabilizer of the coset Hx^-1, not of Hx: the stabilizer of Hx that
    `double_coset_orbits` gives is H n x^-1 H x, this group at x^-1, and
    the tests check it so."""
    if not g.is_subgroup(h):
        raise PreconditionError("H is not a subgroup of G")
    x = _pad(x, g.degree)
    if x not in g:
        raise PreconditionError("x is not an element of G")
    xinv = perm_inv(x)
    elems = [y for y in h.elements if perm_mul(perm_mul(xinv, y), x) in h.index]
    stab = h.subgroup(elems)
    if stab.order != len(elems):
        raise InternalCheckError("element set is not closed under products")
    return stab


# ---------------------------------------------------------------------------
# built-in groups


def _symmetric(n: int) -> list[Perm]:
    if n < 2:
        return [perm_identity(max(n, 1))]
    gens = [parse_perm("(1 2)", n)]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return gens


def _alternating(n: int) -> list[Perm]:
    if n < 3:
        return [perm_identity(max(n, 1))]
    three = parse_perm("(1 2 3)", n)
    if n == 3:
        return [three]
    if n % 2:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])
    return [three, big]


@lru_cache
def _family_generators(family: str, n: int) -> tuple[Perm, ...]:
    """The builtin Sn's, An's or Dn's generators, built once per (family, n)."""
    return tuple({"S": _symmetric, "A": _alternating, "D": _dihedral}[family](n))


def _cyclic(n: int) -> list[Perm]:
    return [tuple(list(range(1, n)) + [0])] if n > 1 else [perm_identity(1)]


def _dihedral(order: int) -> list[Perm]:
    if order < 6 or order % 2:
        raise PreconditionError("dihedral builtin needs an even order >= 6")
    m = order // 2
    rot = tuple(list(range(1, m)) + [0])
    ref = tuple((m - i) % m for i in range(m))
    return [rot, ref]


def _quaternion8() -> list[Perm]:
    """i and j acting on the right of the units 1, -1, i, -i, j, -j, k, -k."""
    return [parse_perm("(1 3 2 4)(5 8 6 7)", 8), parse_perm("(1 5 2 6)(3 7 4 8)", 8)]


def _sl23() -> list[Perm]:
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def act(m: tuple[tuple[int, int], tuple[int, int]]) -> Perm:
        return tuple(
            idx[((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)]
            for a, b in vecs
        )

    return [act(((1, 1), (0, 1))), act(((0, 2), (1, 0)))]


def _direct_product(gs: tuple[PermGroup, ...], cap: int) -> PermGroup:
    """G1 x ... x Gr on the disjoint union of the factors' points; nothing
    of the product is enumerated until something asks for it."""
    return PermGroup(sum(g.degree for g in gs), _product_generators(gs), factors=gs, cap=cap)


def _builtin_factor(name: str, cap: int) -> tuple[int, int, Callable[[], PermGroup]]:
    """The order and degree of a named group that is not a product, read off
    its name, and a function that builds the group under the cap."""
    m = re.fullmatch(r"([SACDsacd])0*(\d+)", name)
    if m:
        fam, digits = m.group(1).upper(), m.group(2)
        if len(digits) > len(str(cap)):  # n > cap, and the order is at least n
            raise _cap_exceeded(cap)
        n = int(digits)
        if n < 1:
            raise PreconditionError(f"bad group name {name!r}")
        if fam in "SA":
            # n!, stopped once past 2 * cap: n! and n!/2 are then both past the cap
            order = 1
            for i in range(2, n + 1):
                order *= i
                if order > 2 * cap:
                    break
            if fam == "A" and n > 1:
                order //= 2
            # answers from the partitions of n; no table until one is asked for
            return order, n, lambda: PermGroup(n, _family_generators(fam, n),
                                               family=(fam, n), cap=cap)
        if fam == "D":
            # answers from its rotations and reflections; no table until one is asked for
            return n, n // 2, lambda: PermGroup(n // 2, _family_generators("D", n), family=("D", n), cap=cap)
        return n, n, lambda: PermGroup.from_generators(_cyclic(n), cap)
    if name.upper() == "Q8":
        return 8, 8, lambda: PermGroup.from_generators(_quaternion8(), cap)
    if name.upper() == "SL23":
        return 24, 8, lambda: PermGroup.from_generators(_sl23(), cap)
    raise PreconditionError(f"unknown builtin group {name!r}")


def builtin_group(name: str, cap: int | None = None) -> PermGroup:
    """Named groups: Sn, An, Cn, Dn (dihedral of order n), Q8, SL23,
    and direct products joined with 'x' (e.g. S3xC4).

    The order and the element table's size (the product of the factors'
    orders times the sum of their degrees) are read off the name and
    checked against the cap before any permutation is built.  The group,
    and each factor of a product, records the cap.
    """
    cap = enum_cap(cap)
    names = name.strip().split("x")
    if any(not part.strip() for part in names):
        raise PreconditionError(f"bad group name {name!r}: a factor is empty")
    parts = [_builtin_factor(part.strip(), cap) for part in names]
    order = prod(order for order, _, _ in parts)
    if order > cap:
        raise _cap_exceeded(cap)
    if order * sum(degree for _, degree, _ in parts) > TABLE_FACTOR * cap:
        raise _table_exceeded(cap)
    groups = tuple(build() for _, _, build in parts)
    return groups[0] if len(groups) == 1 else _direct_product(groups, cap)
