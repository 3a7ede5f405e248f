"""Simply-laced root systems (types A, D, E) and the walk of the alcove.

Roots are stored in simple-root coordinates and weights in fundamental-weight
coordinates; with the normalization (alpha, alpha) = 2 every pairing used
here is an integer dot product, so the module stays in integer arithmetic.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import InternalCheckError, PreconditionError

MAX_RANK = 8

Weight = tuple[int, ...]
Root = tuple[int, ...]

_COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}}


class RootSystem(NamedTuple):
    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root
    coxeter_number: int


def _parse_label(label: str) -> tuple[str, int]:
    m = re.fullmatch(r"\s*([ADEade])\s*(\d+)\s*", label)
    if not m:
        raise PreconditionError(f"cannot parse root-system label {label!r}")
    family, rank = m.group(1).upper(), int(m.group(2))
    if rank < 1 or rank > MAX_RANK:
        raise PreconditionError(f"rank {rank} outside the supported range 1..{MAX_RANK}")
    if family == "D" and rank < 4:
        raise PreconditionError("type D needs rank >= 4")
    if family == "E" and rank not in (6, 7, 8):
        raise PreconditionError("type E exists for ranks 6, 7, 8 only")
    return family, rank


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    edges: list[tuple[int, int]] = []
    if family == "A":
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    else:
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    return tuple(tuple(row) for row in mat)


@lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """Construct positive roots by closure from the simple roots: in a
    simply-laced system, beta + alpha_i is a root exactly when
    (beta, alpha_i) = -1."""
    family, rank = _parse_label(label)
    cartan = _cartan_matrix(family, rank)
    found: set[Root] = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    frontier = list(found)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                if sum(b * row[i] for b, row in zip(beta, cartan)) == -1:
                    cand = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if cand not in found:
                        found.add(cand)
                        nxt.append(cand)
        frontier = nxt
    roots = sorted(found, key=lambda r: (sum(r), r))
    heights = [sum(r) for r in roots]
    h = heights[-1] + 1
    expected_h = _COXETER[family][rank] if family == "E" else _COXETER[family](rank)
    if h != expected_h:
        raise InternalCheckError(f"{label}: derived Coxeter number {h} != {expected_h}")
    if len(roots) != h * rank // 2:
        raise InternalCheckError(f"{label}: {len(roots)} positive roots, expected {h * rank // 2}")
    if heights.count(h - 1) != 1 or sorted(set(heights)) != list(range(1, h)):
        raise InternalCheckError(f"{label}: positive-root heights are inconsistent")
    return RootSystem(
        label=f"{family}{rank}",
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(roots),
        highest_root=roots[-1],
        coxeter_number=h,
    )


def pairing(weight: Weight, root: Root) -> int:
    """(lambda + rho, alpha) for a dominant weight lambda and positive root alpha."""
    return sum(c * (w + 1) for c, w in zip(root, weight))


def rho_pairing(root: Root) -> int:
    """(rho, alpha): the height of alpha."""
    return sum(root)


def alcove_size(rs: RootSystem, l: int, limit: int | None = None) -> int:
    """Number of dominant weights with (lambda + rho, theta) < l, that is of
    w >= 0 with sum marks_i w_i <= l - 1 - sum marks, counted by an
    O(rank * l) recurrence without building a weight.  With a limit, a
    count above it is reported as limit + 1; the recurrence is skipped when
    the multiples of the least mark's fundamental weight alone exceed it."""
    marks = rs.highest_root
    budget = l - 1 - sum(marks)
    if budget < 0:
        return 0
    if limit is not None and budget // min(marks) + 1 > limit:
        return limit + 1
    ways = [1] + [0] * budget  # ways[b]: weights with sum marks_i w_i = b
    for m in marks:
        for b in range(m, budget + 1):
            ways[b] += ways[b - m]
    count = sum(ways)
    return count if limit is None else min(count, limit + 1)


def alcove_walk(rs: RootSystem, l: int) -> Iterator[tuple[Weight, list[int]]]:
    """(weight, [(lambda+rho, alpha) over the positive roots]) for every
    dominant weight with (lambda + rho, theta) < l, in lexicographic order.

    A level l <= h is refused at the call, before the first weight.  The
    pairing is linear in the weight, so it is carried down the recursion
    from the heights (rho, alpha) at the weight 0: raising coordinate i by
    one adds root column i.  A yielded list is never changed afterwards.
    """
    h = rs.coxeter_number
    if l <= h:
        raise PreconditionError(f"level l={l} must exceed the Coxeter number h={h}")
    marks = rs.highest_root
    columns = [[a[i] for a in rs.positive_roots] for i in range(rs.rank)]

    def rec(prefix: Weight, remaining: int, nums: list[int]) -> Iterator[tuple[Weight, list[int]]]:
        idx = len(prefix)
        if idx == rs.rank:
            yield prefix, nums
            return
        col, m = columns[idx], marks[idx]
        for v in range(remaining // m + 1):
            if v:
                nums = [a + c for a, c in zip(nums, col)]
            yield from rec(prefix + (v,), remaining - v * m, nums)

    return rec((), l - 1 - sum(marks), [rho_pairing(a) for a in rs.positive_roots])


def enumerate_alcove(rs: RootSystem, l: int) -> list[Weight]:
    """Dominant weights with (lambda + rho, theta) < l, in lexicographic order."""
    return [w for w, _ in alcove_walk(rs, l)]
