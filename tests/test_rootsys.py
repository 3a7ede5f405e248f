from math import comb

import numpy as np
import pytest

from fuscat.errors import PreconditionError
from fuscat.rootsys import alcove_size, alcove_walk, build_root_system, enumerate_alcove, pairing, rho_pairing

ALL_LABELS = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]

KNOWN_COXETER = {
    **{f"A{n}": n + 1 for n in range(1, 9)},
    **{f"D{n}": 2 * n - 2 for n in range(4, 9)},
    "E6": 12,
    "E7": 18,
    "E8": 30,
}


def test_a1():
    rs = build_root_system("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.coxeter_number == 2
    assert rs.highest_root == (1,)


def test_a2_closure():
    rs = build_root_system("A2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.coxeter_number == 3
    assert len(rs.positive_roots) == rs.coxeter_number * rs.rank // 2


def test_e8_counts():
    rs = build_root_system("E8")
    assert len(rs.positive_roots) == 120
    assert rs.coxeter_number == 30


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_counts_and_heights(label):
    rs = build_root_system(label)
    h = rs.coxeter_number
    assert h == KNOWN_COXETER[label]
    assert len(rs.positive_roots) == h * rs.rank // 2
    heights = sorted(sum(r) for r in rs.positive_roots)
    assert heights[0] == 1 and heights[-1] == h - 1
    assert heights.count(1) == rs.rank
    assert heights.count(h - 1) == 1
    assert set(heights) == set(range(1, h))
    # Cartan matrix symmetric with diagonal 2
    for i in range(rs.rank):
        assert rs.cartan[i][i] == 2
        for j in range(rs.rank):
            assert rs.cartan[i][j] == rs.cartan[j][i]


@pytest.mark.parametrize("bad", ["B2", "F4", "G2", "A0", "A9", "D3", "E5", "E9", "X4", ""])
def test_invalid_labels(bad):
    with pytest.raises(PreconditionError):
        build_root_system(bad)


def test_pairings():
    rs = build_root_system("D4")
    zero = (0,) * rs.rank
    for i in range(rs.rank):
        simple = tuple(1 if j == i else 0 for j in range(rs.rank))
        assert rho_pairing(simple) == 1
        assert pairing(zero, simple) == 1
    assert rho_pairing(rs.highest_root) == rs.coxeter_number - 1
    # A1 with weight m: (lambda + rho, alpha) = m + 1
    a1 = build_root_system("A1")
    for m in range(5):
        assert pairing((m,), a1.positive_roots[0]) == m + 1


def test_alcove_a1():
    rs = build_root_system("A1")
    assert enumerate_alcove(rs, 8) == [(m,) for m in range(7)]
    assert enumerate_alcove(rs, 3) == [(0,), (1,)]


def test_alcove_a2_against_direct_enumeration():
    rs = build_root_system("A2")
    brute = [
        (a, b)
        for a in range(10)
        for b in range(10)
        if (a + 1) + (b + 1) < 5
    ]
    assert enumerate_alcove(rs, 5) == sorted(brute)
    assert len(enumerate_alcove(rs, 5)) == 6


@pytest.mark.parametrize("label,l", [("A1", 3), ("A2", 7), ("D4", 9), ("E6", 13)])
def test_alcove_properties(label, l):
    rs = build_root_system(label)
    weights = enumerate_alcove(rs, l)
    assert weights == sorted(weights)
    assert (0,) * rs.rank in weights
    for w in weights:
        assert all(v >= 0 for v in w)
        assert pairing(w, rs.highest_root) < l


def test_alcove_requires_l_above_h():
    rs = build_root_system("A2")
    with pytest.raises(PreconditionError):
        enumerate_alcove(rs, rs.coxeter_number)


@pytest.mark.parametrize("label", ["A1", "A2", "D4", "E8"])
def test_the_walk_refuses_a_level_at_or_below_h_when_it_is_created(label):
    rs = build_root_system(label)
    for l in (rs.coxeter_number, rs.coxeter_number - 1, 1, 0, -3):
        with pytest.raises(PreconditionError, match=f"level l={l} must exceed the Coxeter number"):
            alcove_walk(rs, l)  # the call refuses, before any weight is asked for


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8"])
def test_alcove_size_counts_the_enumerated_alcove(label):
    rs = build_root_system(label)
    h = rs.coxeter_number
    for l in range(h + 1, h + 12):
        assert alcove_size(rs, l) == len(enumerate_alcove(rs, l))
    # only 0 lies in the level-h alcove, and nothing below it
    assert alcove_size(rs, h) == 1 and alcove_size(rs, h - 1) == alcove_size(rs, -5) == 0


@pytest.mark.parametrize("label", ["A1", "A3", "D4", "E6", "E8"])
def test_alcove_size_stops_just_above_the_limit(label):
    rs = build_root_system(label)
    for l in range(rs.coxeter_number + 1, rs.coxeter_number + 12):
        count = alcove_size(rs, l)
        for limit in (1, count - 1, count, count + 1):
            if limit >= 1:
                assert alcove_size(rs, l, limit) == min(count, limit + 1)


@pytest.mark.parametrize("rank", [1, 2, 4, 8])
def test_type_a_alcove_size_is_a_binomial(rank):
    rs = build_root_system(f"A{rank}")
    for l in (rank + 2, 15, 101, 1001):
        assert alcove_size(rs, l) == comb(l - 1, rank)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_roots_are_the_norm_two_vectors_below_theta(label):
    # oracle: a positive root of a simply-laced system is exactly a vector
    # beta with 0 <= beta <= theta coefficient-wise and (beta, beta) = 2
    rs = build_root_system(label)
    below = np.indices([t + 1 for t in rs.highest_root]).reshape(rs.rank, -1).T
    norms = np.einsum("ni,ij,nj->n", below, np.array(rs.cartan), below)
    assert set(rs.positive_roots) == {tuple(map(int, beta)) for beta in below[norms == 2]}
