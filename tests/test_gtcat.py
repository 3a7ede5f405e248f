import random
import re

import pytest

import fuscat.finitegroup as finitegroup
import fuscat.gtcat as gtcat
from fuscat.cli import main
from fuscat.errors import InternalCheckError, PreconditionError
from fuscat.finitegroup import PermGroup, builtin_group, char_degrees, parse_gens, rep_bad_primes
from fuscat.gtcat import enumerate_simples, gt_bad_primes


def dims(simples):
    return sorted(s.dimension for s in simples)


def test_full_subgroup_recovers_representation_degrees():
    g = builtin_group("S3")
    assert dims(enumerate_simples(g, g)) == [1, 1, 2]
    g4 = builtin_group("S4")
    assert dims(enumerate_simples(g4, g4)) == sorted(char_degrees(g4))


def test_s3_with_transposition_subgroup():
    # the two-element subgroup gives double cosets of sizes 2 and 4 with
    # stabilizers of orders 2 and 1, reproducing the dimensions {1, 1, 2}
    g = builtin_group("S3")
    h = g.subgroup(parse_gens("(1 2)", 3))
    simples = enumerate_simples(g, h)
    assert dims(simples) == [1, 1, 2]
    assert sum(s.dimension**2 for s in simples) == 6
    assert sorted(s.stabilizer_order for s in simples) == [1, 2, 2]


def test_trivial_subgroup_is_pointed():
    g = builtin_group("A4")
    h = g.subgroup(parse_gens("e", 4))
    simples = enumerate_simples(g, h)
    assert dims(simples) == [1] * 12
    assert gt_bad_primes(g, h) == {}


def test_bad_primes_examples():
    g = builtin_group("S3")
    assert sorted(gt_bad_primes(g, g.subgroup(parse_gens("(1 2)", 3)))) == [2]
    g4 = builtin_group("S4")
    assert sorted(gt_bad_primes(g4, g4)) == [2, 3]


def test_bad_prime_witnesses_divide():
    g = builtin_group("S4")
    h = g.subgroup(parse_gens("(1 2),(3 4)", 4))
    for p, witness in gt_bad_primes(g, h).items():
        assert witness.dimension % p == 0


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "D8", "Q8", "SL23"])
def test_consistency_with_representation_verdicts(name):
    g = builtin_group(name)
    assert set(gt_bad_primes(g, g)) == set(rep_bad_primes(g))


def test_global_dimension_over_random_subgroups():
    rng = random.Random(11)
    for name in ("S3", "A4", "S4", "D12", "S3xC4"):
        g = builtin_group(name)
        for _ in range(4):
            h = g.subgroup([rng.choice(g.elements), rng.choice(g.elements)])
            simples = enumerate_simples(g, h)
            assert sum(s.dimension**2 for s in simples) == g.order
            for p in gt_bad_primes(g, h):
                assert g.order % p == 0  # bad primes divide the global dimension


def test_subgroup_required():
    g = builtin_group("A4")
    with pytest.raises(PreconditionError):
        enumerate_simples(g, builtin_group("S4"))


@pytest.mark.parametrize("name, gens, order, bad", [
    ("S7", "(1 2 3 4 5)", 5, [5]),
    ("S7", "(1 2 3 4),(1 2)", 24, [2, 3]),
    ("S7", "(1 2),(1 2 3 4 5)", 120, [2, 3, 5]),
    ("A7", "(1 2 3),(1 2 4)", 12, [2, 3]),
    ("S6", "(1 2 3 4 5 6)", 6, [2, 3]),
    ("S6", "(1 2),(1 2 3 4 5)", 120, [2, 3, 5]),
])
def test_verdicts_pass_the_sylow_check(monkeypatch, name, gens, order, bad):
    consulted = []
    sylow = gtcat._sylow_structure

    def spy(k, p):
        consulted.append(k.order)
        return sylow(k, p)

    monkeypatch.setattr(gtcat, "_sylow_structure", spy)
    g = builtin_group(name)
    h = g.subgroup(parse_gens(gens, g.degree))
    assert h.order == order
    simples = enumerate_simples(g, h)
    assert list(gt_bad_primes(g, h, simples)) == bad == list(gt_bad_primes(g, h))
    # the second route asked the stabilizers, not the degrees
    assert consulted and all(order % k == 0 for k in consulted)


@pytest.mark.parametrize("name, degrees, by_dimensions, by_sylow", [
    # 2 divides no faked degree, yet S3's Sylow 2-subgroup is not normal
    ("S3", (1,) * 6, [], [2]),
    # 2 divides a faked degree, yet C6's Sylow 2-subgroup is normal and abelian
    ("C6", (1, 1, 2), [2], []),
    # both ways at once: A4's Sylow 3-subgroup is not normal, its Sylow 2-subgroup is
    ("A4", (2, 2, 2), [2], [3]),
])
def test_faked_degrees_fail_the_sylow_check(name, degrees, by_dimensions, by_sylow):
    g = builtin_group(name)
    g._degrees = degrees  # the cache char_degrees answers from; H = G is its own stabilizer
    message = f"the bad primes {by_dimensions}, the stabilizers' Sylow subgroups {by_sylow}"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        gt_bad_primes(g, g)


@pytest.mark.parametrize("argv, verdict", [
    (["gtcat", "badprimes", "--group", "S7", "--subgroup-gens", "(1 2 3 4),(1 2)"], "bad primes: [2, 3]"),
    (["crosscheck", "--group", "D2000"], "crosscheck: 12/12 passed"),
])
def test_one_cycle_walk_per_class_per_group(monkeypatch, capsys, argv, verdict):
    """Every class record carries its order: a named or product group walks
    no cycle, and any other group walks one representative per class, as
    `_enumerate_classes` finds it, and no other."""
    walks = []
    groups = {}  # id -> (group, walks made for it); the group is held, so its id is not reused
    perm_order, enumerate_classes = finitegroup.perm_order, PermGroup._enumerate_classes

    def counted_walk(a):
        walks.append(a)
        return perm_order(a)

    def counted_classes(g):
        before = len(walks)
        out = enumerate_classes(g)
        groups[id(g)] = (g, groups.get(id(g), (g, 0))[1] + len(walks) - before)
        return out

    monkeypatch.setattr(finitegroup, "perm_order", counted_walk)
    monkeypatch.setattr(PermGroup, "_enumerate_classes", counted_classes)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and verdict in out.splitlines()
    # no walk outside `_enumerate_classes`, and none for a named or product group
    assert sum(n for _, n in groups.values()) == len(walks)
    assert all(not (g.factors or g.family) for g, _ in groups.values())
    assert all(n == len(g.conjugacy_classes()) for g, n in groups.values())
