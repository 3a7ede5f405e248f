"""The coset-orbit route for double cosets and stabilizers, checked against
the definitions: each HxH built as a set of |H|^2 products, and H n xHx^-1
built by `stabilizer_intersection`."""

import random

import pytest

import fuscat.finitegroup as finitegroup
import fuscat.gtcat as gtcat
from fuscat.cli import main
from fuscat.finitegroup import (
    PermGroup,
    builtin_group,
    char_degrees,
    double_coset_orbits,
    double_cosets,
    parse_gens,
    perm_inv,
    perm_mul,
    stabilizer_intersection,
)


def set_built_double_cosets(g, h):
    """Partition of G into the sets HxH, scanning G in increasing order."""
    covered = set()
    out = []
    for x in g.elements:
        if x in covered:
            continue
        coset = {perm_mul(perm_mul(a, x), b) for a in h.elements for b in h.elements}
        covered |= coset
        out.append((x, len(coset)))
    if len(covered) != g.order:
        raise AssertionError("double cosets do not cover the group")
    return out


def subgroups(g, rng):
    yield g.subgroup(parse_gens("e", g.degree))
    yield g
    for _ in range(4):
        yield g.subgroup([rng.choice(g.elements), rng.choice(g.elements)])


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "D12", "Q8", "S3xC4"])
def test_orbit_route_matches_the_definitions(name):
    rng = random.Random(name)
    g = builtin_group(name)
    for h in subgroups(g, rng):
        orbits = double_coset_orbits(g, h)
        reference = set_built_double_cosets(g, h)
        assert [(x, size) for x, size, _ in orbits] == reference
        assert double_cosets(g, h) == reference
        for x, size, stab in orbits:
            if size == h.order:  # HxH = Hx: the stabilizer is H itself, not a copy
                assert stab is h
            # the stabilizer of the coset Hx is H n x^-1 H x
            xinv = perm_inv(x)
            expected = [y for y in h.elements if perm_mul(perm_mul(x, y), xinv) in h]
            assert stab.elements == expected
            conjugate = stabilizer_intersection(g, h, x)
            assert stab.order == conjugate.order
            assert char_degrees(stab) == char_degrees(conjugate)


def test_one_stabilizer_object_per_distinct_subgroup():
    g = builtin_group("S7")
    orbits = double_coset_orbits(g, g.subgroup(parse_gens("(1 2 3 4),(1 2)", 7)))
    assert len(orbits) == 34
    assert len({id(k) for _, _, k in orbits}) == len({tuple(k.elements) for _, _, k in orbits}) == 4


def test_free_orbits_share_one_trivial_stabilizer(monkeypatch):
    g = builtin_group("S7")
    h = g.subgroup(parse_gens("(1 2 3 4 5)", 7))
    closures = []
    from_generators = PermGroup.from_generators

    def spy(generators, cap=None):
        closures.append(generators)
        return from_generators(generators, cap)

    monkeypatch.setattr(PermGroup, "from_generators", spy)
    orbits = double_coset_orbits(g, h)
    free = [k for _, size, k in orbits if size == h.order**2]
    assert len(orbits) == 208 and len(free) == 200
    assert len({id(k) for k in free}) == 1 and free[0].order == 1
    assert len(closures) <= 2


@pytest.mark.parametrize("action", ["simples", "badprimes"])
def test_one_orbit_pass_per_gtcat_request(monkeypatch, capsys, action):
    calls = []
    orbits = finitegroup.double_coset_orbits

    def counting(g, h):
        calls.append((g.order, h.order))
        return orbits(g, h)

    def definitional_route(*args):
        raise AssertionError("the definitional stabilizer route was reached")

    monkeypatch.setattr(finitegroup, "double_coset_orbits", counting)
    monkeypatch.setattr(gtcat, "double_coset_orbits", counting)
    monkeypatch.setattr(finitegroup, "stabilizer_intersection", definitional_route)
    code = main(["gtcat", action, "--group", "S4", "--subgroup-gens", "(1 2),(3 4)"])
    capsys.readouterr()
    assert code == 0
    assert calls == [(24, 4)]


def test_two_orbit_passes_per_crosscheck_group(monkeypatch, capsys):
    # one pass for H = G and one for H = e, shared by the verdicts and the double cosets
    calls = []
    orbits = finitegroup.double_coset_orbits

    def counting(g, h):
        calls.append((g.order, h.order))
        return orbits(g, h)

    monkeypatch.setattr(finitegroup, "double_coset_orbits", counting)
    monkeypatch.setattr(gtcat, "double_coset_orbits", counting)
    code = main(["crosscheck", "--group", "S4"])
    capsys.readouterr()
    assert code == 0
    assert calls == [(24, 24), (24, 1)]
