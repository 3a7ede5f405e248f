"""The gather kernel behind every permutation product, checked against the
per-point product it replaced, and the shortcuts that ride on it: all-ones
degrees for abelian groups and the class criterion for a normal abelian
Sylow subgroup, checked against the element-level route it replaced."""

import importlib.util
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuscat.finitegroup as finitegroup
from fuscat.arith import p_part, prime_factors
from fuscat.finitegroup import (
    PermGroup,
    _gather,
    _split_degrees,
    _sylow_structure,
    builtin_group,
    char_degrees,
    ito_michler_verify,
    parse_gens,
    perm_inv,
    perm_mul,
    perm_order,
)
from test_finitegroup import PRODUCTS

ROOT = Path(__file__).resolve().parents[1]


def _survey_corpus():
    spec = importlib.util.spec_from_file_location("group_survey", ROOT / "scripts" / "group_survey.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CORPUS


def pointwise_mul(a, b):
    """a*b point by point: a first, then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def pointwise_elements(gens, degree):
    """Closure of the generators under right multiplication u -> u*s."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            for s in gens:
                v = pointwise_mul(u, s)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


def pointwise_classes(elements, gens):
    """(rep, sorted member indices) per class, conjugating by two products."""
    index = {x: i for i, x in enumerate(elements)}
    inv_gens = [perm_inv(s) for s in gens]
    class_of = [-1] * len(elements)
    out = []
    for start in range(len(elements)):
        if class_of[start] >= 0:
            continue
        class_of[start] = len(out)
        orbit = [start]
        queue = [start]
        while queue:
            x = elements[queue.pop()]
            for s, si in zip(gens, inv_gens):
                j = index[pointwise_mul(pointwise_mul(si, x), s)]
                if class_of[j] < 0:
                    class_of[j] = len(out)
                    orbit.append(j)
                    queue.append(j)
        out.append((elements[start], tuple(sorted(orbit))))
    return out


perms = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


@settings(max_examples=300, deadline=None)
@given(perms)
def test_gather_is_the_pointwise_product(pair):
    a, b = map(tuple, pair)
    assert perm_mul(a, b) == pointwise_mul(a, b)
    assert _gather(a)(b) == pointwise_mul(a, b)
    assert perm_mul(a, perm_inv(a)) == tuple(range(len(a)))


def test_degree_one_gather_is_a_tuple():
    assert _gather((0,))((0,)) == (0,)
    assert perm_mul((0,), (0,)) == (0,)


def _corpus_groups():
    for name in [*_survey_corpus(), "S1", "C1"]:
        yield pytest.param(lambda name=name: builtin_group(name), id=name)
    yield pytest.param(lambda: PermGroup.from_generators(parse_gens("e")), id="gens-e")


@pytest.mark.parametrize("build", list(_corpus_groups()))
def test_kernel_route_matches_the_pointwise_route(build):
    g = build()
    # a product's classes come from its factors, and a named Sn's or An's
    # from the partitions of n; the element table is built only when asked
    # for below
    lazy = bool(g.factors or g.family)
    assert (g._elements is None) == lazy
    g.conjugacy_classes()
    assert (g._elements is None) == lazy
    assert g.elements == pointwise_elements(g.generators, g.degree)
    classes = [c.rep for c in g.conjugacy_classes()]
    assert list(zip(classes, g.class_members())) == pointwise_classes(g.elements, g.generators)
    assert g.exponent() == lcm(*map(perm_order, g.elements))


@pytest.mark.parametrize("gens", [
    "(1 2 3 4 5 6), (7 8)",        # C6 x C2
    "(1 2), (3 4), (5 6)",          # C2 x C2 x C2
    "(1 2 3 4 5 6 7 8 9 10 11 12)",  # C12
])
def test_abelian_shortcut_against_the_class_matrix_route(monkeypatch, gens):
    oracle = _split_degrees(PermGroup.from_generators(parse_gens(gens)))
    called = []
    monkeypatch.setattr(finitegroup, "_split_degrees", lambda g: called.append(g))
    g = PermGroup.from_generators(parse_gens(gens))
    assert not g.factors
    assert char_degrees(g) == tuple(sorted(oracle)) == (1,) * g.order
    assert called == []


def pairwise_closed_and_abelian(s):
    sset = set(s)
    closed = all(perm_mul(a, b) in sset for a in s for b in s)
    abelian = all(perm_mul(a, b) == perm_mul(b, a) for a in s for b in s)
    return closed, abelian


def element_sylow_structure(g, p):
    """The element-level route: whether the Sylow p-subgroup is normal, and
    whether it is normal and abelian.  The p-elements S of the element table
    form a normal Sylow p-subgroup exactly when there are |G|_p of them,
    closed under products and under conjugation by the generators; it is
    abelian when they commute pairwise."""
    s = [x for x in g.elements if p_part(o := perm_order(x), p) == o]
    closed, abelian = pairwise_closed_and_abelian(s)
    sset = set(s)
    invariant = all(perm_mul(perm_mul(perm_inv(y), x), y) in sset for x in s for y in g.generators)
    normal = len(s) == p_part(g.order, p) and closed and invariant
    return normal, normal and abelian


def _sylow_groups():
    for name in dict.fromkeys([*_survey_corpus(), *PRODUCTS, "C27"]):
        yield pytest.param(lambda name=name: builtin_group(name), id=name)
    for name, gens in [
        ("F20", "(1 2 3 4 5), (2 3 5 4)"),          # normal C5, Sylow C4 not normal
        ("PSL27", "(1 2 3 4 5 6 7), (1 2)(3 6)"),   # simple: no normal Sylow
        ("D8xC3", "(1 2 3 4), (1 3), (5 6 7)"),     # normal non-abelian Sylow D8
    ]:
        yield pytest.param(lambda gens=gens: PermGroup.from_generators(parse_gens(gens)), id=f"gens-{name}")


@pytest.mark.parametrize("build", list(_sylow_groups()))
def test_class_criterion_against_the_element_oracle(build):
    g = build()
    primes = prime_factors(g.order)
    structures = [_sylow_structure(g, p) for p in primes]
    for p, (_, normal_abelian) in zip(primes, structures):
        report = ito_michler_verify(g, p)  # raises unless the degrees agree
        assert report.applicable == normal_abelian == all(d % p for d in char_degrees(g)), p
    # a product answers from its factors' classes, and a named Sn or An
    # from the partitions of n, off its own element table
    assert (g._elements is None) == bool(g.factors or g.family)
    assert structures == [element_sylow_structure(g, p) for p in primes]


def test_class_criterion_sees_both_failures():
    for name, p, structure in [
        ("S3", 2, (False, False)),  # three Sylow 2-subgroups
        ("A4", 3, (False, False)),  # the 3-elements generate A4
        ("Q8", 2, (True, False)),   # normal, not abelian
        ("A4", 2, (True, True)),    # the Klein four-group
    ]:
        g = builtin_group(name)
        assert _sylow_structure(g, p) == element_sylow_structure(g, p) == structure, (name, p)
