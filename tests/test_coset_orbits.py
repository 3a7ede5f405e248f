"""The coset-orbit route for double cosets and stabilizers, checked against
the definitions (each HxH built as a set of |H|^2 products, and H n xHx^-1
built by `stabilizer_intersection`) and against the element-table pass
that labelled every element of G with its coset."""

import random
from itertools import permutations

import pytest

import fuscat.finitegroup as finitegroup
import fuscat.gtcat as gtcat
from fuscat.cli import CROSSCHECK_CORPUS, main
from fuscat.errors import InternalCheckError
from fuscat.finitegroup import (
    PermGroup,
    _gather,
    builtin_group,
    char_degrees,
    double_coset_orbits,
    double_cosets,
    parse_gens,
    perm_identity,
    perm_inv,
    perm_mul,
    stabilizer_intersection,
)

from test_pool_replay import GTCAT_REQUESTS


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
            # stabilizer_intersection(g, h, y) is H n yHy^-1, the stabilizer of Hy^-1
            conjugate = stabilizer_intersection(g, h, perm_inv(x))
            assert stab.elements == conjugate.elements
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


# --- the element-table pass as the oracle


def table_double_coset_orbits(g, h):
    """The double cosets by the element-table pass: every element of G
    labelled with the least element of its coset Hy, then the same H-orbit
    pass, Schreier generators and stabilizer sharing as the route."""
    elements, index = g.elements, g.index
    coset_of = [-1] * g.order  # element index -> index of the least element of its coset
    h_gathers = [_gather(a) for a in h.elements]
    for i, x in enumerate(elements):
        if coset_of[i] < 0:
            for a in h_gathers:
                coset_of[index[a(x)]] = i
    identity = perm_identity(g.degree)
    by_schreier, by_table = {}, {}
    done = set()
    out = []
    for x, start in zip(elements, coset_of):
        if start in done:
            continue
        transversal = {start: identity}
        orbit = [start]
        schreier = set()
        gx = _gather(x)
        for c in orbit:
            gt = _gather(transversal[c])
            for s in h.generators:
                ts = gt(s)
                d = coset_of[index[gx(ts)]]
                if d in transversal:
                    schreier.add(perm_mul(ts, perm_inv(transversal[d])))
                else:
                    transversal[d] = ts
                    orbit.append(d)
        done.update(orbit)
        schreier.discard(identity)
        if len(orbit) == 1:
            stab = h
        else:
            key = frozenset(schreier)
            stab = by_schreier.get(key)
            if stab is None:
                stab = PermGroup.from_generators(sorted(schreier) or [identity], h.cap)
                stab = by_schreier[key] = by_table.setdefault(tuple(stab.elements), stab)
        assert len(orbit) * stab.order == h.order
        out.append((x, len(orbit) * h.order, stab))
    assert sum(size for _, size, _ in out) == g.order
    return out


def sharing(orbits, h):
    """Per double coset, the first double coset with the same stabilizer
    object, or None where the stabilizer is H itself."""
    first = {}
    return [None if k is h else first.setdefault(id(k), i) for i, (_, _, k) in enumerate(orbits)]


def assert_matches_the_table_pass(g, h):
    orbits = double_coset_orbits(g, h)
    reference = table_double_coset_orbits(g, h)
    assert [(x, size, k.elements) for x, size, k in orbits] == [
        (x, size, k.elements) for x, size, k in reference
    ]
    assert sharing(orbits, h) == sharing(reference, h)


def label_free(g, h):
    """What the double cosets say that no labelling of the points changes."""
    return sorted((size, k.order, char_degrees(k)) for _, size, k in double_coset_orbits(g, h))


@pytest.mark.parametrize("pair", GTCAT_REQUESTS, ids=" > ".join)
def test_orbit_route_matches_the_table_pass_on_the_gtcat_pool(pair):
    group, subgroup = pair
    g = builtin_group(group)
    assert_matches_the_table_pass(g, g.subgroup(parse_gens(subgroup, g.degree)))


@pytest.mark.parametrize("name", CROSSCHECK_CORPUS)
def test_orbit_route_matches_the_table_pass_on_the_crosscheck_corpus(name):
    rng = random.Random(name)
    g = builtin_group(name)
    subgroups = [g, g.subgroup(parse_gens("e", g.degree))]
    subgroups += [g.subgroup(rng.sample(g.elements, rng.randint(1, 2))) for _ in range(4)]
    for h in subgroups:
        assert_matches_the_table_pass(g, h)


def relabelled(perm, pi):
    """perm with every point i renamed pi[i]."""
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[pi[i]] = pi[v]
    return tuple(out)


@pytest.mark.parametrize("name", ["S5", "S3xC4"])
def test_orbit_route_on_a_relabelled_gens_copy(name):
    rng = random.Random(name)
    g = builtin_group(name)
    for _ in range(3):
        pi = tuple(rng.sample(range(g.degree), g.degree))
        copy = PermGroup.from_generators([relabelled(s, pi) for s in g.generators])
        assert copy.family is None and not copy.factors
        for gens in ([], *(rng.sample(g.elements, rng.randint(1, 2)) for _ in range(3))):
            h = g.subgroup(gens or parse_gens("e", g.degree))
            h_copy = copy.subgroup([relabelled(s, pi) for s in h.generators])
            assert_matches_the_table_pass(copy, h_copy)
            assert label_free(copy, h_copy) == label_free(g, h)


@pytest.mark.parametrize("pair", GTCAT_REQUESTS, ids=" > ".join)
def test_gtcat_pool_verdicts_do_not_depend_on_the_presentation(pair):
    """Each pool pair against three `--gens` copies of G, each with every point
    relabelled, the generators reversed and a product of two of them added;
    H is presented by its generators under the same relabelling."""
    group, subgroup = pair
    rng = random.Random(" > ".join(pair))
    g = builtin_group(group)
    h = g.subgroup(parse_gens(subgroup, g.degree))
    expected = label_free(g, h)
    bad = {p: s.dimension for p, s in gtcat.gt_bad_primes(g, h).items()}
    for _ in range(3):
        pi = tuple(rng.sample(range(g.degree), g.degree))
        gens = [relabelled(s, pi) for s in reversed(g.generators)]
        copy = PermGroup.from_generators(gens + [perm_mul(*rng.sample(gens, 2))])
        assert copy.family is None and not copy.factors
        h_copy = copy.subgroup([relabelled(s, pi) for s in h.generators])
        assert label_free(copy, h_copy) == expected
        assert {p: s.dimension for p, s in gtcat.gt_bad_primes(copy, h_copy).items()} == bad


@pytest.mark.parametrize("pair", GTCAT_REQUESTS, ids=" > ".join)
def test_gtcat_requests_build_no_table_of_g(pair):
    group, subgroup = pair
    g = builtin_group(group)
    h = g.subgroup(parse_gens(subgroup, g.degree))
    gtcat.gt_bad_primes(g, h, gtcat.enumerate_simples(g, h))
    assert g.family or g.factors
    assert g._elements is None and g._index is None


def test_the_whole_group_as_h_builds_no_table():
    g = builtin_group("S7")
    assert double_coset_orbits(g, g) == [(perm_identity(7), g.order, g)]
    assert g._elements is None and g._index is None


def test_a_wrong_coset_name_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(finitegroup, "_least_in_coset", lambda chain, y: y)
    g = builtin_group("S4")
    with pytest.raises(InternalCheckError, match="cosets"):
        double_coset_orbits(g, g.subgroup(parse_gens("(1 2)", 4)))
    code = main(["gtcat", "simples", "--group", "S4", "--subgroup-gens", "(1 2)"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("internal error:")


# --- membership with no table


@pytest.mark.parametrize("n", range(1, 7))
def test_named_membership_agrees_with_the_table(n):
    s, a = builtin_group(f"S{n}"), builtin_group(f"A{n}")
    for p in permutations(range(n)):
        assert p in s and (p in a) == (p in a.index), p
    assert s._index is None
    # a point repeated, or a permutation of too many points
    assert (0,) * (n + 1) not in s and tuple(range(n + 1)) not in a
    assert n == 1 or ((0,) * n not in s and (0,) * n not in a)


@pytest.mark.parametrize("n", range(6, 62, 2))
def test_dihedral_membership_agrees_with_the_table(n):
    g = builtin_group(f"D{n}")
    table = PermGroup.from_generators(g.generators, cap=g.order).index
    m, rng = g.degree, random.Random(n)
    candidates = list(table) + [tuple(rng.sample(range(m), m)) for _ in range(40)]
    for i in range(m):
        for j in range(i + 1, m):  # the transpositions
            swap = list(range(m))
            swap[i], swap[j] = j, i
            candidates.append(tuple(swap))
    # a point repeated, a point out of range, too few or too many points
    candidates += [(0,) * m, tuple(range(1, m + 1)), tuple(range(m, 0, -1)),
                   tuple(range(m - 1)), tuple(range(m + 1))]
    assert len(candidates) > len(table) + 40
    for p in candidates:
        assert (p in g) == (p in table), p
    assert g._elements is None and g._index is None


def test_named_membership_builds_the_family_generators_once(monkeypatch):
    """Each membership test checks the family's generators, built once."""
    built = []
    dihedral = finitegroup._dihedral

    def spy(order):
        built.append(order)
        return dihedral(order)

    monkeypatch.setattr(finitegroup, "_dihedral", spy)
    finitegroup._family_generators.cache_clear()
    g = builtin_group("D2000")
    rng = random.Random(2000)
    for _ in range(50):
        k = rng.randrange(1000)
        assert tuple((k + i) % 1000 for i in range(1000)) in g
        assert tuple((k - i) % 1000 for i in range(1000)) in g
        assert tuple(rng.sample(range(1000), 1000)) not in g
    assert built == [2000]


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--group", "D2000"],
    ["gtcat", "simples", "--group", "D12", "--subgroup-gens", "(1 2)(3 6)(4 5)"],
], ids=" ".join)
def test_named_dihedral_requests_build_no_index_of_g(monkeypatch, capsys, argv):
    built = []
    index = PermGroup.index.fget

    def spy(self):
        if self._index is None:
            built.append(self.family)
        return index(self)

    monkeypatch.setattr(PermGroup, "index", property(spy))
    assert main(argv) == 0
    capsys.readouterr()
    assert built  # the spy sees the small subgroups' tables
    assert [family for family in built if family] == []


@pytest.mark.parametrize("name", ["SL23xS4", "S3xC4", "D12xD12"])
def test_product_membership_agrees_with_the_table(name):
    rng = random.Random(name)
    g = builtin_group(name)
    candidates = [rng.choice(g.elements) for _ in range(40)]
    candidates += [tuple(rng.sample(range(g.degree), g.degree)) for _ in range(40)]
    # an element followed by a swap of two points in different blocks
    first = g.factors[0].degree
    for x in candidates[:40]:
        swap = list(range(g.degree))
        i, j = rng.randrange(first), rng.randrange(first, g.degree)
        swap[i], swap[j] = j, i
        candidates.append(perm_mul(x, tuple(swap)))
    assert any(p in g.index for p in candidates) and not all(p in g.index for p in candidates)
    for p in candidates:
        assert (p in g) == (p in g.index), p
    assert perm_identity(g.degree - 1) not in g


def test_gens_membership_is_the_table():
    g = PermGroup.from_generators(parse_gens("(1 2 3 4 5),(1 2)"))
    table = set(g.elements)
    for p in permutations(range(5)):
        assert (p in g) == (p in table)
