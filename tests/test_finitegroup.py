import gc
import random
import weakref
from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

import fuscat.finitegroup as finitegroup
from fuscat.arith import prime_factors
from fuscat.errors import InternalCheckError, PreconditionError
from fuscat.finitegroup import (
    PermGroup,
    builtin_group,
    char_degrees,
    double_coset_orbits,
    double_cosets,
    ito_michler_verify,
    parse_gens,
    parse_perm,
    perm_inv,
    perm_mul,
    perm_order,
    perm_to_cycles,
    rep_bad_primes,
    rep_good_primes,
    stabilizer_intersection,
)
from fuscat.gtcat import enumerate_simples

# classical character-degree tables, frozen before the class-matrix engine
# was written; sources: standard tables for symmetric/alternating/dihedral
# groups, the quaternion group and SL(2,3)
CLASSICAL_DEGREES = {
    "S3": (1, 1, 2),
    "S4": (1, 1, 2, 3, 3),
    "S5": (1, 1, 4, 4, 5, 5, 6),
    "S6": (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16),
    "A4": (1, 1, 1, 3),
    "A5": (1, 3, 3, 4, 5),
    "A6": (1, 5, 5, 8, 8, 9, 10),
    "D8": (1, 1, 1, 1, 2),
    "D10": (1, 1, 2, 2),
    "D12": (1, 1, 1, 1, 2, 2),
    "D20": (1, 1, 1, 1, 2, 2, 2, 2),
    "D40": (1, 1, 1, 1) + (2,) * 9,
    "Q8": (1, 1, 1, 1, 2),
    "SL23": (1, 1, 1, 2, 2, 2, 3),
    "C12": (1,) * 12,
    "C7": (1,) * 7,
    "S3xC4": (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2),
    "S3xS3": (1, 1, 1, 1, 2, 2, 2, 2, 4),
}

# x-joined builtins whose degrees come from their factors
PRODUCTS = [
    "S3xC4", "S3xS3", "C2xC2", "C6xC2", "A4xC2", "SL23xS4", "D12xD12", "S7xC2",
    "S3xS3xS3xC2", "S4xS4xS3", "Q8xD8xC3",
]


# --- permutation primitives


def test_parse_and_format():
    p = parse_perm("(1 2)(3 4)")
    assert p == (1, 0, 3, 2)
    assert perm_to_cycles(p) == "(1 2)(3 4)"
    assert parse_perm("e", 3) == (0, 1, 2)
    assert parse_perm("(1,2,3)") == parse_perm("(1 2 3)")
    assert perm_to_cycles(parse_perm("e", 4)) == "e"


def test_parse_rejects_garbage():
    for bad in ["(1 2", "1 2 3", "(0 1)", "(1 1 2)", "(a b)"]:
        with pytest.raises(PreconditionError):
            parse_perm(bad)


def _depth_split(text):
    """The comma split of parse_gens by an explicit parenthesis depth count."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    return parts + [cur]


def _outcome(parse):
    try:
        return parse()
    except PreconditionError:
        return "refused"


_GENS_TEXT = st.text(alphabet="(),12 e", max_size=20) | st.lists(
    st.sampled_from(["(", ")", ",", "1", "3", " ", "e", "(1 2)", "(1,2)", "(2, 3 1)", "(1 3)(2,4)"]),
    max_size=12,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=_GENS_TEXT, degree=st.none() | st.integers(1, 5))
def test_parse_gens_agrees_with_the_depth_count_split(text, degree):
    def oracle():
        raw = [parse_perm(part, degree) for part in _depth_split(text) if part.strip()]
        if not raw:
            raise PreconditionError("no generators given")
        deg = max([len(p) for p in raw] + [degree or 0])
        return [p + tuple(range(len(p), deg)) for p in raw]

    assert _outcome(lambda: parse_gens(text, degree)) == _outcome(oracle)


def test_q8_from_its_cycle_notation():
    i, j = finitegroup._quaternion8()
    e = tuple(range(8))
    i2 = perm_mul(i, i)
    assert perm_mul(i2, i2) == e and i2 != e
    assert i2 == perm_mul(j, j)
    assert perm_mul(perm_mul(perm_inv(j), i), j) == perm_inv(i)
    q8 = builtin_group("Q8")
    assert q8.order == 8
    assert sorted(c.size for c in q8.conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_composition_left_to_right():
    # "(1 2)(2 3)" applies (1 2) first: 1 -> 2 -> 3
    p = parse_perm("(1 2)(2 3)")
    assert p[0] == 2


def test_mul_inv():
    a = parse_perm("(1 2 3)", 4)
    b = parse_perm("(3 4)", 4)
    assert perm_mul(a, perm_inv(a)) == (0, 1, 2, 3)
    assert perm_mul(a, b) != perm_mul(b, a)


# --- enumeration and classes


def test_s3_enumeration():
    g = builtin_group("S3")
    assert g.order == 6
    assert sorted(c.size for c in g.conjugacy_classes()) == [1, 2, 3]


def test_a4_enumeration():
    g = builtin_group("A4")
    assert g.order == 12
    assert sorted(c.size for c in g.conjugacy_classes()) == [1, 3, 4, 4]


def test_cyclic_classes_are_singletons():
    g = builtin_group("C11")
    assert g.order == 11
    assert all(c.size == 1 for c in g.conjugacy_classes())


def test_enumeration_cap():
    with pytest.raises(PreconditionError):
        builtin_group("S5", cap=50)


@pytest.mark.parametrize("name", [
    "S4", "A5", "A4", "C7", "D12", "Q8", "SL23", "S3xC4", "A4xC2xQ8",
    pytest.param("C" + "0" * 5000 + "12", id="C000...012"),
])
def test_builtin_order_is_read_off_the_name(name):
    order = builtin_group(name).order
    assert builtin_group(name, cap=order).order == order
    with pytest.raises(PreconditionError, match=f"exceeds the enumeration cap {order - 1}"):
        builtin_group(name, cap=order - 1)


def test_table_bound_spares_groups_inside_an_admitted_group():
    """D800 and C400 act on 400 points and pass the table bound.  A subgroup
    or a double-coset stabilizer is enumerated under its parent's cap, and
    its table is part of the parent's: the table bound must not refuse it."""
    g = builtin_group("D800")
    assert g.subgroup(g.generators).order == 800
    rot, ref = g.generators
    h = g.subgroup([perm_mul(perm_mul(rot, rot), perm_mul(rot, rot)), ref])
    assert h.order == 200
    assert sorted(k.order for _, _, k in double_coset_orbits(g, h)) == [100, 200, 200]
    assert ito_michler_verify(builtin_group("C400"), 2).sylow_order == 16


def test_a_group_carries_its_admission_cap():
    """A builtin, its factors, a subgroup and every double-coset stabilizer
    record the cap the builtin was admitted under."""
    g = builtin_group("S4xS4xS3", cap=30000)
    assert g.cap == 30000
    assert [f.cap for f in g.factors] == [30000] * 3
    h = g.subgroup(g.generators[::2])
    assert h.order == 8 and h.cap == 30000
    stabilizers = [k for _, _, k in double_coset_orbits(g, h)]
    assert any(k is not h for k in stabilizers)
    assert {k.cap for k in stabilizers} == {30000}


def test_alternating_table_is_enumerated_under_its_groups_cap(monkeypatch):
    caps = []
    from_generators = PermGroup.from_generators

    def spy(generators, cap=None):
        caps.append(cap)
        return from_generators(generators, cap)

    monkeypatch.setattr(PermGroup, "from_generators", spy)
    a = builtin_group("A5", cap=12345)
    assert a.cap == 12345 and caps == []
    assert len(a.elements) == 60 and caps == [12345]
    caps.clear()
    g = builtin_group("A4xC3", cap=5000)
    assert caps == [5000]  # C3 is enumerated when the product is built
    assert len(g.elements) == 36 and caps == [5000, 5000]


def test_enum_cap_env(monkeypatch):
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "10")
    with pytest.raises(PreconditionError):
        PermGroup.from_generators(parse_gens("(1 2), (1 2 3 4 5)"))
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "200")
    assert PermGroup.from_generators(parse_gens("(1 2), (1 2 3 4 5)")).order == 120


@pytest.mark.parametrize("name", sorted(CLASSICAL_DEGREES))
def test_orders_against_sympy(name):
    g = builtin_group(name)
    sg = PermutationGroup([Permutation(list(p)) for p in g.generators])
    assert sg.order() == g.order


# --- character degrees


@pytest.mark.parametrize("name", sorted(CLASSICAL_DEGREES))
def test_char_degrees_against_classical_tables(name):
    g = builtin_group(name)
    assert char_degrees(g) == CLASSICAL_DEGREES[name]


@pytest.mark.parametrize("name", sorted(CLASSICAL_DEGREES))
def test_degree_identities(name):
    g = builtin_group(name)
    degs = char_degrees(g)
    assert sum(d * d for d in degs) == g.order
    assert len(degs) == len(g.conjugacy_classes())
    assert all(g.order % d == 0 for d in degs)


def test_abelian_groups_have_unit_degrees():
    for name in ("C5", "C12", "C2xC2", "C6xC2"):
        g = builtin_group(name)
        assert char_degrees(g) == (1,) * g.order


@cache
def enumerated(name):
    """The product as a plain group on its generators: enumerated element
    table, conjugation-orbit classes, class-matrix degrees."""
    g = builtin_group(name)
    return PermGroup.from_generators(g.generators, cap=g.order)


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_degrees_against_the_class_matrix_route(name):
    g = builtin_group(name)
    assert len(g.factors) == name.count("x") + 1
    oracle = enumerated(name)
    assert not oracle.factors
    assert char_degrees(g) == char_degrees(oracle)


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_classes_against_the_enumerated_product(name):
    g, oracle = builtin_group(name), enumerated(name)
    assert g.order == oracle.order and g.degree == oracle.degree
    assert g.generators == oracle.generators
    assert [(c.rep, c.size) for c in g.conjugacy_classes()] == [
        (c.rep, c.size) for c in oracle.conjugacy_classes()
    ]
    assert g.exponent() == oracle.exponent()
    # classes, order and degrees came from the factors alone
    char_degrees(g)
    assert g._elements is None and g._index is None and g._class_of is None
    # class_of and members are the conjugation orbits on the joined table
    assert g.class_of() == oracle.class_of()
    assert g.class_members() == oracle.class_members()
    assert g.elements == oracle.elements and g.index == oracle.index
    assert g.elements[g.identity_index] == tuple(range(g.degree))


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_ito_michler_against_the_enumerated_product(name):
    g, oracle = builtin_group(name), enumerated(name)
    for p in prime_factors(g.order):
        assert ito_michler_verify(g, p) == ito_michler_verify(oracle, p), p
    assert g._elements is None


def test_product_ito_michler_checks_each_factor(monkeypatch):
    """The factors enter through the product's classes and degrees alone:
    one call, no recursion into the factors, no element table."""
    calls = []
    verify = finitegroup.ito_michler_verify

    def spy(g, p):
        calls.append((g.order, p))
        return verify(g, p)

    monkeypatch.setattr(finitegroup, "ito_michler_verify", spy)
    g = builtin_group("S3xS3xS3xC2")
    rep = spy(g, 3)
    assert rep.applicable and (rep.sylow_order, rep.complement_order) == (27, 16)
    assert calls == [(432, 3)]
    assert not spy(g, 2).applicable
    assert calls == [(432, 3), (432, 2)]
    assert g._elements is None and g._class_of is None


def test_mismatched_factors_stop_every_factor_route():
    g = builtin_group("S3xC4")
    g.factors = (builtin_group("C4"), builtin_group("S3"))  # right orders, wrong places
    for route in (PermGroup.conjugacy_classes, PermGroup.class_of, char_degrees,
                  lambda g: ito_michler_verify(g, 3)):
        with pytest.raises(InternalCheckError, match="do not generate the group"):
            route(g)


def test_product_orbits_must_match_the_factor_classes():
    g = builtin_group("S3xC4")
    classes = g.conjugacy_classes()
    classes[1], classes[2] = classes[2], classes[1]  # a class list out of order
    with pytest.raises(InternalCheckError, match="do not match the factors' classes"):
        g.class_of()


def test_product_class_matrices_are_never_built(monkeypatch):
    built = []
    class_matrix = finitegroup._class_matrix

    def spy(g, i):
        built.append(g)
        return class_matrix(g, i)

    monkeypatch.setattr(finitegroup, "_class_matrix", spy)
    for name, largest in [("S4xS4xS3", 18), ("SL23xD12xS3", 12)]:
        built.clear()
        g = builtin_group(name)
        assert char_degrees(g)[-1] == largest
        # H = G: the identity double coset's stabilizer is G itself, degrees cached
        assert len(enumerate_simples(g, g)) == len(g.conjugacy_classes())
        # only a factor that is no named Sn or An splits its class algebra
        assert all(f in g.factors and f.family is None for f in built)
        assert {id(f) for f in built} == {id(f) for f in g.factors if f.family is None}, name


def dense_class_matrices(g):
    """Every M_i as a dense k x k matrix, counted from the definition over
    all pairs (x, y) with x in class i: M_i[j][k] is the number of them
    with y in class j and x*y the representative of class k."""
    classes, class_of, index = g.conjugacy_classes(), g.class_of(), g.index
    k = len(classes)
    rep_class = {c.rep: kk for kk, c in enumerate(classes)}
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for x in g.elements:
        mat = mats[class_of[index[x]]]
        for y in g.elements:
            kk = rep_class.get(perm_mul(x, y))
            if kk is not None:
                mat[class_of[index[y]]][kk] += 1
    return mats


@pytest.mark.parametrize("name", ["D12xD12", "S4xA4", "Q8xD8xC3"])
def test_sparse_class_matrices_against_the_dense_product(name):
    g = PermGroup.from_generators(builtin_group(name).generators, cap=builtin_group(name).order)
    assert not g.factors and g.family is None
    k = len(g.conjugacy_classes())
    q = finitegroup._splitting_prime(g.order, g.exponent())
    rng = random.Random(name)
    vectors = [[rng.randrange(q) for _ in range(k)] for _ in range(3)]
    for i, dense in enumerate(dense_class_matrices(g)):
        sparse = finitegroup._class_matrix(g, i)
        assert all(sparse[j].get(kk, 0) == dense[j][kk] for j in range(k) for kk in range(k))
        for v in vectors:
            assert finitegroup._mat_vec(sparse, v, q) == [sum(a * b for a, b in zip(row, v)) % q
                                                          for row in dense]
    assert char_degrees(g) == char_degrees(builtin_group(name))


# --- S_n and A_n from the partitions of n

NAMED = [f"{fam}{n}" for fam in "SA" for n in range(1, 9)]


@cache
def table_route(name):
    """The named group as a plain group on its generators: closure table,
    conjugation-orbit classes, class-matrix degrees."""
    g = builtin_group(name, cap=40320)
    return PermGroup.from_generators(g.generators, cap=g.order)


@pytest.mark.parametrize("name", NAMED)
def test_partition_route_against_the_table_route(name):
    g, oracle = builtin_group(name, cap=40320), table_route(name)
    assert g.family == (name[0], int(name[1:])) and oracle.family is None
    assert g.order == oracle.order and g.generators == oracle.generators
    assert [(c.rep, c.size) for c in g.conjugacy_classes()] == [
        (c.rep, c.size) for c in oracle.conjugacy_classes()
    ]
    assert char_degrees(g) == char_degrees(oracle)
    assert g.exponent() == oracle.exponent()
    for p in prime_factors(g.order):
        assert ito_michler_verify(g, p) == ito_michler_verify(oracle, p), p
    # all of it from the partitions, with no element table
    assert g._elements is None and g._index is None and g._class_of is None
    assert g.class_of() == oracle.class_of()
    assert g.elements == oracle.elements


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_table_is_the_closure_table(n):
    assert builtin_group(f"S{n}").elements == sorted(permutations(range(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_alternating_table_is_the_even_permutations(n):
    def inversions(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))

    even = [p for p in permutations(range(n)) if inversions(p) % 2 == 0]
    assert builtin_group(f"A{n}").elements == even


@pytest.mark.parametrize("name", ["S5", "A5", "S4xA4"])
def test_changed_generators_stop_every_partition_route(name):
    g = builtin_group(name)
    named = [f for f in g.factors or (g,) if f.family]
    for f in named:
        f.generators = [parse_perm("(1 2)", f.degree), parse_perm("(1 2 3)", f.degree)]
    if g.factors:  # a product on the changed factors, so that its own tie holds
        g.generators = finitegroup._product_generators(g.factors)
    for route in (PermGroup.conjugacy_classes, PermGroup.class_of, PermGroup.exponent, char_degrees,
                  lambda g: ito_michler_verify(g, 2), lambda g: g.generators[0] in g):
        with pytest.raises(InternalCheckError, match="recorded family does not generate the group"):
            route(g)


# --- class orders in closed form, and invariants free of the presentation

CLOSED_FORM = NAMED + [f"D{n}" for n in range(6, 200, 2)] + [
    "S4xS4xS3", "SL23xS4", "D12xD12", "S3xS3xS3xC2", "S7xC2", "Q8xD8xC3", "S3xC4"]


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_class_orders_are_the_walked_orders(name):
    g = builtin_group(name, cap=40320)
    assert g.family or g.factors
    assert all(c.order == perm_order(c.rep) for c in g.conjugacy_classes())
    assert g._elements is None


def invariants(g):
    """What no presentation of g may change: the order, the class sizes
    with their orders, the exponent, the degrees, the bad primes with their
    witness degrees and the Ito-Michler report at every prime of |g|."""
    return (g.order, sorted((c.size, c.order) for c in g.conjugacy_classes()), g.exponent(),
            char_degrees(g), rep_bad_primes(g),
            [ito_michler_verify(g, p) for p in prime_factors(g.order)])


@pytest.mark.parametrize("name", ["S4", "S5", "A5", "C12", "D12", "D20", "Q8", "SL23",
                                  "S3xC4", "A4xC3", "Q8xD8"])
def test_invariants_do_not_depend_on_the_presentation(name):
    """Three plain presentations of each builtin: its generators conjugated
    by a point permutation, reordered, and one product of two of them added."""
    g = builtin_group(name)
    expected = invariants(g)
    rng = random.Random(name)
    for _ in range(3):
        pi = tuple(rng.sample(range(g.degree), g.degree))
        gens = [perm_mul(perm_mul(perm_inv(pi), s), pi) for s in g.generators]
        gens.append(perm_mul(*(rng.sample(gens, 2) if len(gens) > 1 else gens * 2)))
        rng.shuffle(gens)
        copy = PermGroup.from_generators(gens)
        assert copy.family is None and not copy.factors and copy.generators != g.generators
        assert invariants(copy) == expected


def test_named_orbits_must_match_the_partition_classes():
    g = builtin_group("S4")
    classes = g.conjugacy_classes()
    classes[1], classes[2] = classes[2], classes[1]  # a class list out of order
    with pytest.raises(InternalCheckError, match="do not match the partition classes"):
        g.class_of()


# --- D_n from its rotations and reflections


@pytest.mark.parametrize("n", range(6, 200, 2))
def test_dihedral_route_against_the_closure(n):
    g = builtin_group(f"D{n}")
    oracle = PermGroup.from_generators(g.generators, cap=g.order)
    assert g.family == ("D", n) and oracle.family is None
    assert (g.order, g.degree, g.generators) == (oracle.order, oracle.degree, oracle.generators)
    assert [(c.rep, c.size) for c in g.conjugacy_classes()] == [
        (c.rep, c.size) for c in oracle.conjugacy_classes()
    ]
    assert g.exponent() == oracle.exponent()
    # the classes with no element table; `class_of` then checks the orbits
    assert g._elements is None and g._index is None and g._class_of is None
    assert g.class_of() == oracle.class_of()
    assert g.elements == oracle.elements


@pytest.mark.parametrize("n", range(6, 122, 2))
def test_dihedral_degrees_against_the_class_matrix_route(n):
    g = builtin_group(f"D{n}")
    oracle = PermGroup.from_generators(g.generators, cap=g.order)
    assert char_degrees(g) == tuple(sorted(finitegroup._split_degrees(oracle)))
    for p in prime_factors(n):
        assert ito_michler_verify(g, p) == ito_michler_verify(oracle, p), p
    assert g._elements is None


def test_changed_generators_stop_the_dihedral_route():
    g = builtin_group("D12")
    g.generators = [parse_perm("(1 2)", 6), parse_perm("(1 2 3 4 5 6)", 6)]
    for route in (PermGroup.conjugacy_classes, char_degrees, lambda g: ito_michler_verify(g, 2),
                  lambda g: g.generators[0] in g):
        with pytest.raises(InternalCheckError, match="recorded family does not generate the group"):
            route(g)


def test_dihedral_orbits_must_match_the_dihedral_classes():
    g = builtin_group("D12")
    classes = g.conjugacy_classes()
    classes[1], classes[2] = classes[2], classes[1]  # a class list out of order
    with pytest.raises(InternalCheckError, match="do not match the dihedral classes"):
        g.class_of()


@pytest.mark.parametrize("name, wrong", [
    ("S3xC4", "S4"),   # |S4| = |G| = 24, but 5 degrees for 12 classes
    ("D8xC2", "C10"),  # 10 degrees for 10 classes, but their squares sum to 10, not 16
])
def test_corrupted_factors_are_caught(name, wrong):
    g = builtin_group(name)
    g.factors = (builtin_group(wrong),)
    with pytest.raises(InternalCheckError):
        char_degrees(g)
    assert g._degrees is None


def test_degrees_of_random_subgroups_of_s5():
    rng = random.Random(7)
    s5 = builtin_group("S5")
    for _ in range(8):
        gens = [rng.choice(s5.elements), rng.choice(s5.elements)]
        h = s5.subgroup(gens)
        degs = char_degrees(h)
        assert sum(d * d for d in degs) == h.order
        assert len(degs) == len(h.conjugacy_classes())


# --- prime criteria


def test_rep_bad_primes():
    assert rep_bad_primes(builtin_group("S3")) == {2: 2}
    assert rep_good_primes(builtin_group("S3")) == [3]
    assert rep_bad_primes(builtin_group("A4")) == {3: 3}
    assert rep_good_primes(builtin_group("A4")) == [2]
    assert rep_bad_primes(builtin_group("C12")) == {}
    assert set(rep_bad_primes(builtin_group("S4"))) == {2, 3}


def test_ito_michler_applicable():
    rep = ito_michler_verify(builtin_group("A4"), 2)
    assert rep.applicable and rep.sylow_order == 4 and rep.complement_order == 3
    assert rep.sylow_abelian and rep.sylow_normal
    rep = ito_michler_verify(builtin_group("S3"), 3)
    assert rep.applicable and rep.sylow_order == 3 and rep.complement_order == 2


def test_ito_michler_not_applicable():
    rep = ito_michler_verify(builtin_group("S4"), 2)
    assert not rep.applicable and rep.offending_degree == 2
    rep = ito_michler_verify(builtin_group("S3"), 5)
    assert not rep.applicable and rep.offending_degree is None


def test_ito_michler_on_corpus():
    for name in sorted(CLASSICAL_DEGREES):
        g = builtin_group(name)
        degs = char_degrees(g)
        for p in prime_factors(g.order):
            rep = ito_michler_verify(g, p)  # raises on violation
            assert rep.applicable == all(d % p for d in degs)


@pytest.mark.parametrize("name, p, degrees, structure", [
    # p divides a faked degree, yet the Sylow p-subgroup is normal and abelian
    ("A4", 2, (1, 1, 2, 3), "normal=True, abelian=True"),
    ("S3xC4", 3, (1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3), "normal=True, abelian=True"),
    # p divides no faked degree, yet the Sylow p-subgroup is not normal ...
    ("S4", 2, (1, 1, 3, 3, 3), "normal=False, abelian=False"),
    # ... or normal and not abelian
    ("D8xC3", 2, (1,) * 15, "normal=True, abelian=False"),
])
def test_faked_degrees_fail_the_check_both_ways(name, p, degrees, structure):
    g = builtin_group(name)
    g._degrees = degrees  # the cache char_degrees answers from
    with pytest.raises(InternalCheckError, match=f"violation for p={p}: .*{structure}"):
        ito_michler_verify(g, p)


def test_a_group_is_freed_without_the_cycle_collector():
    """Nothing a group caches refers back to it, so it goes with its last
    reference, whenever the cycle collector runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ("S4", "S3xC4"):
            g = builtin_group(name)
            char_degrees(g)
            g.class_members()
            ref = weakref.ref(g)
            del g
            assert ref() is None, name
    finally:
        if enabled:
            gc.enable()


# --- double cosets and stabilizers


def test_double_cosets_extremes():
    g = builtin_group("S4")
    assert double_cosets(g, g) == [(g.elements[g.identity_index], 24)]
    trivial = g.subgroup(parse_gens("e", 4))
    dcs = double_cosets(g, trivial)
    assert len(dcs) == 24 and all(s == 1 for _, s in dcs)


def test_double_cosets_s3():
    g = builtin_group("S3")
    h = g.subgroup(parse_gens("(1 2)", 3))
    assert sorted(size for _, size in double_cosets(g, h)) == [2, 4]


def test_double_coset_size_formula():
    rng = random.Random(3)
    for name in ("S3", "A4", "S4", "D12"):
        g = builtin_group(name)
        for _ in range(4):
            h = g.subgroup([rng.choice(g.elements), rng.choice(g.elements)])
            dcs = double_cosets(g, h)
            assert sum(size for _, size in dcs) == g.order
            for rep, size in dcs:
                hg = stabilizer_intersection(g, h, rep)
                assert size == h.order**2 // hg.order


def test_double_cosets_require_subgroup():
    g = builtin_group("A4")
    other = builtin_group("S4")
    with pytest.raises(PreconditionError):
        double_cosets(g, other)


def test_stabilizer_intersection():
    g = builtin_group("S3")
    h = g.subgroup(parse_gens("(1 2)", 3))
    assert stabilizer_intersection(g, h, parse_perm("e", 3)).order == h.order
    assert stabilizer_intersection(g, h, parse_perm("(1 2 3)", 3)).order == 1
    # x inside H conjugates H to itself
    assert stabilizer_intersection(g, h, parse_perm("(1 2)", 3)).order == h.order


def test_representatives_are_lex_minimal():
    g = builtin_group("S4")
    h = g.subgroup(parse_gens("(1 2),(3 4)", 4))
    for rep, _ in double_cosets(g, h):
        coset = {perm_mul(perm_mul(a, rep), b) for a in h.elements for b in h.elements}
        assert rep == min(coset)


def from_elements(elements):
    """A PermGroup on a given element list, after checking by definition that
    the list is closed under inversion and products."""
    elems = list(dict.fromkeys(elements))
    if not elems:
        raise PreconditionError("empty element list")
    eset = set(elems)
    for a in elems:
        if perm_inv(a) not in eset:
            raise InternalCheckError("element set is not closed under inversion")
        for b in elems:
            if perm_mul(a, b) not in eset:
                raise InternalCheckError("element set is not closed under products")
    identity = tuple(range(len(elems[0])))
    return PermGroup(len(identity), [g for g in elems if g != identity] or [identity], elems)


def test_from_elements_rejects_non_group():
    with pytest.raises(InternalCheckError):
        from_elements([(0, 1, 2), (1, 2, 0)])
    s3 = builtin_group("S3")
    assert from_elements(s3.elements).elements == s3.elements


def test_stabilizer_intersection_matches_the_element_list_route():
    rng = random.Random(11)
    for name in ("S3", "A4", "S4", "D12", "Q8"):
        g = builtin_group(name)
        for _ in range(4):
            h = g.subgroup([rng.choice(g.elements), rng.choice(g.elements)])
            x = rng.choice(g.elements)
            xinv = perm_inv(x)
            stab = stabilizer_intersection(g, h, x)
            reference = from_elements([y for y in h.elements if perm_mul(perm_mul(xinv, y), x) in h])
            assert stab.elements == reference.elements


def test_degrees_beyond_the_builtin_corpus():
    # Frobenius group of order 20 and the simple group of order 168
    f20 = PermGroup.from_generators(parse_gens("(1 2 3 4 5), (2 3 5 4)"))
    assert char_degrees(f20) == (1, 1, 1, 1, 4)
    psl27 = PermGroup.from_generators(parse_gens("(1 2 3 4 5 6 7), (1 2)(3 6)"))
    assert psl27.order == 168
    assert char_degrees(psl27) == (1, 3, 3, 6, 7, 8)
    # a simple group has no normal Sylow subgroup, so every prime divisor
    # of the order must divide some degree
    assert sorted(rep_bad_primes(psl27)) == [2, 3, 7]
    assert char_degrees(builtin_group("C60")) == (1,) * 60


def test_charpoly_against_sympy():
    import sympy

    from fuscat.finitegroup import _charpoly

    rng = random.Random(5)
    q = 31
    for dim in (1, 2, 3, 4, 6):
        for _ in range(5):
            m = [[rng.randrange(q) for _ in range(dim)] for _ in range(dim)]
            ours = _charpoly([row[:] for row in m], q)
            lam = sympy.Symbol("lam")
            theirs = sympy.Matrix(m).charpoly(lam).all_coeffs()
            theirs = [int(c) % q for c in reversed(theirs)]
            assert ours == theirs
