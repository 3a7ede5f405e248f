"""The Verlinde path against its definitional routes.

`qdim` is the exact quotient q^(sum b - sum a) P(q^2) and `qdim_norm` the
prime-power ledger.  The oracles here are the quantum Weyl product of
`q_integer`s divided in Q(zeta_{2l}) through `CycNum.inverse`, and
`CycNum.norm`.  The route the divisor ledger replaced, the norm tallied
in Counters by divisor, is an oracle too.
"""

import inspect
import json
import time
from collections import Counter
from math import gcd, prod

import pytest

from fuscat import cli, verlinde
from fuscat.arith import totient
from fuscat.cyclotomic import CycNum, cyclotomic_at_one, q_integer
from fuscat.errors import InternalCheckError, PreconditionError
from fuscat.rootsys import alcove_walk, build_root_system, enumerate_alcove, pairing, rho_pairing
from fuscat.verlinde import (
    Verdict,
    alcove_norms,
    classify_prime,
    qdim,
    qdim_norm,
    scan_dimension_witnesses,
    simple_objects,
)

CASES = (
    [("A1", l) for l in range(3, 41)]
    + [("A2", l) for l in range(4, 17)]
    + [("A3", l) for l in range(5, 13)]
    + [("D4", l) for l in range(7, 13)]
    + [("E6", 13), ("E6", 14)]
)


def product_route(rs, l, weight):
    """prod [(lambda+rho, alpha)] / prod [(rho, alpha)] in Q(zeta_{2l})."""
    num = CycNum.from_int(1)
    den = CycNum.from_int(1)
    for alpha in rs.positive_roots:
        num = num * q_integer(pairing(weight, alpha), l)
        den = den * q_integer(rho_pairing(alpha), l)
    return num / den


# the alcoves of the benchmark pool
POOL_ALCOVES = [("A4", 15), ("D4", 15), ("A3", 15), ("A2", 21), ("A1", 45)]


def counter_ledger_norm(l, nums, dens):
    """The norm tallied by divisor, factoring 2l and every divisor met."""
    levels = Counter(l // gcd(l, a) for a in nums)
    levels.subtract(l // gcd(l, b) for b in dens)
    phi_n = totient(2 * l)
    exponents = Counter()
    for d, k in levels.items():
        p = cyclotomic_at_one(d)
        if k and p > 1:
            exponents[p] += k * (phi_n // totient(d))
    assert all(e >= 0 for e in exponents.values())
    return prod(p**e for p, e in exponents.items())


@pytest.mark.parametrize("label,l", CASES + POOL_ALCOVES)
def test_the_divisor_ledger_matches_the_counter_ledger(label, l):
    rs = build_root_system(label)
    for w, norm in alcove_norms(rs, l):
        assert norm == counter_ledger_norm(l, *verlinde._weyl_pairings(rs, l, w))


def test_the_keyed_routes_factor_the_level_once(monkeypatch):
    factored = []
    factorize = verlinde.factorize

    def spy(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(verlinde, "factorize", spy)
    a4 = build_root_system("A4")
    simple_objects(a4, 15)
    alcove_norms(a4, 15)
    assert factored == [15, 15]


@pytest.mark.parametrize("l", [-3, 0, 1, 3])
def test_keyed_routes_refuse_a_level_at_or_below_h_before_factoring_it(monkeypatch, l):
    monkeypatch.setattr(verlinde, "factorize", lambda n: pytest.fail(f"factored {n}"))
    a2 = build_root_system("A2")
    for route in (simple_objects, alcove_norms):
        with pytest.raises(PreconditionError, match="must exceed the Coxeter number h=3"):
            route(a2, l)


def test_a_level_with_many_divisors_enters_only_the_pairings_met(monkeypatch):
    entered = []
    enter = verlinde._DivisorLedger.__missing__

    def spy(ledger, a):
        entered.append(a)
        return enter(ledger, a)

    monkeypatch.setattr(verlinde._DivisorLedger, "__missing__", spy)
    l = prod(p for p in range(3, 48) if all(p % q for q in range(2, p)))  # 14 odd primes, 16384 divisors
    a2 = build_root_system("A2")
    assert qdim_norm(a2, l, (0, 0)) == 1
    assert entered == [1, 2]  # the pairings 1, 1, 2 over the heights 1, 1, 2
    entered.clear()
    assert qdim_norm(a2, 15, (2, 1)) == 5**2 * 3**4  # pairings 2, 3, 5: d = 15, 5, 3
    assert sorted(entered) == [1, 2, 3, 5]


@pytest.mark.parametrize("l,p", [(3 * 1000000000000000000000007, 3), (3**40, 3), (31 * 10**6 + 31 * 3, 31)])
def test_norms_past_the_bit_limit_are_refused_before_they_are_built(l, p):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="bits, above the limit"):
        classify_prime(build_root_system("A1"), l, p)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("label,l", CASES)
def test_quotient_and_ledger_match_the_oracles(label, l):
    rs = build_root_system(label)
    for w in enumerate_alcove(rs, l):
        d = qdim(rs, l, w)
        ref = product_route(rs, l, w)
        assert (d.conductor, d.coeffs, d.den) == (ref.conductor, ref.coeffs, ref.den)
        assert d.conductor == 2 * l
        norm = d.norm()
        assert norm.denominator == 1 and qdim_norm(rs, l, w) == norm.numerator


def test_e8_witness_norm_from_the_ledger():
    e8 = build_root_system("E8")
    t0 = time.perf_counter()
    v = classify_prime(e8, 155, 31)
    assert time.perf_counter() - t0 < 5
    assert v.verdict == Verdict.BAD and v.witness == (4,) * 8
    norm = qdim_norm(e8, 155, v.witness)
    assert norm.bit_length() == 1982 and norm % 31 == 0
    assert norm == 31**400


def test_principal_specialisation_divides_exactly():
    spec = verlinde._principal_specialisation
    assert spec([4], [2]) == [1, 0, 1]
    assert spec([3, 3], [3, 1]) == [1, 1, 1]
    assert spec([5, 2], [2, 5]) == [1]
    with pytest.raises(InternalCheckError):
        spec([2], [3])


def test_qdim_norm_rejects_weights_outside_the_alcove():
    a2 = build_root_system("A2")
    with pytest.raises(PreconditionError):
        qdim_norm(a2, 5, (3, 0))
    with pytest.raises(PreconditionError):
        qdim_norm(a2, 5, (0,))


def _forbid(monkeypatch, *names):
    def refuse(*_args, **_kwargs):
        raise AssertionError("called off the Verlinde path")

    for owner, name in names:
        monkeypatch.setattr(owner, name, refuse)


def test_simples_take_no_conjugate_products(monkeypatch):
    _forbid(monkeypatch, (CycNum, "norm"), (CycNum, "inverse"))
    a2 = build_root_system("A2")
    assert len(simple_objects(a2, 9)) == 28


def test_norm_only_callers_build_no_qdim(monkeypatch, capsys):
    _forbid(monkeypatch, (CycNum, "norm"), (CycNum, "inverse"), (verlinde, "qdim"))
    a1 = build_root_system("A1")
    assert classify_prime(a1, 15, 5).verdict == Verdict.BAD
    assert scan_dimension_witnesses(a1, 8, 2) == [(1,), (3,), (5,)]
    assert cli.main(["verlinde", "badprimes", "--type", "A2", "--l", "9", "--pmax", "10"]) == 0
    assert "Bad" in capsys.readouterr().out


@pytest.mark.parametrize("label,l", [("A1", 8), ("A1", 21), ("A2", 10), ("A2", 15), ("A3", 15),
                                     ("A4", 15), ("D4", 15), ("E6", 13)])
def test_keyed_routes_match_the_per_weight_routes(label, l):
    rs = build_root_system(label)
    weights = enumerate_alcove(rs, l)
    simples = simple_objects(rs, l)
    assert [s.weight for s in simples] == weights
    assert alcove_norms(rs, l) == [(w, qdim_norm(rs, l, w)) for w in weights]
    for s in simples:
        d = qdim(rs, l, s.weight)
        assert (s.qdim.conductor, s.qdim.coeffs, s.qdim.den) == (d.conductor, d.coeffs, d.den)
        assert s.qdim_norm == qdim_norm(rs, l, s.weight)


@pytest.mark.parametrize("label,weights,keys", [("A4", 1001, 106), ("A3", 364, 56), ("A2", 91, 19)])
def test_one_dimension_per_distinct_key(monkeypatch, label, weights, keys):
    built = []

    def spy(l, nums, dens):
        built.append(tuple(sorted(min(a, l - a) for a in nums)))
        return qdim_of(l, nums, dens)

    qdim_of = verlinde._qdim
    monkeypatch.setattr(verlinde, "_qdim", spy)
    assert len(simple_objects(build_root_system(label), 15)) == weights
    assert len(built) == len(set(built)) == keys


KEYED_CASES = [("A1", 8), ("A1", 21), ("A2", 10), ("A2", 15), ("A3", 15), ("A4", 15), ("D4", 15),
               ("E6", 13)]


@pytest.mark.parametrize("label,l", KEYED_CASES)
def test_carried_pairings_match_the_checked_pairings(label, l):
    rs = build_root_system(label)
    walked = [(w, list(nums)) for w, nums in verlinde.alcove_walk(rs, l)]
    assert [w for w, _ in walked] == enumerate_alcove(rs, l)
    for w, nums in walked:
        assert nums == verlinde._weyl_pairings(rs, l, w)[0]


@pytest.mark.parametrize("label,l", KEYED_CASES)
def test_the_walk_never_changes_a_list_it_has_yielded(label, l):
    rs = build_root_system(label)
    walked = list(alcove_walk(rs, l))  # each list as yielded, compared only after the walk ends
    assert [w for w, _ in walked] == enumerate_alcove(rs, l)
    for w, nums in walked:
        assert nums == verlinde._weyl_pairings(rs, l, w)[0]


def test_the_keyed_routes_walk_once_and_check_no_weight(monkeypatch):
    walks, checked = [], []
    walk, check = verlinde.alcove_walk, verlinde._weyl_pairings

    def walk_spy(rs, l):
        walks.append((rs.label, l))
        return walk(rs, l)

    def check_spy(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(verlinde, "alcove_walk", walk_spy)
    monkeypatch.setattr(verlinde, "_weyl_pairings", check_spy)
    a4 = build_root_system("A4")
    assert len(simple_objects(a4, 15)) == 1001
    assert walks == [("A4", 15)] and checked == []
    assert len(alcove_norms(a4, 15)) == 1001
    assert walks == [("A4", 15)] * 2 and checked == []
    qdim_norm(a4, 15, (0, 1, 0, 0))  # the public route still checks its weight
    assert len(checked) == 1


def test_simples_render_each_distinct_dimension_once(monkeypatch, capsys):
    calls = {"__str__": 0, "to_json": 0}

    def spy(name):
        original = getattr(CycNum, name)

        def counted(self):
            calls[name] += 1
            return original(self)

        monkeypatch.setattr(CycNum, name, counted)

    spy("__str__")
    spy("to_json")
    assert cli.main(["verlinde", "simples", "--type", "A4", "--l", "15", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["simples"]) == 1001
    assert calls == {"__str__": 106, "to_json": 106}


@pytest.mark.parametrize("weight", [(-1, 0), (0, -2), (3, 0), (2, 1), (0,), (0, 0, 0)])
def test_public_routes_still_refuse_bad_weights(weight):
    a2 = build_root_system("A2")
    for route in (qdim, qdim_norm):
        with pytest.raises(PreconditionError):
            route(a2, 5, weight)


@pytest.mark.parametrize("label,l", [("E8", 201), ("A1", 100001), ("A1", 20002), ("E8", 10**12)])
def test_alcoves_above_the_cap_are_refused_before_any_weight(monkeypatch, label, l):
    def no_walk(*_args):
        raise AssertionError("the alcove was enumerated")

    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    monkeypatch.setattr(verlinde, "alcove_walk", no_walk)
    rs = build_root_system(label)
    for route in (simple_objects, alcove_norms, lambda rs, l: scan_dimension_witnesses(rs, l, 3)):
        with pytest.raises(PreconditionError, match="has more weights than the enumeration cap 20000"):
            route(rs, l)


def test_the_cap_argument_bounds_the_alcove(monkeypatch):
    a3 = build_root_system("A3")
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    witnesses = scan_dimension_witnesses(a3, 15, 5)
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "364")
    assert len(alcove_norms(a3, 15)) == 364
    assert scan_dimension_witnesses(a3, 15, 5) == witnesses
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "363")
    with pytest.raises(PreconditionError, match="has more weights than the enumeration cap 363"):
        alcove_norms(a3, 15)
    with pytest.raises(PreconditionError, match="cap 363; raise it via FUSCAT_ENUM_CAP or the cap argument"):
        scan_dimension_witnesses(a3, 15, 5)
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "0")
    with pytest.raises(PreconditionError, match="positive"):
        simple_objects(a3, 15)


def test_no_verlinde_route_takes_a_cap():
    routes = [f for name, f in vars(verlinde).items()
              if inspect.isfunction(f) and f.__module__ == verlinde.__name__ and not name.startswith("_")]
    assert verlinde.check_alcove_size in routes and len(routes) >= 7
    assert [f.__name__ for f in routes if "cap" in inspect.signature(f).parameters] == ["check_alcove_size"]
