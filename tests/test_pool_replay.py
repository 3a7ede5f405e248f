"""Every request of the benchmark pools, replayed in-process against its
golden reply, the product requests of `group-catalog` checked to stay
off the product's element table, every `group-catalog` enumeration
checked to take the request's cap, the double-coset stabilizers of every
`gtcat` request checked to be one object per distinct subgroup, each the
definitional intersection, and the `cyc` requests of
`cyclotomic-large` checked to draw no more split primes than the
one-prime-at-a-time norm and inverse did."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import fuscat.finitegroup as finitegroup
from fuscat import cli, cyclotomic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _load_workloads()
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())


def _reply(argv):
    """(exit code, SHA-256 of stdout) of one request, the way the benchmark
    worker takes them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_pools_are_covered_by_the_goldens():
    keys = [WORKLOADS.argv_key(argv) for w in WORKLOADS.WORKLOADS.values() for argv in w.pool()]
    assert len(keys) == len(GOLDENS) == 145
    assert set(keys) == set(GOLDENS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_pool_replies_match_the_goldens(monkeypatch, workload):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    mismatched = []
    for argv in WORKLOADS.WORKLOADS[workload].pool():
        golden = GOLDENS[WORKLOADS.argv_key(argv)]
        if _reply(argv) != (golden["exit"], golden["sha256"]):
            mismatched.append(" ".join(argv))
    assert mismatched == []


PRODUCT_REQUESTS = [
    argv for argv in WORKLOADS.GROUP_CATALOG.pool()
    if argv[0] in ("group", "ito-michler") and "x" in argv[argv.index("--group") + 1]
]


def test_the_catalog_sends_product_requests():
    assert {argv[2] for argv in PRODUCT_REQUESTS} == {
        "SL23xS4", "D12xD12", "S7xC2", "S3xS3xS3xC2", "S4xS4xS3", "Q8xD8xC3",
    }
    assert len(PRODUCT_REQUESTS) == 10


@pytest.mark.parametrize("argv", PRODUCT_REQUESTS, ids=" ".join)
def test_product_requests_build_only_the_factor_tables(monkeypatch, argv):
    groups, tables = [], []
    builtin_group = cli.builtin_group
    from_generators = finitegroup.PermGroup.from_generators

    def group_spy(name, cap=None):
        groups.append(builtin_group(name, cap=cap))
        return groups[-1]

    def table_spy(generators, cap=None):
        tables.append(from_generators(generators, cap))
        return tables[-1]

    monkeypatch.setattr(cli, "builtin_group", group_spy)
    monkeypatch.setattr(finitegroup.PermGroup, "from_generators", table_spy)
    golden = GOLDENS[WORKLOADS.argv_key(argv)]
    assert _reply(argv) == (golden["exit"], golden["sha256"])
    (g,) = groups
    assert g.factors and g._elements is None and g._index is None
    assert g._class_of is None and g._members is None
    # every table enumerated is that of a factor that is no named Sn or An,
    # or a Sylow span inside one; a named factor answers from the
    # partitions of n and builds no table at all
    enumerated = [f for f in g.factors if f.family is None]
    assert tables[:len(enumerated)] == enumerated
    assert all(t.degree < g.degree for t in tables)
    assert all(f._elements is None for f in g.factors if f.family)


def test_catalog_enumerations_take_the_request_cap(monkeypatch):
    """Every closure a `group-catalog` request enumerates, the named group's
    own and those inside it (subgroups, stabilizers, An tables) alike, is
    bounded by the request's cap."""
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    caps = []
    from_generators = finitegroup.PermGroup.from_generators

    def cap_spy(generators, cap=None):
        caps.append(cap)
        return from_generators(generators, cap)

    monkeypatch.setattr(finitegroup.PermGroup, "from_generators", cap_spy)
    requests = WORKLOADS.GROUP_CATALOG.pool()
    assert not any("--cap" in argv for argv in requests)
    for argv in requests:
        golden = GOLDENS[WORKLOADS.argv_key(argv)]
        assert _reply(argv) == (golden["exit"], golden["sha256"]), argv
    assert len(caps) > len(requests)
    assert set(caps) == {finitegroup.DEFAULT_ENUM_CAP}


GTCAT_REQUESTS = list(dict.fromkeys(
    (argv[argv.index("--group") + 1], argv[argv.index("--subgroup-gens") + 1])
    for argv in WORKLOADS.GROUP_CATALOG.pool() if argv[0] == "gtcat"
))


@pytest.mark.parametrize("pair", GTCAT_REQUESTS, ids=" > ".join)
def test_gtcat_requests_build_each_stabilizer_once(pair):
    group, subgroup = pair
    g = finitegroup.builtin_group(group)
    h = g.subgroup(finitegroup.parse_gens(subgroup, g.degree))
    orbits = finitegroup.double_coset_orbits(g, h)
    stabilizers = {id(k): k for _, _, k in orbits}.values()
    assert len(stabilizers) == len({tuple(k.elements) for k in stabilizers})
    for x, _, k in orbits:
        # stabilizer_intersection(g, h, y) is H n yHy^-1; the stabilizer of Hx is H n x^-1Hx
        assert k.elements == finitegroup.stabilizer_intersection(g, h, finitegroup.perm_inv(x)).elements, x


# primes drawn from `_split_primes` per `cyc` request of the pool when the
# norm and inverse went one split prime at a time: conductor -> (norm, division)
ONE_PRIME_AT_A_TIME = {60: (2, 2), 72: (3, 2), 84: (3, 2), 90: (3, 3), 105: (6, 6), 120: (4, 3),
                       126: (4, 3), 150: (5, 4), 168: (6, 5), 180: (6, 5), 210: (6, 5), 240: (8, 5)}


def test_cyc_requests_take_no_more_primes_than_one_at_a_time(monkeypatch):
    calls = []
    split_primes = cyclotomic._split_primes

    def counted(n):
        calls.append(0)
        for pair in split_primes(n):
            calls[-1] += 1
            yield pair

    monkeypatch.setattr(cyclotomic, "_split_primes", counted)
    requests = [argv for argv in WORKLOADS.CYCLOTOMIC_LARGE.pool() if argv[0] == "cyc"]
    assert len(requests) == 3 * len(ONE_PRIME_AT_A_TIME)
    for argv in requests:
        calls.clear()
        golden = GOLDENS[WORKLOADS.argv_key(argv)]
        assert _reply(argv) == (golden["exit"], golden["sha256"])
        norm, division = ONE_PRIME_AT_A_TIME[int(argv[argv.index("--n") + 1])]
        if "--galois" in argv:
            assert calls == []
        else:
            assert len(calls) == 1 and calls[0] <= (norm if "--norm" in argv else division), argv
