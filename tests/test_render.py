"""The JSON renderer against its definition.

The oracle is the two-step rendering the CLI had before: every number made
a decimal string by `_stringify`, then `json.dumps(indent=2,
sort_keys=True)`.  The renderer must give the same bytes for any payload,
shared blocks included, and for every request the benchmark pools send.
"""

import contextlib
import io
import json
from collections import OrderedDict
from enum import Enum, IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import cli
from fuscat.cli import main, render_json
from fuscat.cyclotomic import CycNum

from test_pool_replay import WORKLOADS


def _stringify(obj):
    """Render every number as a decimal string, recursively."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, CycNum):
        return obj.to_json()
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def oracle(obj) -> str:
    return json.dumps(_stringify(obj), indent=2, sort_keys=True)


_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "\U0001d11e", "/"])
_TEXT = st.text() | st.lists(_SPECIAL | st.text(max_size=3), max_size=6).map("".join)
_INTS = st.integers() | st.integers(-(10**60), 10**60) | st.sampled_from([0, -1, 2**64, -(10**40)])
_CYC = st.builds(CycNum, st.integers(1, 12), st.lists(st.integers(-(10**20), 10**20), max_size=12),
                 st.integers(1, 10**6) | st.integers(-50, -1))
_LEAVES = (_TEXT | _INTS | st.fractions() | st.booleans() | st.none() | _CYC)
_KEYS = _TEXT | st.integers(-1000, 1000)


def _containers(children):
    return (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(_KEYS, children, max_size=5))


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=30)


@st.composite
def _payloads(draw):
    """A nested value with one object shared twice at one depth and again at another."""
    shared = draw(st.sampled_from([[], {}]) | _containers(_VALUES) | _CYC)
    rest = draw(_VALUES)
    return {
        "twice": [shared, shared],
        "deeper": {"again": [rest, {"x": shared}]},
        "rest": rest,
        "empty": [{}, [], ()],
    }


@settings(max_examples=150, deadline=None)
@given(payload=_payloads())
def test_renderer_matches_the_oracle(payload):
    assert render_json(payload) == oracle(payload)


@settings(max_examples=100, deadline=None)
@given(value=_VALUES)
def test_renderer_matches_the_oracle_on_any_value(value):
    assert render_json(value) == oracle(value)


class Level(IntEnum):
    LOW = 1


class Mode(str, Enum):
    QUICK = "quick"


def test_renderer_splices_a_shared_block_per_depth():
    block = {"b": [1, Fraction(-1, 3)], "a": "\"é\\"}
    z = CycNum(5, [1, 2, 3])
    payload = {"one": [block, block, z, z], "two": {"deep": block, "z": z}, 3: True, "3": None}
    assert render_json(payload) == oracle(payload)


def test_renderer_takes_subclasses_as_the_oracle_does():
    payload = OrderedDict(b=[Level.LOW, Mode.QUICK], a=(Level.LOW, {Level.LOW: Mode.QUICK}))
    assert render_json(payload) == oracle(payload)


def test_renderer_refuses_what_json_cannot_encode():
    with pytest.raises(TypeError):
        render_json({"a": object()})


# one request per subcommand and action, beside the pools
SUBCOMMANDS = [
    ("cyc", "1/(2+z^2)", "--n", "12", "--galois", "5", "--norm"),
    ("lemma-norm", "--nmax", "30"),
    ("verlinde", "simples", "--type", "A2", "--l", "9"),
    ("verlinde", "classify", "--type", "A1", "--l", "9", "--p", "3"),
    ("verlinde", "badprimes", "--type", "A1", "--l", "15", "--pmax", "40"),
    ("group", "--gens", "(1 2)(3 4), (1 2 3)"),
    ("gtcat", "simples", "--group", "S4", "--subgroup-gens", "(1 2),(3 4)"),
    ("gtcat", "badprimes", "--group", "S4", "--subgroup-gens", "(1 2)"),
    ("ito-michler", "--group", "A4", "--p", "2"),
    ("amplitude", "t4", "--classical"),
    ("amplitude", "t4", "--quantum", "--l", "8"),
    ("crosscheck", "--group", "S3"),
]

POOL = list(dict.fromkeys(argv for w in WORKLOADS.WORKLOADS.values() for argv in w.pool()))


def _json_reply_and_oracle(monkeypatch, argv):
    """Stdout of the request with --json, and the oracle's text of its report."""
    reports = []
    payload = cli.Report.payload

    def spy(report):
        reports.append(report)
        return payload(report)

    monkeypatch.setattr(cli.Report, "payload", spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--json"])
    assert code == 0
    (report,) = reports
    expected = oracle({"command": report.command, "params": report.params,
                       "provenance": report.provenance, "result": report.result})
    return out.getvalue(), expected


@pytest.mark.parametrize("argv", SUBCOMMANDS + POOL, ids=" ".join)
def test_json_reply_is_the_oracle_text(monkeypatch, argv):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    reply, expected = _json_reply_and_oracle(monkeypatch, argv)
    assert reply == expected + "\n"


def test_the_requests_cover_every_subcommand():
    commands = {argv[0] if argv[0] not in ("verlinde", "gtcat") else argv[:2] for argv in SUBCOMMANDS}
    assert commands == {"cyc", "lemma-norm", ("verlinde", "simples"), ("verlinde", "classify"),
                        ("verlinde", "badprimes"), "group", ("gtcat", "simples"), ("gtcat", "badprimes"),
                        "ito-michler", "amplitude", "crosscheck"}
    assert {argv[2] for argv in SUBCOMMANDS if argv[0] == "amplitude"} == {"--classical", "--quantum"}
    assert len(POOL) == 145


@pytest.mark.parametrize("argv", [
    ("verlinde", "simples", "--type", "A2", "--l", "7"),
    ("group", "--group", "Q8"),
])
def test_json_and_out_render_once_and_agree(monkeypatch, tmp_path, argv):
    calls = []
    payload = cli.Report.payload

    def spy(report):
        calls.append(report)
        return payload(report)

    monkeypatch.setattr(cli.Report, "payload", spy)
    target = tmp_path / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json", "--out", str(target)]) == 0
    assert len(calls) == 1
    assert target.read_bytes() == out.getvalue().encode()
