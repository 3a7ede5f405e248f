import importlib
import io
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuscat import amplitude, arith, cli, cyclotomic, finitegroup, verlinde
from fuscat.arith import primes_upto
from fuscat.cli import main
from fuscat.cyclotomic import CycNum
from fuscat.errors import PreconditionError
from fuscat.rootsys import build_root_system, enumerate_alcove
from fuscat.verlinde import qdim_norm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_lemma_norm_table(capsys):
    code, out, _ = run(capsys, "lemma-norm", "--nmax", "20")
    assert code == 0
    assert "all 19 values match the prime-power rule: True" in out


def test_lemma_norm_json_round_trip(capsys):
    code, payload = run_json(capsys, "lemma-norm", "--nmax", "12")
    assert code == 0
    assert payload["result"]["all_match"] is True
    rows = payload["result"]["rows"]
    assert rows[0] == {"n": "2", "norm": "2", "rule": "2", "match": True}
    # round trip: dump and reparse reproduces the payload
    assert json.loads(json.dumps(payload)) == payload


def test_lemma_norm_rows_against_the_generic_difference():
    rows = cli._root_of_unity_norms(60)
    assert [r["norm"] for r in rows] == [(1 - CycNum.zeta(n)).norm() for n in range(2, 61)]


def test_cyc_command(capsys):
    code, payload = run_json(capsys, "cyc", "(1+z)*(1-z)", "--n", "8", "--norm")
    assert code == 0
    assert payload["result"]["value"]["numerator"] == ["1", "0", "-1", "0"]
    assert payload["result"]["norm"] == "4"


def test_verlinde_classify_json(capsys):
    code, payload = run_json(capsys, "verlinde", "classify", "--type", "A1", "--l", "9", "--p", "3")
    assert code == 0
    cls = payload["result"]["classification"]
    assert cls["verdict"] == "Bad"
    assert cls["witness"] == ["2"]
    assert payload["provenance"]["q_convention"].startswith("q = zeta_{2l}")


def test_verlinde_classify_prints_the_detail_of_a_failed_hypothesis(capsys):
    argv = ("verlinde", "classify", "--type", "A4", "--l", "15", "--p", "3")
    detail = "p=3 divides composite l=15 but p < h=5"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == f"A4, l=15, p=3: OutsideTheorem (hypothesis-failure)\n{detail}\n"
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["result"]["classification"]["detail"] == detail


def test_verlinde_simples(capsys):
    code, payload = run_json(capsys, "verlinde", "simples", "--type", "A1", "--l", "8")
    assert code == 0
    simples = payload["result"]["simples"]
    assert len(simples) == 7
    assert simples[0]["qdim"]["numerator"] == ["1", "0", "0", "0", "0", "0", "0", "0"]
    assert [s["norm"] for s in simples] == ["1", "4", "1", "64", "1", "4", "1"]


def test_verlinde_badprimes_table(capsys):
    code, out, _ = run(capsys, "verlinde", "badprimes", "--type", "A1", "--l", "15", "--pmax", "10")
    assert code == 0
    assert "Bad" in out and "scan hits" in out


@pytest.mark.parametrize("label, l", [("A1", 8), ("A1", 9), ("A1", 15), ("A1", 21), ("A2", 15), ("A3", 15)])
def test_badprimes_scans_only_the_primes_dividing_l(capsys, label, l):
    rs = build_root_system(label)
    norms = [(w, qdim_norm(rs, l, w)) for w in enumerate_alcove(rs, l)]
    every_prime = {p: [list(w) for w, n in norms if n % p == 0] for p in primes_upto(50)}
    every_prime = {p: hits for p, hits in every_prime.items() if hits}
    assert all(l % p == 0 for p in every_prime)
    code, payload = run_json(capsys, "verlinde", "badprimes", "--type", label, "--l", str(l), "--pmax", "50")
    assert code == 0
    scan = payload["result"]["dimension_scan_witnesses"]
    assert scan == {str(p): [[str(v) for v in w] for w in hits] for p, hits in every_prime.items()}
    code, out, _ = run(capsys, "verlinde", "badprimes", "--type", label, "--l", str(l), "--pmax", "50")
    rows = [line.split() for line in out.splitlines()[3:]]
    assert [(int(r[0]), int(r[-1])) for r in rows] == [(p, len(every_prime.get(p, []))) for p in primes_upto(50)]


def test_badprimes_refuses_a_classifier_refusal_that_is_no_failed_hypothesis(capsys, monkeypatch):
    # only a failed classifier hypothesis becomes a hypothesis-failure row;
    # any other refusal inside classify_prime exits 2
    def refuse(rs, l, weight):
        raise PreconditionError("the witness norm is refused")

    monkeypatch.setattr(verlinde, "qdim_norm", refuse)
    code, out, err = run(capsys, "verlinde", "badprimes", "--type", "A1", "--l", "15", "--pmax", "10")
    assert (code, out) == (2, "")
    assert err == "error: the witness norm is refused\n"


def test_group_report(capsys):
    code, payload = run_json(capsys, "group", "--group", "S3")
    assert code == 0
    res = payload["result"]
    assert res["order"] == "6"
    assert res["degrees"] == ["1", "1", "2"]
    assert res["bad_primes"] == [{"prime": "2", "witness_degree": "2"}]
    assert res["good_primes_dividing_order"] == ["3"]


def test_group_from_gens(capsys):
    code, payload = run_json(capsys, "group", "--gens", "(1 2)(3 4), (1 2 3)")
    assert code == 0
    assert payload["result"]["order"] == "12"


def test_gtcat_badprimes(capsys):
    code, payload = run_json(
        capsys, "gtcat", "badprimes", "--group", "S3", "--subgroup-gens", "(1 2)"
    )
    assert code == 0
    res = payload["result"]
    assert res["sum_of_squares"] == "6"
    assert [b["prime"] for b in res["bad_primes"]] == ["2"]
    assert payload["provenance"]["cocycle_restriction"].startswith("trivial cocycles")


@pytest.mark.parametrize("argv, gen", [
    (("simples", "--group", "A4"), "(1 2)"),  # the parity rule
    (("simples", "--group", "D12"), "(1 2)"),  # the rotation and reflection rule
    (("simples", "--group", "S3xC2"), "(1 4)"),  # a point leaves its factor's block
    (("badprimes", "--gens", "(1 2 3)"), "(1 2)"),  # the element index
])
def test_gtcat_refuses_a_subgroup_generator_outside_the_group(capsys, argv, gen):
    code, out, err = run(capsys, "gtcat", *argv, "--subgroup-gens", gen)
    assert (code, out) == (2, "")
    assert err == f"error: {gen} is not an element of the group\n"


def test_ito_michler_cli(capsys):
    code, payload = run_json(capsys, "ito-michler", "--group", "A4", "--p", "2")
    assert code == 0
    res = payload["result"]
    assert res["applicable"] is True
    assert res["sylow_order"] == "4" and res["complement_order"] == "3"
    code, payload = run_json(capsys, "ito-michler", "--group", "S4", "--p", "2")
    assert code == 0
    assert payload["result"]["applicable"] is False


def test_amplitude_cli(capsys):
    code, payload = run_json(capsys, "amplitude", "t4", "--classical")
    assert code == 0
    assert payload["result"]["value"] == "3/2"
    assert payload["result"]["certificates"] == [
        {"prime": "2", "divides_denominator_norm": True}
    ]
    code, payload = run_json(capsys, "amplitude", "t4", "--quantum", "--l", "8")
    assert code == 0
    assert payload["result"]["square"] == "1/2"
    assert payload["result"]["denominator"] == "2"


@pytest.mark.parametrize("l", ["451", "100001", str(10**30)])
def test_quantum_amplitude_refuses_a_conductor_above_the_limit_at_once(capsys, monkeypatch, l):
    monkeypatch.setattr(amplitude, "q_integer", lambda *a: pytest.fail("a q-integer was built"))
    start = time.perf_counter()
    code, out, err = run(capsys, "amplitude", "t4", "--quantum", "--l", l)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: --l {l} puts the conductor 2l above the limit 900\n"


def test_quantum_amplitude_admits_the_largest_level(capsys):
    assert 2 * 450 == cli.CONDUCTOR_LIMIT
    code, out, err = run(capsys, "amplitude", "t4", "--quantum", "--l", "450")
    assert code == 0 and err == ""
    assert out.startswith("quantum square amplitude at l=450: ")


def test_amplitude_classical_text(capsys):
    code, out, err = run(capsys, "amplitude", "t4", "--classical")
    assert code == 0 and err == ""
    assert out == (
        "classical square amplitude on the rank-3 bracket tensor: 3/2\n"
        "trace-identity cross-check: 3/2 (agrees)\n"
        "denominator primes: [2]\n"
    )


@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_bad_input(capsys, tmp_path, where, fmt):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "group", "--group", "S3", "--out", str(target), *fmt)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err


def test_crosscheck_failure_keeps_exit_one_when_out_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "cyclotomic_at_one", lambda n: 0)
    code, out, err = run(capsys, "crosscheck", "--group", "S3", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert f"error: cannot write {tmp_path}: " in err and "Traceback" not in err


CLOSED_STDOUT = "error: cannot write to stdout: the reader has closed it\n"


@pytest.mark.parametrize("argv", [
    ["group", "--group", "S3"],  # fits the buffer: the pipe breaks at the flush
    ["verlinde", "simples", "--type", "A3", "--l", "15", "--json"],  # breaks inside print
])
def test_closed_stdout_is_bad_input_without_traceback(argv):
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fuscat.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.returncode == 2 and proc.stderr == CLOSED_STDOUT


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_crosscheck_failure_keeps_exit_one_when_stdout_is_closed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cyclotomic_at_one", lambda n: 0)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["crosscheck", "--group", "S3"]) == 1
    assert capsys.readouterr().err == CLOSED_STDOUT


@pytest.mark.parametrize("nmax", ["1", "0", "-4"])
def test_lemma_norm_needs_nmax_at_least_two(capsys, nmax):
    code, out, err = run(capsys, "lemma-norm", "--nmax", nmax)
    assert code == 2 and out == ""
    assert "--nmax must be at least 2" in err and "Traceback" not in err


def test_lemma_norm_admits_nmax_up_to_the_limit(capsys):
    assert cli.NMAX_LIMIT == 500
    code, out, _ = run(capsys, "lemma-norm", "--nmax", "500")
    assert code == 0 and out.splitlines()[-1] == "all 499 values match the prime-power rule: True"


def test_lemma_norm_refuses_nmax_above_the_limit_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_root_of_unity_norms", lambda nmax: pytest.fail("the table was built"))
    start = time.perf_counter()
    code, out, err = run(capsys, "lemma-norm", "--nmax", "501")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "--nmax 501 exceeds the limit 500" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["S7x", "x", "S3xxC4"])
def test_empty_factor_names_the_whole_group(capsys, name):
    code, out, err = run(capsys, "group", "--group", name)
    assert code == 2 and out == ""
    assert f"bad group name {name!r}: a factor is empty" in err and "Traceback" not in err


def test_named_symmetric_group_builds_no_table(capsys, monkeypatch):
    groups, built = [], []
    builtin_group = cli.builtin_group

    def group_spy(name, cap=None):
        groups.append(builtin_group(name, cap=cap))
        return groups[-1]

    monkeypatch.setattr(cli, "builtin_group", group_spy)
    monkeypatch.setattr(cli.PermGroup, "from_generators", staticmethod(lambda *a, **k: built.append(a)))
    monkeypatch.setattr(finitegroup, "_class_matrix", lambda g, i: built.append(g))
    code, out, _ = run(capsys, "group", "--group", "S7")
    assert code == 0 and out.startswith("|G| = 5040 on 7 points\nconjugacy classes: 15\n")
    (g,) = groups
    assert g.family == ("S", 7) and built == []
    assert g._elements is None and g._index is None and g._class_of is None


@pytest.mark.parametrize("argv, head", [
    (("group", "--group", "D2000"), "|G| = 2000 on 1000 points\nconjugacy classes: 503\n"),
    (("ito-michler", "--group", "D2000", "--p", "2"), "p = 2: NotApplicable"),
    (("ito-michler", "--group", "D12xD12", "--p", "3"), "p = 3: applicable"),
])
def test_named_dihedral_group_builds_no_table(capsys, monkeypatch, argv, head):
    groups, built = [], []
    builtin_group = cli.builtin_group

    def group_spy(name, cap=None):
        groups.append(builtin_group(name, cap=cap))
        return groups[-1]

    monkeypatch.setattr(cli, "builtin_group", group_spy)
    monkeypatch.setattr(cli.PermGroup, "from_generators", staticmethod(lambda *a, **k: built.append(a)))
    monkeypatch.setattr(finitegroup, "_class_matrix", lambda g, i: built.append(g))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith(head) and built == []
    (g,) = groups
    for d in g.factors or (g,):
        assert d.family[0] == "D" and d._elements is None and d._index is None and d._class_of is None


@pytest.mark.parametrize("argv", [
    ("amplitude", "t4", "--classical"),
    ("amplitude", "t4", "--quantum", "--l", "8"),
    ("verlinde", "badprimes", "--type", "A1", "--l", "9"),
])
@pytest.mark.parametrize("pmax", ["1", "0", "-1", "-5"])
def test_pmax_needs_at_least_two(capsys, argv, pmax):
    code, out, err = run(capsys, *argv, "--pmax", pmax)
    assert code == 2 and out == ""
    assert f"--pmax must be at least 2 (the least prime), got {pmax}" in err and "Traceback" not in err
    code, out, _ = run(capsys, *argv, "--pmax", "2")
    assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ("amplitude", "t4", "--classical"),
    ("amplitude", "t4", "--quantum", "--l", "9"),
    ("verlinde", "badprimes", "--type", "A1", "--l", "9"),
])
def test_pmax_is_admitted_up_to_the_limit(capsys, argv):
    assert cli.PMAX_LIMIT == 100000
    code, out, err = run(capsys, *argv, "--pmax", "100000")
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv", [
    ("amplitude", "t4", "--classical"),
    ("amplitude", "t4", "--quantum", "--l", "9"),
    ("verlinde", "badprimes", "--type", "A1", "--l", "9"),
])
def test_pmax_above_the_limit_is_refused_before_the_sieve(capsys, monkeypatch, argv):
    for module in (cli, arith):
        monkeypatch.setattr(module, "primes_upto", lambda n: pytest.fail("the primes were sieved"))
    monkeypatch.setattr(verlinde, "alcove_norms", lambda *a: pytest.fail("the alcove was walked"))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--pmax", "100001")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "--pmax 100001 exceeds the limit 100000" in err and "Traceback" not in err


def test_cyc_admits_conductors_up_to_the_limit(capsys):
    assert cli.CONDUCTOR_LIMIT == 900
    code, payload = run_json(capsys, "cyc", "1/(2+z+z^3)", "--n", "900")
    assert code == 0
    value = payload["result"]["value"]
    assert value["conductor"] == "900" and len(value["numerator"]) == 240  # phi(900)
    code, out, _ = run(capsys, "cyc", "2+z+3*z^7", "--n", "900", "--norm")
    assert code == 0 and out.splitlines()[-1].startswith("norm = ")


def test_cyc_refuses_an_inverse_above_the_work_limit_at_once(capsys):
    assert cyclotomic.WORK_LIMIT == 12_000_000
    start = time.perf_counter()
    code, out, err = run(capsys, "cyc", "1/(99+98*z+97*z^2)", "--n", "887")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert "above the limit 12000000" in err
    # a negative power inverts its base through the same check
    code, _, err = run(capsys, "cyc", "(99+98*z+97*z^2)^-1", "--n", "887")
    assert code == 2 and "above the limit 12000000" in err


def test_cyc_admits_a_cheap_inverse_of_many_bits_at_a_small_conductor(capsys):
    # phi(3) * log2 ||f||_1 is about 8637 bits, but 18 steps of 11 multiplications,
    # 8 * 1000 for the primes and (3 + 4) * 18 for the CRT: 146466
    start = time.perf_counter()
    code, payload = run_json(capsys, "cyc", "1/(10^1300+z)", "--n", "3")
    assert time.perf_counter() - start < 1
    assert code == 0
    value = payload["result"]["value"]
    inverse = CycNum(3, [int(v) for v in value["numerator"]], int(value["denominator"]))
    assert inverse * CycNum(3, [10**1300, 1]) == 1


def test_cyc_refuses_a_product_chain_divisor_at_a_small_conductor_at_once(capsys, monkeypatch):
    # 100 factors of 10^4000 make a divisor of about 2.66M bits at n = 3: 5424
    # steps of 11 multiplications, but each draws 8 primes (8 * 1000) and its
    # CRT works against a modulus that grows to 2.66M bits ((3 + 4) * 5424):
    # 249390096 in all
    monkeypatch.setattr(cyclotomic, "_split_primes", lambda n: pytest.fail("a prime was drawn"))
    chain = "*".join(["10^4000"] * 100)
    start = time.perf_counter()
    code, out, err = run(capsys, "cyc", f"1/({chain}+z)", "--n", "3")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert "error: inverse in Q(zeta_3) " in err and "249390096 multiplications, above the limit 12000000" in err


def test_cyc_refuses_a_norm_above_the_work_limit_at_once(capsys):
    rng = random.Random(887)
    expr = "+".join(f"{rng.randint(10**39, 10**40)}*z^{i}" for i in range(880))
    start = time.perf_counter()
    code, out, err = run(capsys, "cyc", expr, "--n", "887", "--norm")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: norm in Q(zeta_887) ") and "above the limit 12000000" in err


def test_cyc_admits_the_largest_prime_conductor_inverse(capsys):
    code, payload = run_json(capsys, "cyc", "1/(2+z+z^3)", "--n", "887")
    assert code == 0 and len(payload["result"]["value"]["numerator"]) == 886


def test_cyc_refuses_conductors_above_the_limit_before_phi_is_built(capsys, monkeypatch):
    monkeypatch.setattr(cyclotomic, "_conductor", lambda n: pytest.fail(f"Phi_{n} was built"))
    monkeypatch.setattr(cli, "parse_element", lambda *a: pytest.fail("the expression was parsed"))
    for argv in (["z", "--norm"], ["1/(2+z+z^3)"], ["2+z+3*z^7", "--galois", "5"]):
        code, out, err = run(capsys, "cyc", *argv, "--n", "901")
        assert code == 2 and out == ""
        assert err == "error: --n 901 exceeds the limit 900\n"
    code, out, err = run(capsys, "cyc", "z", "--n", "1000000000", "--norm")
    assert code == 2 and "--n 1000000000 exceeds the limit 900" in err


def test_crosscheck_runs_ito_michler_for_every_prime_of_the_order(capsys, monkeypatch):
    primes = []
    verify = cli.ito_michler_verify

    def spy(g, p):
        primes.append(p)
        return verify(g, p)

    monkeypatch.setattr(cli, "ito_michler_verify", spy)
    code, out, _ = run(capsys, "crosscheck", "--group", "S7")
    assert code == 0 and "FAIL" not in out
    assert primes == [2, 3, 5, 7]


def test_crosscheck_passes(capsys):
    for group in ("S3", "S4"):
        code, out, _ = run(capsys, "crosscheck", "--group", group)
        assert code == 0
        assert "FAIL" not in out


def test_crosscheck_whole_corpus(capsys):
    code, payload = run_json(capsys, "crosscheck", "--all")
    assert code == 0
    assert payload["result"]["all_passed"] is True
    assert len(payload["result"]["checks"]) >= 60


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "group", "--group", "Q8", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["result"]["degrees"] == ["1", "1", "1", "1", "2"]


def test_exit_code_on_precondition(capsys):
    code, _, err = run(capsys, "verlinde", "classify", "--type", "A1", "--l", "8", "--p", "2")
    assert code == 2
    assert "odd" in err


def test_exit_code_on_usage():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# (argv, environment) of requests that take every exit route of main
REUSE_REQUESTS = [
    (["verlinde", "classify", "--type", "A1", "--p", "3"], {}),  # --l missing
    (["group", "--group", "S3", "--bogus", "1"], {}),  # unknown option
    (["cyc", "-z", "--n", "5"], {}),  # the expression read back from the extras
    (["ito-michler", "--group", "S4", "--p", "2"], {"FUSCAT_ENUM_CAP": "abc"}),
    (["verlinde", "classify", "--type", "A4", "--l", "35", "--p", "5"], {}),
    (["verlinde", "simples", "--type", "A2", "--l", "5", "--json"], {}),
    (["cyc", "1 + z^2", "--n", "7", "--galois", "3", "--norm"], {}),
    (["group", "--group", "S4", "--json"], {}),
    (["gtcat", "badprimes", "--group", "S4", "--subgroup-gens", "(1 2)"], {}),
]


def _full_reply(argv, env):
    """(exit code, stdout, stderr) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        for key, value in env.items():
            mp.setenv(key, value)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_parser_is_built_once(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    codes = [_full_reply(argv, env)[0] for argv, env in REUSE_REQUESTS]
    assert codes == [2, 2, 0, 2, 0, 0, 0, 0, 0]
    # two interleaved passes through the shared parser, then each request on a new one
    order = list(range(len(REUSE_REQUESTS))) + list(reversed(range(len(REUSE_REQUESTS))))
    reused = [(i, _full_reply(*REUSE_REQUESTS[i])) for i in order]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_full_reply(argv, env) for argv, env in REUSE_REQUESTS]
    assert all(reply == fresh[i] for i, reply in reused)


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import fuscat.cli as c; print(c.build_parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_deterministic_output(capsys):
    _, first = run_json(capsys, "gtcat", "simples", "--group", "S4", "--subgroup-gens", "(1 2),(3 4)")
    _, second = run_json(capsys, "gtcat", "simples", "--group", "S4", "--subgroup-gens", "(1 2),(3 4)")
    assert first == second


@pytest.mark.parametrize("command", [
    ["group", "--group", "S3"],
    ["gtcat", "simples", "--group", "S3"],
    ["ito-michler", "--group", "S3", "--p", "3"],
    ["crosscheck", "--group", "S3"],
])
def test_malformed_enum_cap_env_is_bad_input(capsys, monkeypatch, command):
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "abc")
    code, out, err = run(capsys, *command)
    assert code == 2
    assert "FUSCAT_ENUM_CAP" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_cap_is_refused(capsys, monkeypatch, cap):
    monkeypatch.setenv("FUSCAT_ENUM_CAP", cap)
    code, _, err = run(capsys, "group", "--group", "S3")
    assert code == 2 and "positive" in err
    monkeypatch.delenv("FUSCAT_ENUM_CAP")
    for command in (["group", "--group", "S3"], ["crosscheck", "--group", "S3"]):
        code, _, err = run(capsys, *command, "--cap", cap)
        assert code == 2 and "positive" in err


def test_provenance_reports_the_cap_in_force(capsys, monkeypatch):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    _, payload = run_json(capsys, "group", "--group", "S3")
    assert payload["provenance"]["enum_cap"] == "20000"
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "30")
    for command in (
        ["group", "--group", "S3"],
        ["gtcat", "badprimes", "--group", "S3"],
        ["ito-michler", "--group", "S3", "--p", "3"],
    ):
        code, payload = run_json(capsys, *command)
        assert code == 0 and payload["provenance"]["enum_cap"] == "30"
    code, payload = run_json(capsys, "group", "--group", "S3", "--cap", "7")
    assert code == 0 and payload["provenance"]["enum_cap"] == "7"
    code, _, _ = run(capsys, "group", "--group", "S5")  # 120 elements exceed the env cap
    assert code == 2


def test_cap_bounds_product_groups(capsys, monkeypatch):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    # each factor has 6 elements, the product 36: the product must meet the cap too
    code, out, err = run(capsys, "group", "--group", "S3xS3", "--cap", "30")
    assert code == 2 and "cap 30" in err and out == ""
    code, payload = run_json(capsys, "group", "--group", "S3xS3", "--cap", "36")
    assert code == 0 and payload["result"]["order"] == "36"
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "30")
    code, _, err = run(capsys, "group", "--group", "S3xS3")
    assert code == 2 and "cap 30" in err


@pytest.mark.parametrize("name", [
    "C100000000", "S100000", "D100000000", "A100000", "S3xC100000000",
    "C20001", "D20002", "S9", "A12", "S7xS4",
    pytest.param("C" + "1" * 5000, id="C111...1"),
    pytest.param("C" + "0" * 5000 + "30001", id="C000...030001"),
])
def test_oversized_builtins_are_refused_before_they_are_built(capsys, monkeypatch, name):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "--group", name)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "exceeds the enumeration cap 20000" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["C2000", "D8000", "C120xC120", "S3xC700xC3"])
def test_oversized_element_tables_are_refused_before_they_are_built(capsys, monkeypatch, name):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    monkeypatch.setattr(cli.PermGroup, "from_generators", staticmethod(no_enumeration))
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "--group", name)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "exceeds 100 x the enumeration cap 20000" in err and "FUSCAT_ENUM_CAP" in err


def test_raised_cap_lets_a_large_table_through(capsys, monkeypatch):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    code, out, _ = run(capsys, "group", "--group", "C2000", "--cap", "40000")
    assert code == 0 and out.startswith("|G| = 2000 on 2000 points")
    code, out, _ = run(capsys, "group", "--group", "C1414")
    assert code == 0 and out.startswith("|G| = 1414 on 1414 points")


def test_generated_tables_are_bounded_too(capsys):
    cycle = "(" + " ".join(str(i) for i in range(1, 201)) + ")"
    code, _, err = run(capsys, "group", "--gens", cycle, "--cap", "399")
    assert code == 2 and "exceeds 100 x the enumeration cap 399" in err
    code, payload = run_json(capsys, "group", "--gens", cycle, "--cap", "400")
    assert code == 0 and payload["result"]["order"] == "200"


@pytest.mark.parametrize("argv, message", [
    (["--gens", "(1 2)", "--degree", "10001"], "--degree 10001 exceeds 100 x the enumeration cap 100"),
    (["--gens", "(1 10001)"], "point 10001 exceeds 100 x the enumeration cap 100"),
    (["--gens", "(1 2), (3 00000000000000000000000000010001)"], "point 10001 exceeds"),
    (["--gens", "(1 2)", "--degree", "0"], "--degree 0 is not positive"),
    (["--gens", "(1 2)", "--degree", "-5"], "--degree -5 is not positive"),
    (["--group", "S3", "--degree", "0"], "--degree 0 is not positive"),
    (["--group", "S3", "--degree", "5"], "--degree applies only to --gens"),
])
def test_points_are_bounded_before_any_permutation_is_built(capsys, monkeypatch, argv, message):
    built = []
    monkeypatch.setattr(cli, "parse_gens", lambda *a: built.append(a))
    code, out, err = run(capsys, "group", *argv, "--cap", "100")
    assert code == 2 and message in err and out == ""
    assert built == []


@pytest.mark.parametrize("argv", [
    ["group", "--group", "S3"],
    ["gtcat", "simples", "--group", "S3"],
    ["ito-michler", "--group", "S3", "--p", "3"],
])
def test_degree_is_refused_beside_a_builtin(capsys, argv):
    code, out, err = run(capsys, *argv, "--degree", "3")
    assert code == 2 and out == "" and err == "error: --degree applies only to --gens\n"


@pytest.mark.parametrize("argv, params", [
    (["group", "--gens", "(1 2 3)", "--degree", "5"], {"group": None, "gens": "(1 2 3)", "degree": "5"}),
    (["gtcat", "simples", "--gens", "(1 2 3)", "--degree", "5"],
     {"group": None, "gens": "(1 2 3)", "degree": "5", "subgroup_gens": None}),
    (["ito-michler", "--gens", "(1 2 3)", "--p", "3"],
     {"group": None, "gens": "(1 2 3)", "degree": None, "p": "3"}),
    (["ito-michler", "--group", "A4", "--p", "2"], {"group": "A4", "gens": None, "degree": None, "p": "2"}),
])
def test_group_params_name_the_group(capsys, argv, params):
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["params"] == params


@pytest.mark.parametrize("argv, message", [
    (["amplitude", "t4", "--classical", "--l", "5"], "--l applies only to --quantum"),
    (["crosscheck", "--all", "--group", "S5"], "--group does not apply with --all"),
    (["group", "--group", "S3", "--gens", "(1 2)"], "--gens and --group each name a group; give one"),
])
def test_flags_that_do_not_apply_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_points_up_to_the_table_bound_still_answer(capsys):
    code, out, _ = run(capsys, "group", "--gens", "(1 2)", "--degree", "5000", "--cap", "100")
    assert code == 0 and out.startswith("|G| = 2 on 5000 points")
    code, out, _ = run(capsys, "group", "--gens", "(1 5000)", "--cap", "100")
    assert code == 0 and out.startswith("|G| = 2 on 5000 points")


def test_subgroup_points_are_bounded_by_the_degree_of_g(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "parse_gens", lambda *a: built.append(a))
    code, out, err = run(capsys, "gtcat", "simples", "--group", "S3", "--subgroup-gens", "(1 2000000)")
    assert code == 2 and "point 2000000 exceeds the degree 3 of G" in err and out == ""
    assert built == []
    monkeypatch.undo()
    code, out, _ = run(capsys, "gtcat", "simples", "--group", "S3", "--subgroup-gens", "(1 3)")
    assert code == 0 and out.startswith("|G| = 6, |H| = 2")


def test_raised_cap_lets_a_product_through(capsys, monkeypatch):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    code, _, err = run(capsys, "group", "--group", "S7xC2xC2")
    assert code == 2 and "cap 20000" in err
    code, payload = run_json(capsys, "group", "--group", "S7xC2xC2", "--cap", "20161")
    assert code == 0 and payload["result"]["order"] == "20160"
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "30")
    code, payload = run_json(capsys, "group", "--group", "S3xS3", "--cap", "37")
    assert code == 0 and payload["result"]["order"] == "36"


@pytest.mark.parametrize("name, order, classes", [
    ("D12xD12xD12", "1728", 216), ("SL23xSL23xC3", "1728", 147),
])
def test_large_products_answer_from_their_factors(capsys, name, order, classes):
    start = time.perf_counter()
    code, payload = run_json(capsys, "group", "--group", name)
    assert time.perf_counter() - start < 2
    assert code == 0 and payload["result"]["order"] == order
    assert len(payload["result"]["degrees"]) == classes


@pytest.mark.parametrize("argv", [
    ("group", "--group", "C256"),  # did not finish in 60 s with the class-matrix route
    ("ito-michler", "--group", "C512", "--p", "2"),  # past 100 s with |S|^2 closure pairs
])
def test_large_abelian_groups_answer_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 0 and out and "Traceback" not in err


def test_product_degrees_match_generic_degrees(capsys):
    _, by_name = run_json(capsys, "group", "--group", "S3xS3")
    _, by_gens = run_json(capsys, "group", "--gens", "(1 2), (1 2 3), (4 5), (4 5 6)")
    assert by_name["result"]["order"] == by_gens["result"]["order"] == "36"
    assert by_name["result"]["degrees"] == by_gens["result"]["degrees"]


@pytest.mark.parametrize("expr", ["2^20000", "2^10^8", "2^(10^400)", "(1+z)^-40000"])
def test_oversized_power_is_bad_input(capsys, expr):
    code, out, err = run(capsys, "cyc", expr, "--n", "5")
    assert code == 2
    assert "exponent" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv, what", [
    (["2^4000*2^4000*2^4000*2^4000"], "value"),
    (["(2*z)^4000", "--norm"], "norm"),
    (["6*10^4299*(z-z^2)", "--galois", "2"], "Galois image"),  # the reduction doubles a coefficient
])
def test_unprintable_result_is_bad_input(capsys, argv, what):
    code, out, err = run(capsys, "cyc", *argv, "--n", "5")
    assert code == 2
    assert what in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("expr", ["+".join(["1"] * 5000), "0+" + "-" * 3000 + "1"],
                         ids=["5000-terms", "3000-minus-signs"])
def test_overlong_expression_is_bad_input(capsys, expr):
    code, out, err = run(capsys, "cyc", expr, "--n", "5")
    assert code == 2
    assert "nested" in err and "Traceback" not in err
    assert out == ""


def test_cyc_works_in_the_field_that_n_names(capsys):
    for expr in ("z-z+2", "2"):
        code, out, _ = run(capsys, "cyc", expr, "--n", "8", "--norm")
        assert code == 0 and "norm = 16" in out.splitlines()
    code, out, err = run(capsys, "cyc", "2", "--n", "8", "--galois", "2")
    assert code == 2 and "coprime" in err and out == ""
    # the error names the exponent given, not its residue mod n
    code, out, err = run(capsys, "cyc", "z", "--n", "2", "--galois", "2")
    assert code == 2 and "2 is not coprime to the conductor 2" in err and out == ""
    code, out, err = run(capsys, "cyc", "z", "--n", "6", "--galois", "-3")
    assert code == 2 and "-3 is not coprime to the conductor 6" in err and out == ""
    code, out, err = run(capsys, "cyc", "2", "--n", "0")
    assert code == 2 and "positive" in err and out == ""


@pytest.mark.parametrize("argv, value", [
    (["-z", "--n", "5"], "value = -z"),
    (["-(1+z)", "--n", "5", "--norm"], "value = -1 - z"),
    (["--n", "5", "-z"], "value = -z"),
    (["--n", "5", "--", "-z"], "value = -z"),
    (["-1+z", "--n", "3"], "value = -1 + z"),
])
def test_cyc_expression_may_start_with_minus(capsys, argv, value):
    code, out, err = run(capsys, "cyc", *argv)
    assert code == 0 and err == ""
    assert value in out.splitlines()
    if "--norm" in argv:
        assert "norm = 1" in out.splitlines()


def test_cyc_still_refuses_missing_or_extra_arguments(capsys):
    for argv in (["--n", "5"], ["-z", "-z", "--n", "5"], ["z", "--n", "5", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(["cyc", *argv])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "required: expr" in err and "unrecognized arguments: -z -z" in err


@pytest.mark.parametrize("argv, line", [
    (["ito-michler", "--group", "S4", "--p", "1000000000000000003"], "does not divide the group order"),
    (["verlinde", "classify", "--type", "A1", "--l", "9", "--p", "1000000000000000003"], "Good"),
])
def test_large_prime_arguments_answer_at_once(capsys, argv, line):
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and line in out


def test_primality_past_the_proven_range_is_bad_input(capsys):
    code, out, err = run(capsys, "verlinde", "classify", "--type", "A1", "--l", "9",
                         "--p", "3317044064679887385961981")
    assert code == 2 and "too large" in err and out == ""


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(children, st.integers(-99, 99)).map(lambda t: f"{t[0]}^{t[1]}"),
        children.map(lambda e: f"-{e}"),
    )


_ELEMENTS = st.recursive(st.integers(-99, 99).map(str) | st.just("z"), _compound, max_leaves=10)
# expressions that start with "-" and are no plain number, which argparse could read as options
_ELEMENTS |= st.just("-z") | _ELEMENTS.map(lambda e: f"-({e})")


@settings(max_examples=150, deadline=None)
@given(expr=_ELEMENTS, n=st.integers(-2, 30), galois=st.none() | st.integers(-30, 30),
       norm=st.booleans())
def test_cyc_grammar_exits_zero_or_two(expr, n, galois, norm):
    argv = ["cyc", expr, "--n", str(n)]
    argv += ["--galois", str(galois)] if galois is not None else []
    argv += ["--norm"] if norm else []
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


@pytest.mark.parametrize("expr", ["True+z", "False", "(1+z)/True"])
def test_cyc_refuses_boolean_constants(capsys, expr):
    code, out, err = run(capsys, "cyc", expr, "--n", "5")
    assert code == 2 and out == ""
    assert err == "error: only integer literals are allowed\n"


def test_gtcat_renders_each_coset_rep_once(capsys, monkeypatch):
    rendered = []
    render = cli.perm_to_cycles

    def spy(perm):
        rendered.append(perm)
        return render(perm)

    monkeypatch.setattr(cli, "perm_to_cycles", spy)
    for action in ("simples", "badprimes"):
        rendered.clear()
        code, payload = run_json(capsys, "gtcat", action, "--group", "S7", "--subgroup-gens", "(1 2 3 4 5)")
        assert code == 0
        assert len(payload["result"]["double_cosets"]) == 208 and len(payload["result"]["simples"]) == 240
        assert len(rendered) == len(set(rendered)) == 208


CROSSCHECK_S3 = """\
[pass] S3: sum of squared degrees = |G|  (degrees [1, 1, 2])
[pass] S3: #degrees = #classes
[pass] S3: bimodule category over (G,G) matches the representation verdicts  (bad primes [2])
[pass] S3: pointed category (H = e) has no bad primes
[pass] S3: double cosets of the trivial subgroup are singletons
[pass] S3: single double coset for H = G
[pass] S3: Sylow structure verified for primes dividing |G|
[pass] root-of-unity norms follow the prime-power rule (n <= 60)
[pass] A1, l=9: p=3 bad with the scan confirming the witness
[pass] A1, l=7: all dimension norms are units
[pass] classical square amplitude = 3/2 by both routes
[pass] quantum square amplitude at l=8 squares to 1/2 with even denominator
crosscheck: 12/12 passed
"""


def test_crosscheck_report_is_fixed(capsys, monkeypatch):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    assert run(capsys, "crosscheck", "--group", "S3") == (0, CROSSCHECK_S3, "")
    assert run(capsys, "crosscheck") == (0, CROSSCHECK_S3, "")
    assert run_json(capsys, "crosscheck")[1]["params"] == {"group": "S3"}
    # one cap governs the whole report: --cap bounds the A1, l=9 alcove too
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "7")
    assert run(capsys, "crosscheck", "--group", "S3", "--cap", "100") == (0, CROSSCHECK_S3, "")
    code, out, err = run(capsys, "crosscheck", "--group", "S3", "--cap", "7")
    assert code == 2 and out == ""
    assert "level-9 alcove of A1 has more weights than the enumeration cap 7" in err


def test_crosscheck_checks_the_verlinde_lines_by_a_second_route(capsys, monkeypatch):
    # the keyed alcove routes are not consulted, and the l=9 witness is
    # confirmed by the generic norm, so a broken ledger fails only the line
    # that compares the ledger with the generic norm
    def no_keyed_route(*_args):
        raise AssertionError("a keyed alcove route was called")

    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    monkeypatch.setattr(verlinde, "_per_key", no_keyed_route)
    assert run(capsys, "crosscheck", "--group", "S3") == (0, CROSSCHECK_S3, "")
    monkeypatch.setattr(verlinde, "_qdim_norm", lambda *_args: 3)
    code, out, _ = run(capsys, "crosscheck", "--group", "S3")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] A1, l=7: all dimension norms are units"]


def test_crosscheck_and_lemma_norm_share_the_norm_table(capsys, monkeypatch):
    calls = []
    table = cli._root_of_unity_norms

    def spy(nmax):
        calls.append(nmax)
        return table(nmax)

    monkeypatch.setattr(cli, "_root_of_unity_norms", spy)
    assert run(capsys, "lemma-norm", "--nmax", "30")[0] == 0
    assert run(capsys, "crosscheck", "--group", "S3")[0] == 0
    assert calls == [30, 60]


@pytest.mark.parametrize("argv", [
    ["verlinde", "simples", "--type", "E8", "--l", "201"],
    ["verlinde", "simples", "--type", "A1", "--l", "100001"],
    ["verlinde", "badprimes", "--type", "E8", "--l", "201", "--pmax", "50"],
])
def test_oversized_alcoves_are_refused_at_once(capsys, monkeypatch, argv):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert "alcove of" in err and "has more weights than the enumeration cap 20000" in err
    assert "FUSCAT_ENUM_CAP" in err


@pytest.mark.parametrize("label,l,weights,phi", [
    ("A1", 2001, 2000, 1232), ("E8", 59, 17342, 58), ("A2", 199, 19503, 198),
])
def test_simples_refuses_a_large_reply_before_any_dimension(capsys, monkeypatch, label, l, weights, phi):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    monkeypatch.setattr(verlinde, "simple_objects", lambda *a: pytest.fail("the alcove was walked"))
    start = time.perf_counter()
    code, out, err = run(capsys, "verlinde", "simples", "--type", label, "--l", str(l))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"{weights} weights x phi({2 * l}) = {weights * phi} coefficients" in err
    assert "above the limit 100000" in err


def test_simples_admits_replies_up_to_the_limit(capsys, monkeypatch):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    assert cli.SIMPLES_LIMIT == 100000
    # A1 at l = 435: 434 weights x phi(870) = 224, 97216 coefficients
    code, out, _ = run(capsys, "verlinde", "simples", "--type", "A1", "--l", "435")
    assert code == 0 and out.startswith("A1, l=435: 434 simple objects")
    code, _, err = run(capsys, "verlinde", "simples", "--type", "A1", "--l", "436")
    assert code == 2 and "435 weights x phi(872) = 187920 coefficients" in err


def test_the_env_cap_bounds_the_alcove(capsys, monkeypatch):
    walked = []

    def walk_spy(rs, l):
        walked.append((rs.label, l))
        return []  # stands in for the 100000 weights

    monkeypatch.setattr(cli.verlinde, "alcove_walk", walk_spy)
    a1 = ["verlinde", "simples", "--type", "A1", "--l", "100001"]
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "99999")
    code, _, err = run(capsys, *a1)
    assert code == 2 and "alcove of A1 has more weights than the enumeration cap 99999" in err
    assert walked == []
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "100000")
    # the cap admits the alcove; `simples` is then refused by the size of its
    # reply before the walk, and `badprimes`, which has no such bound, walks it
    code, _, err = run(capsys, *a1)
    assert code == 2 and f"above the limit {cli.SIMPLES_LIMIT}" in err
    assert walked == []
    code, out, _ = run(capsys, "verlinde", "badprimes", "--type", "A1", "--l", "100001")
    assert code == 0 and out.startswith("A1, l=100001, primes up to 100")
    assert walked == [("A1", 100001)]
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "100")
    code, _, err = run(capsys, "verlinde", "badprimes", "--type", "A3", "--l", "15")
    assert code == 2 and "alcove of A3 has more weights than the enumeration cap 100" in err
    assert walked == [("A1", 100001)]


def test_verlinde_takes_no_cap_flag_and_reports_no_cap(capsys, monkeypatch):
    argv = ["verlinde", "simples", "--type", "A2", "--l", "5"]
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    _, plain = run_json(capsys, *argv)
    monkeypatch.setenv("FUSCAT_ENUM_CAP", "6")
    _, capped = run_json(capsys, *argv)
    assert plain == capped and plain["provenance"]["enum_cap"] is None
    for action in (["simples"], ["badprimes"], ["classify", "--p", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["verlinde", *action, "--type", "A1", "--l", "9", "--cap", "5"])
        assert exc.value.code == 2 and "unrecognized arguments: --cap 5" in capsys.readouterr().err


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("fuscat ")]


def test_readme_names_only_module_constants_that_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", readme)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"fuscat.{module}"), name), f"{module}.{name}"


def test_readme_cli_block_lines_run():
    lines = _readme_cli_lines()
    assert len(lines) == 14
    for argv in lines:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv[1:])
        assert code == 0 and out.getvalue(), argv
        assert "Traceback" not in err.getvalue(), argv


HUGE_COMPOSITE_LEVELS = ["300000000000000000000000000003",
                         "9000000000000000000000000000000000000000000000000000000000000003"]


@pytest.mark.parametrize("l", HUGE_COMPOSITE_LEVELS)
def test_classify_refuses_a_level_it_cannot_factor_at_once(capsys, l):
    start = time.perf_counter()
    code, out, err = run(capsys, "verlinde", "classify", "--type", "A1", "--l", l, "--p", "3")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith(f"error: cannot factor {l}")


def test_simples_build_the_table_only_when_it_is_printed(capsys, monkeypatch):
    headers = []
    table = cli._table

    def spy(rows, header):
        headers.append(header)
        return table(rows, header)

    monkeypatch.setattr(cli, "_table", spy)
    code, payload = run_json(capsys, "verlinde", "simples", "--type", "A3", "--l", "15")
    assert code == 0 and len(payload["result"]["simples"]) == 364 and headers == []
    code, out, _ = run(capsys, "verlinde", "simples", "--type", "A3", "--l", "15")
    assert code == 0 and headers == [["weight", "qdim", "norm"]]
    lines = out.splitlines()
    assert lines[0] == "A3, l=15: 364 simple objects" and len(lines) == 3 + 364


class _Overran(Exception):
    pass


@contextmanager
def _time_bound(seconds: float):
    """Raise _Overran in the code under test once `seconds` of wall time pass."""
    def overran(*_args):
        raise _Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_LABELS = (st.sampled_from(["A1", "A2", "A4", "D4", "D6", "E6", "E7", "E8"])
           | st.sampled_from(["A0", "A9", "D3", "E5", "F4", "", "a2", " E8 ", "A1x", "-A1"])
           | st.text(max_size=4))
# small draws reach every root system's first levels; the largest reach the
# refusals.  A level p * m with p >= h and --p p reaches the classifier's witness
_INTS = st.integers(-3, 40) | st.integers(-3, 10**60)
_DIVISOR_PRIMES = st.sampled_from([2, 3, 5, 7, 13, 31, 1000003])


@st.composite
def _verlinde_argv(draw):
    action = draw(st.sampled_from(["simples", "classify", "badprimes"]))
    argv = ["verlinde", action, "--type", draw(_LABELS)]
    if action == "classify" and draw(st.booleans()):
        p = draw(_DIVISOR_PRIMES)
        argv += ["--l", str(p * draw(_INTS)), "--p", str(p)]
    else:
        argv += ["--l", str(draw(_INTS))]
        if action == "classify":
            argv += ["--p", str(draw(_INTS))]
    if action == "badprimes" and draw(st.booleans()):
        argv += ["--pmax", str(draw(_INTS))]
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=150, deadline=None)
@given(argv=_verlinde_argv())
@example(argv=["verlinde", "classify", "--type", "A1", "--l", HUGE_COMPOSITE_LEVELS[0], "--p", "3"])
@example(argv=["verlinde", "classify", "--type", "A1", "--l", HUGE_COMPOSITE_LEVELS[1], "--p", "3"])
@example(argv=["verlinde", "simples", "--type", "A1", "--l", "0"])
@example(argv=["verlinde", "badprimes", "--type", "A2", "--l", "-3"])
def test_verlinde_exits_zero_or_two_for_every_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), _time_bound(10):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


# the gate for the other subcommands.  A --degree or a --gens point within the
# table bound builds permutations on that many points before any group is
# formed (0.65 s and 186 MB at 10^6), so those draws are small or above it
_ABOVE_TABLE = st.integers(cli.TABLE_FACTOR * cli.DEFAULT_ENUM_CAP + 1, 10**60)
_POINTS = st.integers(1, 12) | st.integers(0, 12) | _ABOVE_TABLE  # mostly valid points
_DEGREES = st.integers(-3, 40) | _ABOVE_TABLE
# a raised cap admits --gens points up to 100 x cap: --cap 10^15 with
# --gens "(1 99999999999)" would build a permutation on 10^11 points, so no
# --cap draw goes above the default (and FUSCAT_ENUM_CAP is cleared)
_CAPS = st.integers(-3, 40) | st.integers(1, cli.DEFAULT_ENUM_CAP)
_CYCLES = (st.lists(st.lists(_POINTS, max_size=4).map(lambda c: "(" + " ".join(map(str, c)) + ")"),
                    max_size=3).map(", ".join)
           | st.lists(st.sampled_from(["(", ")", " ", ",", "e", "-", "x"]) | _POINTS.map(str),
                      max_size=8).map("".join))
_NAMES = st.sampled_from(["S3", "S4", "A4", "A5", "D8", "D12", "C12", "Q8", "SL23", "S3xC4", "C1", "S7"])
_GROUPS = (_NAMES | _NAMES  # mostly valid names
           | st.sampled_from(["", "S", "S0", "A0", "D3", "Q9", "SL24", "s3", "-S3", "S3x", "xC4", "S3xxC2"])
           | st.tuples(st.sampled_from("SACDQ"), _INTS).map(lambda t: f"{t[0]}{t[1]}")
           | st.text(max_size=4))


_SOMETIMES = st.sampled_from([True, False, False])


def _flag(draw, name, values, given=st.booleans()):
    return [name, str(draw(values))] if draw(given) else []


def _group_flags(draw):
    source = draw(st.sampled_from(["--group", "--gens", "--group", "--gens", "both", "neither"]))
    argv = ["--group", draw(_GROUPS)] if source in ("--group", "both") else []
    argv += ["--gens", draw(_CYCLES)] if source in ("--gens", "both") else []
    return argv + _flag(draw, "--degree", _DEGREES, _SOMETIMES) + _flag(draw, "--cap", _CAPS, _SOMETIMES)


@st.composite
def _subcommand_argv(draw, command):
    if command == "cyc":
        argv = ["cyc", draw(_ELEMENTS), *_flag(draw, "--n", _INTS), *_flag(draw, "--galois", _INTS)]
        argv += ["--norm"] if draw(st.booleans()) else []
    elif command == "lemma-norm":
        argv = ["lemma-norm", *_flag(draw, "--nmax", _INTS)]
    elif command == "group":
        argv = ["group", *_group_flags(draw)]
    elif command == "gtcat":
        argv = ["gtcat", draw(st.sampled_from(["simples", "badprimes"])), *_group_flags(draw)]
        argv += _flag(draw, "--subgroup-gens", _CYCLES)
    elif command == "ito-michler":
        argv = ["ito-michler", *_group_flags(draw), "--p", str(draw(_INTS | st.sampled_from([2, 3, 5, 7])))]
    elif command == "amplitude":
        mode = draw(st.sampled_from(["--classical", "--quantum", "--classical", "--quantum", "", "both"]))
        argv = ["amplitude", draw(st.sampled_from(["t4", "t4", "t4", "t3"]))]
        argv += {"": [], "both": ["--classical", "--quantum"]}.get(mode, [mode])
        argv += _flag(draw, "--l", _INTS, st.just(mode == "--quantum") | _SOMETIMES)
        argv += _flag(draw, "--pmax", _INTS)
    else:
        argv = ["crosscheck", *_flag(draw, "--group", _GROUPS), *_flag(draw, "--cap", _CAPS, _SOMETIMES)]
        argv += ["--all"] if draw(_SOMETIMES) else []
    return argv + (["--json"] if draw(st.booleans()) else [])


@pytest.mark.parametrize("command", ["cyc", "lemma-norm", "group", "gtcat", "ito-michler", "amplitude",
                                     "crosscheck"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_subcommand_exits_zero_or_two_for_every_argv(command, data):
    argv = data.draw(_subcommand_argv(command))
    env = {k: v for k, v in os.environ.items() if k != "FUSCAT_ENUM_CAP"}
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env, clear=True), redirect_stdout(out), redirect_stderr(err), _time_bound(10):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


@pytest.mark.parametrize("name", ["D248", "D480", "D1000", "D2000"])
@pytest.mark.parametrize("command", [("crosscheck",), ("group",), ("gtcat", "simples"), ("ito-michler", "--p", "2")],
                         ids=" ".join)
def test_large_dihedral_requests_answer_within_the_gate_bound(command, name):
    """The gate above draws Dn names at random; these answer from the
    dihedral classes and degrees well inside its 10 s bound."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), _time_bound(10):
        code = main([*command, "--group", name])
    assert code == 0 and err.getvalue() == ""
