"""The `--json` reply of one request per subcommand and action, pinned by
the SHA-256 of its stdout.  The benchmark goldens hash table output for
all but `verlinde simples`, so these pin the JSON reports byte for byte:
key names, the rendering of a tuple witness, of None and of every number."""

import contextlib
import hashlib
import io

import pytest

from fuscat import cli

GOLDENS = [
    (["cyc", "(2+z)/(1-z^3)", "--n", "12", "--galois", "5", "--norm"],
     "dc269b580f0c8fb782c07dd397c81f9ff90a89da23b457e16e976eb8f79fd350"),
    (["lemma-norm", "--nmax", "12"],
     "ef08c01ec608d866ffa0bdb297890e9c4ecf4ecbaa1fb3cb31635253e416fd81"),
    (["verlinde", "simples", "--type", "A2", "--l", "5"],
     "7e35cb24fac3e50ec96de9f7840c194a24d49f1810e52f95560614ec6326d4b2"),
    (["verlinde", "classify", "--type", "A1", "--l", "9", "--p", "3"],
     "19ac255b73cdd66e20ec574995172f0fe431422810d71234df782eb08f8e071c"),
    (["verlinde", "badprimes", "--type", "D4", "--l", "10", "--pmax", "12"],
     "b5493f91ce7d4d3f590ff7d34a8d427200f9cfd70ecd88975ec69667b2524393"),
    (["group", "--group", "S4"],
     "b82c0f1ef774103114448204459d0381642fdf03f8539b7ebed3c71f5a53b2e3"),
    (["gtcat", "simples", "--group", "S4", "--subgroup-gens", "(1 2)"],
     "29097ee80c0510d59864ce51addcb99f775ca510171909465de5022a8a9231d6"),
    (["gtcat", "badprimes", "--group", "A4"],
     "f7bb8b48dc2d17ca19617de0ac0c81c1658f1597664b611a5425c1d8f3e7de54"),
    (["ito-michler", "--group", "A4", "--p", "2"],
     "7e2ca3564fb1b96caddd3c0e62a393713c846cbbd28f3f871f4942051a373029"),
    (["ito-michler", "--group", "A4", "--p", "3"],
     "c1e26fe9013aafa6cb42fe3da4f62689df2af01aff34da515d41b74d27d51e18"),
    (["amplitude", "t4", "--classical"],
     "76fc81c0be235e38d60e370379b0cf4e8161bfcdcfc28ee97c1afbf7b5e7a016"),
    (["amplitude", "t4", "--quantum", "--l", "8"],
     "d4e44fcd67cbce6d2f8f03990575692b5daab42eb130dcc9489983211a45486a"),
    (["crosscheck", "--group", "S4"],
     "444fd78fa718493397c530ad8d540e611cf4924e4dbb3f9b0bdcb8c55335db80"),
]


def test_every_subcommand_and_action_is_pinned():
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    pinned = {(argv[0], argv[1]) if argv[0] in ("verlinde", "gtcat") else argv[0] for argv, _ in GOLDENS}
    expected = set()
    for name, sub in commands.items():
        actions = [a for a in sub._actions if a.dest.endswith("_action")]
        expected |= {(name, act) for act in actions[0].choices} if actions else {name}
    assert pinned == expected


@pytest.mark.parametrize("argv, sha256", GOLDENS, ids=[" ".join(argv) for argv, _ in GOLDENS])
def test_json_reply_matches_its_golden(monkeypatch, argv, sha256):
    monkeypatch.delenv("FUSCAT_ENUM_CAP", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256
