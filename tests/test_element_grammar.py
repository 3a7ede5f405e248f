"""The `cyc` element grammar against its per-node oracle.

`parse_element` evaluates in Z[x]/(x^n - 1) and reduces modulo Phi_n once.
The oracle below evaluates every node as a `CycNum`, reduced at each step;
both must give equal values or refuse with the same message.
"""

import ast
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat.cyclotomic import CycNum, _check_power_size, parse_element
from fuscat.errors import PreconditionError


def oracle_parse(text, conductor):
    """The value of a `z`-expression with every node a `CycNum`."""
    if conductor < 1:
        raise PreconditionError("conductor must be a positive integer")
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
        return _oracle_node(tree.body, conductor)._lift(conductor)
    except SyntaxError as exc:
        raise PreconditionError(f"cannot parse element expression: {exc.msg}") from None
    except RecursionError:
        raise PreconditionError("element expression is too long or too deeply nested") from None


def _oracle_node(node, n):
    if isinstance(node, ast.Constant):
        if type(node.value) is int:
            return CycNum.from_int(node.value)
        raise PreconditionError("only integer literals are allowed")
    if isinstance(node, ast.Name):
        if node.id == "z":
            return CycNum.zeta(n)
        raise PreconditionError(f"unknown symbol {node.id!r} (only z is allowed)")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _oracle_node(node.operand, n)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
        a = _oracle_node(node.left, n)
        if isinstance(node.op, ast.Pow):
            e = _oracle_node(node.right, n)
            if not (e.is_rational and e.den == 1):
                raise PreconditionError("exponents must be integers")
            k = int(e.as_fraction())
            if isinstance(node.left, ast.Name):
                return CycNum.zeta(n, k)
            if k < 0:
                a, k = a.inverse(), -k
            _check_power_size(a, k)
            return a**k
        b = _oracle_node(node.right, n)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        return a / b
    raise PreconditionError("unsupported syntax in element expression")


def outcome(route, text, n):
    try:
        v = route(text, n)
    except PreconditionError as exc:
        return "refused", str(exc)
    return "value", v.conductor, v.coeffs, v.den


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        # powers: negative, zero, and exponents that are expressions themselves
        st.tuples(children, st.integers(-4, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(children, children).map(lambda t: f"({t[0]})^({t[1]})"),
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"(({e}))"),
    )


_LEAVES = (st.integers(-9, 9).map(str)  # 0 makes divisions by zero
           | st.tuples(st.integers(-9, 9), st.integers(-4, 4)).map(lambda t: f"({t[0]}/{t[1]})")
           | st.just("z")
           | st.integers(-30, 30).map(lambda k: f"z^({k})")
           | st.sampled_from(["1+z+z^2", "1+z^2", "z-z", "(1-z)^0"]).map(lambda e: f"({e})"))
_ELEMENTS = st.recursive(_LEAVES, _compound, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(text=_ELEMENTS, n=st.integers(1, 12))
def test_parser_matches_the_per_node_oracle(text, n):
    assert outcome(parse_element, text, n) == outcome(oracle_parse, text, n)


@pytest.mark.parametrize("text", [
    "1/0", "z/(z-z)", "1/(1+z+z^2)", "(1+z+z^2)^-1", "0^-1", "z^(1/2)", "z^(z)", "z^(1+z+z^2)",
    "(2/4)^(6/3)", "(3/2)^-3", "(1+z)^0", "(1+z)^(z-z)", "z^-7/(2-z)", "(z^2-z^5)^-2", "w", "1.5",
    "(1+z)/True", "z^(1/0)", "(1/0)^z", "-(-(z))", "((((1+z))))*((z))",
])
@pytest.mark.parametrize("n", [1, 3, 4, 6, 12])
def test_parser_matches_the_oracle_on_named_cases(text, n):
    assert outcome(parse_element, text, n) == outcome(oracle_parse, text, n)


def test_pool_sized_sums_build_one_cycnum(monkeypatch):
    rng = random.Random(240)
    text = "2" + "".join(f"{rng.choice('+-')}{rng.randint(1, 3)}*z^{d}"
                         for d in sorted(rng.sample(range(1, 240), 23)))
    built = []
    init = CycNum.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycNum, "__init__", counted)
    value = parse_element(text, 240)
    assert len(built) == 1
    monkeypatch.setattr(CycNum, "__init__", init)
    assert value == oracle_parse(text, 240)


def test_single_term_divisors_are_not_inverted(monkeypatch):
    cases = {("(1+z)/(-3*z^2)", 7): (1 + CycNum.zeta(7)) * CycNum.zeta(7, -2) / -3,
             ("z^5/(2/3)", 12): CycNum.zeta(12, 5) * 3 / 2,
             ("(1/2)/(1/4)", 9): CycNum.from_int(2)}
    monkeypatch.setattr(CycNum, "inverse", lambda self: pytest.fail("a single term was inverted"))
    for (text, n), value in cases.items():
        assert parse_element(text, n) == value
    with pytest.raises(PreconditionError, match="division by zero"):
        parse_element("1/(z-z)", 5)


def test_long_sums_are_answered_up_to_the_parsers_limit():
    # a +/- chain is summed in one loop, not one frame per operator, so only
    # ast.parse bounds its length
    rng = random.Random(2000)
    terms = [(rng.choice("+-"), rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6)), rng.randint(0, 11))
             for _ in range(2000)]
    text = "".join(f"{sign}({c}/{d})*z^{e}" for sign, c, d, e in terms)
    want = CycNum.from_int(0)
    for sign, c, d, e in terms:
        want += CycNum.zeta(12, e) * (Fraction(c, d) if sign == "+" else Fraction(-c, d))
    assert parse_element(text, 12) == want
    with pytest.raises(PreconditionError, match="^element expression is too long or too deeply nested$"):
        parse_element("+".join(["z"] * 5000), 12)
