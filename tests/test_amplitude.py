import ast
import inspect
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuscat import amplitude
from fuscat.amplitude import (
    Tensor3,
    _contract,
    _det3,
    _dualized_product,
    _inv3,
    _scalar_of,
    _square,
    _theta,
    amplitude_T4_normalized,
    casimir_square_coefficient,
    quantum_T4,
    quantum_certificate,
    sl2_adjoint,
)
from fuscat.cyclotomic import CycNum, q_integer
from fuscat.errors import PreconditionError


def amplitude_T2(t: Tensor3) -> Fraction:
    """Theta-graph amplitude Tr(m m*)."""
    t.validate()
    return _theta(t, _dualized_product(t))


def amplitude_T4(t: Tensor3) -> Fraction:
    """Square-with-diagonals amplitude Tr(m (1 x m) (m* x 1) m*), unnormalized."""
    t.validate()
    return _square(t, _dualized_product(t))


def scaled(t, m_factor=1, gram_factor=1):
    return Tensor3(
        m=tuple(tuple(tuple(m_factor * v for v in r) for r in row) for row in t.m),
        gram=tuple(tuple(gram_factor * v for v in row) for row in t.gram),
    )


def test_sl2_tensor_is_valid():
    t = sl2_adjoint()
    t.validate()
    # Gram matrix is the adjoint trace form in the (e, h, f) basis
    assert t.gram[1][1] == 8 and t.gram[0][2] == 4 and t.gram[0][0] == 0


def test_t2_nonzero_and_scales_quadratically():
    t = sl2_adjoint()
    a2 = amplitude_T2(t)
    assert a2 != 0
    assert amplitude_T2(scaled(t, m_factor=2)) == 4 * a2
    assert amplitude_T2(scaled(t, m_factor=-1)) == a2


def test_zero_product_cannot_normalize():
    t = sl2_adjoint()
    zero = scaled(t, m_factor=0)
    assert amplitude_T2(zero) == 0
    with pytest.raises(PreconditionError):
        amplitude_T4_normalized(zero)


def test_degenerate_pairing_rejected():
    t = sl2_adjoint()
    with pytest.raises(PreconditionError):
        bad = Tensor3(m=t.m, gram=tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)))
        amplitude_T2(bad)


def test_normalized_value_is_three_halves():
    assert amplitude_T4_normalized(sl2_adjoint()) == Fraction(3, 2)


def test_casimir_route_agrees():
    t = sl2_adjoint()
    assert casimir_square_coefficient(t) == Fraction(3, 2)
    assert casimir_square_coefficient(t) == amplitude_T4_normalized(t)


def test_normalized_value_is_scaling_invariant():
    t = sl2_adjoint()
    for mf, gf in [(2, 1), (1, 3), (-5, 7), (Fraction(2, 3), Fraction(9, 4))]:
        s = scaled(t, m_factor=mf, gram_factor=gf)
        assert amplitude_T4_normalized(s) == Fraction(3, 2)
        assert casimir_square_coefficient(s) == Fraction(3, 2)


def test_raw_t4_scaling():
    t = sl2_adjoint()
    assert amplitude_T4(scaled(t, m_factor=2)) == 16 * amplitude_T4(t)


def test_quantum_t4_l8():
    v = quantum_T4(8)
    assert v * v == Fraction(1, 2)
    assert v.den == 2
    cert = quantum_certificate(8, pmax=50)
    assert cert["square"] == Fraction(1, 2)
    assert cert["denominator_primes"] == [2]


def test_quantum_t4_closed_form():
    for l in (5, 8, 9, 12):
        q3 = q_integer(3, l)
        assert quantum_T4(l) * (q3 - 1) == q3 * (q3 - 2)


def test_quantum_denominator_vanishes_at_l4():
    with pytest.raises(PreconditionError):
        quantum_T4(4)


def test_classical_limit_of_closed_form():
    assert Fraction(3 * (3 - 2), 3 - 1) == Fraction(3, 2)


def test_quantum_t4_l9_regression():
    # no closed-form target here; value frozen from the exact evaluation
    v = quantum_T4(9)
    assert v == CycNum(18, [-1, 1, 1, 0, 0, -1])
    assert v.den == 1
    assert v.norm() == 9


# ---------------------------------------------------------------------------
# the contraction kernel against numpy.einsum and the hand-written loops

MODULE_SPECS = sorted(
    {
        node.args[0].value
        for node in ast.walk(ast.parse(inspect.getsource(amplitude)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_contract"
        and isinstance(node.args[0], ast.Constant)
    }
)


def test_module_specs_are_all_collected():
    assert MODULE_SPECS == sorted([
        "ijl,lk->ijk",
        "lk,ijk,ia,jc->lac",
        "lac,acl->",
        "tab,acd,dbe,cet->",
        "ilk,jkl->ij",
        "asr,ab,bts->rt",
        "asr,bts,ax,xut,by,ycu->rc",
    ])


def fractions_of(x):
    return [fractions_of(v) for v in x] if isinstance(x, (list, tuple)) else Fraction(x)


@pytest.mark.parametrize("spec", MODULE_SPECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contract_matches_einsum(spec, data):
    terms = spec.split("->")[0].split(",")
    arrays = [
        np.array(data.draw(st.lists(st.integers(-3, 3), min_size=3 ** len(t), max_size=3 ** len(t))),
                 dtype=np.int64).reshape((3,) * len(t))
        for t in terms
    ]
    got = _contract(spec, *(fractions_of(a.tolist()) for a in arrays))
    expected = np.einsum(spec, *arrays)
    if spec.endswith("->"):
        assert isinstance(got, Fraction) and got == int(expected)
    else:
        assert isinstance(got, tuple)
        assert fractions_of(got) == fractions_of(expected.tolist())


def contract_loops(spec, *tensors):
    """Einstein summation by a plain loop over every index, in Fractions."""
    inputs, out = spec.split("->")
    terms = inputs.split(",")
    letters = sorted(set(inputs) - {","})
    sums = {}
    for idx in product(range(3), repeat=len(letters)):
        at = dict(zip(letters, idx))
        v = Fraction(1)
        for sub, t in zip(terms, tensors):
            for c in sub:
                t = t[at[c]]
            v *= t
            if not v:
                break
        key = tuple(at[c] for c in out)
        sums[key] = sums.get(key, Fraction(0)) + v

    def nest(idx):
        if len(idx) == len(out):
            return sums[idx]
        return tuple(nest(idx + (i,)) for i in range(3))

    return nest(())


fraction_entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 12))


@pytest.mark.parametrize("spec", MODULE_SPECS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_contract_with_fractional_operands_matches_the_loops(spec, data):
    def draw(term):
        flat = data.draw(st.lists(fraction_entries, min_size=3 ** len(term), max_size=3 ** len(term)))
        for _ in term[1:]:
            flat = [flat[i:i + 3] for i in range(0, len(flat), 3)]
        return flat

    tensors = [draw(t) for t in spec.split("->")[0].split(",")]
    got = _contract(spec, *tensors)
    assert got == contract_loops(spec, *tensors)
    leaves = [got] if spec.endswith("->") else list(np.array(got, dtype=object).flat)
    assert all(type(v) is Fraction for v in leaves)


def test_contract_is_exact_on_fractions():
    half = [[Fraction(1, 2) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    third = [[Fraction(i + 1, 3 * (j + 1)) for j in range(3)] for i in range(3)]
    prod = _contract("ij,jk->ik", half, third)
    assert prod == tuple(tuple(Fraction(i + 1, 6 * (j + 1)) for j in range(3)) for i in range(3))
    assert _contract("ij,ji->", half, third) == Fraction(1, 2)
    assert _contract("ij,jk->ik", half, [[0] * 3] * 3) == ((Fraction(0),) * 3,) * 3


def dualized_product_loops(t):
    ginv = _inv3(t.gram)
    return [
        [
            [
                sum(
                    t.gram[l][k] * t.m[i][j][k] * ginv[i][a] * ginv[j][c]
                    for k in range(3)
                    for i in range(3)
                    for j in range(3)
                )
                for c in range(3)
            ]
            for a in range(3)
        ]
        for l in range(3)
    ]


def t4_loops(t):
    mstar = dualized_product_loops(t)
    total = Fraction(0)
    for tt, a, b, c, d, e in product(range(3), repeat=6):
        total += mstar[tt][a][b] * mstar[a][c][d] * t.m[d][b][e] * t.m[c][e][tt]
    return total


def ad_matrix(m, i):
    return tuple(tuple(m[i][j][k] for j in range(3)) for k in range(3))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(3)) for j in range(3)) for i in range(3)
    )


def mat_sum(mats):
    acc = [[Fraction(0)] * 3 for _ in range(3)]
    for m in mats:
        for i, j in product(range(3), repeat=2):
            acc[i][j] += m[i][j]
    return tuple(tuple(row) for row in acc)


def casimir_matrix_route(t):
    """sum_a ad(y_a) ad(y^a) and sum_{a,b} ad(y_a) ad(y_b) ad(y^a) ad(y^b) as
    sums of 3x3 matrix products."""
    ad = [ad_matrix(t.m, i) for i in range(3)]
    ginv = _inv3(t.gram)
    dual = [
        tuple(
            tuple(sum(ginv[a][b] * ad[b][r][c] for b in range(3)) for c in range(3))
            for r in range(3)
        )
        for a in range(3)
    ]
    casimir = mat_sum(mat_mul(ad[a], dual[a]) for a in range(3))
    lhs = mat_sum(
        mat_mul(mat_mul(ad[a], ad[b]), mat_mul(dual[a], dual[b]))
        for a in range(3)
        for b in range(3)
    )
    _scalar_of(lhs)
    r = _scalar_of(casimir)
    return (lhs[0][0] + lhs[1][1] + lhs[2][2]) / r**2


def so3_cross_product():
    """m(e_i, e_j) = sum_k eps_ijk e_k with the identity pairing."""
    m = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for sign, (i, j, k) in zip((1, -1, -1, 1, 1, -1), permutations(range(3))):
        m[i][j][k] = Fraction(sign)
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    return Tensor3(m=tuple(tuple(tuple(r) for r in row) for row in m), gram=ident)


def change_basis(t, p):
    """The same product and pairing in the basis e'_i = sum_a p[i][a] e_a."""
    q = _inv3(p)
    assert mat_mul(p, q) == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    m = tuple(
        tuple(
            tuple(
                sum(
                    p[i][a] * p[j][b] * t.m[a][b][c] * q[c][k]
                    for a, b, c in product(range(3), repeat=3)
                )
                for k in range(3)
            )
            for j in range(3)
        )
        for i in range(3)
    )
    gram = tuple(
        tuple(
            sum(p[i][a] * p[j][b] * t.gram[a][b] for a, b in product(range(3), repeat=2))
            for j in range(3)
        )
        for i in range(3)
    )
    return Tensor3(m=m, gram=gram)


def test_kernel_routes_match_the_loops_on_sl2():
    for mf, gf in [(1, 1), (2, 1), (-5, 7), (Fraction(2, 3), Fraction(9, 4))]:
        t = scaled(sl2_adjoint(), m_factor=mf, gram_factor=gf)
        assert fractions_of(_dualized_product(t)) == dualized_product_loops(t)
        assert amplitude_T4(t) == t4_loops(t)
        assert casimir_square_coefficient(t) == casimir_matrix_route(t) == Fraction(3, 2)


def test_so3_cross_product_gives_three_halves_by_both_routes():
    t = so3_cross_product()
    t.validate()
    assert amplitude_T2(t) == 6
    assert amplitude_T4(t) == t4_loops(t) == 6
    assert amplitude_T4_normalized(t) == Fraction(3, 2)
    assert casimir_square_coefficient(t) == casimir_matrix_route(t) == Fraction(3, 2)


BASE = sl2_adjoint()
BASE_VALUES = (amplitude_T2(BASE), amplitude_T4(BASE))


@settings(max_examples=30, deadline=None)
@given(
    nums=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    dens=st.lists(st.integers(1, 3), min_size=9, max_size=9),
)
def test_amplitudes_are_basis_independent(nums, dens):
    p = tuple(tuple(Fraction(nums[3 * i + j], dens[3 * i + j]) for j in range(3)) for i in range(3))
    assume(_det3(p) != 0)
    t = change_basis(BASE, p)
    t.validate()
    assert (amplitude_T2(t), amplitude_T4(t)) == BASE_VALUES
    assert t4_loops(t) == BASE_VALUES[1]
    assert amplitude_T4_normalized(t) == Fraction(3, 2)
    assert casimir_square_coefficient(t) == casimir_matrix_route(t) == Fraction(3, 2)
