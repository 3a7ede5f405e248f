"""The package's records are immutable value types: each keeps its field
names and order, refuses assignment, and two built from equal values are
equal (and hash equal when their fields hash)."""

from fractions import Fraction

import pytest

from fuscat.amplitude import Tensor3, sl2_adjoint
from fuscat.cli import Report
from fuscat.cyclotomic import CycNum, CycPoly
from fuscat.errors import PreconditionError
from fuscat.finitegroup import ConjugacyClass, ItoMichlerReport, builtin_group, ito_michler_verify
from fuscat.gtcat import GTSimple
from fuscat.rootsys import RootSystem
from fuscat.verlinde import PrimeVerdict, Verdict, VerlindeSimple

STABILIZER = builtin_group("S3")

# (record type, its fields in order, a function that builds one afresh)
RECORDS = [
    (CycPoly, ("coeffs",), lambda: CycPoly(tuple([1, -1, 1]))),
    (RootSystem, ("label", "rank", "cartan", "positive_roots", "highest_root", "coxeter_number"),
     lambda: RootSystem("A1", 1, ((2,),), ((1,),), (1,), 2)),
    (ConjugacyClass, ("rep", "size", "order"), lambda: ConjugacyClass((1, 0, 2), 3, 2)),
    (ItoMichlerReport, ("prime", "applicable", "offending_degree", "sylow_order", "complement_order",
                        "sylow_abelian", "sylow_normal", "reason"),
     lambda: ito_michler_verify(builtin_group("S3"), 3)),
    (PrimeVerdict, ("prime", "verdict", "reason", "witness", "detail"),
     lambda: PrimeVerdict(5, Verdict.BAD, "dimension-witness", (1, 2), "N = 5")),
    (VerlindeSimple, ("weight", "qdim", "qdim_norm"),
     lambda: VerlindeSimple((1,), CycNum(8, [0, 1, 0, -1]), 4)),
    (GTSimple, ("coset_rep", "stabilizer", "irrep_degree", "dimension"),
     lambda: GTSimple((0, 1, 2), STABILIZER, 2, 2)),
    (Report, ("command", "params", "result", "provenance", "lines"),
     lambda: Report("cyc", {"n": 3}, {"value": "1"}, {"version": "x"}, ["1"])),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind, fields, build", RECORDS, ids=IDS)
def test_a_record_keeps_its_fields_and_refuses_assignment(kind, fields, build):
    rec = build()
    assert type(rec) is kind and kind._fields == fields
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(getattr(rec, name) for name in fields) == tuple(build())


@pytest.mark.parametrize("kind, fields, build", RECORDS, ids=IDS)
def test_records_of_equal_values_are_equal(kind, fields, build):
    a, b = build(), build()
    assert a is not b and a == b
    if kind in (Report, VerlindeSimple):  # a dict or a CycNum does not hash, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_the_defaults_are_kept():
    assert PrimeVerdict._field_defaults == {"witness": None, "detail": None}
    assert ItoMichlerReport._field_defaults == {"reason": None}
    assert PrimeVerdict(2, Verdict.GOOD, "coprime-construction").witness is None
    for kind in (CycPoly, RootSystem, ConjugacyClass, VerlindeSimple, GTSimple, Report):
        assert kind._field_defaults == {}, kind


def test_a_tensor_is_immutable_and_compared_by_value():
    t, u = sl2_adjoint(), sl2_adjoint()
    assert Tensor3.__slots__ == ("m", "gram")
    assert t is not u and t == u and hash(t) == hash(u)
    assert Tensor3(m=t.m, gram=t.gram) == t
    for name in ("m", "gram", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    scaled = Tensor3(m=t.m, gram=tuple(tuple(2 * x for x in row) for row in t.gram))
    assert scaled != t and t != (t.m, t.gram)


def test_a_tensor_still_validates_when_built():
    t = sl2_adjoint()
    with pytest.raises(PreconditionError, match="degenerate"):
        Tensor3(m=t.m, gram=tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)))
    with pytest.raises(PreconditionError, match="not symmetric"):
        Tensor3(m=t.m, gram=((1, 1, 0), (0, 1, 0), (0, 0, 1)))
