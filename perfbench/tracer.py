"""Span recorder for a traced benchmark run, installed from outside fuscat.

`install` wraps the public functions of every fuscat module and rebinds
every name that refers to them: module globals (including names brought in
with `from ... import`), class attributes and their aliases such as
`CycNum.__rmul__`, and classmethods.  It then checks that no fuscat
namespace still holds an unwrapped original, so a call can never bypass
its span.

A span is (name, start, end, parent span, request id) plus two integer
attributes whose meaning depends on the name (see `TARGETS`).  Spans are
kept in flat arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter


def _bits(v: int) -> int:
    return abs(v).bit_length()


def _norm_attrs(args, result, _):
    # (phi(n) conjugates multiplied, bit length of the rational norm)
    return len(args[0].coeffs), max(_bits(result.numerator), _bits(result.denominator))


def _inverse_attrs(args, result, _):
    return len(args[0].coeffs), 0


def _qdim_attrs(args, result, _):
    return max((_bits(c) for c in result.coeffs), default=0), len(result.coeffs)


def _degrees_before(args):
    # degrees are cached on the group; only an uncached call splits classes
    return getattr(args[0], "_degrees", None) is None


def _degrees_attrs(args, result, fresh):
    return (len(result) if fresh else 0), 0


def _len_attrs(args, result, _):
    return len(result), 0


def _order_attrs(args, result, _):
    return result.order, 0


def _cosets_attrs(args, result, _):
    return len(result), args[1].order


# (module, owner attribute path, span name, attribute function, before hook)
TARGETS = [
    ("cyclotomic", "CycNum.norm", "cyclotomic.norm", _norm_attrs, None),
    ("cyclotomic", "CycNum.inverse", "cyclotomic.inverse", _inverse_attrs, None),
    ("cyclotomic", "CycNum.__mul__", "cyclotomic.mul", None, None),
    ("cyclotomic", "CycNum.galois", "cyclotomic.galois", None, None),
    ("cyclotomic", "q_integer", "cyclotomic.q_integer", None, None),
    ("cyclotomic", "parse_element", "cyclotomic.parse_element", None, None),
    ("rootsys", "build_root_system", "rootsys.build_root_system", None, None),
    ("rootsys", "enumerate_alcove", "rootsys.enumerate_alcove", _len_attrs, None),
    ("verlinde", "qdim", "verlinde.qdim", _qdim_attrs, None),
    ("verlinde", "simple_objects", "verlinde.simple_objects", None, None),
    ("verlinde", "classify_prime", "verlinde.classify_prime", None, None),
    ("verlinde", "scan_dimension_witnesses", "verlinde.scan_dimension_witnesses", None, None),
    ("finitegroup", "builtin_group", "finitegroup.builtin_group", None, None),
    ("finitegroup", "PermGroup.from_generators", "finitegroup.from_generators", _order_attrs, None),
    ("finitegroup", "PermGroup.from_elements", "finitegroup.from_elements", _order_attrs, None),
    ("finitegroup", "PermGroup.conjugacy_classes", "finitegroup.conjugacy_classes", None, None),
    ("finitegroup", "char_degrees", "finitegroup.char_degrees", _degrees_attrs, _degrees_before),
    ("finitegroup", "double_cosets", "finitegroup.double_cosets", _cosets_attrs, None),
    ("finitegroup", "stabilizer_intersection", "finitegroup.stabilizer_intersection", _order_attrs, None),
    ("finitegroup", "ito_michler_verify", "finitegroup.ito_michler_verify", None, None),
    ("gtcat", "enumerate_simples", "gtcat.enumerate_simples", None, None),
    ("gtcat", "gt_bad_primes", "gtcat.gt_bad_primes", None, None),
    ("amplitude", "quantum_certificate", "amplitude.quantum_certificate", None, None),
    ("amplitude", "quantum_T4", "amplitude.quantum_T4", None, None),
    ("amplitude", "amplitude_T4_normalized", "amplitude.amplitude_T4_normalized", None, None),
    ("amplitude", "casimir_square_coefficient", "amplitude.casimir_square_coefficient", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "Report.payload", "cli.Report.payload", None, None),
]


class Recorder:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        self.a1 = array("q")
        self.a2 = array("q")
        self.current = -1
        self.request_id = -1

    def wrap(self, fn, span_name: str, attrs=None, before=None):
        nid = len(self.names)
        self.names.append(span_name)
        rec = self
        start, end, a1, a2 = self.start, self.end, self.a1, self.a2
        push_name, push_parent, push_request = self.name.append, self.parent.append, self.request.append
        push_start, push_end, push_a1, push_a2 = start.append, end.append, a1.append, a2.append

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            sid = len(start)
            parent = rec.current
            push_name(nid)
            push_parent(parent)
            push_request(rec.request_id)
            push_start(0.0)
            push_end(0.0)
            push_a1(0)
            push_a2(0)
            rec.current = sid
            start[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                rec.current = parent
            if attrs is not None:
                a1[sid], a2[sid] = attrs(args, result, pre)
            return result

        return functools.update_wrapper(wrapper, fn)

    def write(self, path: str, extra: dict) -> None:
        header = {"names": self.names, "count": len(self.start), **extra}
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in (self.name, self.start, self.end, self.parent, self.request, self.a1, self.a2):
                arr.tofile(fh)


def read_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Inverse of Recorder.write: (header, column arrays)."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        cols = {}
        for key, code in (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "q"),
                          ("request", "i"), ("a1", "q"), ("a2", "q")):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols[key] = arr
    return header, cols


def _namespaces() -> list:
    """Every fuscat module and every class defined in one."""
    mods = [m for name, m in sys.modules.items() if name == "fuscat" or name.startswith("fuscat.")]
    out = list(mods)
    for m in mods:
        for v in vars(m).values():
            if isinstance(v, type) and v.__module__.startswith("fuscat") and v not in out:
                out.append(v)
    return out


def _unwrap(v):
    return v.__func__ if isinstance(v, (classmethod, staticmethod)) else v


def install(recorder: Recorder) -> dict[str, int]:
    """Wrap every target and rebind all references.  Returns, per span name,
    how many names were rebound; 0 marks a target fuscat no longer has, whose
    metrics then read 0.  Raises RuntimeError if an unwrapped reference to a
    wrapped function survives anywhere in fuscat."""
    wrappers: dict[int, tuple[object, object, str]] = {}
    for module, path, span_name, attrs, before in TARGETS:
        owner = sys.modules[f"fuscat.{module}"]
        *prefix, attr = path.split(".")
        for part in prefix:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            recorder.names.append(span_name)  # keeps the name, with no spans
            continue
        fn = _unwrap(vars(owner)[attr])
        wrappers[id(fn)] = (fn, recorder.wrap(fn, span_name, attrs, before), span_name)

    sites = {name: 0 for name in recorder.names}
    spaces = _namespaces()
    for ns in spaces:
        for key, value in list(vars(ns).items()):
            fn = _unwrap(value)
            hit = wrappers.get(id(fn))
            if hit is None or hit[0] is not fn:
                continue
            _, wrapped, span_name = hit
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(wrapped)
            setattr(ns, key, wrapped)
            sites[span_name] += 1

    for ns in spaces:
        for key, value in vars(ns).items():
            fn = _unwrap(value)
            hit = wrappers.get(id(fn))
            if hit is not None and hit[0] is fn:
                raise RuntimeError(f"unwrapped reference survives at {getattr(ns, '__name__', ns)}.{key}")
    return sites
