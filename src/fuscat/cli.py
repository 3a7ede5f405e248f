"""Command-line front end and the cross-module consistency harness.

Subcommands: cyc, lemma-norm, verlinde, group, gtcat, ito-michler,
amplitude, crosscheck.  Output is a deterministic aligned table by default
or a JSON report with --json / --out; all numbers in JSON are rendered as
decimal strings so arbitrarily large values survive any JSON parser.  The
JSON text is written by one recursive renderer, with sorted keys and a
two-space indent; a CycNum the report shares (reached again at the same
depth) is encoded once and spliced in after.

Exit codes: 0 success, 2 violated precondition, bad usage or a report that
cannot be written (an --out path, or a stdout whose reader has gone), 1
internal consistency failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable

from . import amplitude, gtcat, verlinde
from .arith import prime_factors, primes_upto, totient
from .cyclotomic import CycNum, check_str_digits, cyclotomic_at_one, parse_element
from .errors import InternalCheckError, PreconditionError
from .finitegroup import (
    DEFAULT_ENUM_CAP,
    TABLE_FACTOR,
    Perm,
    PermGroup,
    builtin_group,
    char_degrees,
    enum_cap,
    ito_michler_verify,
    parse_gens,
    perm_to_cycles,
    rep_bad_primes,
    rep_good_primes,
)
from .rootsys import build_root_system, enumerate_alcove
from .verlinde import Verdict

# lemma-norm --nmax above this is refused: the norm table grows about as
# nmax^2 (--nmax 500 takes about 1 s, --nmax 1000 about 5 s on a 2-vCPU host)
NMAX_LIMIT = 500

# cyc --n above this is refused before the expression is parsed: an inverse
# costs about phi(n)^2 multiplications per step of primes, and the steps grow
# with phi(n).  At the largest prime admitted, 887, `cyc "1/(2+z+z^3)"` takes
# about 1.7 s and `cyc 2+z+3*z^7 --norm` 0.2 s; at n = 1009 the inverse takes
# 3.6 s (2-vCPU host, interpreter start included).  `amplitude t4 --quantum`
# works at the conductor 2l and is refused above the same limit
CONDUCTOR_LIMIT = 900

# --pmax above this is refused before the primes are sieved: `verlinde
# badprimes` prints a row per prime, and --pmax 100000 takes about 0.4 s and
# prints 0.55 MB (--pmax 1000000: 2.9 s, 4.6 MB) on a 2-vCPU host
PMAX_LIMIT = 100000

# verlinde simples is refused, before any dimension is built, when its alcove
# weights times phi(2l) (one coefficient each) pass this limit; the
# enumeration cap is checked first.  At the limit a reply is about 4 MB of
# JSON and takes 0.3-0.8 s for types A and D, 1.8 s for E7 at l = 33 and 5 s
# for E8 at l = 49 (2-vCPU host, interpreter start included)
SIMPLES_LIMIT = 100000

Q_CONVENTION = "q = zeta_{2l}, the primitive (2l)-th root of unity; verdicts are Galois-invariant in this choice"


@dataclass
class Report:
    command: str
    params: dict
    result: dict
    provenance: dict = field(default_factory=dict)
    # the table, or a function that builds it when it is printed (not for --json)
    lines: list[str] | Callable[[], list[str]] = field(default_factory=list)

    def payload(self) -> str:
        """The JSON text of the report, without a trailing newline."""
        return render_json(
            {
                "command": self.command,
                "params": self.params,
                "provenance": self.provenance,
                "result": self.result,
            }
        )


# the JSON text of a value of exactly one of these types, keyed by its type
_LEAVES = {
    str: _encode_str,
    int: lambda v: _encode_str(str(v)),
    Fraction: lambda v: _encode_str(str(v)),
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def render_json(obj) -> str:
    """JSON text of obj with every number as a decimal string.

    Ints and Fractions become quoted decimals, a CycNum its `to_json()`,
    dict keys their `str()`, sorted; the layout is `json.dumps(indent=2,
    sort_keys=True)`.  A CycNum met again at the same depth (the weights of
    one Verlinde key share their dimension) is encoded once; the report
    holds every CycNum while the text is written, so no id is reused.
    """
    memo: dict[tuple[int, int], str] = {}  # CycNum texts by (id, depth)
    newlines = ["\n"]  # newline and indent of each depth
    leaf_of = _LEAVES.get

    def block(opening: str, parts: list[str], depth: int, closing: str) -> str:
        if not parts:
            return opening + closing
        while len(newlines) <= depth + 1:
            newlines.append(newlines[-1] + "  ")
        sep = newlines[depth + 1]
        return opening + sep + ("," + sep).join(parts) + newlines[depth] + closing

    def render(obj, depth: int) -> str:
        leaf = leaf_of(type(obj))
        if leaf is not None:
            return leaf(obj)
        inner = depth + 1
        if isinstance(obj, dict):
            # keys unique, so the sort never compares two values
            items = sorted({str(k): v for k, v in obj.items()}.items())
            parts = [_encode_str(k) + ": "
                     + (leaf(v) if (leaf := leaf_of(type(v))) else render(v, inner))
                     for k, v in items]
            return block("{", parts, depth, "}")
        if isinstance(obj, (list, tuple)):
            parts = [leaf(v) if (leaf := leaf_of(type(v))) else render(v, inner) for v in obj]
            return block("[", parts, depth, "]")
        if isinstance(obj, CycNum):
            key = (id(obj), depth)
            text = memo.get(key)
            if text is None:
                text = memo[key] = render(obj.to_json(), depth)
            return text
        if isinstance(obj, (int, Fraction)):
            return _encode_str(str(obj))
        if isinstance(obj, str):
            return _encode_str(obj)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    return render(obj, 0)


def _provenance(**overrides) -> dict:
    base = {
        "q_convention": None,
        "cocycle_restriction": None,
        "enum_cap": None,
        "hypotheses": None,
    }
    base.update(overrides)
    return base


def _emit(report: Report, args) -> bool:
    """Write the report; False, with stdout untouched, if --out cannot be written."""
    out, as_json = getattr(args, "out", None), getattr(args, "json", False)
    text = report.payload() if out or as_json else None
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return False
    if as_json:
        print(text)
    else:
        for line in report.lines() if callable(report.lines) else report.lines:
            print(line)
    return True


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    cols = range(len(header))
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c]) for c in cols]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    out += [fmt.format(*r) for r in rows]
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cyc(args) -> Report:
    if args.n > CONDUCTOR_LIMIT:
        raise PreconditionError(f"--n {args.n} exceeds the limit {CONDUCTOR_LIMIT}")
    val = parse_element(args.expr, args.n)
    check_str_digits("the value", *val.coeffs, val.den)
    result: dict = {"conductor": args.n, "value": val, "pretty": str(val)}
    lines = [f"n = {args.n}", f"value = {val}"]
    if args.galois is not None:
        img = val.galois(args.galois)
        check_str_digits("the Galois image", *img.coeffs, img.den)
        result["galois"] = {"s": args.galois, "image": img, "pretty": str(img)}
        lines.append(f"galois s={args.galois}: {img}")
    if args.norm:
        nrm = val.norm()
        check_str_digits("the norm", nrm.numerator, nrm.denominator)
        result["norm"] = nrm
        lines.append(f"norm = {nrm}")
    return Report("cyc", {"expr": args.expr, "n": args.n}, result, _provenance(), lines)


def _root_of_unity_norms(nmax: int) -> list[dict]:
    """N(1 - zeta_n) against the prime-power rule Phi_n(1), for n = 2..nmax."""
    rows = []
    for n in range(2, nmax + 1):
        nrm = (1 - CycNum.zeta(n)).norm()
        rule = cyclotomic_at_one(n)
        rows.append({"n": n, "norm": nrm, "rule": rule, "match": nrm == rule})
    return rows


def _cmd_lemma_norm(args) -> Report:
    if args.nmax < 2:
        raise PreconditionError(f"--nmax must be at least 2 (the table starts at n = 2), got {args.nmax}")
    if args.nmax > NMAX_LIMIT:
        raise PreconditionError(f"--nmax {args.nmax} exceeds the limit {NMAX_LIMIT}")
    rows = _root_of_unity_norms(args.nmax)
    all_match = all(r["match"] for r in rows)
    table = [[str(r["n"]), str(r["norm"]), str(r["rule"]) if r["rule"] > 1 else "1 (not a prime power)",
              "ok" if r["match"] else "MISMATCH"] for r in rows]
    lines = _table(table, ["n", "N(1-zeta_n)", "prime-power rule", "check"])
    lines.append(f"all {args.nmax - 1} values match the prime-power rule: {all_match}")
    if not all_match:
        raise InternalCheckError("root-of-unity norm table deviates from the prime-power rule")
    return Report("lemma-norm", {"nmax": args.nmax}, {"rows": rows, "all_match": all_match},
                  _provenance(), lines)


def _check_pmax(pmax: int) -> None:
    if pmax < 2:
        raise PreconditionError(f"--pmax must be at least 2 (the least prime), got {pmax}")
    if pmax > PMAX_LIMIT:
        raise PreconditionError(f"--pmax {pmax} exceeds the limit {PMAX_LIMIT}")


def _check_simples_size(rs, l: int) -> None:
    """Refuse a `verlinde simples` reply above the enumeration cap or above
    SIMPLES_LIMIT coefficients."""
    weights = verlinde.check_alcove_size(rs, l, enum_cap(None))
    size = weights and weights * totient(2 * l)  # an empty alcove (l <= h) may have l <= 0
    if size > SIMPLES_LIMIT:
        raise PreconditionError(
            f"verlinde simples for {rs.label} at l={l} would print {weights} weights x "
            f"phi({2 * l}) = {size} coefficients, above the limit {SIMPLES_LIMIT}"
        )


def _verdict_dict(v: verlinde.PrimeVerdict) -> dict:
    return {**asdict(v), "verdict": v.verdict.value}


def _cmd_verlinde(args) -> Report:
    rs = build_root_system(args.type)
    hypo = {"type": rs.label, "coxeter_number": rs.coxeter_number, "l": args.l,
            "l_odd": args.l % 2 == 1, "l_gt_h": args.l > rs.coxeter_number}
    prov = _provenance(q_convention=Q_CONVENTION, hypotheses=hypo)
    if args.verlinde_action == "simples":
        _check_simples_size(rs, args.l)
        simples = verlinde.simple_objects(rs, args.l)
        # the weights of one key share one dimension object: print it once
        # (the JSON renderer encodes the shared object once too)
        pretty: dict[int, str] = {}
        entries = []
        for s in simples:
            text = pretty.get(id(s.qdim))
            if text is None:
                text = pretty[id(s.qdim)] = str(s.qdim)
            entries.append({"weight": list(s.weight), "qdim": s.qdim, "pretty": text, "norm": s.qdim_norm})
        result = {"type": rs.label, "l": args.l, "simples": entries}

        def lines() -> list[str]:
            rows = [[str(e["weight"]), e["pretty"], str(e["norm"])] for e in entries]
            return [f"{rs.label}, l={args.l}: {len(entries)} simple objects",
                    *_table(rows, ["weight", "qdim", "norm"])]

        return Report("verlinde simples", {"type": args.type, "l": args.l}, result, prov, lines)
    if args.verlinde_action == "classify":
        v = verlinde.classify_prime(rs, args.l, args.p)
        result = {"type": rs.label, "l": args.l, "classification": _verdict_dict(v)}
        lines = [f"{rs.label}, l={args.l}, p={args.p}: {v.verdict.value} ({v.reason})"]
        if v.witness is not None:
            lines.append(f"witness weight: {list(v.witness)}")
        if v.detail:
            lines.append(v.detail)
        return Report("verlinde classify", {"type": args.type, "l": args.l, "p": args.p},
                      result, prov, lines)
    _check_pmax(args.pmax)
    # badprimes: compute the alcove dimension norms once, then filter per prime.
    # A norm's prime factors are Phi_d(1) with d | l, so only the primes
    # dividing l can have scan hits.
    norms = verlinde.alcove_norms(rs, args.l)
    verdicts = []
    scan: dict[int, list] = {}
    for p in primes_upto(args.pmax):
        try:
            v = verlinde.classify_prime(rs, args.l, p)
        except PreconditionError as exc:
            v = verlinde.PrimeVerdict(p, Verdict.OUTSIDE_THEOREM,
                                      verlinde.REASON_HYPOTHESIS_FAILURE, detail=str(exc))
        verdicts.append(v)
        witnesses = [w for w, n in norms if n % p == 0] if args.l % p == 0 else []
        if witnesses:
            scan[p] = [list(w) for w in witnesses]
    result = {
        "type": rs.label,
        "l": args.l,
        "verdicts": [_verdict_dict(v) for v in verdicts],
        "dimension_scan_witnesses": scan,
    }
    rows = [
        [str(v.prime), v.verdict.value, v.reason,
         str(list(v.witness)) if v.witness is not None else "-",
         str(len(scan.get(v.prime, [])))]
        for v in verdicts
    ]
    lines = [f"{rs.label}, l={args.l}, primes up to {args.pmax}"]
    lines += _table(rows, ["p", "verdict", "reason", "witness", "scan hits"])
    return Report("verlinde badprimes", {"type": args.type, "l": args.l, "pmax": args.pmax},
                  result, prov, lines)


def _check_points(cycles: str, limit: int, bound: str) -> None:
    """Refuse cycle text that names a point above limit, before any
    permutation is built on that many points."""
    for digits in re.findall(r"\d+", cycles):
        digits = digits.lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise PreconditionError(f"point {digits} exceeds {bound}")


def _load_group(args) -> PermGroup:
    """The group the arguments name, admitted under the enumeration cap in
    force (its `cap`).

    A --degree or a --gens point above TABLE_FACTOR x cap is refused before
    any permutation is built: the element table has at least that many points.
    """
    cap = enum_cap(args.cap)
    degree = args.degree
    bound = f"{TABLE_FACTOR} x the enumeration cap {cap}"
    if degree is not None and not 1 <= degree <= TABLE_FACTOR * cap:
        raise PreconditionError(f"--degree {degree} is not positive" if degree < 1
                                else f"--degree {degree} exceeds {bound}")
    if args.group:
        if degree is not None:
            raise PreconditionError("--degree applies only to --gens")
        if args.gens:
            raise PreconditionError("--gens and --group each name a group; give one")
        return builtin_group(args.group, cap=cap)
    if args.gens:
        _check_points(args.gens, TABLE_FACTOR * cap, bound)
        gens = parse_gens(args.gens, degree)
        return PermGroup.from_generators(gens, cap)
    raise PreconditionError("give a group via --group NAME or --gens CYCLES")


def _group_params(args, **extra) -> dict:
    """A report's params for the group the arguments name, with extra."""
    return {"group": args.group, "gens": args.gens, "degree": args.degree, **extra}


def _group_result(g: PermGroup) -> dict:
    degrees = char_degrees(g)
    bad = rep_bad_primes(g)
    return {
        "order": g.order,
        "degree": g.degree,
        "classes": [
            {"rep": perm_to_cycles(c.rep), "size": c.size} for c in g.conjugacy_classes()
        ],
        "degrees": list(degrees),
        "bad_primes": [{"prime": p, "witness_degree": d} for p, d in bad.items()],
        "good_primes_dividing_order": rep_good_primes(g),
    }


def _cmd_group(args) -> Report:
    g = _load_group(args)
    result = _group_result(g)
    prov = _provenance(enum_cap=g.cap)
    lines = [
        f"|G| = {g.order} on {g.degree} points",
        f"conjugacy classes: {len(result['classes'])}",
        f"character degrees: {result['degrees']}",
        f"bad primes for the representation category: "
        f"{ {b['prime']: b['witness_degree'] for b in result['bad_primes']} }",
        f"good primes dividing |G|: {result['good_primes_dividing_order']}",
    ]
    return Report("group", _group_params(args), result, prov, lines)


def _subgroup_of(g: PermGroup, args) -> PermGroup:
    if args.subgroup_gens is None:
        return g
    _check_points(args.subgroup_gens, g.degree, f"the degree {g.degree} of G")
    return g.subgroup(parse_gens(args.subgroup_gens, g.degree))


def _double_cosets(simples: list[gtcat.GTSimple], h: PermGroup) -> list[tuple[Perm, int]]:
    """(rep, |HxH|) per double coset, read from the simples of (G, H) in their
    order; |HxH| = |H|^2/|H^x| is checked by the orbit pass."""
    return list(dict.fromkeys((s.coset_rep, h.order**2 // s.stabilizer_order) for s in simples))


def _cmd_gtcat(args) -> Report:
    g = _load_group(args)
    h = _subgroup_of(g, args)
    prov = _provenance(cocycle_restriction=gtcat.COCYCLE_RESTRICTION, enum_cap=g.cap)
    simples = gtcat.enumerate_simples(g, h)
    dcs = _double_cosets(simples, h)
    cycles = {r: perm_to_cycles(r) for r, _ in dcs}  # each coset rep rendered once
    result = {
        "order": g.order,
        "subgroup_order": h.order,
        "double_cosets": [{"rep": cycles[r], "size": s} for r, s in dcs],
        "simples": [
            {
                "rep": cycles[s.coset_rep],
                "stabilizer_order": s.stabilizer_order,
                "irrep_degree": s.irrep_degree,
                "dim": s.dimension,
            }
            for s in simples
        ],
        "sum_of_squares": sum(s.dimension**2 for s in simples),
    }
    if args.gtcat_action == "badprimes":
        bad = gtcat.gt_bad_primes(g, h, simples)
        result["bad_primes"] = [
            {"prime": p, "witness_dim": s.dimension, "witness_rep": cycles[s.coset_rep]}
            for p, s in bad.items()
        ]
    rows = [
        [cycles[s.coset_rep], str(s.stabilizer_order), str(s.irrep_degree), str(s.dimension)]
        for s in simples
    ]
    lines = [f"|G| = {g.order}, |H| = {h.order}, {len(dcs)} double cosets, {len(simples)} simples"]
    lines += _table(rows, ["coset rep", "|H^g|", "irrep degree", "dim"])
    lines.append(f"sum of squared dims = {result['sum_of_squares']} (= |G|)")
    if "bad_primes" in result:
        lines.append(f"bad primes: {[b['prime'] for b in result['bad_primes']]}")
    lines.append(f"note: {gtcat.COCYCLE_RESTRICTION}")
    return Report(f"gtcat {args.gtcat_action}", _group_params(args, subgroup_gens=args.subgroup_gens),
                  result, prov, lines)


def _cmd_ito_michler(args) -> Report:
    g = _load_group(args)
    rep = ito_michler_verify(g, args.p)
    result = asdict(rep)
    if rep.applicable:
        lines = [
            f"p = {args.p}: applicable (p divides |G| = {g.order}, no degree)",
            f"Sylow subgroup of order {rep.sylow_order}: normal = {rep.sylow_normal}, "
            f"abelian = {rep.sylow_abelian}",
            f"complement order {rep.complement_order} (coprime to {args.p})",
        ]
    else:
        lines = [f"p = {args.p}: NotApplicable ({rep.reason})"]
    prov = _provenance(enum_cap=g.cap)
    return Report("ito-michler", _group_params(args, p=args.p), result, prov, lines)


def _cmd_amplitude(args) -> Report:
    _check_pmax(args.pmax)
    if args.quantum:
        if args.l is None:
            raise PreconditionError("--quantum needs --l")
        if 2 * args.l > CONDUCTOR_LIMIT:
            raise PreconditionError(f"--l {args.l} puts the conductor 2l above the limit {CONDUCTOR_LIMIT}")
        cert = amplitude.quantum_certificate(args.l, args.pmax)
        result = {
            "mode": "quantum",
            "l": args.l,
            "value": cert["value"],
            "pretty": str(cert["value"]),
            "square": cert["square"],
            "normalization": "vertex scaled so the two-vertex bubble is the identity",
            "certificates": [
                {"prime": p, "divides_denominator_norm": True}
                for p in cert["denominator_primes"]
            ],
            "denominator": cert["denominator"],
        }
        lines = [
            f"quantum square amplitude at l={args.l}: {cert['value']}",
            f"square: {cert['square']}",
            f"canonical denominator: {cert['denominator']}",
            f"primes <= {args.pmax} dividing the denominator: {cert['denominator_primes']}",
        ]
        prov = _provenance(q_convention=Q_CONVENTION)
        return Report("amplitude t4", {"mode": "quantum", "l": args.l}, result, prov, lines)
    if args.l is not None:
        raise PreconditionError("--l applies only to --quantum")
    t = amplitude.sl2_adjoint()
    val = amplitude.amplitude_T4_normalized(t)
    other = amplitude.casimir_square_coefficient(t)
    if val != other:
        raise InternalCheckError("graph contraction and trace identity disagree")
    result = {
        "mode": "classical",
        "value": val,
        "normalization": "vertex scaled so the two-vertex bubble is the identity",
        "cross_check_trace_identity": other,
        "certificates": [
            {"prime": p, "divides_denominator_norm": val.denominator % p == 0}
            for p in primes_upto(args.pmax)
            if val.denominator % p == 0
        ],
    }
    lines = [
        f"classical square amplitude on the rank-3 bracket tensor: {val}",
        f"trace-identity cross-check: {other} (agrees)",
        f"denominator primes: {[c['prime'] for c in result['certificates']]}",
    ]
    return Report("amplitude t4", {"mode": "classical"}, result, _provenance(), lines)


CROSSCHECK_CORPUS = ["S3", "S4", "A4", "A5", "D8", "D12", "C12", "Q8", "SL23", "S3xC4"]


def _cmd_crosscheck(args) -> Report:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, note: str = "") -> None:
        checks.append((name, ok, note))

    if args.all and args.group is not None:
        raise PreconditionError("--group does not apply with --all")
    group = "S3" if args.group is None else args.group
    cap = enum_cap(args.cap)
    groups = CROSSCHECK_CORPUS if args.all else [group]
    for name in groups:
        g = builtin_group(name, cap=cap)
        degrees = char_degrees(g)
        add(f"{name}: sum of squared degrees = |G|",
            sum(d * d for d in degrees) == g.order, f"degrees {list(degrees)}")
        add(f"{name}: #degrees = #classes", len(degrees) == len(g.conjugacy_classes()))
        rep_bad = set(rep_bad_primes(g))
        full = gtcat.enumerate_simples(g, g)
        gt_bad_full = set(gtcat.gt_bad_primes(g, g, full))
        add(f"{name}: bimodule category over (G,G) matches the representation verdicts",
            rep_bad == gt_bad_full, f"bad primes {sorted(rep_bad)}")
        trivial = g.subgroup(parse_gens("e", g.degree))
        pointed = gtcat.enumerate_simples(g, trivial)
        add(f"{name}: pointed category (H = e) has no bad primes",
            gtcat.gt_bad_primes(g, trivial, pointed) == {})
        dcs = _double_cosets(pointed, trivial)
        add(f"{name}: double cosets of the trivial subgroup are singletons",
            len(dcs) == g.order and all(s == 1 for _, s in dcs))
        for rep, size in _double_cosets(full, g):
            add(f"{name}: single double coset for H = G", size == g.order)
        for p in prime_factors(g.order):
            ito_michler_verify(g, p)  # raises on any structural violation
        add(f"{name}: Sylow structure verified for primes dividing |G|", True)

    add("root-of-unity norms follow the prime-power rule (n <= 60)",
        all(r["match"] for r in _root_of_unity_norms(60)))

    # the alcoves are walked weight by weight through the public routes, and
    # the l=9 scan takes the generic norm, so the witness meets a second route
    rs = build_root_system("A1")
    for l in (9, 7):
        verlinde.check_alcove_size(rs, l, cap)
    v = verlinde.classify_prime(rs, 9, 3)
    scanned = [w for w in enumerate_alcove(rs, 9) if verlinde.qdim(rs, 9, w).norm() % 3 == 0]
    add("A1, l=9: p=3 bad with the scan confirming the witness",
        v.verdict == Verdict.BAD and v.witness in scanned)
    add("A1, l=7: all dimension norms are units",
        all(abs(n := verlinde.qdim_norm(rs, 7, w)) == 1 and verlinde.qdim(rs, 7, w).norm() == n
            for w in enumerate_alcove(rs, 7)))

    t = amplitude.sl2_adjoint()
    add("classical square amplitude = 3/2 by both routes",
        amplitude.amplitude_T4_normalized(t) == Fraction(3, 2)
        and amplitude.casimir_square_coefficient(t) == Fraction(3, 2))
    q = amplitude.quantum_T4(8)
    add("quantum square amplitude at l=8 squares to 1/2 with even denominator",
        q * q == Fraction(1, 2) and q.den % 2 == 0)

    ok = all(c[1] for c in checks)
    lines = [f"[{'pass' if c[1] else 'FAIL'}] {c[0]}" + (f"  ({c[2]})" if c[2] else "")
             for c in checks]
    lines.append(f"crosscheck: {sum(c[1] for c in checks)}/{len(checks)} passed")
    result = {"checks": [{"name": c[0], "passed": c[1], "note": c[2] or None} for c in checks],
              "all_passed": ok}
    report = Report("crosscheck", {"group": "corpus" if args.all else group}, result,
                    _provenance(q_convention=Q_CONVENTION,
                                cocycle_restriction=gtcat.COCYCLE_RESTRICTION,
                                enum_cap=cap), lines)
    if not ok:
        raise _CrosscheckFailure(report)
    return report


class _CrosscheckFailure(InternalCheckError):
    def __init__(self, report: Report):
        super().__init__("crosscheck failed")
        self.report = report


# ---------------------------------------------------------------------------
# parser wiring


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", metavar="FILE", help="also write the JSON report to FILE")


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="builtin name: Sn, An, Cn, Dn (order n), Q8, SL23, products like S3xC4")
    p.add_argument("--gens", help="generators in cycle notation, e.g. \"(1 2)(3 4), (1 2 3)\"")
    p.add_argument("--degree", type=int, help="number of points (inferred if omitted)")
    p.add_argument("--cap", type=int, help=f"enumeration cap (default {DEFAULT_ENUM_CAP}, env FUSCAT_ENUM_CAP)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves it unchanged: each parse returns a fresh namespace.
    """
    ap = argparse.ArgumentParser(
        prog="fuscat",
        description="Exact-arithmetic good/bad prime calculator for fusion categories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cyc", help="evaluate a cyclotomic element expression")
    p.add_argument("expr", nargs="?", help="expression in integers, z, + - * / ^ and parentheses")
    p.add_argument("--n", type=int, default=1, help="conductor of z (default 1)")
    p.add_argument("--galois", type=int, help="apply z -> z^s")
    p.add_argument("--norm", action="store_true", help="also print the field norm")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_cyc, usage_error=p.error)

    p = sub.add_parser("lemma-norm", help="table of norms N(1 - zeta_n) against the prime-power rule")
    p.add_argument("--nmax", type=int, default=60)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_lemma_norm)

    p = sub.add_parser("verlinde", help="quantum dimensions and prime verdicts")
    vsub = p.add_subparsers(dest="verlinde_action", required=True)
    for action, extra in [("simples", []), ("classify", ["p"]), ("badprimes", ["pmax"])]:
        q = vsub.add_parser(action)
        q.add_argument("--type", required=True, help="root system label, e.g. A1, D4, E8")
        q.add_argument("--l", type=int, required=True)
        if "p" in extra:
            q.add_argument("--p", type=int, required=True)
        if "pmax" in extra:
            q.add_argument("--pmax", type=int, default=100)
        _add_output_flags(q)
        q.set_defaults(fn=_cmd_verlinde)

    p = sub.add_parser("group", help="order, classes, character degrees, bad primes")
    _add_group_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("gtcat", help="group-theoretical category simples and bad primes")
    gsub = p.add_subparsers(dest="gtcat_action", required=True)
    for action in ("simples", "badprimes"):
        q = gsub.add_parser(action)
        _add_group_flags(q)
        q.add_argument("--subgroup-gens", help="generators of H (default: H = G); 'e' for the trivial subgroup")
        _add_output_flags(q)
        q.set_defaults(fn=_cmd_gtcat)

    p = sub.add_parser("ito-michler", help="verify the normal abelian Sylow conclusion")
    _add_group_flags(p)
    p.add_argument("--p", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_ito_michler)

    p = sub.add_parser("amplitude", help="trivalent graph amplitude certificates")
    p.add_argument("graph", choices=["t4"])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--classical", action="store_true")
    mode.add_argument("--quantum", action="store_true")
    p.add_argument("--l", type=int)
    p.add_argument("--pmax", type=int, default=50)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_amplitude)

    p = sub.add_parser("crosscheck", help="run the cross-module consistency harness")
    p.add_argument("--group", help="builtin group to check (default S3)")
    p.add_argument("--all", action="store_true", help="run over the whole builtin corpus")
    p.add_argument("--cap", type=int)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_crosscheck)

    return ap


def _stdout_to_devnull() -> None:
    """Point a closed stdout's descriptor at the null device, so that the
    interpreter's flush at exit finds a writable file and prints nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing is flushed to a descriptor at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    """Run one request and return its exit code.

    The parser is built once per process, on the first call (not at import),
    and reused by every later call.
    """
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    if args.command == "cyc" and args.expr is None and len(extra) == 1:
        args.expr = extra.pop()  # an expression such as "-z" reads as an unknown option
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "cyc" and args.expr is None:
        args.usage_error("the following arguments are required: expr")
    try:
        report = args.fn(args)
    except _CrosscheckFailure as exc:
        report, code = exc.report, 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    else:
        code = 0
    try:
        written = _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
        print("error: cannot write to stdout: the reader has closed it", file=sys.stderr)
        written = False
    # an internal inconsistency outranks a report that could not be written
    return code or (0 if written else 2)


if __name__ == "__main__":
    sys.exit(main())
