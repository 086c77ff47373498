"""Command-line front door: classify / reflect / sos / represent / extend /
verify / demo, JSON in and JSON out.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure.  All
reports are deterministic, the same input giving the same bytes, so the demo
doubles as an acceptance gate in CI.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict

from . import classify as classify_mod
from . import serialize as ser
from .dvrep import represent, verify_representation
from .extend import ExtensionOperator, expand_extension, verify_extension
from .poly2 import (
    BivariatePolynomial,
    blaschke_dv,
    derived_dv_poly,
    reflect,
    symmetrize,
    transpose_vars,
)
from .soscert import CertKind, sos_certificate, sym_sos_certificate, gw_invertibility, verify_certificate


def _emit(args: argparse.Namespace, obj: dict) -> None:
    text = ser.dumps(obj)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(ser.dumps({"schema": ser.SCHEMA, "written": args.output}))
    else:
        print(text)


def _finite_or_none(x: float) -> float | None:
    """x for a JSON report, which has no spelling for inf or nan."""
    return x if math.isfinite(x) else None


def _report_obj(report) -> dict:
    """A report's fields and its verdict for JSON, non-finite values as null."""
    fields = {k: _finite_or_none(v) if isinstance(v, float) else v for k, v in asdict(report).items()}
    return {**fields, "passed": report.passed}


def _load_poly(path: str) -> BivariatePolynomial:
    return ser.poly_from_obj(ser.load_path(path), where=path)


def _load_nonzero_poly(path: str) -> BivariatePolynomial:
    """The polynomial of a command that reads its zero set, which p = 0 lacks."""
    p = _load_poly(path)
    if p.is_zero():
        raise ser.SchemaError(f"{path}.coeffs: every coefficient is zero")
    return p


def _refuse(message) -> int:
    """Exit code 1, with the message on stderr."""
    print(f"dvkit: error: {message}", file=sys.stderr)
    return 1


def _point_pairs(points):
    return [[ser._c2pair(z), ser._c2pair(w)] for z, w in points]


def _cmd_classify(args: argparse.Namespace) -> int:
    p = _load_nonzero_poly(args.poly)
    zc = classify_mod.classify_zero_set(p)
    _emit(
        args,
        {
            "schema": ser.SCHEMA,
            "command": "classify",
            "label": zc.label.value,
            "proven": zc.proven,
            "witnesses": _point_pairs(zc.witnesses),
            "tol": classify_mod.TOL,
        },
    )
    return 0


def _cmd_reflect(args: argparse.Namespace) -> int:
    _emit(args, ser.poly_to_obj(reflect(_load_poly(args.poly))))
    return 0


def _cmd_sos(args: argparse.Namespace) -> int:
    p = _load_nonzero_poly(args.poly)
    weighted = args.a is not None
    if weighted:
        n, m = p.degree
        if args.a * n + args.b * m == 0:
            weights = f"--a {args.a:g} and --b {args.b:g}"
            return _refuse(f"{weights} give a n + b m = 0 at the degree {(n, m)} of {args.poly}")
        q = symmetrize(p)
        cert = sym_sos_certificate(q, args.a, args.b)
        target = q
    else:
        cert = sos_certificate(p)
        target = p
    report = verify_certificate(target, cert)
    obj = ser.cert_to_obj(cert, poly=target if weighted else None)
    obj["verification"] = {"residual": _finite_or_none(report.residual), "passed": report.passed}
    if len(cert.vec_first) and len(cert.vec_second):
        obj["gw_invertibility"] = _report_obj(gw_invertibility(cert))
    _emit(args, obj)
    if not report.passed:
        _note_repeated_factor(target)
    return 0 if report.passed else 2


def _note_repeated_factor(p):
    """Name on stderr the multiple fiber root of a p with a repeated factor,
    which costs the moment construction its accuracy."""
    found = classify_mod.repeated_root(p)
    if found is not None:
        var, at, root, k = found
        at, root = (complex(round(x.real, 6) + 0.0, round(x.imag, 6) + 0.0) for x in (at, root))
        print(
            f"dvkit: note: the polynomial has a repeated factor: its fiber at "
            f"{'z' if var == 'w' else 'w'} = {at:g} has a root {var} = {root:g} of multiplicity {k}",
            file=sys.stderr,
        )


def _cmd_represent(args: argparse.Namespace) -> int:
    p = _load_nonzero_poly(args.poly)
    cert, rep, report = represent(p, args.a, args.b)
    _emit(args, ser.realization_to_obj(rep, cert, _report_obj(report)))
    return 0 if report.passed else 2


def _cmd_extend(args: argparse.Namespace) -> int:
    rep, cert = ser.realization_from_obj(ser.load_path(args.realization), where=args.realization)
    f = _load_poly(args.f)
    op = ExtensionOperator(rep, cert, f)
    er = verify_extension(op)
    obj = {"schema": ser.SCHEMA, "command": "extend", **_report_obj(er)}
    if args.expand:
        numerator, denominator = expand_extension(op)
        obj["numerator"] = ser.poly_to_obj(numerator)
        obj["denominator"] = ser.poly_to_obj(denominator)
    if not args.no_swap:
        # the extension of f from the same variety's realization with z and
        # w exchanged, which C_swapped bounds, gated like F
        try:
            sr = verify_extension(ExtensionOperator(rep.swapped(), cert.swapped(), transpose_vars(f)))
        except (ValueError, ArithmeticError) as exc:  # the reversed orientation can degenerate
            obj["C_swapped"] = None
            obj["swap_error"] = str(exc)
        else:
            obj["C_swapped"] = _finite_or_none(sr.C)
            obj["swapped_passed"] = sr.passed
    _emit(args, obj)
    return 0 if er.passed else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    where = args.artifact
    artifact = ser.load_path(where)
    p = _load_poly(args.poly)
    kind = artifact.get("kind") if isinstance(artifact, dict) else None
    obj = {"schema": ser.SCHEMA, "command": "verify", "kind": kind}
    if kind == "realization":
        rep, cert = ser.realization_from_obj(artifact, where=where)
        obj.update(_report_obj(verify_representation(p, cert, rep)))
    elif isinstance(kind, str) and kind in {k.value for k in CertKind}:
        dv = ser.dv_cert_from_obj(artifact, where) if kind == CertKind.DV.value else None
        cert = dv.as_sos() if dv is not None else ser.cert_from_obj(artifact, where)
        obj.update(_report_obj(verify_certificate(p, cert)))
        if dv is not None:
            # the Gram identity X*X = Y*Y on the variety sample that represent takes
            obj["gram_equality"] = dv.gram_defect <= dv.gram_tolerance
            obj["passed"] = obj["passed"] and obj["gram_equality"]
    else:
        raise ser.SchemaError(f"{where}.kind: unrecognized artifact kind {kind!r}")
    _emit(args, obj)
    return 0 if obj["passed"] else 2


# ---------------------------------------------------------------------------
# demo corpus


def demo_corpus():
    return {
        "z3_minus_w2": BivariatePolynomial.from_terms({(3, 0): 1, (0, 2): -1}),
        "w3_minus_z2": BivariatePolynomial.from_terms({(0, 3): 1, (2, 0): -1}),
        # w^m = z^3, and w^m = z (z - 1/2) / (1 - z/2)
        "blaschke_m2_cubic": blaschke_dv(2, [0, 0, 0]),
        "blaschke_m3_cubic": blaschke_dv(3, [0, 0, 0]),
        "blaschke_m2_mobius": blaschke_dv(2, [0.5, 0]),
        "blaschke_m3_mobius": blaschke_dv(3, [0.5, 0]),
        "two_minus_z_minus_w": BivariatePolynomial.from_terms(
            {(0, 0): 2, (1, 0): -1, (0, 1): -1}
        ),
        "four_minus_z_minus_w": BivariatePolynomial.from_terms(
            {(0, 0): 4, (1, 0): -1, (0, 1): -1}
        ),
    }


def _demo_dv_row(p, expect_sqrt_m=False):
    # represent refuses every label but DVDefining, so a row that gets past
    # it was classified as one
    cert, rep, report = represent(p)
    checks = {"classified_dv": True, "representation": report.passed}
    f = BivariatePolynomial.from_terms({(0, 1): 1})
    er = verify_extension(ExtensionOperator(rep, cert, f))
    checks["extension"] = er.passed
    if expect_sqrt_m:
        m = len(cert.vec_q)
        checks["bound_is_sqrt_m"] = abs(er.C - math.sqrt(m)) <= 1e-6
    return checks, {"C": er.C, "det_vs_p_rel": report.det_vs_p_rel}


def _demo_stable_row(p, expect_label):
    checks = {}
    label = classify_mod.classify_zero_set(p).label
    checks["classified"] = label is expect_label
    cert = sos_certificate(p)
    report = verify_certificate(p, cert)
    checks["certificate"] = report.passed
    detail = {"residual": report.residual}
    if label is classify_mod.ZeroLabel.STABLE_CLOSED:
        gw = gw_invertibility(cert)
        checks["gw_invertibility"] = gw.passed
        detail["gw_min_sv"] = min(gw.min_sv_first, gw.min_sv_second)
    return checks, detail


def demo() -> tuple[int, dict]:
    corpus = demo_corpus()
    rows = []

    def add(name, checks, detail=None):
        rows.append(
            {
                "name": name,
                "checks": checks,
                "detail": detail or {},
                "passed": all(checks.values()),
            }
        )

    for name, expect_c in [
        ("z3_minus_w2", True),
        ("w3_minus_z2", False),
        ("blaschke_m2_cubic", True),
        ("blaschke_m3_cubic", True),
        ("blaschke_m2_mobius", False),
        ("blaschke_m3_mobius", False),
    ]:
        checks, detail = _demo_dv_row(corpus[name], expect_c)
        add(name, checks, detail)

    checks, detail = _demo_stable_row(
        corpus["two_minus_z_minus_w"], classify_mod.ZeroLabel.STABLE_OPEN
    )
    add("two_minus_z_minus_w", checks, detail)
    checks, detail = _demo_stable_row(
        corpus["four_minus_z_minus_w"], classify_mod.ZeroLabel.STABLE_CLOSED
    )
    add("four_minus_z_minus_w", checks, detail)

    derived = derived_dv_poly(corpus["z3_minus_w2"])
    add(
        "derived_dv_reclassifies",
        {
            "classified_dv": classify_mod.classify_zero_set(derived).label
            is classify_mod.ZeroLabel.DV_DEFINING
        },
    )

    passed = all(r["passed"] for r in rows)
    obj = {
        "schema": ser.SCHEMA,
        "command": "demo",
        "rows": rows,
        "passed": passed,
    }
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        marks = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in r["checks"].items())
        print(f"{r['name']:<{width}}  {'PASS' if r['passed'] else 'FAIL'}  {marks}", file=sys.stderr)
    return (0 if passed else 2), obj


def _cmd_demo(args: argparse.Namespace) -> int:
    code, obj = demo()
    _emit(args, obj)
    return code


_HANDLERS = {
    "classify": _cmd_classify,
    "reflect": _cmd_reflect,
    "sos": _cmd_sos,
    "represent": _cmd_represent,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and each call to :func:`main` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dvkit",
        description="bivariate polynomials against the bidisk: classification, "
        "sums-of-squares certificates, determinantal representations, extension",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("classify", help="label the zero set relative to the bidisk")
    sp.add_argument("poly")
    output(sp)

    sp = sub.add_parser("reflect", help="reflect at the degree the document declares")
    sp.add_argument("poly")
    output(sp)

    sp = sub.add_parser("sos", help="sums-of-squares certificate")
    sp.add_argument("poly")
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    output(sp)

    sp = sub.add_parser("represent", help="determinantal representation of a distinguished variety")
    sp.add_argument("poly")
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    output(sp)

    sp = sub.add_parser("extend", help="bounded extension of f from the variety")
    sp.add_argument("realization")
    sp.add_argument("f")
    sp.add_argument("--no-swap", action="store_true", help="skip the z/w-reversed constant")
    sp.add_argument("--expand", action="store_true", help="include numerator/denominator polynomials")
    output(sp)

    sp = sub.add_parser("verify", help="re-verify a certificate or realization against a polynomial")
    sp.add_argument("artifact")
    sp.add_argument("poly")
    sp.set_defaults(output=None)

    sp = sub.add_parser("demo", help="run the built-in corpus and print a pass/fail matrix")
    output(sp)
    return parser


def _argument_error(args: argparse.Namespace) -> str | None:
    """What is wrong with the parsed option values, naming the flag, or
    None; checked before any work."""
    if hasattr(args, "a"):
        a, b = args.a, args.b
        if (a is None) != (b is None):
            return "--a and --b must be given together"
        if a is not None:
            if not (math.isfinite(a) and math.isfinite(b)):
                return "--a and --b must be finite"
            if a < 0 or b < 0 or a == b == 0:
                return "--a and --b must be non-negative and not both zero"
    return None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a failed
        # verification; --help exits 0.
        return 1 if exc.code else 0
    error = _argument_error(args)
    if error is not None:
        return _refuse(error)
    try:
        return _HANDLERS[args.command](args)
    except (ser.SchemaError, FileNotFoundError, OSError) as exc:
        return _refuse(exc)
    except (ValueError, ArithmeticError) as exc:
        # precondition and verification failures from the pipeline itself
        print(ser.dumps({"schema": ser.SCHEMA, "error": str(exc), "passed": False}))
        print(f"dvkit: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
