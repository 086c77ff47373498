"""Command-line front door: classify / reflect / sos / represent / extend /
verify / demo, JSON in and JSON out.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure.  All
reports are deterministic for a fixed config and seed, so the demo doubles
as an acceptance gate in CI.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, dataclass

from . import classify as classify_mod
from . import serialize as ser
from .dvrep import (
    IsometryError,
    lurking_isometry,
    represent,
    sample_variety,
    verify_representation,
)
from .extend import (
    ExtensionOperator,
    expand_extension,
    extension_bound,
    verify_extension,
)
from .poly2 import (
    BivariatePolynomial,
    blaschke_dv,
    derived_dv_poly,
    reflect,
    symmetrize,
    transpose_vars,
)
from .soscert import CertKind, sos_certificate, sym_sos_certificate, gw_invertibility, verify_certificate

PASS_THRESHOLD = 1e-7
# lurking_isometry takes a full SVD of a samples x samples matrix
SAMPLES_MAX = 1024


@dataclass
class RunConfig:
    command: str
    inputs: tuple[str, ...] = ()
    grid_n: int = 64
    tol: float = 1e-7
    weights: tuple[float, float] | None = None
    seed: int = 7
    samples: int | None = None
    output: str | None = None
    at_degree: tuple[int, int] | None = None
    swap_check: bool = True
    expand: bool = False

    def validate(self):
        if not (16 <= self.grid_n <= classify_mod.CIRCLE_SAMPLES_MAX):
            raise ValueError(f"--grid must lie in [16, {classify_mod.CIRCLE_SAMPLES_MAX}]")
        if self.samples is not None and self.samples > SAMPLES_MAX:
            raise ValueError(f"--samples must be at most {SAMPLES_MAX}")
        if not (0.0 < self.tol <= 1e-2):
            raise ValueError("tol must lie in (0, 1e-2]")
        if self.weights is not None:
            a, b = self.weights
            if a < 0 or b < 0 or (a == 0 and b == 0):
                raise ValueError("weights must be non-negative and not both zero")


def _emit(config: RunConfig, obj: dict) -> None:
    text = ser.dumps(obj)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(ser.dumps({"schema": ser.SCHEMA, "written": config.output}))
    else:
        print(text)


def _finite_or_none(x: float) -> float | None:
    """x for a JSON report, which has no spelling for inf or nan."""
    return x if math.isfinite(x) else None


def _load_poly(path: str) -> BivariatePolynomial:
    return ser.poly_from_obj(ser.load_path(path), where=path)


def _point_pairs(points):
    return [[ser._c2pair(z), ser._c2pair(w)] for z, w in points]


def _cmd_classify(config: RunConfig) -> int:
    p = _load_poly(config.inputs[0])
    zc = classify_mod.classify_zero_set(p, grid_n=config.grid_n, tol=config.tol)
    _emit(
        config,
        {
            "schema": ser.SCHEMA,
            "command": "classify",
            "label": zc.label.value,
            "proven": zc.proven,
            "witnesses": _point_pairs(zc.witnesses),
            "grid": zc.grid_n,
            "tol": zc.tol,
        },
    )
    return 0


def _cmd_reflect(config: RunConfig) -> int:
    p = _load_poly(config.inputs[0])
    if config.at_degree is not None:
        degree = p.true_degree()
        if any(d < t for d, t in zip(config.at_degree, degree)):
            print(
                f"dvkit: error: --at {' '.join(map(str, config.at_degree))} lies below "
                f"the degree {degree} of {config.inputs[0]}",
                file=sys.stderr,
            )
            return 1
    _emit(config, ser.poly_to_obj(reflect(p, config.at_degree)))
    return 0


def _cmd_sos(config: RunConfig) -> int:
    p = _load_poly(config.inputs[0])
    if config.weights is not None:
        q = symmetrize(p)
        cert = sym_sos_certificate(q, *config.weights)
        target = q
    else:
        cert = sos_certificate(p)
        target = p
    report = verify_certificate(target, cert)
    obj = ser.cert_to_obj(cert, poly=target if config.weights is not None else None)
    obj["verification"] = {"residual": _finite_or_none(report.residual), "passed": report.passed}
    if len(cert.vec_first) and len(cert.vec_second):
        gw = gw_invertibility(cert)
        obj["gw_invertibility"] = {
            "min_sv_first": gw.min_sv_first,
            "min_sv_second": gw.min_sv_second,
            "passed": gw.passed,
        }
    _emit(config, obj)
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


def _cmd_represent(config: RunConfig) -> int:
    p = _load_poly(config.inputs[0])
    a, b = config.weights if config.weights is not None else (1.0, 1.0)
    cert, sample, rep, report = represent(p, a, b, seed=config.seed, target_count=config.samples)
    report_obj = {**asdict(report), "seed": config.seed, "passed": report.passed}
    _emit(config, ser.realization_to_obj(rep, cert, report_obj))
    return 0 if report.passed else 2


def _cmd_extend(config: RunConfig) -> int:
    rep, cert = ser.realization_from_obj(
        ser.load_path(config.inputs[0]), where=config.inputs[0]
    )
    f = _load_poly(config.inputs[1])
    op = ExtensionOperator(rep, cert, f)
    er = verify_extension(op)
    obj = {
        "schema": ser.SCHEMA,
        "command": "extend",
        "C": er.bound_C,
        "on_variety_residual": er.on_variety_residual,
        "sup_F_on_bidisk": er.sup_F_on_bidisk,
        "sup_f_on_variety": er.sup_f_on_variety,
        "ratio": er.ratio,
        "passed": er.passed,
    }
    if config.expand:
        numerator, denominator = expand_extension(op)
        obj["numerator"] = ser.poly_to_obj(numerator)
        obj["denominator"] = ser.poly_to_obj(denominator)
    if config.swap_check:
        # the same variety's realization with z and w exchanged
        op_t = ExtensionOperator(rep.swapped(), cert.swapped(), transpose_vars(f))
        try:
            c_swapped = extension_bound(op_t).C
        except (ValueError, ArithmeticError) as exc:  # the reversed orientation can degenerate
            obj["C_swapped"] = None
            obj["swap_error"] = str(exc)
        else:
            obj["C_swapped"] = c_swapped
            obj["C_best"] = min(er.bound_C, c_swapped)
    _emit(config, obj)
    return 0 if er.passed else 2


def _cmd_verify(config: RunConfig) -> int:
    where = config.inputs[0]
    artifact = ser.load_path(where)
    p = _load_poly(config.inputs[1])
    kind = artifact.get("kind") if isinstance(artifact, dict) else None
    obj = {"schema": ser.SCHEMA, "command": "verify", "kind": kind}
    if kind == "realization":
        rep, cert = ser.realization_from_obj(artifact, where=where)
        sample = sample_variety(cert.p, seed=config.seed)
        report = verify_representation(p, cert, rep, sample)
        obj.update(asdict(report), passed=report.passed)
    elif kind in {k.value for k in CertKind}:
        dv = ser.dv_cert_from_obj(artifact, where) if kind == CertKind.DV.value else None
        cert = dv.as_sos() if dv is not None else ser.cert_from_obj(artifact, where)
        report = verify_certificate(p, cert)
        residual = _finite_or_none(report.residual)
        obj.update(residual=residual, threshold=report.threshold, passed=report.passed)
        if dv is not None:
            # on the variety sample that represent takes at the same seed
            try:
                lurking_isometry(dv, sample_variety(dv.p, seed=config.seed))
                obj["gram_equality"] = True
            except IsometryError:
                obj["gram_equality"] = obj["passed"] = False
    else:
        raise ser.SchemaError(f"{where}.kind: unrecognized artifact kind {kind!r}")
    _emit(config, obj)
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


def _demo_dv_row(name, p, seed, expect_sqrt_m=False):
    checks = {}
    label = classify_mod.classify_zero_set(p).label
    checks["classified_dv"] = label is classify_mod.ZeroLabel.DV_DEFINING
    cert, _, rep, report = represent(p, seed=seed)
    checks["representation"] = report.passed
    f = BivariatePolynomial.from_terms({(0, 1): 1})
    er = verify_extension(ExtensionOperator(rep, cert, f))
    checks["extension"] = er.passed
    if expect_sqrt_m:
        m = len(cert.vec_q)
        checks["bound_is_sqrt_m"] = abs(er.bound_C - math.sqrt(m)) <= 1e-6
    return checks, {"C": er.bound_C, "det_vs_p_rel": report.det_vs_p_rel}


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


def demo(config: RunConfig) -> tuple[int, dict]:
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
        checks, detail = _demo_dv_row(name, corpus[name], config.seed, expect_c)
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
        "seed": config.seed,
    }
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        marks = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in r["checks"].items())
        print(f"{r['name']:<{width}}  {'PASS' if r['passed'] else 'FAIL'}  {marks}", file=sys.stderr)
    return (0 if passed else 2), obj


def _cmd_demo(config: RunConfig) -> int:
    code, obj = demo(config)
    _emit(config, obj)
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

    def common(sp, seed=True, output=True):
        if seed:
            sp.add_argument("--seed", type=int, default=RunConfig.seed)
        if output:
            sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("classify", help="label the zero set relative to the bidisk")
    sp.add_argument("poly")
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--grid", type=int, default=RunConfig.grid_n, dest="grid_n")
    common(sp, seed=False)

    sp = sub.add_parser("reflect", help="reflect at the formal (or given) degree")
    sp.add_argument("poly")
    sp.add_argument("--at", type=int, nargs=2, metavar=("N", "M"), default=None)
    common(sp, seed=False)

    sp = sub.add_parser("sos", help="sums-of-squares certificate")
    sp.add_argument("poly")
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    common(sp, seed=False)

    sp = sub.add_parser("represent", help="determinantal representation of a distinguished variety")
    sp.add_argument("poly")
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--samples", type=int, default=None)
    common(sp)

    sp = sub.add_parser("extend", help="bounded extension of f from the variety")
    sp.add_argument("realization")
    sp.add_argument("f")
    sp.add_argument("--no-swap", action="store_true", help="skip the z/w-reversed constant")
    sp.add_argument("--expand", action="store_true", help="include numerator/denominator polynomials")
    common(sp, seed=False)

    sp = sub.add_parser("verify", help="re-verify a certificate or realization against a polynomial")
    sp.add_argument("artifact")
    sp.add_argument("poly")
    common(sp, output=False)

    sp = sub.add_parser("demo", help="run the built-in corpus and print a pass/fail matrix")
    common(sp)
    return parser


def _config_from_args(args) -> RunConfig:
    weights = None
    if args.command == "sos":
        if (args.a is None) != (args.b is None):
            raise ValueError("--a and --b must be given together")
        if args.a is not None:
            weights = (args.a, args.b)
    elif args.command == "represent":
        weights = (args.a, args.b)
    inputs = tuple(
        getattr(args, name)
        for name in ("poly", "realization", "f", "artifact")
        if hasattr(args, name)
    )
    if args.command == "verify":
        inputs = (args.artifact, args.poly)
    return RunConfig(
        command=args.command,
        inputs=inputs,
        grid_n=getattr(args, "grid_n", RunConfig.grid_n),
        tol=getattr(args, "tol", RunConfig.tol),
        weights=weights,
        seed=getattr(args, "seed", RunConfig.seed),
        samples=getattr(args, "samples", None),
        output=getattr(args, "output", None),
        at_degree=tuple(args.at) if getattr(args, "at", None) else None,
        swap_check=not getattr(args, "no_swap", False),
        expand=getattr(args, "expand", False),
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a failed
        # verification; --help exits 0.
        return 1 if exc.code else 0
    try:
        config = _config_from_args(args)
        config.validate()
    except ValueError as exc:
        print(f"dvkit: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[config.command](config)
    except (ser.SchemaError, FileNotFoundError, OSError) as exc:
        print(f"dvkit: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        # precondition and verification failures from the pipeline itself
        print(ser.dumps({"schema": ser.SCHEMA, "error": str(exc), "passed": False}))
        print(f"dvkit: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
