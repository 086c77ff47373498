"""JSON wire formats (schema family "dvkit/1").

Complex numbers are [re, im] pairs of IEEE doubles throughout.  Polynomials
are {"degree": [n, m], "coeffs": row-major grid}.  A certificate is its two
vectors of polynomials, "vec_first" and "vec_second", with its "kind" and
"weights"; a matrix form is built from them where it is read, and the
"matrix_first", "matrix_second" and "residual" keys of documents written
before that are ignored.  Dumps are sorted and compact so identical inputs
produce byte-identical reports.

A complex grid is written by one conversion of the array to nested lists,
and read by one conversion of the nested lists to a float array; a grid that
does not convert to finite numbers of the expected shape is read again
entry by entry, so that the error names the first bad field.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .classify import torus_singularities
from .dvrep import DvCertificate, UnitaryRealization
from .poly2 import BivariatePolynomial, VectorPolynomial, side_degrees
from .soscert import CertKind, SosCertificate

SCHEMA = "dvkit/1"


class SchemaError(ValueError):
    """Input JSON does not match the expected schema."""


def _c2pair(c) -> list[float]:
    c = complex(c)
    return [float(c.real), float(c.imag)]


def _pair2c(pair, where: str) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise SchemaError(f"{where}: expected [re, im] pair, got {pair!r}")
    try:
        c = complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: non-numeric entry") from exc
    if not cmath.isfinite(c):
        raise SchemaError(f"{where}: non-finite entry")
    return c


def _grid_to_obj(arr) -> list:
    """Nested [re, im] pairs of a complex array, in one conversion."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.view(np.float64).reshape(arr.shape + (2,)).tolist()


def _entries(rows, depth: int, where: str):
    """Nested lists of complex numbers from [re, im] pairs nested ``depth``
    lists deep, one pair at a time; each level is indexed in the field an
    error names."""
    if depth == 0:
        return _pair2c(rows, where)
    return [_entries(r, depth - 1, f"{where}[{i}]") for i, r in enumerate(rows)]


def _grid_from_obj(rows, shape: tuple, where: str) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs whose
    outer structure the caller has checked.

    A grid of finite numbers converts in one step; anything else goes
    through :func:`_entries`, which raises SchemaError naming the first bad
    pair as ``where[i][j]``."""
    try:
        arr = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.shape == shape + (2,) and np.isfinite(arr).all():
        return arr.view(np.complex128)[..., 0]
    return np.array(_entries(rows, len(shape), where), dtype=np.complex128)


def _required(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}.{key}: missing")
    return obj[key]


def _is_count(d) -> bool:
    """A non-negative integer, also when spelled as an integral float."""
    if isinstance(d, float):
        return d.is_integer() and d >= 0
    return isinstance(d, int) and not isinstance(d, bool) and d >= 0


def poly_to_obj(p: BivariatePolynomial) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "polynomial",
        "degree": list(p.degree),
        "coeffs": _grid_to_obj(p.coeffs),
    }


def poly_from_obj(obj: dict, where: str = "polynomial") -> BivariatePolynomial:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    rows = _required(obj, "coeffs", where)
    degree = _required(obj, "degree", where)
    if not (isinstance(degree, list) and len(degree) == 2 and all(map(_is_count, degree))):
        raise SchemaError(f"{where}.degree: expected [n, m], non-negative integers")
    n, m = int(degree[0]), int(degree[1])
    if not (
        isinstance(rows, list)
        and len(rows) == n + 1
        and all(isinstance(r, list) and len(r) == m + 1 for r in rows)
    ):
        raise SchemaError(
            f"{where}.coeffs: grid must be {n + 1} x {m + 1} for degree [{n}, {m}]"
        )
    return BivariatePolynomial(_grid_from_obj(rows, (n + 1, m + 1), f"{where}.coeffs"))


def _vec_to_obj(vec: VectorPolynomial) -> list:
    return [poly_to_obj(c) for c in vec]


def _vec_from_obj(items, where: str) -> VectorPolynomial:
    if not isinstance(items, list):
        raise SchemaError(f"{where}: expected a list of polynomials")
    return VectorPolynomial.of(poly_from_obj(o, f"{where}[{k}]") for k, o in enumerate(items))


def cert_to_obj(cert: SosCertificate, poly: BivariatePolynomial | None) -> dict:
    obj = {
        "schema": SCHEMA,
        "kind": cert.kind.value,
        "weights": list(cert.weights) if cert.weights is not None else None,
        "vec_first": _vec_to_obj(cert.vec_first),
        "vec_second": _vec_to_obj(cert.vec_second),
    }
    if poly is not None:
        obj["poly"] = poly_to_obj(poly)
    return obj


def cert_from_obj(obj: dict, where: str) -> SosCertificate:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    try:
        kind = CertKind(obj.get("kind"))
    except ValueError as exc:
        raise SchemaError(f"{where}.kind: unknown certificate kind") from exc
    weights = obj.get("weights")
    if weights is not None and not (
        isinstance(weights, list)
        and len(weights) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in weights)
    ):
        raise SchemaError(f"{where}.weights: expected [a, b] numbers or null")
    if weights is None and kind is not CertKind.COLE_WERMER:
        raise SchemaError(f"{where}.weights: a {kind.value} certificate needs [a, b]")
    # Python's json reads NaN and Infinity, which no certificate can carry
    if weights is not None and not (
        all(map(math.isfinite, weights)) and min(weights) >= 0 and weights != [0, 0]
    ):
        raise SchemaError(f"{where}.weights: weights must be finite, non-negative and not both zero")
    return SosCertificate(
        kind,
        _vec_from_obj(_required(obj, "vec_first", where), f"{where}.vec_first"),
        _vec_from_obj(_required(obj, "vec_second", where), f"{where}.vec_second"),
        tuple(weights) if weights is not None else None,
    )


def dv_cert_to_obj(cert: DvCertificate) -> dict:
    obj = cert_to_obj(cert.as_sos(), poly=cert.p)
    obj["smooth_on_torus"] = cert.smooth_on_torus
    return obj


def dv_cert_from_obj(obj: dict, where: str) -> DvCertificate:
    if not isinstance(obj, dict) or obj.get("kind") != CertKind.DV.value:
        raise SchemaError(f"{where}.kind: expected a DV certificate")
    if "poly" not in obj:
        raise SchemaError(f"{where}.poly: missing defining polynomial")
    sos = cert_from_obj(obj, where)
    p = poly_from_obj(obj["poly"], f"{where}.poly")
    # P has n components of degree <= (n-1, m) and Q has m of degree <= (n, m-1),
    # each re-declared at that degree
    n, m = p.degree
    deg_p, deg_q = side_degrees(n, m)
    vecs = []
    for key, vec, count, bound in (
        ("vec_first", sos.vec_first, n, deg_p),
        ("vec_second", sos.vec_second, m, deg_q),
    ):
        if len(vec) != count:
            raise SchemaError(f"{where}.{key}: expected {count} components for poly of degree {[n, m]}")
        for k, comp in enumerate(vec):
            if any(d > b for d, b in zip(comp.true_degree(), bound)):
                raise SchemaError(f"{where}.{key}: degree exceeds {bound} at component {k}")
        vecs.append(vec.with_degree(bound))
    smooth = obj.get("smooth_on_torus", True)
    if not isinstance(smooth, bool):
        raise SchemaError(f"{where}.smooth_on_torus: expected true or false, got {json.dumps(smooth)}")
    # false skips the Qmatrix gate, so it is checked
    if not smooth and torus_singularities(p).smooth_on_torus:
        raise SchemaError(
            f"{where}.smooth_on_torus: false, but {where}.poly has no singular point on the torus"
        )
    return DvCertificate(p, tuple(sos.weights), *vecs, smooth)


def realization_to_obj(
    rep: UnitaryRealization, cert: DvCertificate, report_obj: dict
) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "realization",
        "m": rep.m,
        "n": rep.n,
        "U": _grid_to_obj(rep.U),
        "cert": dv_cert_to_obj(cert),
        "report": report_obj,
    }


def realization_from_obj(obj: dict, where: str):
    if not isinstance(obj, dict) or obj.get("kind") != "realization":
        raise SchemaError(f"{where}.kind: expected a realization document")
    for key in ("m", "n"):
        if not _is_count(_required(obj, key, where)):
            raise SchemaError(f"{where}.{key}: expected a non-negative integer, got {json.dumps(obj[key])}")
    m, n = int(obj["m"]), int(obj["n"])
    rows = _required(obj, "U", where)
    if not (
        isinstance(rows, list)
        and len(rows) == m + n
        and all(isinstance(row, list) and len(row) == m + n for row in rows)
    ):
        raise SchemaError(f"{where}.U: expected a {m + n} x {m + n} matrix")
    rep = UnitaryRealization(m, n, _grid_from_obj(rows, (m + n, m + n), f"{where}.U"))
    cert = dv_cert_from_obj(_required(obj, "cert", where), f"{where}.cert")
    degree_n, degree_m = cert.p.degree
    for key, size, degree in (("m", m, degree_m), ("n", n, degree_n)):
        if size != degree:
            raise SchemaError(
                f"{where}.{key}: {size} disagrees with the degree {[degree_n, degree_m]} "
                f"of {where}.cert.poly"
            )
    return rep, cert


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
