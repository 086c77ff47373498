"""Per-operation verdict checks against the answers known from construction.

Each check returns ``(ok, wrong)``.  ``ok`` is False when the operation
failed: it raised, exited nonzero where the known answer expects 0, or gave
a verdict that contradicts the known answer.  ``wrong`` names the defect
when the program claimed success but the claim does not hold up, judged
with this module's own numpy arithmetic; such an output makes the whole run
incorrect.  A refusal (nonzero exit) fails the operation without being
wrong.
"""

from __future__ import annotations

import json

import numpy as np

import gen

DET_REL_MAX = 1e-6
IDENTITY_REL_MAX = 1e-6


def coeffs_of(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["coeffs"]], dtype=np.complex128)


def horner(c: np.ndarray, z, w):
    """p(z, w) for coefficients c[i, j] of z^i w^j, broadcasting z and w."""
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    acc = np.zeros(np.broadcast(z, w).shape, dtype=np.complex128)
    for i in range(c.shape[0] - 1, -1, -1):
        row = np.zeros_like(acc)
        for j in range(c.shape[1] - 1, -1, -1):
            row = row * w + c[i, j]
        acc = acc * z + row
    return acc


def _pad(c, shape):
    out = np.zeros(shape, dtype=np.complex128)
    out[: c.shape[0], : c.shape[1]] = c
    return out


def det_rel(p: np.ndarray, u: np.ndarray, m: int, n: int) -> float:
    """Relative distance from p to the best scalar multiple of
    det [[A - wI, zB], [C, zD - I]] built from the realization's U."""
    d = gen.dv_coeffs(u, m, n)
    shape = (max(p.shape[0], d.shape[0]), max(p.shape[1], d.shape[1]))
    p, d = _pad(p, shape), _pad(d, shape)
    k = np.unravel_index(np.argmax(np.abs(p)), shape)
    lam = p[k] / d[k] if d[k] != 0 else 0.0
    return float(np.max(np.abs(lam * d - p)) / np.max(np.abs(p)))


def _vec(objs, z, w):
    return np.array([horner(coeffs_of(o), z, w) for o in objs]).reshape(len(objs), -1)


def identity_residual(q: np.ndarray, cert: dict) -> float:
    """Relative residual of the certificate's two-square identity at fixed
    random points of the closed bidisk."""
    rng = np.random.default_rng(0)
    z = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    w = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    n, m = q.shape[0] - 1, q.shape[1] - 1
    qv = horner(q, z, w)
    norm_a = np.sum(np.abs(_vec(cert["vec_first"], z, w)) ** 2, axis=0) if cert["vec_first"] else 0.0
    norm_b = np.sum(np.abs(_vec(cert["vec_second"], z, w)) ** 2, axis=0) if cert["vec_second"] else 0.0
    rhs_a = (1 - np.abs(z) ** 2) * norm_a
    rhs_b = (1 - np.abs(w) ** 2) * norm_b
    if cert["kind"] == "ColeWermer":
        qr = horner(np.conj(q[::-1, ::-1]), z, w)
        terms = [np.abs(qv) ** 2, np.abs(qr) ** 2]
        lhs = terms[0] - terms[1]
    elif cert["kind"] == "Symmetric":
        a, b = cert["weights"]
        # z q_z and w q_w have coefficients i c[i, j] and j c[i, j]
        i = np.arange(n + 1)[:, None]
        j = np.arange(m + 1)[None, :]
        d = a * horner(q * i, z, w) + b * horner(q * j, z, w)
        terms = [(a * n + b * m) * np.abs(qv) ** 2, 2 * np.abs(d * np.conj(qv))]
        lhs = terms[0] - 2 * np.real(d * np.conj(qv))
    else:
        raise ValueError(f"unexpected certificate kind {cert['kind']!r}")
    terms += [rhs_a, rhs_b]
    denom = max(max(float(np.max(t)) for t in terms), 1.0)
    return float(np.max(np.abs(lhs - rhs_a - rhs_b))) / denom


def _all_zero(res):
    return res["codes"] and all(c == 0 for c in res["codes"])


def check_dv(x, p, res):
    """represent / extend / verify all exit 0 and pass; the realization
    reproduces p to DET_REL_MAX, by the reports and by our own determinant.
    A realization that represent wrote (it exited 0) is checked even when a
    later step fails."""
    if res["file"] is not None:
        rep = json.loads(res["file"])
        u = np.array([[complex(re, im) for re, im in row] for row in rep["U"]])
        own = det_rel(p, u, rep["m"], rep["n"])
        if not own <= DET_REL_MAX:
            return False, f"{x['name']}: written realization has det_vs_p_rel {own:.3e} > {DET_REL_MAX:g}"
    if not (_all_zero(res) and len(res["codes"]) == 3):
        return False, None
    ext = json.loads(res["stdout"][1])
    ver = json.loads(res["stdout"][2])
    if not (rep["report"]["passed"] and ext["passed"] and ver["passed"]):
        return False, f"{x['name']}: exit 0 without a passing report"
    for label, val in (("represent", rep["report"]["det_vs_p_rel"]), ("verify", ver["det_vs_p_rel"])):
        if not val <= DET_REL_MAX:
            return False, f"{x['name']}: {label} reports det_vs_p_rel {val:.3e} > {DET_REL_MAX:g}"
    return True, None


def check_sos(x, p, res):
    """sos exits 0 with a passing verification (and a passing GW check on
    contractions), and the certificate identity holds at our own points."""
    if not _all_zero(res):
        return False, None
    out = json.loads(res["stdout"][0])
    if not out["verification"]["passed"]:
        return False, f"{x['name']}: exit 0 without a passing verification"
    if x["answer"] == gen.STABLE_CLOSED and not out.get("gw_invertibility", {}).get("passed"):
        return False, None
    q = coeffs_of(out["poly"]) if "poly" in out else p
    resid = identity_residual(q, out)
    if not resid <= IDENTITY_REL_MAX:
        return False, f"{x['name']}: certificate identity residual {resid:.3e} > {IDENTITY_REL_MAX:g}"
    return True, None


def check_classify(x, p, res):
    """The label equals the constructed answer; every witness of an
    Indeterminate label is a near-zero of p."""
    if not _all_zero(res):
        return False, None
    out = json.loads(res["stdout"][0])
    if out["label"] != x["answer"]:
        return False, f"{x['name']}: labelled {out['label']}, constructed as {x['answer']}"
    if out["witnesses"]:
        pts = np.array([[complex(*z), complex(*w)] for z, w in out["witnesses"]])
        vals = np.abs(horner(p, pts[:, 0], pts[:, 1]))
        limit = out["tol"] * float(np.max(np.abs(p)))
        if not np.all(vals <= limit):
            return False, f"{x['name']}: witness with |p| = {np.max(vals):.3e} > {limit:.3e}"
    return True, None


CHECKS = {"dv_pipeline": check_dv, "sos_certify": check_sos, "classify_sweep": check_classify}
