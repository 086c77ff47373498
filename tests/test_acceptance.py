"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold."""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    disk_spiral,
    fiber_at,
    four_minus_z_minus_w,
    kernel,
    norm_sq,
    one_minus_z3w2,
    poly,
    random_symmetric_poly,
    shift_realization,
    subspace_kernel_pair,
    two_minus_z_minus_w,
    w3_minus_z2,
    z3_minus_w2,
)
from dvkit.classify import ZeroLabel, classify_zero_set, root_count_in_disk
from dvkit.cli import main
from dvkit.dvrep import phi_evaluate, represent
from dvkit.extend import ExtensionOperator, extension_bound, verify_extension
from dvkit.poly2 import (
    BivariatePolynomial,
    derived_dv_poly,
    reflect,
    reflected_derivatives,
    symmetrize,
)
from dvkit.serialize import dumps, poly_to_obj
from dvkit.soscert import (
    compute_moments,
    gw_invertibility,
    sos_certificate,
    verify_certificate,
)

Z = poly({(1, 0): 1})
W = poly({(0, 1): 1})


def stamp(index, detail):
    print(f"\nACCEPTANCE {index}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def rep_z3w2():
    return represent(z3_minus_w2())


@pytest.fixture(scope="module")
def rep_w3z2():
    return represent(w3_minus_z2())


def test_criterion_1_reflection_calculus():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_coeff, worst_point = 0.0, 0.0
    for _ in range(50):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        grid = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
        q = BivariatePolynomial(grid)
        qr = reflect(q)
        lhs_z = Z * qr.partial_z() + reflect(q.partial_z()) - n * qr
        lhs_w = W * qr.partial_w() + reflect(q.partial_w()) - m * qr
        bound = 1e-12 * q.scale * max(n, m)
        worst_coeff = max(
            worst_coeff,
            np.max(np.abs(lhs_z.coeffs)) / q.scale,
            np.max(np.abs(lhs_w.coeffs)) / q.scale,
        )
        assert np.max(np.abs(lhs_z.coeffs)) <= bound
        assert np.max(np.abs(lhs_w.coeffs)) <= bound

        sym = random_symmetric_poly(rng, n, m)
        a, b = rng.uniform(0, 2, 2)
        z = rng.uniform(-1.1, 1.1, 50) + 1j * rng.uniform(-1.1, 1.1, 50)
        w = rng.uniform(-1.1, 1.1, 50) + 1j * rng.uniform(-1.1, 1.1, 50)
        s = a * n + b * m
        qv = sym.evaluate(z, w)
        dv = a * z * sym.partial_z().evaluate(z, w) + b * w * sym.partial_w().evaluate(z, w)
        rz, rw = reflected_derivatives(sym)
        rv = a * rz.evaluate(z, w) + b * rw.evaluate(z, w)
        lhs = s**2 * np.abs(qv) ** 2 - 2 * np.real(dv * s * np.conj(qv))
        rhs = np.abs(rv) ** 2 - np.abs(dv) ** 2
        local = np.maximum(s**2 * np.abs(qv) ** 2 + np.abs(rv) ** 2 + np.abs(dv) ** 2, sym.scale**2)
        resid = np.max(np.abs(lhs - rhs) / local)
        worst_point = max(worst_point, resid)
        assert resid <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    stamp(1, f"coeff {worst_coeff:.2e}, pointwise {worst_point:.2e}, {elapsed:.2f}s")


def test_criterion_2_classification():
    t0 = time.perf_counter()
    assert classify_zero_set(z3_minus_w2()).label is ZeroLabel.DV_DEFINING
    assert (
        classify_zero_set(symmetrize(one_minus_z3w2())).label
        is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS
    )
    assert classify_zero_set(four_minus_z_minus_w()).label is ZeroLabel.STABLE_CLOSED
    assert classify_zero_set(derived_dv_poly(z3_minus_w2())).label is ZeroLabel.DV_DEFINING
    rng = np.random.default_rng(202)
    p = z3_minus_w2()
    for _ in range(20):
        z = complex(0.92 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        assert root_count_in_disk(fiber_at(p, z)) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    stamp(2, f"4 labels + 20 root counts, {elapsed:.2f}s")


def test_criterion_3_appendix_construction():
    t0 = time.perf_counter()
    q5 = poly({(0, 0): -5}, (3, 2))
    mom = compute_moments(q5)
    vec_e, vec_f = subspace_kernel_pair(q5, mom)
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(25):
        z, w, zz, ww = (rng.uniform(-0.9, 0.9, 4) + 1j * rng.uniform(-0.9, 0.9, 4))
        u = z * np.conj(zz)
        worst = max(
            worst,
            abs(kernel(vec_e, z, w, zz, ww) - (1 + u + u**2)),
            abs(kernel(vec_f, z, w, zz, ww) - u**3 * (1 + w * np.conj(ww))),
        )
    assert worst <= 1e-9

    q4 = four_minus_z_minus_w()
    cert4 = sos_certificate(q4)
    qr = reflect(q4)
    pts = disk_spiral(64)
    z, w = pts[:, None], pts[None, :]
    lhs = np.abs(q4.evaluate(z, w)) ** 2 - np.abs(qr.evaluate(z, w)) ** 2
    rhs = (1 - np.abs(z) ** 2) * norm_sq(cert4.vec_first, z, w) + (
        1 - np.abs(w) ** 2
    ) * norm_sq(cert4.vec_second, z, w)
    scale = max(np.max(np.abs(lhs)), 1.0)
    resid = np.max(np.abs(lhs - rhs)) / scale
    assert resid <= 1e-7

    gw = gw_invertibility(cert4)
    assert gw.min_sv_first > 1e-6 and gw.min_sv_second > 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    stamp(3, f"kernels {worst:.2e}, identity {resid:.2e}, gw {min(gw.min_sv_first, gw.min_sv_second):.2e}, {elapsed:.2f}s")


def test_criterion_4_boundary_dilation(cert_two):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(25):
        z, w, zz, ww = (rng.uniform(-0.9, 0.9, 4) + 1j * rng.uniform(-0.9, 0.9, 4))
        ka = kernel(cert_two.vec_first, z, w, zz, ww)
        kb = kernel(cert_two.vec_second, z, w, zz, ww)
        worst = max(
            worst,
            abs(ka - 2 * (1 - w) * (1 - np.conj(ww))),
            abs(kb - 2 * (1 - z) * (1 - np.conj(zz))),
        )
    assert worst <= 1e-5
    report = verify_certificate(two_minus_z_minus_w(), cert_two)
    assert report.residual <= 1e-6
    stamp(4, f"kernel {worst:.2e}, residual {report.residual:.2e}")


def test_criterion_5_symmetric_certificate(sym_cert_z3w2):
    q, cert = sym_cert_z3w2
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(25):
        z, w, zz, ww = (rng.uniform(-0.9, 0.9, 4) + 1j * rng.uniform(-0.9, 0.9, 4))
        u = z * np.conj(zz)
        worst = max(
            worst,
            abs(kernel(cert.vec_first, z, w, zz, ww) - 5 * (1 + u + u**2)),
            abs(kernel(cert.vec_second, z, w, zz, ww) - 5 * u**3 * (1 + w * np.conj(ww))),
        )
    assert worst <= 1e-8
    pts = disk_spiral(48)
    z, w = pts[:, None], pts[None, :]
    az, aw = np.abs(z), np.abs(w)
    lhs = 5 * (1 - az**6 * aw**4)
    rhs = (1 - az**2) * norm_sq(cert.vec_first, z, w) + (1 - aw**2) * norm_sq(cert.vec_second, z, w)
    identity_resid = np.max(np.abs(lhs - rhs))
    assert identity_resid <= 1e-8 * np.max(np.abs(lhs) + 1)
    stamp(5, f"kernel {worst:.2e}, identity {identity_resid:.2e}")


def test_criterion_6_representation(rep_z3w2, rep_w3z2):
    details = []
    for cert, rep, report in (rep_z3w2, rep_w3z2):
        assert len(cert.sample[0]) >= 3 * sum(cert.p.degree) + 10
        assert cert.gram_defect <= 1e-8
        assert rep.unitarity_defect() <= 1e-10
        assert rep.d_spectral_radius() < 1
        assert report.det_vs_p_rel <= 1e-6
        assert report.boundary_unitarity <= 1e-8
        assert report.eigen_relation <= 1e-7
        details.append(f"det {report.det_vs_p_rel:.1e}")
    srep = shift_realization(2, 3)
    zs = np.exp(2j * np.pi * np.arange(4) / 4)
    ws = np.exp(2j * np.pi * np.arange(3) / 3)
    vals = np.array(
        [[np.linalg.det(w * np.eye(2) - phi_evaluate(srep, z)) for w in ws] for z in zs]
    )
    coeffs = np.fft.fft2(vals) / 12
    exact = np.max(np.abs(coeffs - poly({(0, 2): 1, (3, 0): -1}, (3, 2)).coeffs))
    assert exact < 1e-14
    stamp(6, f"{', '.join(details)}, companion det exact to {exact:.1e}")


def test_criterion_7_refined_representation(rep_z3w2, rep_w3z2):
    minima = []
    for cert, _, report in (rep_z3w2, rep_w3z2):
        assert cert.smooth_on_torus
        sv = cert.qmatrix.min_singular_value_on_disk
        assert sv > 1e-8 * cert.qmatrix.max_singular_value_on_disk
        minima.append(sv)
    stamp(7, f"sigma_min {min(minima):.3e}")


def test_criterion_8_extension():
    t0 = time.perf_counter()
    cert, rep, _ = represent(z3_minus_w2())
    cs = []
    for f in (W, Z * W, W * W, Z + W):
        op = ExtensionOperator(rep, cert, f)
        er = verify_extension(op)
        assert er.on_variety_residual <= 1e-7
        assert er.sup_F_on_bidisk <= math.sqrt(2) * er.sup_f_on_variety + 1e-6
        assert abs(er.C - math.sqrt(2)) <= 1e-6
        cs.append(er.C)
    cert3, rep3, _ = represent(poly({(0, 3): 1, (3, 0): -1}))
    c3 = extension_bound(rep3, cert3)
    assert abs(c3 - math.sqrt(3)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    stamp(8, f"C2 {cs[0]:.9f}, C3 {c3:.9f}, {elapsed:.1f}s")


def test_criterion_9_negative_controls(tmp_path, capsys):
    q4 = four_minus_z_minus_w()
    p_path = tmp_path / "four.json"
    p_path.write_text(dumps(poly_to_obj(q4)))
    cert_path = tmp_path / "cert.json"
    assert main(["sos", str(p_path), "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert["vec_first"][0]["coeffs"][0][0][0] += 1e-3
    bad_cert = tmp_path / "bad_cert.json"
    bad_cert.write_text(json.dumps(cert))
    assert main(["verify", str(bad_cert), str(p_path)]) == 2

    dv_path = tmp_path / "dv.json"
    dv_path.write_text(dumps(poly_to_obj(z3_minus_w2())))
    rep_path = tmp_path / "rep.json"
    assert main(["represent", str(dv_path), "-o", str(rep_path)]) == 0
    rep_obj = json.loads(rep_path.read_text())
    rep_obj["U"][0][0][0] += 1e-3
    bad_rep = tmp_path / "bad_rep.json"
    bad_rep.write_text(json.dumps(rep_obj))
    assert main(["verify", str(bad_rep), str(dv_path)]) == 2

    zw1 = poly({(1, 1): 1, (0, 0): -1})
    sq_path = tmp_path / "square.json"
    sq_path.write_text(dumps(poly_to_obj(zw1 * zw1)))
    assert main(["represent", str(sq_path)]) == 2
    capsys.readouterr()
    stamp(9, "corrupted certificate, corrupted unitary, squared torus curve all rejected")
