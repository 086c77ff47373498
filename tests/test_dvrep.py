import functools
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    dv_corpus,
    four_minus_z_minus_w,
    haar_dv,
    haar_unitary,
    kernel,
    load_script,
    poly,
    shift_realization,
    z3_minus_w2,
)
from dvkit.dvrep import (
    SAMPLE_RADII,
    IsometryError,
    UnitaryRealization,
    det_representation,
    dv_certificate,
    lurking_isometry,
    phi_evaluate,
    represent,
    sample_variety,
    verify_representation,
)
from dvkit.classify import ZeroLabel, classify_zero_set, fiber_roots, is_squarefree
from dvkit.extend import extension_bound
from dvkit.poly2 import (
    BivariatePolynomial,
    VectorPolynomial,
    _exponent,
    blaschke_dv,
    symmetrize,
    transpose_vars,
)
from dvkit.soscert import verify_certificate

DV_CORPUS = dv_corpus()


@functools.cache
def degree_survey():
    """scripts/degree_survey.py as a module, for its Haar variety generator."""
    return load_script("degree_survey")


class TestDvCertificate:
    def test_closed_form_for_cubic(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        z, w, zz, ww = 0.3 + 0.1j, -0.2j, 0.15 - 0.4j, 0.7
        u = z * np.conj(zz)
        kp = kernel(cert.vec_p, z, w, zz, ww)
        kq = kernel(cert.vec_q, z, w, zz, ww)
        assert abs(kp - 5 * (1 + u + u**2)) < 1e-8
        assert abs(kq - 5 * (1 + w * np.conj(ww))) < 1e-8

    def test_qmatrix_constant_multiple_of_unitary(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        q0 = cert.qmatrix.evaluate(0.0)
        assert np.max(np.abs(cert.qmatrix.evaluate(0.5 + 0.2j) - q0)) < 1e-8
        gram = q0.conj().T @ q0
        assert np.max(np.abs(gram - 5 * np.eye(2))) < 1e-8

    def test_kernel_identity_on_variety_pairs(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        z, w = cert.sample
        kp = kernel(cert.vec_p, z[:, None], w[:, None], z[None, :], w[None, :])
        kq = kernel(cert.vec_q, z[:, None], w[:, None], z[None, :], w[None, :])
        za = 1 - z[:, None] * np.conj(z[None, :])
        wa = 1 - w[:, None] * np.conj(w[None, :])
        resid = np.max(np.abs(za * kp - wa * kq))
        assert resid <= 1e-8 * np.max(np.abs(kq))

    def test_vector_lengths_match_degrees(self, pipeline_w3z2):
        cert, _, _ = pipeline_w3z2
        n, m = cert.p.degree
        assert len(cert.vec_p) == n and len(cert.vec_q) == m

    def test_no_component_vanishes(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        for comp in (*cert.vec_p, *cert.vec_q):
            assert comp.scale > 1e-10 * cert.p.scale

    def test_global_dv_identity_verifies(self, pipeline_z3w2):
        from dvkit.soscert import verify_certificate

        cert, _, _ = pipeline_z3w2
        assert verify_certificate(cert.p, cert.as_sos()).residual <= 1e-7

    def test_rejects_non_dv(self):
        with pytest.raises(ValueError):
            dv_certificate(four_minus_z_minus_w(), 1.0, 1.0)

    def test_rejects_squared_factor(self):
        zw1 = poly({(1, 1): 1, (0, 0): -1})
        with pytest.raises(ValueError):
            dv_certificate(zw1 * zw1, 1.0, 1.0)


class TestSampleVariety:
    def test_points_on_variety(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        z, w = cert.sample
        assert np.max(np.abs(cert.p.evaluate(z, w))) <= 1e-10 * cert.p.scale
        assert np.all(np.abs(z) < 1) and np.all(np.abs(w) < 1)

    def test_sample_is_two_read_only_arrays(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        z, w = cert.sample
        assert len(z) == len(w) and not z.flags.writeable and not w.flags.writeable

    def test_deterministic_under_seed(self):
        # the circles' jitter comes from one fixed seed
        p = symmetrize(z3_minus_w2())
        (z0, w0), (z1, w1) = sample_variety(p), sample_variety(p)
        assert z0.tolist() == z1.tolist() and w0.tolist() == w1.tolist()

    @pytest.mark.parametrize("seed", [3, 7])
    def test_matches_per_point_newton(self, seed, monkeypatch):
        # one fiber at a time and one scalar Newton per root, as the
        # sampler is specified: same points, same order, for two jitters
        monkeypatch.setattr("dvkit.dvrep.SAMPLE_SEED", seed)
        p = symmetrize(blaschke_dv(2, [0.5, 0]))
        n, m = p.degree
        pw = p.partial_w()
        scale = p.scale
        rng = np.random.default_rng(seed)
        radii = (0.3, 0.5, 0.7, 0.85)
        per = max(4, int(np.ceil((3 * (n + m) + 10) / (len(radii) * m))) + 1)
        want = []
        for r in radii:
            jitter = rng.uniform(0.0, 2 * np.pi)
            for k in range(per):
                z = r * np.exp(1j * (2 * np.pi * k / per + jitter))
                for w in fiber_roots(p, complex(z)):
                    if abs(w) >= 1.0:
                        continue
                    for _ in range(50):
                        val = p.evaluate(z, w)
                        dw = pw.evaluate(z, w)
                        if abs(val) <= 1e-13 * scale or abs(dw) < 1e-14 * scale:
                            break
                        w = w - val / dw
                    if abs(p.evaluate(z, w)) <= 1e-12 * scale and abs(w) < 1.0:
                        want.append((z, w))
        got = list(zip(*sample_variety(p)))
        assert len(got) == len(want)
        assert max(abs(a - c) + abs(b - d) for (a, b), (c, d) in zip(got, want)) < 1e-12

    @pytest.mark.parametrize("d", [8, 12, 16, 20])
    def test_companion_roots_need_no_polish(self, d):
        # on the generated Haar varieties of scripts/degree_survey.py every
        # fiber over the sample circles keeps its m roots in the disk, and
        # the companion roots meet p to 1e-13 * scale unpolished
        p = symmetrize(degree_survey().haar_variety(d, 1))
        n, m = p.degree
        z, w = sample_variety(p)
        per = max(4, int(np.ceil((3 * (n + m) + 10) / (len(SAMPLE_RADII) * m))) + 1)
        _, counts = np.unique(z, return_counts=True)
        assert len(counts) == per * len(SAMPLE_RADII) and set(counts.tolist()) == {m}
        assert np.max(np.abs(p.evaluate(z, w))) <= 1e-13 * p.scale

    def test_insufficient_span_raises(self):
        # w - 2 has no fiber root in the disk
        with pytest.raises(IsometryError, match="insufficient span"):
            sample_variety(poly({(0, 0): -2, (0, 1): 1}))


class TestLurkingIsometry:
    def test_gram_equality_holds(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        assert cert.gram_defect <= 1e-8

    def test_unitary_size_and_blocks(self, pipeline_z3w2):
        _, rep, _ = pipeline_z3w2
        assert rep.U.shape == (5, 5)
        assert rep.m == 2 and rep.n == 3
        assert rep.unitarity_defect() <= 1e-10

    def test_d_spectral_radius_strictly_inside(self, pipeline_z3w2):
        _, rep, _ = pipeline_z3w2
        assert rep.d_spectral_radius() < 1 - 1e-8

    def test_violated_isometry_raises(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        broken = type(cert)(
            cert.p,
            cert.weights,
            cert.vec_p,
            cert.vec_q.scaled(1.01),
            cert.smooth_on_torus,
        )
        with pytest.raises(IsometryError):
            lurking_isometry(broken)

    def test_completion_below_full_rank(self, pipeline_z3w2, monkeypatch):
        # m + n - 1 points are too few for the saturation check, and they
        # span less than m + n: the two roots over each z share the
        # direction of w in X = sqrt(5) (1, w, z, z^2, z^3) up to a unitary,
        # so the missing columns come from the completion
        cert, _, _ = pipeline_z3w2
        k = len(cert.vec_q) + len(cert.vec_p) - 1
        z, w = (arr[:k] for arr in cert.sample)
        monkeypatch.setattr("dvkit.dvrep.sample_variety", lambda p: (z, w))
        rep = lurking_isometry(replace(cert))
        qv, pv = cert.vec_q.evaluate(z, w), cert.vec_p.evaluate(z, w)
        x = np.vstack([qv, z * pv])
        y = np.vstack([w * qv, pv])
        assert np.linalg.matrix_rank(x, 1e-8 * np.linalg.norm(x, 2)) == k - 1
        assert rep.unitarity_defect() <= 1e-12
        assert np.linalg.norm(rep.U @ x - y) <= 1e-12 * np.linalg.norm(y)

    def test_unsaturated_rank_names_both_ranks(self, pipeline_z3w2, monkeypatch):
        # 30 copies of one point, then 10 others: the rank still grows in
        # the last 10 points
        cert, _, _ = pipeline_z3w2
        idx = np.r_[np.zeros(30, dtype=int), np.arange(1, 11)]
        thin = tuple(arr[idx] for arr in cert.sample)
        monkeypatch.setattr("dvkit.dvrep.sample_variety", lambda p: thin)
        with pytest.raises(IsometryError, match=r"40 points span rank 5 of m \+ n = 5, their first 30 rank 1"):
            lurking_isometry(replace(cert))


class TestUnitaryRealization:
    def test_block_sizes_must_match(self):
        with pytest.raises(ValueError, match="block sizes"):
            UnitaryRealization(1, 1, np.eye(3))

    def test_no_d_block_has_spectral_radius_zero(self):
        assert UnitaryRealization(1, 0, [[1.0]]).d_spectral_radius() == 0.0


class TestPhi:
    def test_phi_at_zero_is_a_block(self, pipeline_z3w2):
        _, rep, _ = pipeline_z3w2
        assert np.max(np.abs(phi_evaluate(rep, 0.0) - rep.A)) < 1e-14

    def test_boundary_unitarity(self, pipeline_z3w2):
        _, rep, _ = pipeline_z3w2
        for theta in 2 * np.pi * np.arange(128) / 128:
            phi = phi_evaluate(rep, np.exp(1j * theta))
            assert np.max(np.abs(phi.conj().T @ phi - np.eye(rep.m))) <= 1e-8

    def test_contractive_inside(self, pipeline_z3w2):
        _, rep, _ = pipeline_z3w2
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert np.linalg.norm(phi_evaluate(rep, z), 2) <= 1 + 1e-8

    def test_array_argument_stacks_scalar_calls(self, pipeline_z3w2):
        _, rep, _ = pipeline_z3w2
        zs = np.array([[0.0, 0.3 - 0.2j, -0.7j], [np.exp(0.4j), 0.9, -0.5 + 0.5j]])
        got = phi_evaluate(rep, zs)
        assert got.shape == zs.shape + (rep.m, rep.m)
        want = np.array([[phi_evaluate(rep, z) for z in row] for row in zs])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_eigen_relation_at_samples(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        z, w = cert.sample
        qv = cert.vec_q.evaluate(z, w)
        for k in range(len(z)):
            phi = phi_evaluate(rep, z[k])
            assert (
                np.max(np.abs(phi @ qv[:, k] - w[k] * qv[:, k]))
                <= 1e-7 * np.max(np.abs(qv))
            )


class TestDetRepresentation:
    def test_block_determinant_proportional_to_p(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        det = det_representation(rep)
        pv, dv = cert.p.coeffs, det.coeffs
        imax = np.unravel_index(np.argmax(np.abs(pv)), pv.shape)
        lam = pv[imax] / dv[imax]
        assert np.max(np.abs(lam * dv - pv)) <= 1e-6 * np.max(np.abs(pv))

    def test_shift_realization_charpoly_exact(self):
        # det(wI - Phi) for the cyclic-shift realization of w^2 = z^3
        rep = shift_realization(2, 3)
        zs = np.exp(2j * np.pi * np.arange(4) / 4)
        ws = np.exp(2j * np.pi * np.arange(3) / 3)
        vals = np.array(
            [
                [np.linalg.det(w * np.eye(2) - phi_evaluate(rep, z)) for w in ws]
                for z in zs
            ]
        )
        coeffs = np.fft.fft2(vals) / 12
        want = poly({(0, 2): 1, (3, 0): -1}, (3, 2)).coeffs
        assert np.max(np.abs(coeffs - want)) < 1e-13

    def test_shift_phi_is_companion(self):
        rep = shift_realization(2, 3)
        z = 0.3 - 0.6j
        want = np.array([[0, 1], [z**3, 0]])
        assert np.max(np.abs(phi_evaluate(rep, z) - want)) < 1e-14

    def test_degree_bound(self, pipeline_w3z2):
        _, rep, _ = pipeline_w3z2
        det = det_representation(rep)
        assert det.degree == (rep.n, rep.m)


class TestVerifyRepresentation:
    def test_full_reports_pass(self, pipeline_z3w2, pipeline_w3z2):
        for cert, rep, report in (pipeline_z3w2, pipeline_w3z2):
            assert report.passed
            assert report.det_vs_p_rel <= 1e-6
            assert report.unitarity <= 1e-10
            assert report.boundary_unitarity <= 1e-8
            assert report.qmatrix_min_sv > 1e-8

    def test_corrupted_unitary_reported(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        bad = np.array(rep.U)
        bad[0, 0] += 1e-3
        broken = UnitaryRealization(rep.m, rep.n, bad)
        report = verify_representation(cert.p, cert, broken)
        assert 1e-4 < report.unitarity < 1e-2
        assert not report.passed

    def test_unimodular_d_eigenvalue_fails(self, pipeline_z3w2):
        # the circle samples bound Phi on the disk only when rho(D) < 1
        report = pipeline_z3w2[2]
        assert report.passed and report.d_spectral_radius < 1.0 - 1e-8
        assert not replace(report, d_spectral_radius=1.0 - 1e-8).passed


@pytest.fixture(scope="module", params=sorted(DV_CORPUS))
def corpus_pipeline(request):
    return represent(DV_CORPUS[request.param])


class TestMaximumPrinciple:
    """With rho(D) < 1, Phi is analytic on the closed disk and ||Phi(z)|| is
    subharmonic, so its sup over the disk lies on the circle.  The 200
    interior samples that the realization check once took stay below the
    circle value it now reports."""

    def test_interior_norm_below_circle_sup(self, corpus_pipeline):
        _, rep, report = corpus_pipeline
        assert report.passed
        assert report.d_spectral_radius < 1.0 - 1e-8
        u = np.random.default_rng(5).uniform(size=(200, 2))
        inner = phi_evaluate(rep, u[:, 0] ** 0.5 * np.exp(2j * np.pi * u[:, 1]))
        norms = np.linalg.norm(inner, 2, axis=(-2, -1))
        assert np.max(norms) <= 1.0 + report.contractivity_excess + 1e-14


@pytest.mark.parametrize(
    "p, scale",
    [pytest.param(blaschke_dv(2, [0.5, 0]), s, id=str(s)) for s in (1e-10, 1e-6, 1e-2, 1.0, 1e3, 1e6)]
    # at 2^1020 the largest singular value of Q lies beyond the float range,
    # and at 2^1021 so do the values of P and Q at the sample
    + [pytest.param(DV_CORPUS["haar_dv_6x6"], 2.0**k, id=f"haar_dv_6x6-2^{k}") for k in (1020, 1021)],
)
def test_qmatrix_gate_is_scale_free(p, scale):
    unit = represent(p)[2]
    cert, _, report = represent(scale * p)
    assert report.passed
    assert report.qmatrix_tolerance == cert.qmatrix.disk_bound(1e-8)
    assert abs(report.qmatrix_tolerance - scale * unit.qmatrix_tolerance) <= 1e-12 * report.qmatrix_tolerance
    assert report.qmatrix_min_sv > 1e6 * report.qmatrix_tolerance


@pytest.mark.parametrize("factor, want", [(1e-7, True), (1e-9, False)])
def test_qmatrix_gate_factor_is_pinned(factor, want):
    # Q of the Blaschke variety thinned in one component puts the least
    # singular value of Qmatrix at about factor/2 of its largest: 4.5e-8
    # passes the 1e-8 gate and 4.5e-10 fails it, so a gate at 1e-6 or at
    # 1e-10 gives the wrong verdict on one of them.  Only the Qmatrix
    # fields of the report move; the others are the certificate's own.
    cert, rep, report = represent(blaschke_dv(2, [0.5, 0]))
    coeffs = cert.vec_q.coeffs.copy()
    coeffs[0] *= factor
    thinned = verify_representation(cert.p, replace(cert, vec_q=VectorPolynomial(coeffs)), rep)
    ratio = thinned.qmatrix_min_sv / thinned.qmatrix_tolerance * 1e-8
    assert factor / 3 < ratio < factor
    gated = replace(report, qmatrix_min_sv=thinned.qmatrix_min_sv, qmatrix_tolerance=thinned.qmatrix_tolerance)
    assert report.passed and gated.passed is want


def test_certificate_overflow_is_named():
    # the largest coefficient of p * 2^1023 is 9.4e307, finite, but its
    # certificate's lies beyond the float range
    p = DV_CORPUS["haar_dv_6x6"].ldexp(1023)
    assert np.isfinite(p.coeffs).all()
    with pytest.raises(OverflowError, match="certificate overflow"):
        represent(p)


@pytest.mark.parametrize("seed", range(3))
def test_qmatrix_gate_is_basis_invariant(seed):
    # a constant unitary mixing of the components of P and of Q keeps every
    # kernel, so it moves neither the Qmatrix gate's scale nor the verdict
    cert, _, report = represent(blaschke_dv(2, [0.5, 0]))
    rng = np.random.default_rng(seed)
    mixed = replace(
        cert,
        **{
            key: VectorPolynomial(np.einsum("kl,lij->kij", haar_unitary(rng, len(vec)), vec.coeffs))
            for key, vec in (("vec_p", cert.vec_p), ("vec_q", cert.vec_q))
        },
    )
    again = verify_representation(cert.p, mixed, lurking_isometry(mixed))
    assert again.passed and report.passed
    assert abs(again.qmatrix_tolerance - report.qmatrix_tolerance) <= 1e-12 * report.qmatrix_tolerance


@pytest.fixture(scope="module")
def singular_pipeline():
    p = z3_minus_w2() * poly({(1, 0): 1, (0, 1): -1})
    return represent(p)


class TestSingularVariety:
    def test_runs_and_records_skip(self, singular_pipeline):
        cert, rep, report = singular_pipeline
        assert not report.smooth_on_torus
        assert report.qmatrix_min_sv is None  # invertibility assertion skipped
        assert report.gram_tolerance == 1e-8

    def test_representation_still_valid(self, singular_pipeline):
        # the refined certificate holds to rounding, under the gates of a
        # variety smooth on the torus
        cert, rep, report = singular_pipeline
        assert report.passed
        assert report.unitarity <= 1e-10
        assert rep.d_spectral_radius() < 1
        assert report.gram_defect <= 1e-13 and report.det_vs_p_rel <= 1e-12
        assert verify_certificate(cert.p, cert.as_sos()).residual <= 1e-13


class TestRepresentOnce:
    def test_one_classification_and_one_verification(self, monkeypatch):
        import dvkit.classify
        import dvkit.dvrep
        import dvkit.soscert

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (dvkit.classify, dvkit.soscert, dvkit.dvrep):
            for name in (
                "classify_zero_set",
                "verify_certificate",
                "verify_representation",
                "torus_singularities",
                "is_squarefree",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        cert, _, _ = represent(z3_minus_w2())
        # The proven DVDefining label already proves torus smoothness, so the
        # Newton search for torus singularities never runs; the realization
        # is verified once, and the certificate pass whose residual the
        # variety certificate would drop never runs.
        assert calls == {"classify_zero_set": 1, "verify_representation": 1}
        assert calls["torus_singularities"] == 0
        # the proven label also proves p squarefree
        assert calls["is_squarefree"] == 0
        assert cert.smooth_on_torus

    def test_one_evaluation_of_p_and_q(self, monkeypatch):
        # the certificate holds X = (Q; zP) and Y = (wQ; P) at its sample,
        # so the isometry and its verification read one evaluation of each,
        # of P and of Q divided by one common power of two
        seen = []
        evaluate = VectorPolynomial.evaluate

        def counted(vec, z, w):
            seen.append(vec.coeffs)
            return evaluate(vec, z, w)

        monkeypatch.setattr(VectorPolynomial, "evaluate", counted)
        cert, _, _ = represent(z3_minus_w2())
        e = max(_exponent(cert.vec_q.coeffs), _exponent(cert.vec_p.coeffs))
        assert len(seen) == 2 and e != 0
        assert np.array_equal(seen[0], cert.vec_q.ldexp(-e).coeffs)
        assert np.array_equal(seen[1], cert.vec_p.ldexp(-e).coeffs)

    def test_unproven_label_runs_singularity_search(self, monkeypatch):
        import dvkit.dvrep

        calls = Counter()
        search = dvkit.dvrep.torus_singularities

        def counted(*args, **kwargs):
            calls["torus_singularities"] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(dvkit.dvrep, "torus_singularities", counted)
        # (z - w)(z^3 - e^{0.7i} w) is DVDefining but not proven: it has two
        # torus nodes, and the certificate must take the dilation route.
        p = poly({(1, 0): 1, (0, 1): -1}) * poly({(3, 0): 1, (0, 1): -np.exp(0.7j)})
        cert = dv_certificate(p, 1.0, 1.0)
        assert calls["torus_singularities"] == 1
        assert not cert.smooth_on_torus


class TestBlaschkeFamily:
    def test_mobius_variety_representation(self):
        p = blaschke_dv(2, [0.5, 0.0])
        cert, rep, report = represent(p)
        assert report.passed
        assert cert.smooth_on_torus


def squared_inputs():
    zw = poly({(1, 0): 1, (0, 1): -1})
    h = BivariatePolynomial(haar_dv(haar_unitary(np.random.default_rng(3), 4), 2, 2))
    return {
        "z3_minus_w2_squared": z3_minus_w2() * z3_minus_w2(),
        "z_minus_w_squared_z_plus_w": zw * zw * poly({(1, 0): 1, (0, 1): 1}),
        "haar_dv_2x2_squared": h * h,
        "haar_dv_2x2_T_squared": transpose_vars(h) * transpose_vars(h),
    }


SQUARED = squared_inputs()


class TestSquarefreeFromLabel:
    """A proven DVDefining label proves p squarefree, so the randomized
    check runs only behind an unproven one."""

    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_proven_labels_are_squarefree(self, name):
        p = DV_CORPUS[name]
        zc = classify_zero_set(p)
        assert zc.label is ZeroLabel.DV_DEFINING and zc.proven
        assert is_squarefree(p)

    @pytest.mark.parametrize("name", sorted(SQUARED))
    def test_repeated_factor_is_never_proven(self, name):
        zc = classify_zero_set(SQUARED[name])
        assert zc.label is ZeroLabel.DV_DEFINING
        assert not zc.proven
        with pytest.raises(ValueError, match="repeated factor"):
            represent(SQUARED[name])


def swap_inputs():
    """The six distinguished varieties of the demo and seeded Haar
    varieties of degree (2, 2), (3, 3) and (4, 3)."""
    out = {k: p for k, p in DV_CORPUS.items() if not k.startswith("haar")}
    rng = np.random.default_rng(16)
    for n, m in ((2, 2), (3, 3), (4, 3)):
        out[f"haar_dv_{n}x{m}"] = BivariatePolynomial(haar_dv(haar_unitary(rng, n + m), m, n))
    return out


SWAP_INPUTS = swap_inputs()


@functools.cache
def weighted_pipeline(name, a, b):
    return represent(SWAP_INPUTS[name], a, b)


@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 2.0)], ids=["a1b1", "a1b2"])
@pytest.mark.parametrize("name", sorted(SWAP_INPUTS))
class TestSwapped:
    def test_constant_matches_transposed_pipeline(self, name, weights):
        a, b = weights
        cert, rep, _ = weighted_pipeline(name, a, b)
        got = extension_bound(rep.swapped(), cert.swapped())
        # the whole pipeline run again on the transpose serves as the reference
        cert_t, rep_t, _ = represent(transpose_vars(SWAP_INPUTS[name]), b, a)
        want = extension_bound(rep_t, cert_t)
        assert abs(got - want) <= 1e-9 * want

    def test_swapped_pair_verifies(self, name, weights):
        cert, rep, _ = weighted_pipeline(name, *weights)
        cert_t, rep_t = cert.swapped(), rep.swapped()
        p_t = transpose_vars(cert.p)
        assert np.array_equal(cert_t.p.coeffs, p_t.coeffs)
        assert cert_t.weights == weights[::-1]
        assert verify_representation(p_t, cert_t, rep_t).passed
        assert verify_certificate(p_t, cert_t.as_sos()).passed

    def test_swap_is_an_involution(self, name, weights):
        cert, rep, _ = weighted_pipeline(name, *weights)
        rep_t, back = rep.swapped(), rep.swapped().swapped()
        assert (rep_t.m, rep_t.n) == (rep.n, rep.m)
        for got, want in ((rep_t.A, rep.D), (rep_t.B, rep.B), (rep_t.C, rep.C), (rep_t.D, rep.A)):
            assert np.array_equal(got, want.conj().T)
        assert np.array_equal(back.U, rep.U)
        again = cert.swapped().swapped()
        assert again.weights == cert.weights
        for vec, orig in ((again.vec_p, cert.vec_p), (again.vec_q, cert.vec_q)):
            assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(vec, orig, strict=True))
        assert np.array_equal(again.qmatrix.coeffs, cert.qmatrix.coeffs)


def test_torus_singular_swap_refused_like_transposed_pipeline():
    # (z^3 - w^2)(z - w) crosses itself at (1, 1), where det Q vanishes in
    # both orientations: the closed-disk gate refuses each, naming either a
    # zero of det Q next to z = 1 or Q's least singular value below its bound
    p = poly({(3, 0): 1, (0, 2): -1}) * poly({(1, 0): 1, (0, 1): -1})
    cert, rep, _ = represent(p)
    cert_t, rep_t, _ = represent(transpose_vars(p))
    for pair in ((rep.swapped(), cert.swapped()), (rep_t, cert_t)):
        with pytest.raises(ValueError, match="^Qmatrix: ") as exc:
            extension_bound(*pair)
        message, qmatrix = str(exc.value), pair[1].qmatrix
        zero = re.match(r"Qmatrix: det Q has a zero at z = (\S+) in the closed disk", message)
        if zero:
            assert abs(complex(zero[1]) - 1) < 1e-5
        else:
            pattern = r"Qmatrix: Q's least singular value on the closed disk, (\S+), is not above (\S+),"
            found = re.match(pattern, message)
            assert float(found[1]) <= float(found[2])
            assert qmatrix.min_singular_value_on_disk <= qmatrix.disk_bound(1e-8)
