import copy
import dataclasses
import functools
import math

import numpy as np
import pytest

from conftest import disk_spiral, dv_corpus, poly, random_poly, shift_realization, z3_minus_w2
from dvkit.classify import fiber_root_pairs
from dvkit.dvrep import UnitaryRealization, phi_evaluate, represent
from dvkit.extend import (
    ExtensionOperator,
    expand_extension,
    extension_bound,
    sup_norm_on_variety,
    verify_extension,
)
from dvkit.poly2 import VectorPolynomial, roots_of_unity

F_W = poly({(0, 1): 1})
F_Z = poly({(1, 0): 1})
F_ZW = poly({(1, 1): 1})
F_W2 = poly({(0, 2): 1})
F_Z_PLUS_W = poly({(1, 0): 1, (0, 1): 1})


def eval_f_of_pair(f, z, phi):
    """f(z I_m, Phi) = sum_k (sum_j c_jk z^j) Phi^k, Horner in the matrix:
    the matrix function of the paper's formula for F, the reference the
    remainder is compared against.

    ``z`` is a scalar with ``phi`` of shape (m, m), or an array of z with
    ``phi`` of shape z.shape + (m, m), one matrix per z.
    """
    wcoeffs = f.fibers(z)  # scalar coefficient of each Phi power, per z
    eye = np.eye(phi.shape[-1])
    acc = np.zeros(phi.shape, dtype=np.complex128)
    for k in range(f.degree[1], -1, -1):
        acc = acc @ phi + wcoeffs[..., k, None, None] * eye
    return acc


class TestEvalOfPair:
    def test_scalar_argument(self):
        phi = np.array([[0, 1], [0.3, 0]], dtype=complex)
        out = eval_f_of_pair(F_Z, 0.7j, phi)
        assert np.max(np.abs(out - 0.7j * np.eye(2))) < 1e-15

    def test_linear_in_matrix(self):
        z = 0.4 - 0.1j
        phi = np.array([[0, 1], [z**3, 0]], dtype=complex)
        assert np.max(np.abs(eval_f_of_pair(F_W, z, phi) - phi)) < 1e-15

    def test_square_collapses_on_variety(self):
        # Phi^2 = z^3 I for the companion of w^2 = z^3
        z = 0.5 + 0.2j
        phi = np.array([[0, 1], [z**3, 0]], dtype=complex)
        out = eval_f_of_pair(F_W2, z, phi)
        assert np.max(np.abs(out - z**3 * np.eye(2))) < 1e-15

    def test_matches_eigenvalues_on_circle(self, pipeline_z3w2):
        # f(z I, Phi(z)) is normal on the circle with eigenvalues f(z, w_j)
        _, rep, _ = pipeline_z3w2
        z = np.exp(0.83j)
        phi = phi_evaluate(rep, z)
        fm = eval_f_of_pair(F_Z_PLUS_W, z, phi)
        got = np.sort_complex(np.linalg.eigvals(fm))
        want = np.sort_complex(z + np.linalg.eigvals(phi))
        assert np.max(np.abs(got - want)) < 1e-10


class TestExtensionValues:
    def test_f_w_agrees_on_variety(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_W)
        for z, w in zip(*(arr[:10] for arr in cert.sample)):
            assert abs(op.evaluate(z, w) - w) < 1e-8

    def test_f_z_extends_to_z_everywhere(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_Z)
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(op.evaluate(z, w) - z) < 1e-10

    def test_grid_evaluator_matches_scalar(self, pipeline_z3w2):
        # F(z, w) = e1^T Q(z)^{-1} f(zI, Phi(z)) Qvec(z, w) with f = z w, from
        # plain per-point solves
        cert, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_ZW)
        zs = np.array([0.3, -0.4j, 0.2 + 0.5j])
        ws = np.array([0.6, -0.1 + 0.3j])
        grid = op.evaluate_grid(zs, ws)
        for i, z in enumerate(zs):
            core = np.linalg.solve(np.eye(rep.n) - z * rep.D, rep.C)
            phi = rep.A + z * rep.B @ core
            qmat = cert.qmatrix.evaluate(z)
            for j, w in enumerate(ws):
                want = np.linalg.solve(qmat, z * phi @ cert.vec_q.evaluate(z, w))[0]
                assert abs(grid[i, j] - want) < 1e-12
                assert abs(op.evaluate(complex(z), complex(w)) - want) < 1e-12

    def test_pointwise_arrays_match_scalar_calls(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_ZW + F_W2)
        z, w = cert.sample
        got = op.evaluate(z, w)
        assert got.shape == z.shape
        want = np.array([op.evaluate(complex(a), complex(b)) for a, b in zip(z, w)])
        assert np.max(np.abs(got - want)) < 1e-13
        shared = op.evaluate(z[0], w)  # one z against many w
        assert np.max(np.abs(shared - op.evaluate_grid(z[:1], w)[0])) < 1e-13

    def test_linearity(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        op_sum = ExtensionOperator(rep, cert, F_ZW + F_W2)
        op_a = ExtensionOperator(rep, cert, F_ZW)
        op_b = ExtensionOperator(rep, cert, F_W2)
        z, w = 0.4 - 0.3j, 0.2 + 0.6j
        assert abs(op_sum.evaluate(z, w) - op_a.evaluate(z, w) - op_b.evaluate(z, w)) < 1e-10

    def test_zero_function(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, poly({(0, 0): 0}))
        report = verify_extension(op)
        assert report.sup_F_on_bidisk == 0 and report.on_variety_residual == 0


class TestOperatorNormStep:
    def test_f_of_pair_norm_bounded_by_variety_sup(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        rng = np.random.default_rng(4)
        for f in (F_W, F_ZW, F_Z_PLUS_W):
            sup_f = sup_norm_on_variety(f, cert.p, 256)
            for _ in range(100):
                z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                fm = eval_f_of_pair(f, z, phi_evaluate(rep, z))
                assert np.linalg.norm(fm, 2) <= sup_f + 1e-7


class TestSupNorm:
    def test_monomial_w(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        assert abs(sup_norm_on_variety(F_W, cert.p, 256) - 1.0) < 1e-8

    def test_constant(self, pipeline_z3w2):
        cert, _, _ = pipeline_z3w2
        assert abs(sup_norm_on_variety(poly({(0, 0): -3j}), cert.p, 64) - 3.0) < 1e-10

    def test_z_plus_w_attains_two(self, pipeline_z3w2):
        # (1, 1) lies on the variety closure and maximizes |z + w|
        cert, _, _ = pipeline_z3w2
        got = sup_norm_on_variety(F_Z_PLUS_W, cert.p, 512)
        assert abs(got - 2.0) < 1e-3


DV_CORPUS = dv_corpus()


class TestSupNormOnTorus:
    """A distinguished variety meets the boundary of the bidisk only in the
    torus, so the interior fiber sweeps at |z| = 0.5 and 0.9 that
    sup_norm_on_variety once folded in never exceed its circle value."""

    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_interior_sweeps_below_circle_value(self, name):
        p = DV_CORPUS[name]
        f_random = random_poly(np.random.default_rng(17), 2, 2)
        inner = np.exp(2j * np.pi * np.arange(32) / 32)
        for f in (F_W, F_Z_PLUS_W, poly({(1, 2): 1}), f_random):
            circle_value = sup_norm_on_variety(f, p, 128)
            assert circle_value > 0
            for r in (0.5, 0.9):
                k, w = fiber_root_pairs(p, r * inner)
                keep = np.abs(w) <= 1.0
                assert np.max(np.abs(f.evaluate(r * inner[k[keep]], w[keep]))) <= circle_value


class TestBounds:
    def test_constant_c_sqrt2(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        assert abs(extension_bound(rep, cert) - math.sqrt(2)) <= 1e-6

    def test_constant_reads_q_alone(self, pipeline_z3w2, monkeypatch):
        # C needs Q on the circle, not the variety's torus points
        import dvkit.classify

        def refuse(*args, **kwargs):
            raise AssertionError("extension_bound solved for fiber roots")

        monkeypatch.setattr(dvkit.classify, "fiber_root_pairs", refuse)
        cert, rep, _ = pipeline_z3w2
        assert abs(extension_bound(rep, cert) - math.sqrt(2)) <= 1e-6

    def test_identity_qmatrix_gives_sqrt_m(self):
        # hand-built realization of w^2 = z^3 with Qvec = (1, w): Q = I_2
        from dvkit.dvrep import DvCertificate
        from dvkit.poly2 import symmetrize

        rep = shift_realization(2, 3)
        qvec = VectorPolynomial.of([poly({(0, 0): 1}, (3, 1)), poly({(0, 1): 1}, (3, 1))])
        pvec = VectorPolynomial.of(
            [poly({(2, 0): 1}, (2, 2)), poly({(1, 0): 1}, (2, 2)), poly({(0, 0): 1}, (2, 2))]
        )
        cert = DvCertificate(symmetrize(z3_minus_w2()), (1.0, 1.0), pvec, qvec, True)
        assert np.array_equal(cert.qmatrix.evaluate(0.7), np.eye(2))
        assert abs(extension_bound(rep, cert) - math.sqrt(2)) < 1e-12

    def test_verify_reads_the_one_constant(self):
        # verify_extension's C is extension_bound's, read at the 256th roots
        # of unity, of which its 128-point check pass takes every other one
        cert, rep, _ = corpus_pipeline("haar_dv_6x6")
        c = verify_extension(ExtensionOperator(rep, cert, F_W)).C
        assert c == extension_bound(rep, cert)
        svals = np.linalg.svd(cert.qmatrix.evaluate(roots_of_unity(128)), compute_uv=False)
        assert c >= math.sqrt(rep.m) * np.max(svals[:, 0] / svals[:, -1])

    def test_checks_read_the_exported_evaluator(self, pipeline_z3w2):
        # an evaluator off by 1e-3 fails the gate, which reads F through
        # ExtensionOperator.evaluate, and its grid, not through a copy of F
        class Shifted(ExtensionOperator):
            def evaluate(self, z, w):
                return super().evaluate(z, w) + 1e-3

        cert, rep, _ = pipeline_z3w2
        assert verify_extension(ExtensionOperator(rep, cert, F_W)).passed
        report = verify_extension(Shifted(rep, cert, F_W))
        assert report.on_variety_residual > 1e-7 and report.sup_F_on_bidisk > 1.0 + 5e-4
        assert not report.passed

    def test_infinite_constant_fails(self, pipeline_z3w2, monkeypatch):
        # a Q singular on the circle gives C = inf, against which the
        # inflation check sup|F| <= C sup|f| would hold for every F
        import dvkit.extend

        monkeypatch.setattr(dvkit.extend, "extension_bound", lambda rep, cert: math.inf)
        cert, rep, _ = pipeline_z3w2
        report = verify_extension(ExtensionOperator(rep, cert, F_W))
        assert report.C == math.inf and report.on_variety_residual <= 1e-7
        assert not report.passed

    def test_ratio_bounded(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        for f in (F_W, F_ZW, F_W2, F_Z_PLUS_W):
            report = verify_extension(ExtensionOperator(rep, cert, f))
            assert report.passed
            assert report.ratio <= report.C + 1e-6
            assert (
                report.sup_F_on_bidisk
                <= math.sqrt(2) * report.sup_f_on_variety + 1e-6
            )

    def test_on_variety_agreement_corpus(self, pipeline_z3w2):
        # monomials up to degree (3, 3) plus random polynomials
        cert, rep, _ = pipeline_z3w2
        z, w = cert.sample
        rng = np.random.default_rng(9)
        fs = [poly({(i, j): 1}) for i in range(4) for j in range(4)]
        fs += [
            poly(
                {
                    (i, j): rng.normal() + 1j * rng.normal()
                    for i in range(3)
                    for j in range(3)
                }
            )
            for _ in range(20)
        ]
        for f in fs:
            op = ExtensionOperator(rep, cert, f)
            fv = np.asarray(f.evaluate(z, w))
            ev = np.array([op.evaluate(complex(a), complex(b)) for a, b in zip(z, w)])
            sup_f = sup_norm_on_variety(f, cert.p, 128)
            assert np.max(np.abs(ev - fv)) <= 1e-7 * (1 + sup_f)

    def test_rational_expansion_matches_evaluator(self, pipeline_z3w2):
        cert, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_ZW + F_W2)
        num, den = expand_extension(op)
        assert num.degree[1] <= rep.m - 1
        rng = np.random.default_rng(21)
        for _ in range(25):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(op.evaluate(z, w) - num.evaluate(z, w) / den.evaluate(z, 0)) < 1e-10

    def test_swap_orientation_constant(self, pipeline_z3w2):
        # the realization with z and w exchanged yields its own constant;
        # both are valid
        cert, rep, _ = pipeline_z3w2
        best = min(math.sqrt(2), extension_bound(rep.swapped(), cert.swapped()))
        assert best <= math.sqrt(3) + 1e-6


@functools.cache
def corpus_pipeline(name):
    return represent(DV_CORPUS[name])


CHECK_FS = {
    "w": F_W,
    "z_plus_w": F_Z_PLUS_W,
    "z_w2": poly({(1, 2): 1}),
    "random_2x2": random_poly(np.random.default_rng(31), 2, 2),
}


def old_extension_formula(op, z, w):
    """e1^T Q(z)^{-1} f(zI, Phi(z)) Qvec(z, w) pointwise, Qvec from the
    certificate's vector polynomial."""
    rows = np.array([np.linalg.solve(op.cert.qmatrix.evaluate(a).T, np.eye(op.rep.m)[0]) for a in z])
    fmats = eval_f_of_pair(op.f, z, phi_evaluate(op.rep, z))
    return np.einsum("km,kmj,jk->k", rows, fmats, op.cert.vec_q.evaluate(z, w))


class TestChecksReadOnTorus:
    """verify_extension reads every check on the torus.  The interior checks
    it used to make, |F| on a disk_spiral(64)^2 grid and F = f at
    sample_variety points, stay within what the torus checks report, as the
    maximum principle says."""

    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_interior_checks_within_torus_values(self, name):
        cert, rep, _ = corpus_pipeline(name)
        pts = disk_spiral(64)
        for f in CHECK_FS.values():
            op = ExtensionOperator(rep, cert, f)
            report = verify_extension(op)
            assert report.passed
            assert np.max(np.abs(op.evaluate_grid(pts, pts))) <= report.sup_F_on_bidisk + 1e-12
            scale = 1.0 + report.sup_f_on_variety
            residual = np.max(np.abs(op.evaluate(*cert.sample) - f.evaluate(*cert.sample)))
            assert residual <= report.on_variety_residual * scale + 1e-14

    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_row_form_matches_vector_form(self, name):
        cert, rep, _ = corpus_pipeline(name)
        rng = np.random.default_rng(37)
        z = np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        w = np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        for f in CHECK_FS.values():
            op = ExtensionOperator(rep, cert, f)
            want = old_extension_formula(op, z, w)
            assert np.max(np.abs(op.evaluate(z, w) - want)) <= 1e-12 * np.max(np.abs(want))


class TestOffVariety:
    """f = w + g p agrees with w on the variety but not off it, so the
    extension must find w again from the values on V alone: the theorem's
    content, where f = w is only the identity."""

    G = random_poly(np.random.default_rng(0), 1, 1)

    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_extension_of_w_plus_g_p_is_w(self, name):
        cert, rep, _ = corpus_pipeline(name)
        f = F_W + self.G * DV_CORPUS[name]
        op = ExtensionOperator(rep, cert, f)
        report = verify_extension(op)
        assert report.passed
        grid = roots_of_unity(64)
        z, w = np.meshgrid(grid, grid, indexing="ij")
        assert np.max(np.abs(op.evaluate_grid(grid, grid) - w)) <= 1e-11
        assert abs(report.sup_f_on_variety - 1) <= 1e-12
        assert abs(report.sup_F_on_bidisk - 1) <= 1e-12
        # f itself is far from w off the variety
        assert np.max(np.abs(f.evaluate(z, w))) >= 5


class TestExpansion:
    """expand_extension against the evaluator of F over the whole corpus."""

    @pytest.mark.parametrize(
        "f, bound",
        [
            (F_W, 1e-12),
            (F_ZW + F_W2, 1e-12),
            (CHECK_FS["random_2x2"], 1e-12),
            (random_poly(np.random.default_rng(5), 3, 9), 1e-8),
        ],
        ids=["w", "zw_plus_w2", "random_2x2", "random_3x9"],
    )
    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_expansion_matches_evaluator_on_torus(self, name, f, bound):
        # both forms divide by p in w, the evaluator per z and the
        # expansion on coefficient grids, so they agree to rounding; for
        # deg_w f > m the expansion divides a numerator summed across
        # cancelling terms by p_m^k, which loses digits (up to 6.5e-9 on
        # haar_dv_3x3_T for the (3, 9) f)
        cert, rep, _ = corpus_pipeline(name)
        op = ExtensionOperator(rep, cert, f)
        num, den = expand_extension(op)
        grid = roots_of_unity(32)
        z, w = np.meshgrid(grid, grid, indexing="ij")
        values = op.evaluate_grid(grid, grid)
        err = np.max(np.abs(values - num.evaluate(z, w) / den.evaluate(z, 0 * z)))
        assert err <= bound * max(1.0, np.max(np.abs(values)))

    @pytest.mark.parametrize("name", sorted(DV_CORPUS))
    def test_w_expands_to_w_over_one(self, name):
        # f = w has w-degree below m >= 2, so it is its own remainder
        cert, rep, _ = corpus_pipeline(name)
        num, den = expand_extension(ExtensionOperator(rep, cert, F_W))
        assert rep.m >= 2
        assert np.array_equal(num.coeffs, [[0, 1]]) and np.array_equal(den.coeffs, [[1]])


class TestAnalyticityGate:
    def test_det_zero_inside_disk_raises(self, pipeline_z3w2):
        # Q(z) diag(z - 1/2, 1): det Q vanishes at z = 1/2
        cert, rep, _ = pipeline_z3w2
        factor = np.zeros((2, 2, 2), dtype=complex)
        factor[0, 0] = [-0.5, 1.0]
        factor[1, 1, 0] = 1.0
        q = cert.qmatrix.coeffs
        prod = np.zeros((2, 2, q.shape[2] + 1), dtype=complex)
        for i in range(q.shape[2]):
            for j in range(2):
                prod[:, :, i + j] += q[:, :, i] @ factor[:, :, j]
        bad = dataclasses.replace(cert, vec_q=VectorPolynomial(prod.transpose(0, 2, 1)))
        zeros = bad.qmatrix.det_zeros_in_disk
        assert np.min(np.abs(zeros - 0.5)) < 1e-12
        with pytest.raises(ValueError, match="Qmatrix: det Q has a zero"):
            verify_extension(ExtensionOperator(rep, bad, F_W))
        with pytest.raises(ValueError, match="Qmatrix: det Q has a zero"):
            extension_bound(rep, bad)

    @pytest.mark.parametrize("delta, passes", [(1e-7, True), (1e-9, False)])
    def test_spectral_radius_gate_sits_at_rho_d_max(self, pipeline_z3w2, delta, passes):
        # D = diag(1 - delta, 0, 0) on either side of RHO_D_MAX = 1 - 1e-8
        cert, rep, _ = pipeline_z3w2
        u = rep.U.copy()
        u[rep.m :, rep.m :] = np.diag([1 - delta] + [0] * (rep.n - 1))
        near = UnitaryRealization(rep.m, rep.n, u)
        if passes:
            assert abs(extension_bound(near, cert) - math.sqrt(2)) <= 1e-6
        else:
            with pytest.raises(ValueError, match="realization: D has spectral radius"):
                extension_bound(near, cert)

    @pytest.mark.parametrize("root, refused", [(0.5, True), (1.0, True), (1.01, False)])
    def test_leading_coefficient_gate(self, pipeline_z3w2, root, refused):
        # p = z^3 - (1 - z / root) w^2: the remainder divides by p_m, so a
        # zero of p_m in the closed disk is refused, and one outside is not
        cert, rep, _ = pipeline_z3w2
        bad = dataclasses.replace(cert, p=poly({(3, 0): 1, (0, 2): -1, (1, 2): 1 / root}))
        if refused:
            with pytest.raises(ValueError, match="poly: p_m, the leading coefficient of p in w, has a zero"):
                extension_bound(rep, bad)
        else:
            assert abs(extension_bound(rep, bad) - math.sqrt(2)) <= 1e-6

    def test_operator_refuses_mismatched_m(self, pipeline_z3w2):
        # the swapped realization has m = 3 where the certificate has 2
        cert, rep, _ = pipeline_z3w2
        with pytest.raises(ValueError, match="certificate and realization disagree on m"):
            ExtensionOperator(rep.swapped(), cert, F_W)

    def test_torus_singular_variety_refused(self):
        # (w - z)(w - z^2): the branches cross at (1, 1), where det Q vanishes
        p = poly({(0, 2): 1, (1, 1): -1, (2, 1): -1, (3, 0): 1})
        cert, rep, report = represent(p)
        assert report.passed and not cert.smooth_on_torus
        with pytest.raises(ValueError, match="Qmatrix: det Q has a zero"):
            verify_extension(ExtensionOperator(rep, cert, F_W))


def test_array_holding_types_compare_by_identity_and_hash(pipeline_z3w2, cert_four):
    # each public type that holds an array compares by identity: == between
    # copies is False rather than numpy's ambiguous truth value, and hash()
    # works
    from dvkit.soscert import compute_moments

    cert, rep, _ = pipeline_z3w2
    objects = [
        cert.p,
        cert.vec_p,
        cert.qmatrix,
        compute_moments(poly({(0, 0): 4, (1, 0): -1, (0, 1): -1})),
        cert_four,
        cert,
        rep,
        ExtensionOperator(rep, cert, F_W),
    ]
    for obj in objects:
        dup = copy.copy(obj)
        assert obj == obj and (obj == dup) is False, type(obj).__name__
        assert isinstance(hash(obj), int) and isinstance(hash(dup), int)
