import math

import numpy as np
import pytest

from conftest import dv_corpus, poly, random_poly, z3_minus_w2
from dvkit.classify import fiber_root_pairs
from dvkit.dvrep import phi_evaluate, represent, shift_realization
from dvkit.extend import (
    ExtensionOperator,
    eval_f_of_pair,
    extension_bound,
    sup_norm_on_variety,
    verify_extension,
)
from dvkit.poly2 import transpose_vars

F_W = poly({(0, 1): 1})
F_Z = poly({(1, 0): 1})
F_ZW = poly({(1, 1): 1})
F_W2 = poly({(0, 2): 1})
F_Z_PLUS_W = poly({(1, 0): 1, (0, 1): 1})


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
        _, _, rep, _ = pipeline_z3w2
        z = np.exp(0.83j)
        phi = phi_evaluate(rep, z)
        fm = eval_f_of_pair(F_Z_PLUS_W, z, phi)
        got = np.sort_complex(np.linalg.eigvals(fm))
        want = np.sort_complex(z + np.linalg.eigvals(phi))
        assert np.max(np.abs(got - want)) < 1e-10


class TestExtensionValues:
    def test_f_w_agrees_on_variety(self, pipeline_z3w2):
        cert, sample, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_W)
        for z, w in sample.points[:10]:
            assert abs(op(z, w) - w) < 1e-8

    def test_f_z_extends_to_z_everywhere(self, pipeline_z3w2):
        cert, _, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_Z)
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(op(z, w) - z) < 1e-10

    def test_grid_evaluator_matches_scalar(self, pipeline_z3w2):
        # F(z, w) = e1^T Q(z)^{-1} f(zI, Phi(z)) Qvec(z, w) with f = z w, from
        # plain per-point solves
        cert, _, rep, _ = pipeline_z3w2
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
                assert abs(op(complex(z), complex(w)) - want) < 1e-12

    def test_pointwise_arrays_match_scalar_calls(self, pipeline_z3w2):
        cert, sample, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_ZW + F_W2)
        z, w = sample.arrays()
        got = op.evaluate(z, w)
        assert got.shape == z.shape
        want = np.array([op(complex(a), complex(b)) for a, b in sample.points])
        assert np.max(np.abs(got - want)) < 1e-13
        shared = op.evaluate(z[0], w)  # one z against many w
        assert np.max(np.abs(shared - op.evaluate_grid(z[:1], w)[0])) < 1e-13

    def test_linearity(self, pipeline_z3w2):
        cert, _, rep, _ = pipeline_z3w2
        op_sum = ExtensionOperator(rep, cert, F_ZW + F_W2)
        op_a = ExtensionOperator(rep, cert, F_ZW)
        op_b = ExtensionOperator(rep, cert, F_W2)
        z, w = 0.4 - 0.3j, 0.2 + 0.6j
        assert abs(op_sum(z, w) - op_a(z, w) - op_b(z, w)) < 1e-10

    def test_zero_function(self, pipeline_z3w2):
        cert, sample, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, poly({(0, 0): 0}))
        report = verify_extension(op, sample, grid_n=32)
        assert report.sup_F_on_bidisk == 0 and report.on_variety_residual == 0


class TestOperatorNormStep:
    def test_f_of_pair_norm_bounded_by_variety_sup(self, pipeline_z3w2):
        cert, _, rep, _ = pipeline_z3w2
        rng = np.random.default_rng(4)
        for f in (F_W, F_ZW, F_Z_PLUS_W):
            sup_f = sup_norm_on_variety(f, cert.p, 256)
            for _ in range(100):
                z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                fm = eval_f_of_pair(f, z, phi_evaluate(rep, z))
                assert np.linalg.norm(fm, 2) <= sup_f + 1e-7


class TestSupNorm:
    def test_monomial_w(self, pipeline_z3w2):
        cert, _, _, _ = pipeline_z3w2
        assert abs(sup_norm_on_variety(F_W, cert.p, 256) - 1.0) < 1e-8

    def test_constant(self, pipeline_z3w2):
        cert, _, _, _ = pipeline_z3w2
        assert abs(sup_norm_on_variety(poly({(0, 0): -3j}), cert.p, 64) - 3.0) < 1e-10

    def test_z_plus_w_attains_two(self, pipeline_z3w2):
        # (1, 1) lies on the variety closure and maximizes |z + w|
        cert, _, _, _ = pipeline_z3w2
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
                z, w = fiber_root_pairs(p, r * inner)
                keep = np.abs(w) <= 1.0
                assert np.max(np.abs(f.evaluate(z[keep], w[keep]))) <= circle_value


class TestBounds:
    def test_constant_c_sqrt2(self, pipeline_z3w2):
        cert, _, rep, _ = pipeline_z3w2
        bound = extension_bound(ExtensionOperator(rep, cert, F_W))
        assert abs(bound.C - math.sqrt(2)) <= 1e-6

    def test_identity_qmatrix_gives_sqrt_m(self):
        # hand-built realization of w^2 = z^3 with Qvec = (1, w): Q = I_2
        from dvkit.dvrep import DvCertificate
        from dvkit.poly2 import MatrixPolynomial, VectorPolynomial, symmetrize

        rep = shift_realization(2, 3)
        qvec = VectorPolynomial((poly({(0, 0): 1}, (3, 1)), poly({(0, 1): 1}, (3, 1))))
        pvec = VectorPolynomial(
            (poly({(2, 0): 1}, (2, 2)), poly({(1, 0): 1}, (2, 2)), poly({(0, 0): 1}, (2, 2)))
        )
        qmat = np.zeros((2, 2, 4), dtype=complex)
        qmat[0, 0, 0] = qmat[1, 1, 0] = 1.0
        cert = DvCertificate(
            symmetrize(z3_minus_w2()), (1.0, 1.0), pvec, qvec, MatrixPolynomial(qmat), True
        )
        bound = extension_bound(ExtensionOperator(rep, cert, F_W))
        assert abs(bound.C - math.sqrt(2)) < 1e-12

    def test_per_point_bound_matches_per_z_loop(self, pipeline_z3w2):
        cert, _, rep, _ = pipeline_z3w2
        grid_n = 256
        bound = extension_bound(ExtensionOperator(rep, cert, F_W), grid_n=grid_n)
        sub = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)[:: grid_n // 32]
        want = max(
            np.max(np.sqrt(cert.vec_q.norm_sq(z, sub)))
            / np.linalg.svd(cert.qmatrix.evaluate(z), compute_uv=False)[-1]
            for z in sub
        )
        assert abs(bound.per_point_bound - want) <= 1e-12 * want

    def test_per_point_bound_not_above_c_times_sup(self, pipeline_z3w2):
        cert, _, rep, _ = pipeline_z3w2
        bound = extension_bound(ExtensionOperator(rep, cert, F_W))
        assert bound.per_point_bound <= bound.C + 1e-9

    def test_ratio_bounded(self, pipeline_z3w2):
        cert, sample, rep, _ = pipeline_z3w2
        for f in (F_W, F_ZW, F_W2, F_Z_PLUS_W):
            report = verify_extension(ExtensionOperator(rep, cert, f), sample)
            assert report.passed
            assert report.ratio <= report.bound_C + 1e-6
            assert (
                report.sup_F_on_bidisk
                <= math.sqrt(2) * report.sup_f_on_variety + 1e-6
            )

    def test_on_variety_agreement_corpus(self, pipeline_z3w2):
        # monomials up to degree (3, 3) plus random polynomials
        cert, sample, rep, _ = pipeline_z3w2
        z, w = sample.arrays()
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
            ev = np.array([op(complex(a), complex(b)) for a, b in sample.points])
            sup_f = sup_norm_on_variety(f, cert.p, 128)
            assert np.max(np.abs(ev - fv)) <= 1e-7 * (1 + sup_f)

    def test_rational_expansion_matches_evaluator(self, pipeline_z3w2):
        from dvkit.extend import expand_extension

        cert, _, rep, _ = pipeline_z3w2
        op = ExtensionOperator(rep, cert, F_ZW + F_W2)
        num, den = expand_extension(op)
        assert num.degree[1] <= rep.m - 1
        rng = np.random.default_rng(21)
        for _ in range(25):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(op(z, w) - num(z, w) / den(z, 0)) < 1e-10

    def test_swap_orientation_constant(self, pipeline_z3w2):
        # the reversed-roles pipeline yields its own constant; both are valid
        cert, _, _, _ = pipeline_z3w2
        cert_t, sample_t, rep_t, report_t = represent(
            transpose_vars(cert.p), seed=13, grid_n=32
        )
        assert report_t.passed
        bound_t = extension_bound(ExtensionOperator(rep_t, cert_t, transpose_vars(F_W)))
        best = min(math.sqrt(2), bound_t.C)
        assert best <= math.sqrt(3) + 1e-6
