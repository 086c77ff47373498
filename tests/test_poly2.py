import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    derived_symmetric_poly,
    haar_dv,
    haar_unitary,
    kernel,
    max_coeff_distance,
    one_minus_z3w2,
    poly,
    random_poly,
    random_symmetric_poly,
    two_minus_z_minus_w,
    z3_minus_w2,
)
from dvkit.dvrep import dv_certificate
from dvkit.poly2 import (
    BivariatePolynomial,
    DegreeMismatchError,
    MatrixPolynomial,
    VectorPolynomial,
    companion_roots,
    derived_dv_poly,
    horner,
    reflect,
    reflected_derivatives,
    swap_transform,
    symmetrize,
    symmetry_constant,
    transpose_vars,
)
from dvkit import soscert
from dvkit.soscert import sos_certificate

Z = poly({(1, 0): 1})
W = poly({(0, 1): 1})


@st.composite
def poly_strategy(draw, max_deg=4):
    n = draw(st.integers(0, max_deg))
    m = draw(st.integers(0, max_deg))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_poly(rng, n, m)


class TestConstruction:
    def test_coefficients_need_two_axes(self):
        with pytest.raises(ValueError, match="2-D"):
            BivariatePolynomial(np.ones(3))

    def test_repr_names_the_degree(self):
        assert repr(z3_minus_w2()) == "BivariatePolynomial(degree=(3,2))"


class TestEvaluate:
    def test_constant_term(self):
        assert one_minus_z3w2().evaluate(0, 0) == 1

    def test_point_on_variety(self):
        assert z3_minus_w2().evaluate(1, 1) == 0

    def test_boundary_zero(self):
        assert two_minus_z_minus_w().evaluate(1, 1) == 0

    def test_vectorized_matches_scalar(self):
        p = random_poly(np.random.default_rng(0), 3, 2)
        zs = np.array([0.3 + 0.2j, -1j, 2.0])
        ws = np.array([0.5, 0.1j, -0.7 + 0.2j])
        vals = p.evaluate(zs, ws)
        for k in range(3):
            assert abs(vals[k] - p.evaluate(zs[k], ws[k])) < 1e-12


class TestHorner:
    def test_one_polynomial_many_points(self):
        coeffs = np.array([1.0, -2j, 0.5, 3.0])
        x = np.array([[0.3 + 0.1j, -1.2], [2j, 0.0]])
        assert np.max(np.abs(horner(coeffs, x) - np.polyval(coeffs[::-1], x))) < 1e-12

    def test_one_polynomial_per_row(self):
        # coefficients (d+1, N, 1) against points (N, K): row k at its own points
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        got = horner(coeffs[..., None], x)
        assert got.shape == (3, 5)
        for k in range(3):
            assert np.max(np.abs(got[k] - np.polyval(coeffs[::-1, k], x[k]))) < 1e-12

    def test_bivariate_matches_monomial_sum(self):
        p = random_poly(np.random.default_rng(5), 3, 4)
        z = np.array([0.4 - 0.2j, 1.1, -0.7j])[:, None]
        w = np.array([0.2, -0.5 + 0.5j])[None, :]
        want = sum(
            p.coeffs[i, j] * z**i * w**j for i in range(4) for j in range(5)
        )
        got = p.evaluate(z, w)
        assert got.shape == (3, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_scalar_arguments_give_complex(self):
        assert isinstance(z3_minus_w2().evaluate(0.5, 0.25j), complex)

    def test_matrix_polynomial_matches_entrywise(self):
        rng = np.random.default_rng(6)
        mat = MatrixPolynomial(rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4)))
        t = np.array([0.3j, -0.8, 0.5 + 0.5j])
        got = mat.evaluate(t)
        assert got.shape == (3, 2, 3)
        for r in range(2):
            for c in range(3):
                want = np.polyval(mat.coeffs[r, c, ::-1], t)
                assert np.max(np.abs(got[:, r, c] - want)) < 1e-12


def _disk_grid_min(mat, grid_n):
    """Reference: the former closed-disk sample, z = 0 and circles of grid_n
    angles at the nonzero radii of linspace(0, 1, max(grid_n // 4, 3)),
    with a full SVD at every point."""
    radii = np.linspace(0.0, 1.0, max(grid_n // 4, 3))
    angles = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    pts = np.concatenate([[0.0 + 0.0j]] + [r * angles for r in radii[1:]])
    return float(np.min(np.linalg.svd(mat.evaluate(pts), compute_uv=False)))


def _planted(seed, z0, size=3):
    """(2I + zB)(I - P + (z - z0)P) with B unitary and P a rank-one projector.

    The first factor has least singular value >= 1 on the closed disk, so
    det vanishes there only at z0 (when |z0| <= 1).  The top coefficient BP
    has rank one, so det has degree size + 1 of the formal 2 * size."""
    rng = np.random.default_rng(seed)
    eye = np.eye(size)
    v = haar_unitary(rng, size)[:, :1]
    proj = v @ v.conj().T
    first = np.stack([2 * eye, haar_unitary(rng, size)], axis=-1)
    second = np.stack([eye - proj - z0 * proj, proj], axis=-1)
    coeffs = np.zeros((size, size, 3), dtype=np.complex128)
    for k in range(2):
        for j in range(2):
            coeffs[:, :, k + j] += first[:, :, k] @ second[:, :, j]
    return MatrixPolynomial(coeffs)


def _mixed_diag(a):
    """Q = U diag(t - a, 3 + t), U a fixed unitary: det Q vanishes at t = a
    and t = -3 only."""
    diag = np.zeros((2, 2, 2), dtype=np.complex128)
    diag[0, 0], diag[1, 1] = [-a, 1], [3, 1]
    u = haar_unitary(np.random.default_rng(11), 2)
    return MatrixPolynomial(np.einsum("ij,jkl->ikl", u, diag))


class TestCompanionRoots:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zeros_of_the_monic_determinant(self, s, d):
        # a batch of 5 on seeded blocks: s d zeros each, and at each the
        # monic matrix polynomial t^d I + sum_j lower[j] t^j is singular,
        # its least singular value below 1e-10 of sum_k ||C_k|| |t|^k
        rng = np.random.default_rng(10 * s + d)
        lower = rng.standard_normal((5, d, s, s)) + 1j * rng.standard_normal((5, d, s, s))
        zeros = companion_roots(lower)
        assert zeros.shape == (5, s * d)
        for blocks, at in zip(lower, zeros):
            coeffs = np.concatenate([blocks, np.eye(s)[None]])
            sv = np.linalg.svd(horner(coeffs, at[:, None, None]), compute_uv=False)
            scale = horner(np.linalg.norm(coeffs, 2, axis=(1, 2)), np.abs(at)).real
            assert np.all(sv[:, -1] <= 1e-10 * scale)


class TestDiskMinimum:
    def test_zero_inside_between_grid_nodes(self):
        # radius between the 0.4 and 0.6 circles, angle between two rays
        mat = _planted(1, 0.5 * np.exp(1j * np.pi / 24))
        assert _disk_grid_min(mat, 24) > 1e-2
        assert mat.min_singular_value_on_disk <= 1e-12

    def test_zero_on_circle_between_samples(self):
        mat = _planted(2, np.exp(1j * np.pi / 24))
        assert _disk_grid_min(mat, 24) > 1e-2
        assert mat.min_singular_value_on_disk <= 1e-12

    def test_singular_top_coefficient(self):
        # det has degree 4 of 6: two zeros at infinity, one at z = 2
        mat = _planted(3, 2.0)
        assert np.linalg.matrix_rank(mat.coeffs[:, :, -1]) == 1
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        on_circle = np.linalg.svd(mat.evaluate(np.concatenate([[0.0], circle])), compute_uv=False)
        got = mat.min_singular_value_on_disk
        assert got == float(np.min(on_circle)) == _disk_grid_min(mat, 64)
        assert got > 0.9

    def test_singular_constant_term(self):
        mat = _planted(4, 0.0)
        assert mat.min_singular_value_on_disk <= 1e-15

    def test_zero_matrix_of_symmetric_certificate(self):
        q = symmetrize(one_minus_z3w2())
        cert = sos_certificate(q)
        for mat in (cert.vec_first.matrix_in_w(), cert.vec_second.matrix_in_z()):
            assert not mat.coeffs.any()
            assert mat.min_singular_value_on_disk == 0.0

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.123456789, 0.9 + 0.2j])
    def test_det_zero_in_disk_reads_zero(self, a):
        # an SVD at a sampled a reads rounding, 1e-17 to 3e-16, and would
        # call Q invertible at rel = 0
        mat = _mixed_diag(a)
        assert mat.min_singular_value_on_disk == 0.0
        assert not mat.min_singular_value_on_disk > mat.disk_bound(0.0)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("eps, count", [(1e-13, 1), (1e-11, 0)])
    def test_closed_disk_band(self, size, eps, count):
        # a det zero 1e-13 outside the circle counts as in the closed disk
        # and one 1e-11 outside does not; a band of 1e-10 or 1e-14 in
        # place of 1e-12 gets one of the two wrong
        a = (1 + eps) * np.exp(0.7j)
        mat = MatrixPolynomial([[[-a, 1]]]) if size == 1 else _mixed_diag(a)
        assert len(mat.det_zeros_in_disk) == count

    def test_range_bound_keeps_a_small_entry_normal(self):
        # diag(2^1000 (2 - t), 2^-200 (2 - t)) has its det zeros at t = 2;
        # with RANGE_BOUND at 100 or below, Q / 2^e underflows its second
        # entry, Q(0) reads singular and a zero is reported at t = 0
        coeffs = np.zeros((2, 2, 2), dtype=np.complex128)
        coeffs[0, 0], coeffs[1, 1] = np.ldexp([2.0, -1.0], 1000), np.ldexp([2.0, -1.0], -200)
        assert len(MatrixPolynomial(coeffs).det_zeros_in_disk) == 0

    def test_range_bound_keeps_a_huge_entry_finite(self):
        # 2^1023 (1.5 - 0.5 t) reads 2^1024 at t = -1, which overflows
        # unless Q is divided down, as it is while RANGE_BOUND < 1024
        mat = MatrixPolynomial(np.ldexp([[[1.5, -0.5]]], 1023))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mat.min_singular_value_on_disk > mat.disk_bound(1e-6)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 3), (6, 6)])
    def test_matches_disk_grid_on_haar_qmatrices(self, m, n):
        coeffs = haar_dv(haar_unitary(np.random.default_rng(50 + m + n), m + n), m, n)
        for grid in (coeffs, coeffs.T):
            qmat = dv_certificate(BivariatePolynomial(grid), 1.0, 1.0).qmatrix
            assert qmat.min_singular_value_on_disk == _disk_grid_min(qmat, 64)


def _row_by_row(p, z, w):
    """Reference evaluation: one Horner call in w per coefficient row, the
    rows combined in z at the broadcast shape."""
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    acc = np.zeros(np.broadcast_shapes(z.shape, w.shape), dtype=np.complex128)
    for row in p.coeffs[::-1]:
        acc = acc * z + horner(row, w)
    return acc


def _points(rng):
    """Scalar, 1-D, outer-broadcast and mixed-rank point sets."""
    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return [
        (complex(c(1)[0]), complex(c(1)[0])),
        (c(37), c(37)),
        (c(33)[:, None], c(29)[None, :]),
        (c(5, 1, 3), c(4, 1)),
        (c(6), c(6, 6)),
    ]


class TestStackedKernel:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("m", range(7))
    def test_bit_identical_to_row_loop(self, n, m):
        rng = np.random.default_rng(100 + 7 * n + m)
        p = random_poly(rng, n, m)
        for z, w in _points(rng):
            got = np.asarray(p.evaluate(z, w))
            want = _row_by_row(p, z, w)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_declared_constant(self):
        p = poly({(0, 0): 2.5 - 1j}, (3, 2))
        for z, w in _points(np.random.default_rng(9)):
            assert np.array_equal(np.asarray(p.evaluate(z, w)), _row_by_row(p, z, w))

    def test_vector_matches_component_stack(self):
        rng = np.random.default_rng(10)
        comps = [random_poly(rng, n, m) for n, m in [(0, 0), (3, 2), (1, 4), (4, 1), (2, 0)]]
        comps.append(poly({(0, 0): 1.0}, (2, 3)))
        vec = VectorPolynomial.of(comps)
        # the last point set broadcasts to a 150 x 150 grid
        big = (rng.normal(size=(150, 1)) + 1j, rng.normal(size=(1, 150)) - 1j)
        for z, w in _points(rng) + [big]:
            want = np.stack([np.asarray(c.evaluate(z, w)) for c in comps], axis=0)
            got = vec.evaluate(z, w)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_empty_vector_and_empty_points(self):
        vec = VectorPolynomial.of([poly({(1, 1): 1.0})])
        assert vec.evaluate(np.zeros(0), np.zeros((3, 1))).shape == (1, 3, 0)
        assert VectorPolynomial.of([]).evaluate(np.zeros(4), 0.5).shape == (0, 4)

    def test_kernel_of_pair_with_itself(self):
        rng = np.random.default_rng(11)
        vec = VectorPolynomial.of(random_poly(rng, n, 2) for n in (1, 2, 3))
        z = rng.normal(size=(8, 1)) + 0j
        w = rng.normal(size=(1, 5)) + 0j
        a = vec.evaluate(z, w)
        assert np.array_equal(kernel(vec, z, w, z, w), np.sum(a * np.conj(a), axis=0))
        other = kernel(vec, z, w, 0.3, -0.4j)
        want = np.sum(a * np.conj(vec.evaluate(0.3, -0.4j))[:, None, None], axis=0)
        assert np.array_equal(other, want)


class TestDerivatives:
    def test_power_rule_z(self):
        assert max_coeff_distance(z3_minus_w2().partial_z(), poly({(2, 0): 3}, (2, 2))) == 0

    def test_power_rule_w(self):
        assert max_coeff_distance(z3_minus_w2().partial_w(), poly({(0, 1): -2}, (3, 1))) == 0

    def test_power_rule_mixed(self):
        assert max_coeff_distance(one_minus_z3w2().partial_z(), poly({(2, 2): -3}, (2, 2))) == 0

    def test_degree_clamp_at_zero(self):
        p = poly({(0, 2): 1})
        dz = p.partial_z()
        assert dz.degree == (0, 2)
        assert dz.is_zero()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 4, 3)
        dz, dw = p.partial_z(), p.partial_w()
        h = 1e-5
        for _ in range(20):
            z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
            w = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
            fd_z = (p.evaluate(z + h, w) - p.evaluate(z - h, w)) / (2 * h)
            fd_w = (p.evaluate(z, w + h) - p.evaluate(z, w - h)) / (2 * h)
            assert abs(fd_z - dz.evaluate(z, w)) < 1e-7 * p.scale
            assert abs(fd_w - dw.evaluate(z, w)) < 1e-7 * p.scale


class TestReflect:
    def test_two_minus_z_minus_w(self):
        got = reflect(two_minus_z_minus_w())
        want = poly({(1, 1): 2, (0, 1): -1, (1, 0): -1})
        assert max_coeff_distance(got, want) == 0

    def test_one_minus_z3w2(self):
        got = reflect(one_minus_z3w2())
        want = poly({(3, 2): 1, (0, 0): -1})
        assert max_coeff_distance(got, want) == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            reflect(z3_minus_w2().with_degree((2, 2)))

    @given(poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_involution(self, p):
        assert max_coeff_distance(reflect(reflect(p)), p) == 0

    @given(poly_strategy())
    @settings(max_examples=30, deadline=None)
    def test_modulus_symmetry_on_torus(self, p):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0, 2 * np.pi, (2, 200))
        z, w = np.exp(1j * theta[0]), np.exp(1j * theta[1])
        q = reflect(p)
        diff = np.abs(np.abs(p.evaluate(z, w)) - np.abs(q.evaluate(z, w)))
        assert np.max(diff) <= 1e-12 * p.scale


class TestReflectedDerivatives:
    def test_one_minus_z3w2_closed_form(self):
        qz_ref, qw_ref = reflected_derivatives(one_minus_z3w2())
        assert max_coeff_distance(qz_ref, poly({(0, 0): -3}, (2, 2))) == 0
        assert max_coeff_distance(qw_ref, poly({(0, 0): -2}, (3, 1))) == 0

    def test_constant_gives_zero(self):
        qz_ref, qw_ref = reflected_derivatives(poly({(0, 0): 4}, (3, 2)))
        assert qz_ref.is_zero() and qw_ref.is_zero()

    @given(poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_reflection_derivative_identity(self, q):
        # z * d/dz reflect(q) + reflect(q_z) = n * reflect(q), coefficientwise
        n, m = q.degree
        qr = reflect(q)
        lhs = Z * qr.partial_z() + reflect(q.partial_z())
        assert max_coeff_distance(lhs, n * qr) <= 1e-12 * max(q.scale, 1.0) * n

    @given(poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_reflection_derivative_identity_w(self, q):
        n, m = q.degree
        qr = reflect(q)
        lhs = W * qr.partial_w() + reflect(q.partial_w())
        assert max_coeff_distance(lhs, m * qr) <= 1e-12 * max(q.scale, 1.0) * m

    def test_symmetric_euler_identity(self):
        # z q_z + reflect(q_z) = n q for torus-symmetric q
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = random_symmetric_poly(rng, 3, 4)
            n, m = q.degree
            lhs = Z * q.partial_z() + reflected_derivatives(q)[0]
            assert max_coeff_distance(lhs, n * q) <= 1e-12 * q.scale * n


class TestSymmetry:
    def test_one_minus_z3w2(self):
        p = one_minus_z3w2()
        assert abs(symmetry_constant(p) + 1) < 1e-12
        assert max_coeff_distance(symmetrize(p), 1j * p) < 1e-12

    def test_z3_minus_w2(self):
        assert abs(symmetry_constant(z3_minus_w2()) + 1) < 1e-12

    def test_two_minus_z_minus_w_not_symmetric(self):
        assert symmetry_constant(two_minus_z_minus_w()) is None

    def test_zero_polynomial_refused(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            symmetry_constant(poly({}, (1, 1)))

    def test_symmetric_detected(self):
        q = random_symmetric_poly(np.random.default_rng(1), 2, 3)
        assert abs(symmetry_constant(q) - 1) < 1e-9

    def test_symmetrize_examples(self):
        got = symmetrize(one_minus_z3w2())
        assert max_coeff_distance(got, poly({(0, 0): 1j, (3, 2): -1j})) < 1e-12
        got2 = symmetrize(z3_minus_w2())
        assert max_coeff_distance(got2, poly({(3, 0): 1j, (0, 2): -1j})) < 1e-12

    def test_symmetrize_fixes_symmetric_input(self):
        q = random_symmetric_poly(np.random.default_rng(2), 3, 2)
        got = symmetrize(q)
        assert max_coeff_distance(got, q) <= 4 * np.finfo(float).eps * q.scale
        assert max_coeff_distance(reflect(got), got) <= 4 * np.finfo(float).eps * q.scale

    def test_symmetrize_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetrize(two_minus_z_minus_w())

    @given(poly_strategy(max_deg=3), st.floats(0, 2 * np.pi))
    # a rotation within SYMMETRY_TOL of 1 still needs undoing
    @example(BivariatePolynomial([[0.12573022 - 0.13210486j]]), 1e-9)
    @settings(max_examples=30, deadline=None)
    def test_symmetrized_phase_family_is_symmetric(self, p, phase):
        # any unimodular multiple of a symmetric polynomial symmetrizes back
        q = random_symmetric_poly(np.random.default_rng(p.coeffs.size), *p.degree)
        rotated = np.exp(1j * phase) * q
        assert symmetry_constant(rotated) is not None
        fixed = symmetrize(rotated)
        assert max_coeff_distance(reflect(fixed), fixed) <= 1e-9 * fixed.scale


class TestSwap:
    def test_z3_minus_w2(self):
        assert max_coeff_distance(swap_transform(z3_minus_w2()), one_minus_z3w2()) == 0

    def test_inverse_direction(self):
        assert max_coeff_distance(swap_transform(one_minus_z3w2()), z3_minus_w2()) == 0

    @given(poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_involution(self, p):
        n = p.degree[0]
        if np.max(np.abs(p.coeffs[n, :])) <= 1e-12 * p.scale:
            return
        assert max_coeff_distance(swap_transform(swap_transform(p)), p) == 0

    def test_degree_deficient_rejected(self):
        p = poly({(0, 1): 1}, (2, 1))
        with pytest.raises(DegreeMismatchError):
            swap_transform(p)

    def test_preserves_symmetry_class(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = random_symmetric_poly(rng, 3, 2)
            if np.max(np.abs(q.coeffs[3, :])) <= 1e-9 * q.scale:
                continue
            assert symmetry_constant(swap_transform(q)) is not None


class TestDerivedPolynomials:
    def test_dv_example(self):
        got = derived_dv_poly(z3_minus_w2())
        assert max_coeff_distance(got, poly({(3, 0): 6, (0, 2): 6}, (3, 2))) == 0

    def test_symmetric_example(self):
        got = derived_symmetric_poly(one_minus_z3w2())
        assert max_coeff_distance(got, poly({(0, 0): 6, (3, 2): 6}, (3, 2))) == 0

    def test_constant(self):
        q = poly({(0, 0): 2.5}, (3, 2))
        assert max_coeff_distance(derived_symmetric_poly(q), 6 * 2.5 * q * (1 / 2.5)) < 1e-12
        assert derived_symmetric_poly(q).evaluate(0, 0) == 6 * 2.5


class TestModulusLemma:
    @staticmethod
    def residual(q, a, b, z, w):
        n, m = q.degree
        qz, qw = q.partial_z(), q.partial_w()
        qz_ref, qw_ref = reflected_derivatives(q)
        s = a * n + b * m
        qv = q.evaluate(z, w)
        dv = a * z * qz.evaluate(z, w) + b * w * qw.evaluate(z, w)
        rv = a * qz_ref.evaluate(z, w) + b * qw_ref.evaluate(z, w)
        lhs = s**2 * np.abs(qv) ** 2 - 2 * np.real(dv * s * np.conj(qv))
        rhs = np.abs(rv) ** 2 - np.abs(dv) ** 2
        scale = np.maximum(
            np.abs(lhs) + np.abs(rhs) + s**2 * np.abs(qv) ** 2 + np.abs(dv) ** 2, 1.0
        )
        return np.max(np.abs(lhs - rhs) / scale)

    def test_pointwise_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            q = random_symmetric_poly(rng, rng.integers(1, 5), rng.integers(1, 5))
            a, b = rng.uniform(0, 3, 2)
            z = rng.uniform(-1.2, 1.2, 50) + 1j * rng.uniform(-1.2, 1.2, 50)
            w = rng.uniform(-1.2, 1.2, 50) + 1j * rng.uniform(-1.2, 1.2, 50)
            assert self.residual(q, a, b, z, w) <= 1e-9


class TestTranspose:
    def test_transpose_swaps_roles(self):
        p = random_poly(np.random.default_rng(4), 3, 2)
        t = transpose_vars(p)
        assert t.degree == (2, 3)
        assert abs(p.evaluate(0.3, -0.5j) - t.evaluate(-0.5j, 0.3)) < 1e-14
