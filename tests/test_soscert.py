import functools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    disk_spiral,
    four_minus_z_minus_w,
    haar_unitary,
    kernel,
    kummert,
    load_gen,
    mu,
    norm_sq,
    one_minus_z3w2,
    poly,
    subspace_kernel_pair,
    two_minus_z_minus_w,
    z3_minus_w2,
)
from dvkit import soscert
from dvkit.classify import schur_cohn_matrix
from dvkit.dvrep import UnitaryRealization, det_representation
from dvkit.poly2 import (
    BivariatePolynomial,
    VectorPolynomial,
    blaschke_dv,
    reflect,
    reflected_derivatives,
    side_degrees,
    swap_transform,
    symmetry_constant,
    symmetrize,
)
from dvkit.soscert import (
    CertKind,
    QuadratureError,
    SosCertificate,
    StabilityError,
    SubspaceError,
    _gram,
    _moment_column,
    compute_moments,
    gw_invertibility,
    sos_certificate,
    sym_sos_certificate,
    verify_certificate,
)

RNG = np.random.default_rng(42)


def minus_five():
    return poly({(0, 0): -5}, (3, 2))


def reflected_derivative_combination(p):
    """The g that the variety certificate of p certifies with unit weights:
    reflect(q_z) + reflect(q_w) for q = swap_transform(symmetrize(p))."""
    q = swap_transform(symmetrize(p))
    n, m = q.degree
    qz_ref, qw_ref = reflected_derivatives(q)
    return qz_ref.with_degree((n, m)) + qw_ref.with_degree((n, m))


def fft_moment_window(q, size=1024):
    """Reference window of the normalized 1/|q|^2 moments: a 2-D FFT of the
    density on the size x size torus grid."""
    nodes = np.exp(2j * np.pi * np.arange(size) / size)
    raw = np.fft.ifft2(1.0 / np.abs(q.evaluate(nodes[:, None], nodes[None, :])) ** 2)
    n, m = q.degree
    win = raw[np.ix_(np.arange(-n, n + 1) % size, np.arange(-m, m + 1) % size)]
    return win / win[n, m].real


class TestMoments:
    def test_constant_density_is_lebesgue(self):
        mom = compute_moments(minus_five())
        assert abs(mom.normalizer_c - 5.0) < 1e-12
        n, m = 3, 2
        for a in range(-n, n + 1):
            for b in range(-m, m + 1):
                want = 1.0 if (a, b) == (0, 0) else 0.0
                assert abs(mu(mom, a, b) - want) < 1e-12

    def test_geometric_series_moment(self):
        # density 1/|1 - zw/2|^2: mean = 4/3, first mixed moment 1/2
        mom = compute_moments(poly({(0, 0): 1, (1, 1): -0.5}))
        assert abs(mom.normalizer_c**2 - 0.75) < 1e-10
        assert abs(mu(mom, 1, 1) - 0.5) < 1e-10

    def test_hermitian_window(self):
        mom = compute_moments(four_minus_z_minus_w())
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                assert abs(mu(mom, -a, -b) - np.conj(mu(mom, a, b))) < 1e-12

    def test_gram_matrices_psd(self):
        q = poly({(0, 0): 5, (1, 0): 1, (0, 1): 0.5, (2, 2): 0.3, (1, 2): -0.4})
        mom = compute_moments(q)
        n, m = q.degree
        monos = [(i, j) for i in range(n) for j in range(m + 1)]
        g = np.array(
            [[mu(mom, ic - ir, jc - jr) for (ic, jc) in monos] for (ir, jr) in monos]
        )
        evals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        assert evals[0] >= -1e-10 * np.trace(g).real

    def test_torus_zero_rejected(self):
        with pytest.raises(StabilityError):
            compute_moments(two_minus_z_minus_w())

    def test_residue_backend_matches_fft(self):
        # a draw whose FFT reference converges at 1024^2 (most (6,6) draws
        # need 4096^2, seconds and a gigabyte per window)
        rng = np.random.default_rng(35)
        haar_dv = det_representation(UnitaryRealization(6, 6, haar_unitary(rng, 12)))
        g = reflected_derivative_combination(haar_dv)
        assert g.degree == (6, 6)
        for q in (four_minus_z_minus_w(), poly({(0, 0): 3, (1, 1): 0.4, (1, 0): -0.3}), g):
            assert np.max(np.abs(compute_moments(q).window - fft_moment_window(q))) < 1e-10


@st.composite
def stable_fiber(draw):
    """Coefficients, low to high, of a polynomial of degree 0-7 with every
    root of modulus >= 1.5, padded with up to two zero top coefficients (a
    degree drop at a node, or an all-zero top column of q).  Seven roots
    clustered at 1.1 would make the Schur-Cohn matrix singular to rounding,
    which the moment kernel refuses."""
    degree = draw(st.integers(0, 7))
    pad = draw(st.integers(0, min(2, 7 - degree)))
    moduli = draw(st.lists(st.floats(1.5, 4.0), min_size=degree, max_size=degree))
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=degree, max_size=degree))
    lead = draw(st.floats(0.1, 10.0)) * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    roots = np.multiply(moduli, np.exp(1j * np.array(angles)))
    coeffs = lead * np.atleast_1d(np.poly(roots))[::-1]
    return np.concatenate([coeffs, np.zeros(pad)])


class TestResidueFirst:
    """``compute_moments`` takes the w-integrals of each fiber from one
    Schur-Cohn solve, doubling its z-grid by adding odd nodes."""

    STABLE = poly({(0, 0): 3, (1, 1): 0.4, (1, 0): -0.3, (0, 2): 0.5})

    @given(stable_fiber())
    @settings(max_examples=60, deadline=None)
    def test_toeplitz_inverts_schur_cohn(self, coeffs):
        # Gohberg-Semencul: [J_{k-j}] is the inverse of the Schur-Cohn matrix
        # S of the fiber padded with a zero top coefficient.  The identity
        # holds to 1e-12 while cond(S) stays below about 20; beyond, to the
        # eps cond(S)^2 that forming and solving S in double costs (clustered
        # roots near the circle make S ill-conditioned), which the long
        # double refinement, where the platform has one, only improves on
        col = _moment_column(coeffs[None, :])[0]
        size = len(col)
        lag = np.arange(size)[None, :] - np.arange(size)[:, None]
        toeplitz = np.where(lag >= 0, col[np.abs(lag)], np.conj(col[np.abs(lag)]))
        s = schur_cohn_matrix(np.append(coeffs, 0.0))
        allowed = max(1e-12, 10 * np.finfo(float).eps * np.linalg.cond(s) ** 2)
        assert np.max(np.abs(toeplitz @ s - np.eye(size))) <= allowed

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double"
    )
    @given(st.lists(stable_fiber(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_column_matches_per_fiber_lapack(self, fibers):
        # the Cholesky and back substitution that run across all fibers at
        # once, against one LAPACK factorization and solve per fiber; each
        # fiber is padded with zero top coefficients to length 8.  Both
        # columns are refined against S formed in long double, as the kernel
        # refines an ill-conditioned fiber, so they agree to 1e-13 unless the
        # long double rounding of S, eps cond(S), allows more (seven roots
        # of modulus 1.5-2 in two clusters make cond(S) about 2e7)
        batch = np.array([np.pad(f, (0, 8 - len(f))) for f in fibers])
        got = _moment_column(batch)
        for f, col in zip(batch, got):
            padded = np.append(f, 0.0)
            s, last = schur_cohn_matrix(padded), np.eye(len(f))[-1]
            np.linalg.cholesky(s)
            want = np.linalg.solve(s, last)
            fix = (last - schur_cohn_matrix(padded.astype(np.clongdouble)) @ want).astype(np.complex128)
            want = (want + np.linalg.solve(s, fix))[::-1]
            allowed = max(1e-13, 10 * np.finfo(np.longdouble).eps * np.linalg.cond(s))
            assert np.max(np.abs(col - want)) <= allowed * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [[0.5, 1.0], [np.nan, 1.0]], ids=["root_inside", "nan"])
    def test_one_bad_fiber_refuses_the_batch(self, bad):
        # one fiber among many whose pivot is not positive, from a root
        # inside the disk or a NaN coefficient
        batch = np.tile([2.0, -1.0 + 0.5j], (300, 1))
        assert np.all(np.isfinite(_moment_column(batch)))
        batch[137] = bad
        with pytest.raises(StabilityError, match="fiber root inside the closed disk"):
            _moment_column(batch)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double"
    )
    def test_root_near_circle_refined(self):
        # a0 + a1 w with |a1| = 1 and a0 = 1 + 1e-6: J_0 = 1/(|a0|^2 - |a1|^2)
        # and J_1 = -conj(a1 / a0) J_0, exact in rationals; without the long
        # double step the column is off by 1.0e-12 relative here
        a0, a1 = 1 + 1e-6, -np.exp(0.3j)
        col = _moment_column(np.array([[a0, a1]]))[0]
        j0 = 1 / (Fraction(a0) ** 2 - Fraction(a1.real) ** 2 - Fraction(a1.imag) ** 2)
        j1 = -complex(Fraction(a1.real) * j0 / Fraction(a0), -Fraction(a1.imag) * j0 / Fraction(a0))
        assert np.max(np.abs(col - [float(j0), j1])) <= 2e-13 * float(j0)

    def test_odd_node_sums_match_fresh_level(self):
        # STABLE converges at 512 nodes: its window is the 256-node level's
        # plus the odd nodes' radix-2 term, against one inverse FFT of the
        # columns at all 512 nodes
        mom = compute_moments(self.STABLE)
        assert mom.grid_size == 512
        n, m = self.STABLE.degree
        nodes = np.exp(2j * np.pi * np.arange(512) / 512)
        spectra = np.fft.ifft(_moment_column(self.STABLE.fibers(nodes)).T, axis=-1)
        a = np.arange(-n, n + 1)
        half = spectra[:, a % 512].T
        fresh = np.concatenate([np.conj(half[::-1, :0:-1]), half], axis=-1)
        assert np.max(np.abs(mom.window - fresh / fresh[n, m].real)) <= 1e-15

    def test_doubling_computes_only_new_nodes(self, monkeypatch):
        sizes = []
        column = soscert._moment_column

        def counted(fibers):
            sizes.append(np.shape(fibers)[-2])
            return column(fibers)

        monkeypatch.setattr(soscert, "_moment_column", counted)
        mom = compute_moments(self.STABLE)
        assert sizes[0] == 256 and sum(sizes) == mom.grid_size
        assert sizes[1:] == [256 << k for k in range(len(sizes) - 1)]

    def test_true_w_degree_below_declared(self):
        # the combination built for z^3 - w^2 is a constant of declared
        # degree (3, 2): every fiber has two zero top coefficients
        g = reflected_derivative_combination(z3_minus_w2())
        assert g.degree == (3, 2)
        assert np.max(np.abs(compute_moments(g).window - fft_moment_window(g))) <= 1e-12

    @pytest.mark.parametrize(
        "q",
        [
            poly({(0, 0): 9, (1, 0): -6, (0, 1): -6, (2, 0): 1, (1, 1): 2, (0, 2): 1}),
            poly({(0, 0): 1, (0, 1): -1.8, (0, 2): 0.81}, (1, 2)),
            poly({(0, 0): 1, (0, 1): -1.6, (0, 2): 0.64}, (1, 2)),
            BivariatePolynomial(np.outer([1, 0.2], np.poly([1.2, 1.2001])[::-1])),
        ],
        ids=[
            "three_minus_z_minus_w_squared",
            "one_minus_0.9w_squared",
            "one_minus_0.8w_squared",
            "poles_7e-5_apart",
        ],
    )
    def test_colliding_poles_match_fft(self, q):
        # double or nearly double fiber roots, which a residue sum over the
        # poles resolves badly; the Schur-Cohn kernel finds no poles
        assert np.max(np.abs(compute_moments(q).window - fft_moment_window(q))) <= 1e-12

    def test_unitary_kummert_refused_without_fft(self):
        # det(I - K diag(z, w)) for the unitary K = [[0.6, 0.8], [-0.8, 0.6]]:
        # every fiber over the circle has its root on the circle
        q = poly({(0, 0): 1, (1, 0): -0.6, (0, 1): -0.6, (1, 1): 1})
        with pytest.raises(StabilityError, match="fiber root inside the closed disk"):
            compute_moments(q)


class TestSubspaces:
    @pytest.mark.parametrize("degree", [(3, 3), (6, 6)])
    def test_gram_gather_matches_entry_loop(self, degree):
        n, m = degree
        grid = RNG.normal(size=(n + 1, m + 1)) + 1j * RNG.normal(size=(n + 1, m + 1))
        grid[0, 0] = 4.0 * np.sum(np.abs(grid))  # stable: |q(0, 0)| dominates
        mom = compute_moments(BivariatePolynomial(grid))
        rows = [(i, j) for i in range(n) for j in range(m + 1)]
        cols = [(i, j) for i in range(n + 1) for j in range(m)]
        loop = np.empty((len(rows), len(cols)), dtype=np.complex128)
        for r, (ir, jr) in enumerate(rows):
            for c, (ic, jc) in enumerate(cols):
                loop[r, c] = mom.window[ic - ir + n, jc - jr + m]
        assert np.array_equal(_gram(mom.window, rows, cols), loop)
        assert _gram(mom.window, [], cols).shape == (0, len(cols))

    def test_lebesgue_complements(self):
        q = minus_five()
        mom = compute_moments(q)
        vec_e, vec_f = subspace_kernel_pair(q, mom)
        assert len(vec_e) == 3 and len(vec_f) == 2
        z, w, zz, ww = 0.3 + 0.1j, -0.2j, 0.15 - 0.4j, 0.7
        u = z * np.conj(zz)
        assert abs(kernel(vec_e, z, w, zz, ww) - (1 + u + u**2)) < 1e-9
        assert abs(kernel(vec_f, z, w, zz, ww) - u**3 * (1 + w * np.conj(ww))) < 1e-9

    def test_kernel_hermitian(self):
        q = four_minus_z_minus_w()
        vec_e, _ = subspace_kernel_pair(q, compute_moments(q))
        for _ in range(10):
            x = RNG.normal(size=4) * 0.5
            k1 = kernel(vec_e, x[0], x[1], x[2], x[3])
            k2 = kernel(vec_e, x[2], x[3], x[0], x[1])
            assert abs(k1 - np.conj(k2)) < 1e-12

    def test_first_subspace_poly_nonvanishing_in_w(self):
        # the one-dimensional complement for 4 - z - w has no w-root in the
        # closed disk
        q = four_minus_z_minus_w()
        vec_e, _ = subspace_kernel_pair(q, compute_moments(q))
        (comp,) = vec_e
        c = comp.coeffs[0]  # degree (0, 1) polynomial in w
        root = -c[0] / c[1]
        assert abs(root) > 1.0

    @given(
        st.integers(0, 6),
        st.integers(0, 6),
        st.floats(1.2, 4.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_complements_orthonormal_and_orthogonal(self, n, m, margin, seed):
        # the coefficient matrix C of each basis over its family has
        # C^H G C = I and is orthogonal to every shifted monomial, which fixes
        # the kernel; |q(0, 0)| above the sum of the other moduli keeps q
        # zero-free on the closed bidisk
        assume(n + m > 0)
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
        grid[0, 0] = margin * (np.sum(np.abs(grid)) - abs(grid[0, 0]))
        q = BivariatePolynomial(grid)
        mom = compute_moments(q)
        vec_e, vec_f = subspace_kernel_pair(q, mom)
        assert len(vec_e) == n and len(vec_f) == m
        sides = (
            (vec_e, [(i, j) for i in range(n) for j in range(m + 1)], lambda i, j: j >= 1),
            (vec_f, [(i, j) for i in range(n + 1) for j in range(m)], lambda i, j: i < n),
        )
        for vec, family, is_shifted in sides:
            shifted = [mono for mono in family if is_shifted(*mono)]
            coeffs = np.array([[comp.coeffs[mono] for comp in vec] for mono in family])
            coeffs = coeffs.reshape(len(family), len(vec))
            gram = _gram(mom.window, family, family)
            defect = coeffs.conj().T @ gram @ coeffs - np.eye(len(vec))
            assert np.max(np.abs(defect), initial=0.0) <= 1e-10
            assert np.max(np.abs(_gram(mom.window, shifted, family) @ coeffs), initial=0.0) <= 1e-10

    def test_degenerate_subspace_raises(self):
        q = minus_five()
        mom = compute_moments(q)
        bad = np.array(mom.window)
        bad[:, :] = 1.0  # rank-one Gram (a point mass) kills every complement
        broken = type(mom)(q, mom.normalizer_c, bad, mom.grid_size)
        with pytest.raises(SubspaceError, match="subspace degenerate"):
            subspace_kernel_pair(q, broken)


class TestStableCertificate:
    def test_constant_certificate(self):
        cert = sos_certificate(minus_five())
        z, w, zz, ww = 0.4, 0.3j, -0.2, 0.6 - 0.1j
        u = z * np.conj(zz)
        assert abs(kernel(cert.vec_first, z, w, zz, ww) - 25 * (1 + u + u**2)) < 1e-9
        assert (
            abs(kernel(cert.vec_second, z, w, zz, ww) - 25 * u**3 * (1 + w * np.conj(ww)))
            < 1e-9
        )

    def test_four_certificate_residual(self, cert_four):
        report = verify_certificate(four_minus_z_minus_w(), cert_four)
        assert report.residual <= 1e-8

    def test_appendix_identity_on_grid(self, cert_four):
        # |q|^2 - |reflect q|^2 = (1-|z|^2)|A|^2 + (1-|w|^2)|B|^2
        q = four_minus_z_minus_w()
        qr = reflect(q)
        pts = disk_spiral(64)
        z, w = pts[:, None], pts[None, :]
        lhs = np.abs(q.evaluate(z, w)) ** 2 - np.abs(qr.evaluate(z, w)) ** 2
        rhs = (1 - np.abs(z) ** 2) * norm_sq(cert_four.vec_first, z, w) + (
            1 - np.abs(w) ** 2
        ) * norm_sq(cert_four.vec_second, z, w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * np.max(np.abs(lhs) + 1)

    @pytest.mark.parametrize(
        "terms",
        [
            {(0, 0): -5},
            {(0, 0): 1, (1, 1): -0.5},
            {(0, 0): 5, (1, 0): 1, (0, 1): 0.5, (2, 2): 0.3, (1, 2): -0.4},
            {(0, 0): 3, (1, 0): -0.4j, (0, 2): 0.3, (2, 1): 0.2},
        ],
    )
    def test_two_square_identity_across_stable_corpus(self, terms):
        q = poly(terms)
        cert = sos_certificate(q)
        qr = reflect(q)
        pts = disk_spiral(64)
        z, w = pts[:, None], pts[None, :]
        lhs = np.abs(q.evaluate(z, w)) ** 2 - np.abs(qr.evaluate(z, w)) ** 2
        rhs = np.zeros_like(lhs)
        if len(cert.vec_first):
            rhs = rhs + (1 - np.abs(z) ** 2) * norm_sq(cert.vec_first, z, w)
        if len(cert.vec_second):
            rhs = rhs + (1 - np.abs(w) ** 2) * norm_sq(cert.vec_second, z, w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * max(np.max(np.abs(lhs)), q.scale**2)

    def test_degree_bounds_exact(self, cert_four):
        n, m = four_minus_z_minus_w().degree
        for comp in cert_four.vec_first:
            assert comp.degree[0] <= n - 1 and comp.degree[1] <= m
        for comp in cert_four.vec_second:
            assert comp.degree[0] <= n and comp.degree[1] <= m - 1

    def test_rejects_interior_zeros(self):
        with pytest.raises(StabilityError):
            sos_certificate(z3_minus_w2())

    def test_matrix_forms_reproduce_vectors(self, cert_four):
        z, w = 0.3 - 0.2j, 0.5 + 0.4j
        n, m = four_minus_z_minus_w().degree
        a_mat = cert_four.vec_first.matrix_in_w().evaluate(w)
        col = np.array([z**i for i in range(a_mat.shape[1])])
        want = cert_four.vec_first.evaluate(z, w)
        assert np.max(np.abs(a_mat @ col - want)) < 1e-12
        b_mat = cert_four.vec_second.matrix_in_z().evaluate(z)
        colw = np.array([w**j for j in range(b_mat.shape[1])])
        wantb = cert_four.vec_second.evaluate(z, w)
        assert np.max(np.abs(b_mat @ colw - wantb)) < 1e-12


class TestBoundaryDilation:
    def test_two_certificate_kernels(self, cert_two):
        z, w, zz, ww = 0.3 + 0.1j, -0.2j, 0.15 - 0.4j, 0.7
        ka = kernel(cert_two.vec_first, z, w, zz, ww)
        kb = kernel(cert_two.vec_second, z, w, zz, ww)
        assert abs(ka - 2 * (1 - w) * (1 - np.conj(ww))) < 1e-5
        assert abs(kb - 2 * (1 - z) * (1 - np.conj(zz))) < 1e-5

    def test_two_certificate_grid_residual(self, cert_two):
        report = verify_certificate(two_minus_z_minus_w(), cert_two)
        assert report.residual <= 1e-6


@functools.cache
def gw_thinned_certificates():
    """(certificate, GW verdict) for the certificate of a Kummert polynomial
    of degree (2, 2), and for copies whose first vector's first component is
    multiplied by 1e-5 and by 1e-7."""
    cert = sos_certificate(BivariatePolynomial(kummert(0.8 * haar_unitary(np.random.default_rng(3), 4), 2, 2)))
    out = []
    for factor, want in ((1.0, True), (1e-5, True), (1e-7, False)):
        coeffs = cert.vec_first.coeffs.copy()
        coeffs[0] *= factor
        thinned = SosCertificate(cert.kind, VectorPolynomial(coeffs), cert.vec_second)
        gw = gw_invertibility(thinned)
        assert gw.passed is want and min(gw.min_sv_first, gw.min_sv_second) > 0.0
        out.append((thinned, want))
    return out


class TestDilationBatch:
    """The basis solves and the quadrature cap of one moment table."""

    @pytest.mark.parametrize(
        "q",
        [four_minus_z_minus_w(), poly({(0, 0): 3, (0, 1): -4, (0, 2): 1})],
        ids=["direct", "empty_shifted_family"],
    )
    def test_stacked_solves_read_alike_under_numpy_1_and_2(self, q, monkeypatch):
        # for a stack of matrices a, numpy 1.x reads a b with one axis fewer
        # as a stack of vectors and numpy 2 as one matrix; a b with as many
        # axes as a is a stack of matrices under both
        solve = np.linalg.solve

        def checked(a, b):
            assert np.ndim(a) == 2 or np.ndim(b) == np.ndim(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        assert verify_certificate(q, sos_certificate(q)).passed

    def test_cap_raises_quadrature_error(self, monkeypatch):
        # the dilate at r = 0.9999 needs 4096 nodes
        q = soscert.dilate(two_minus_z_minus_w(), 0.9999)
        assert compute_moments(q).grid_size == 4096
        monkeypatch.setattr(soscert, "GRID_CAP", 2048)
        with pytest.raises(QuadratureError, match="quadrature unresolved"):
            compute_moments(q)

    def test_degenerate_member_raises_subspace_error(self):
        # a window of all ones: every Gram matrix it gives has rank 1
        q = four_minus_z_minus_w()
        window = compute_moments(q).window
        with pytest.raises(SubspaceError, match="subspace degenerate"):
            soscert._kernel_pairs(q.degree, np.ones_like(window))


class TestEmptySide:
    """n = 0 or m = 0 leaves one side of the certificate without components;
    the dilation route's refinement carries no unknowns for it."""

    @pytest.mark.parametrize(
        "p",
        [
            poly({(0, 0): 1, (0, 1): -1}),  # 1 - w
            poly({(0, 0): 3, (0, 1): -4, (0, 2): 1}),  # (1 - w)(3 - w)
        ],
        ids=["one_minus_w", "one_minus_w_three_minus_w"],
    )
    def test_certifies(self, p):
        cert = sos_certificate(p)
        n, m = p.degree
        assert len(cert.vec_first) == n and len(cert.vec_second) == m
        assert verify_certificate(p, cert).passed
        # the refined certificate holds to 1e-10 of the largest term (at
        # least 1) on a closed-bidisk grid and at pairs of closed-bidisk points
        pts = disk_spiral(64)
        assert self.pair_residual(p, cert, pts[:, None], pts[None, :]) <= 1e-10
        rng = np.random.default_rng(5)
        z, w, zz, ww = np.sqrt(rng.uniform(0, 1, (4, 500))) * np.exp(2j * np.pi * rng.uniform(0, 1, (4, 500)))
        assert self.pair_residual(p, cert, z, w, zz, ww) <= 1e-10

    @staticmethod
    def pair_residual(p, cert, z, w, zz=None, ww=None):
        """max |lhs - rhs| of the polarized identity at (z, w) x (zz, ww), the
        diagonal when zz, ww are omitted, over max(1, largest term)."""
        zz, ww = (z, w) if zz is None else (zz, ww)
        qr = reflect(p)
        lhs = p.evaluate(z, w) * np.conj(p.evaluate(zz, ww)) - qr.evaluate(z, w) * np.conj(qr.evaluate(zz, ww))
        side_a = (1 - z * np.conj(zz)) * kernel(cert.vec_first, z, w, zz, ww)
        side_b = (1 - w * np.conj(ww)) * kernel(cert.vec_second, z, w, zz, ww)
        terms = np.abs(np.stack(np.broadcast_arrays(lhs, side_a, side_b)))
        return np.max(np.abs(lhs - side_a - side_b)) / max(np.max(terms), 1.0)

    def test_double_pole_refused_by_name(self):
        p = poly({(0, 0): 1, (0, 1): -2, (0, 2): 1})  # (1 - w)^2
        with pytest.raises(QuadratureError, match="colliding fiber roots"):
            sos_certificate(p)

    def test_repeated_factor_free_of_w_refused_before_radii(self, monkeypatch):
        # (1 - z)^2 (2 - z - w) is StableOpen; its w-fibers have simple roots
        dilated = []
        monkeypatch.setattr(soscert, "dilate", lambda q, r: dilated.append(r))
        one_minus_z = poly({(0, 0): 1, (1, 0): -1})
        p = one_minus_z * one_minus_z * two_minus_z_minus_w()
        with pytest.raises(QuadratureError, match="repeated factor"):
            sos_certificate(p)
        assert dilated == []


class TestGwInvertibility:
    def test_constant_case(self):
        cert = sos_certificate(minus_five())
        gw = gw_invertibility(cert)
        assert abs(gw.min_sv_first - 5.0) < 1e-9
        assert abs(gw.min_sv_second - 5.0) < 1e-9
        assert gw.passed

    def test_four_bounded_away_from_zero(self, cert_four):
        gw = gw_invertibility(cert_four)
        assert gw.min_sv_first > 1e-6 and gw.min_sv_second > 1e-6
        assert gw.passed

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-7, 1e-300, 1e300])
    def test_verdict_is_scale_free(self, cert_four, c):
        # each least singular value is compared with its matrix's scale
        gw = gw_invertibility(sos_certificate(BivariatePolynomial(c * four_minus_z_minus_w().coeffs)))
        assert gw.passed
        unit = gw_invertibility(cert_four)
        assert abs(gw.min_sv_first / c - unit.min_sv_first) <= 1e-9 * unit.min_sv_first

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-1074, 1023))
    def test_verdict_holds_at_every_power_of_two(self, k):
        # both bounds of the gate are formed before the power of two, so a
        # certificate scaled exactly by 2^k keeps its verdict: two that pass,
        # one of them thinned to 1e-5 of a component, and one thinned to
        # 1e-7, which fails on the ratio with no det zero in the disk
        for cert, want in gw_thinned_certificates():
            scaled = SosCertificate(cert.kind, cert.vec_first.ldexp(k), cert.vec_second.ldexp(k))
            for vec, back in ((cert.vec_first, scaled.vec_first), (cert.vec_second, scaled.vec_second)):
                assume(np.array_equal(back.ldexp(-k).coeffs, vec.coeffs))
            assert gw_invertibility(scaled).passed is want

    @pytest.mark.parametrize("seed", range(3))
    def test_verdict_is_basis_invariant(self, seed):
        # a constant unitary mixing of each vector's components moves
        # neither least singular value nor the scale they are gated against
        rng = np.random.default_rng(seed)
        cert = sos_certificate(BivariatePolynomial(kummert(0.8 * haar_unitary(rng, 6), 3, 3)))
        first, second = (
            VectorPolynomial(np.einsum("kl,lij->kij", haar_unitary(rng, len(v)), v.coeffs))
            for v in (cert.vec_first, cert.vec_second)
        )
        gw, mixed = gw_invertibility(cert), gw_invertibility(SosCertificate(cert.kind, first, second))
        assert gw.passed and mixed.passed
        for got, want in ((mixed.min_sv_first, gw.min_sv_first), (mixed.min_sv_second, gw.min_sv_second)):
            assert abs(got - want) <= 1e-12 * want

    def test_corrupted_certificate_fails(self, cert_four):
        # the first vector loses its w^0 terms, so A(0) = 0
        comps = [
            BivariatePolynomial(np.where(np.arange(c.coeffs.shape[1]) == 0, 0.0, c.coeffs))
            for c in cert_four.vec_first
        ]
        broken = SosCertificate(cert_four.kind, VectorPolynomial.of(comps), cert_four.vec_second)
        gw = gw_invertibility(broken)
        assert not gw.passed and gw.min_sv_first < 1e-12
        assert gw.min_sv_second == gw_invertibility(cert_four).min_sv_second

    def test_empty_side_raises(self):
        # 2 - z has degree (1, 0): no second vector, so no B(z) to test
        cert = sos_certificate(poly({(0, 0): 2, (1, 0): -1}))
        assert len(cert.vec_second) == 0
        with pytest.raises(ValueError, match="empty side"):
            gw_invertibility(cert)

    def test_appendix_claim_e_matrix(self, cert_four):
        # matrix form of the first subspace basis stays invertible on the disk
        mat = cert_four.vec_first.matrix_in_w()
        assert mat.min_singular_value_on_disk > 1e-6

    def test_seed301_values_match_forms_built_from_q(self):
        # gw_invertibility sizes its matrix forms by the vector lengths; on
        # the benchmark's r0 and r1 inputs its values equal, bit for bit,
        # those of the forms sized by q's degree that certificates once
        # carried
        passes = load_gen().generate("sos_certify", 301)[:2]
        count = 0
        for x in [x for inputs in passes for x in inputs]:
            q = BivariatePolynomial(x.coeffs)
            try:
                cert = sos_certificate(q)
            except (StabilityError, QuadratureError):
                continue
            n, m = q.degree
            if n == 0 or m == 0:
                continue
            deg_a, deg_b = side_degrees(n, m)
            mat_a = cert.vec_first.with_degree(deg_a).matrix_in_w()
            mat_b = cert.vec_second.with_degree(deg_b).matrix_in_z().reflected()
            gw = gw_invertibility(cert)
            assert gw.min_sv_first == mat_a.min_singular_value_on_disk, x.name
            assert gw.min_sv_second == mat_b.min_singular_value_on_disk, x.name
            count += 1
        assert count >= 16


class TestSymmetricCertificate:
    def test_closed_form_kernels(self, sym_cert_z3w2):
        q, cert = sym_cert_z3w2
        assert cert.kind is CertKind.SYMMETRIC
        z, w, zz, ww = 0.3 + 0.1j, -0.2j, 0.15 - 0.4j, 0.7
        u = z * np.conj(zz)
        assert abs(kernel(cert.vec_first, z, w, zz, ww) - 5 * (1 + u + u**2)) < 1e-8
        assert (
            abs(kernel(cert.vec_second, z, w, zz, ww) - 5 * u**3 * (1 + w * np.conj(ww)))
            < 1e-8
        )

    def test_identity_on_grid(self, sym_cert_z3w2):
        # 5(1 - |z|^6 |w|^4) = (1-|z|^2) 5(1+|z|^2+|z|^4) + (1-|w|^2) 5|z|^6(1+|w|^2)
        q, cert = sym_cert_z3w2
        pts = disk_spiral(48)
        z, w = pts[:, None], pts[None, :]
        az, aw = np.abs(z), np.abs(w)
        lhs = 5 * (1 - az**6 * aw**4)
        rhs = (1 - az**2) * norm_sq(cert.vec_first, z, w) + (
            1 - aw**2
        ) * norm_sq(cert.vec_second, z, w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(lhs) + 1)

    def test_single_weight_collapse(self):
        q = symmetrize(one_minus_z3w2())
        cert = sym_sos_certificate(q, 1.0, 0.0)
        assert verify_certificate(q, cert).residual <= 1e-9

    def test_random_symmetric_stable_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            alphas = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            p = blaschke_dv(2, alphas)
            q = symmetrize(swap_transform(symmetrize(p)))
            a, b = rng.uniform(0.3, 2.0, 2)
            cert = sym_sos_certificate(q, a, b)
            assert verify_certificate(q, cert).residual <= 1e-7

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_sos_certificate(four_minus_z_minus_w(), 1.0, 1.0)

    @pytest.mark.parametrize("gap, accepted", [(1e-7, False), (2e-9, True)])
    def test_symmetry_constant_gate_sits_at_symmetry_tol(self, sym_cert_z3w2, gap, accepted):
        # e^{i theta} q has symmetry constant e^{2 i theta} c, c = 1 for the
        # symmetrized q, so |c - 1| reads about 2 theta: above SYMMETRY_TOL =
        # 1e-8 the certificate asks for symmetrizing, below it builds
        q, _ = sym_cert_z3w2
        rotated = np.exp(0.5j * gap) * q
        assert abs(abs(symmetry_constant(rotated) - 1) - gap) <= 0.01 * gap
        if accepted:
            assert verify_certificate(rotated, sym_sos_certificate(rotated, 1.0, 1.0)).passed
        else:
            with pytest.raises(ValueError, match="symmetrize it first"):
                sym_sos_certificate(rotated, 1.0, 1.0)

    def test_rejects_zero_weights(self, sym_cert_z3w2):
        q, _ = sym_cert_z3w2
        with pytest.raises(ValueError):
            sym_sos_certificate(q, 0.0, 0.0)

    @pytest.mark.parametrize(
        "terms, degree, a, b",
        [({(0, 0): 2}, (0, 0), 1.0, 1.0), ({(0, 0): 1, (0, 2): -1}, (0, 2), 1.0, 0.0)],
        ids=["constant", "one_minus_w2_a_only"],
    )
    def test_rejects_vanishing_an_plus_bm(self, terms, degree, a, b):
        q = symmetrize(poly(terms, degree))
        with pytest.raises(ValueError, match=r"a n \+ b m = 0"):
            sym_sos_certificate(q, a, b)

    @pytest.mark.parametrize(
        "p, smooth",
        [
            (z3_minus_w2(), True),
            (poly({(2, 0): 1, (0, 1): -1}) * poly({(3, 0): 1, (0, 1): -1}), False),
        ],
        ids=["smooth_direct", "singular_dilation"],
    )
    def test_known_smoothness_builds_the_classified_route(self, p, smooth):
        # a caller that knows whether the variety is smooth on the torus
        # gets the certificate that classifying g would have chosen
        q = swap_transform(symmetrize(p))
        known = sym_sos_certificate(q, 1.0, 1.0, smooth=smooth)
        classified = sym_sos_certificate(q, 1.0, 1.0)
        assert np.array_equal(known.vec_first.coeffs, classified.vec_first.coeffs)
        assert np.array_equal(known.vec_second.coeffs, classified.vec_second.coeffs)

    def test_weights_recorded(self, sym_cert_z3w2):
        _, cert = sym_cert_z3w2
        assert cert.weights == (1.0, 1.0)


class TestVerification:
    def test_perturbation_reported(self, cert_four):
        comps = list(cert_four.vec_first)
        bumped = comps[0] + poly({(0, 0): 1e-3})
        broken = SosCertificate(
            cert_four.kind,
            VectorPolynomial.of((bumped, *comps[1:])),
            cert_four.vec_second,
        )
        report = verify_certificate(four_minus_z_minus_w(), broken)
        assert 1e-6 < report.residual < 1e-1
        assert not report.passed

    def test_report_threshold(self, cert_four):
        report = verify_certificate(four_minus_z_minus_w(), cert_four)
        assert report.passed and report.threshold == 1e-7

    @pytest.fixture(params=["stable", "symmetric", "dv"])
    def certified(self, request, cert_four, sym_cert_z3w2, pipeline_z3w2):
        """(q, certificate) of each kind: ColeWermer, Symmetric and DV."""
        if request.param == "stable":
            return four_minus_z_minus_w(), cert_four
        if request.param == "symmetric":
            return sym_cert_z3w2
        dv = pipeline_z3w2[0]
        return dv.p, dv.as_sos()

    @staticmethod
    def bumped(cert, step):
        """cert with the constant coefficient of its first component moved by step."""
        comps = list(cert.vec_first)
        comps[0] = comps[0] + step
        return SosCertificate(cert.kind, VectorPolynomial.of(comps), cert.vec_second, cert.weights)

    def test_small_mutation_fails_by_ten_thresholds(self, certified):
        # One coefficient of one component moved by 1e-6 of that component's
        # scale fails by more than ten times the threshold on every kind.
        q, cert = certified
        assert verify_certificate(q, cert).passed
        report = verify_certificate(q, self.bumped(cert, 1e-6 * np.abs(cert.vec_first.coeffs[0]).max()))
        assert report.residual > 10 * report.threshold

    def test_symmetric_error_of_q_scale_fails(self, sym_cert_z3w2):
        # an error of 1e-6 of q's scale, which the sampled diagonal residual
        # (relative to its largest term) read as 5.9e-8 and passed
        q, cert = sym_cert_z3w2
        assert not verify_certificate(q, self.bumped(cert, 1e-6 * q.scale)).passed

    @pytest.mark.parametrize("k", [-1000, -300, -20, 0, 20, 300, 1000])
    def test_zero_certificate_refused_at_every_scale(self, k):
        q = BivariatePolynomial(kummert(0.8 * haar_unitary(np.random.default_rng(301), 6), 3, 3))
        cert = sos_certificate(q)
        zero = SosCertificate(cert.kind, cert.vec_first.scaled(0.0), cert.vec_second.scaled(0.0))
        assert verify_certificate(q, cert).passed
        scaled = verify_certificate(q.ldexp(k), zero)
        assert scaled.residual == verify_certificate(q, zero).residual > 0.1
        assert not scaled.passed

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_residual_is_scale_free(self, cert_four, k):
        q = four_minus_z_minus_w()
        vecs = (cert_four.vec_first, cert_four.vec_second)
        parts = np.concatenate([c.coeffs.ravel() for v in vecs for c in v]).view(np.float64)
        # 2^k cert is exact unless a coefficient leaves the normal range
        assume(np.array_equal(np.ldexp(np.ldexp(parts, k), -k), parts))
        first, second = (v.ldexp(k) for v in vecs)
        report = verify_certificate(q.ldexp(k), SosCertificate(cert_four.kind, first, second))
        assert report.residual == verify_certificate(q, cert_four).residual

    def test_zero_padded_components_same_residual(self, certified):
        q, cert = certified
        n, m = q.degree
        padded = SosCertificate(
            cert.kind,
            cert.vec_first.with_degree((n + 1, m + 2)),
            cert.vec_second.with_degree((n + 2, m + 1)),
            cert.weights,
        )
        assert verify_certificate(q, padded).residual == verify_certificate(q, cert).residual

    def test_over_degree_component_is_judged(self, cert_four):
        # a nonzero coefficient above the certificate's degree fails, not raises
        comps = list(cert_four.vec_second)
        comps[0] = comps[0] + poly({(3, 2): 1e-3})
        broken = SosCertificate(cert_four.kind, cert_four.vec_first, VectorPolynomial.of(comps))
        assert verify_certificate(four_minus_z_minus_w(), broken).residual > 1e-5

    def test_residual_bounds_polarized_error(self, certified):
        # |lhs - rhs| at pairs of closed-bidisk points, with the kernels
        # evaluated pointwise, over kappa sum |q_ij|^2, is at most the residual
        q, cert = certified
        broken = self.bumped(cert, 1e-4 * np.abs(cert.vec_first.coeffs[0]).max())
        rng = np.random.default_rng(3)
        z, w, zz, ww = np.sqrt(rng.uniform(0, 1, (4, 400))) * np.exp(2j * np.pi * rng.uniform(0, 1, (4, 400)))
        side_a = (1 - z * np.conj(zz)) * kernel(broken.vec_first, z, w, zz, ww)
        side_b = (1 - w * np.conj(ww)) * kernel(broken.vec_second, z, w, zz, ww)
        q1, q2 = q.evaluate(z, w), np.conj(q.evaluate(zz, ww))
        n, m = q.degree
        if cert.kind is CertKind.COLE_WERMER:
            qr = reflect(q)
            kappa = 1.0
            err = q1 * q2 - qr.evaluate(z, w) * np.conj(qr.evaluate(zz, ww)) - side_a - side_b
        else:
            a, b = cert.weights
            kappa = a * n + b * m
            qz, qw = q.partial_z(), q.partial_w()
            dz1, dw1 = a * z * qz.evaluate(z, w), b * w * qw.evaluate(z, w)
            dz2, dw2 = np.conj(a * zz * qz.evaluate(zz, ww)), np.conj(b * ww * qw.evaluate(zz, ww))
            if cert.kind is CertKind.SYMMETRIC:
                err = kappa * q1 * q2 - (dz1 + dw1) * q2 - q1 * (dz2 + dw2) - side_a - side_b
            else:
                err = (b * m - a * n) * q1 * q2 + (dz1 - dw1) * q2 + q1 * (dz2 - dw2) + side_a - side_b
        pointwise = np.max(np.abs(err)) / (kappa * np.sum(np.abs(q.coeffs) ** 2))
        residual = verify_certificate(q, broken).residual
        assert 1e-3 * residual < pointwise <= residual

    def test_overflowing_certificate_fails_quietly(self, cert_four):
        big = SosCertificate(cert_four.kind, cert_four.vec_first.scaled(1e200), cert_four.vec_second)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not verify_certificate(four_minus_z_minus_w(), big).passed


def kummert_contraction_3x3_seed301():
    """The benchmark's seed-301 ``kummert_contraction_3x3.r0`` sos input."""
    (found,) = [
        x
        for x in load_gen().generate("sos_certify", 301)[0]
        if x.name == "kummert_contraction_3x3.r0"
    ]
    return BivariatePolynomial(found.coeffs)


EXTREME_SCALE_INPUTS = {
    "two_minus_z_minus_w": two_minus_z_minus_w,
    "kummert_contraction_3x3": kummert_contraction_3x3_seed301,
}


SCALE_BUILDS = {
    "direct": (four_minus_z_minus_w(), sos_certificate),
    "dilation": (two_minus_z_minus_w(), sos_certificate),
    "weighted": (symmetrize(one_minus_z3w2()), lambda q: sym_sos_certificate(q, 1.0, 2.0)),
}


@functools.cache
def unscaled_components(name):
    q, build = SCALE_BUILDS[name]
    cert = build(q)
    return [c for v in (cert.vec_first, cert.vec_second) for c in v]


class TestScaleFreeConstruction:
    """Construction divides q by a power of two on entry and multiplies both
    vectors back, so every certificate is covariant under q -> 2^k q."""

    @pytest.mark.parametrize("name", sorted(SCALE_BUILDS))
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_power_of_two_scales_the_certificate(self, name, k):
        q, build = SCALE_BUILDS[name]
        comps = unscaled_components(name)
        parts = np.concatenate([c.coeffs.ravel() for c in [q, *comps]]).view(np.float64)
        # 2^k q and 2^k cert are exact unless a coefficient leaves the normal range
        assume(np.array_equal(np.ldexp(np.ldexp(parts, k), -k), parts))
        cert = build(q.ldexp(k))
        got = [c for v in (cert.vec_first, cert.vec_second) for c in v]
        assert len(got) == len(comps)
        for g, c in zip(got, comps):
            assert np.array_equal(g.coeffs, c.ldexp(k).coeffs)

    @pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("name", sorted(EXTREME_SCALE_INPUTS))
    def test_extreme_scales_certify(self, name, c):
        # "moment window did not converge" after overflow warnings at large
        # c, a false "fiber root inside the closed disk" at 1e-300
        q = BivariatePolynomial(c * EXTREME_SCALE_INPUTS[name]().coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = sos_certificate(q)
            assert verify_certificate(q, cert).passed
