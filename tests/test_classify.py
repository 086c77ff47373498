import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    derived_symmetric_poly,
    fiber_at,
    four_minus_z_minus_w,
    haar_dv,
    haar_unitary,
    kummert,
    one_minus_z3w2,
    poly,
    two_minus_z_minus_w,
    w3_minus_z2,
    z3_minus_w2,
)
from dvkit.classify import (
    TOL,
    FiberError,
    ZeroClass,
    ZeroLabel,
    classify_zero_set,
    fiber_root_pairs,
    fiber_roots,
    _definite_on_circle,
    _FourierSeries,
    is_squarefree,
    repeated_root,
    root_count_in_disk,
    schur_cohn_matrix,
    torus_singularities,
)
from dvkit.dvrep import UnitaryRealization, det_representation
from dvkit.poly2 import (
    BivariatePolynomial,
    blaschke_dv,
    derived_dv_poly,
    reflected_derivatives,
    swap_transform,
    symmetrize,
    symmetry_constant,
    transpose_vars,
)


def unimodular_resultant_roots(p1, p2, nodes=32):
    """Unimodular roots z of res_w(p1, p2), from Sylvester determinants at
    roots of unity."""
    a, b = p1.degree[1], p2.degree[1]
    zs = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = []
    for z in zs:
        f, g = p1.fibers(z)[::-1], p2.fibers(z)[::-1]
        syl = np.zeros((a + b, a + b), dtype=np.complex128)
        for k in range(b):
            syl[k, k : k + a + 1] = f
        for k in range(a):
            syl[b + k, k : k + b + 1] = g
        vals.append(np.linalg.det(syl))
    # fft, not ifft: p(zeta^k) = sum_j c_j zeta^(jk) is a forward transform.
    coeffs = np.fft.fft(vals) / nodes
    deg = p1.degree[0] * b + p2.degree[0] * a
    roots = np.roots(coeffs[: deg + 1][::-1])
    return roots[np.abs(np.abs(roots) - 1.0) < 1e-6]


class TestFiberRoots:
    def test_square_root_fiber(self):
        roots = sorted(fiber_roots(z3_minus_w2(), 0.25).real)
        assert np.allclose(roots, [-0.125, 0.125], atol=1e-12)

    def test_linear_fiber(self):
        roots = fiber_roots(poly({(0, 0): 4, (1, 0): -1, (0, 1): -1}), 0)
        assert len(roots) == 1 and abs(roots[0] - 4) < 1e-12

    def test_constant_fiber_has_no_roots(self):
        assert len(fiber_roots(one_minus_z3w2(), 0)) == 0

    def test_degenerate_fiber_raises(self):
        with pytest.raises(FiberError):
            fiber_roots(poly({(1, 0): 1, (1, 1): 1}), 0)  # z(1 + w) at z = 0

    def test_roots_are_the_scalar_companion_eigenvalues(self):
        # bit for bit: ones on the subdiagonal, -c_k / c_d in the last column
        rng = np.random.default_rng(45)
        p = BivariatePolynomial(rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)))
        zs = np.exp(2j * np.pi * np.arange(32) / 32)
        c = p.fibers(zs)
        comp = np.zeros((32, 5, 5), dtype=np.complex128)
        comp[:, 1:, :-1] = np.eye(4)
        comp[:, :, -1] = -c[:, :-1] / c[:, -1:]
        k, w = fiber_root_pairs(p, zs)
        assert np.array_equal(k, np.repeat(np.arange(32), 5))
        assert np.array_equal(w, np.linalg.eigvals(comp).ravel())

    @pytest.mark.parametrize("eps, count", [(1e-11, 2), (1e-13, 1)])
    def test_trim_drops_a_leading_coefficient_at_1e_12(self, eps, count):
        # the fiber of eps w^2 + w - 1/2 + z/10 at z = 0.3 has largest
        # coefficient 1, so its w^2 term stays at 1e-11 and goes at 1e-13;
        # FIBER_TRIM at 1e-10 or 1e-14 gets one of the two wrong
        p = poly({(0, 2): eps, (0, 1): 1, (0, 0): -0.5, (1, 0): 0.1})
        assert len(fiber_root_pairs(p, [0.3])[1]) == count

    def test_swap_exchanges_fibers(self):
        # roots of swap_transform(p)(z, .) equal roots of p(1/z, .)
        p = z3_minus_w2()
        q = swap_transform(p)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
            a = np.sort_complex(fiber_roots(q, z))
            b = np.sort_complex(fiber_roots(p, 1 / z))
            assert np.allclose(a, b, atol=1e-9)


def per_z_fiber_roots(p, zs):
    out = []
    for z in np.ravel(zs):
        try:
            out.append(fiber_roots(p, complex(z)))
        except FiberError:
            out.append(None)
    return out


class TestBatchedSweep:
    # z w^2 + w - 1/2 drops to w-degree 1 at z = 0; z (w - 1/2) + 0.3 z^2 w^2
    # vanishes identically there.  z = 0 is the first point of every sweep.
    CASES = {
        "degree_drop": (poly({(1, 2): 1, (0, 1): 1, (0, 0): -0.5}), 1),
        "zero_fiber": (poly({(1, 1): 1, (1, 0): -0.5, (2, 2): 0.3}), None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fallback_fibers_match_per_z(self, case):
        # the sweep's fibers of reduced or zero degree sit in the same batch
        # as the full ones; each must get the roots a lone solve gives it
        p, at_zero = self.CASES[case]
        zs = np.concatenate([[0.0], 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)])
        k, w = fiber_root_pairs(p, zs)
        got = [w[k == i] for i in range(len(zs))]
        want = per_z_fiber_roots(p, zs)
        if at_zero is None:
            assert want[0] is None and len(got[0]) == 0
        else:
            assert len(got[0]) == at_zero
        for a, b in zip(got, want):
            if b is None:
                assert len(a) == 0
            else:
                assert np.allclose(np.sort_complex(a), np.sort_complex(b), rtol=0, atol=1e-12)

    def test_pairs_match_per_fiber_roots(self):
        # w-coefficient columns c_j(z), dyadic so that they vanish exactly:
        # the fiber is cubic in general, linear at z = 0, quadratic at
        # z = 1/2, a nonzero constant at z = -1/2 and zero at z = i/2
        cols = [[0.5j], [-0.5, 0.5j], [0, -0.5, 0.5j], [0, 0.5, -0.5, 0.5j]]
        grid = np.zeros((5, 4), dtype=np.complex128)
        for j, roots in enumerate(cols):
            c = np.polynomial.polynomial.polyfromroots(roots)
            grid[: len(c), j] = c
        p = BivariatePolynomial(grid)
        full = 0.8 * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
        zs = np.array([full[0], 0.5, 0.0, -0.5, full[1], 0.5j, full[2], 0.0, 0.5, full[3]])
        degrees = [3, 2, 1, 0, 3, -1, 3, 1, 2, 3]
        k, w = fiber_root_pairs(p, zs)
        assert np.all(np.diff(k) >= 0)
        assert np.bincount(k, minlength=len(zs)).tolist() == [max(d, 0) for d in degrees]
        for i, (z, d) in enumerate(zip(zs, degrees)):
            fiber = p.fibers(z)
            assert not np.any(fiber[d + 1 :]) and (d < 0 or fiber[d] != 0)
            if d > 0:
                dist = np.abs(w[k == i][:, None] - np.roots(fiber[: d + 1][::-1]))
                assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_indeterminate_witnesses_are_zeros(self, case):
        p, _ = self.CASES[case]
        zc = classify_zero_set(p)
        assert zc.label is ZeroLabel.INDETERMINATE
        assert zc.witnesses
        for z, w in zc.witnesses:
            assert abs(p.evaluate(z, w)) <= TOL * p.scale


class TestSchurCohn:
    @staticmethod
    def toeplitz_definition(a):
        m = len(a) - 1
        t1 = np.zeros((m, m), dtype=np.complex128)
        t2 = np.zeros((m, m), dtype=np.complex128)
        for i in range(m):
            for k in range(i + 1):
                t1[i, k] = a[i - k]
                t2[i, k] = np.conj(a[m - (i - k)])
        return t1.conj().T @ t1 - t2.conj().T @ t2

    @pytest.mark.parametrize("m", range(6))
    def test_matches_toeplitz_definition(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(4, m + 1)) + 1j * rng.normal(size=(4, m + 1))
        got = schur_cohn_matrix(a)
        assert got.shape == (4, m, m)
        for row, mat in zip(a, got):
            assert np.max(np.abs(mat - self.toeplitz_definition(row)), initial=0.0) <= 1e-13

    def test_negative_inertia_counts_roots_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            roots = rng.uniform(0.2, 1.8, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
            a = np.poly(roots)[::-1] * np.exp(2j * np.pi * rng.uniform())
            eig = np.linalg.eigvalsh(schur_cohn_matrix(a))
            assert np.sum(eig < 0) == np.sum(np.abs(roots) < 1)

    def test_root_at_infinity_counts_outside(self):
        # 0.3 + w at formal degree 2: one root inside, one at infinity
        eig = np.linalg.eigvalsh(schur_cohn_matrix([0.3, 1.0, 0.0]))
        assert np.sum(eig < 0) == 1 and np.sum(eig > 0) == 1


class TestRootCount:
    def test_two_roots_inside(self):
        assert root_count_in_disk(fiber_at(z3_minus_w2(), 0.5)) == 2

    def test_root_outside(self):
        assert root_count_in_disk(fiber_at(four_minus_z_minus_w(), 0.3)) == 0

    def test_exterior_roots(self):
        assert root_count_in_disk(fiber_at(one_minus_z3w2(), 0.5)) == 0

    def test_constant_over_disk(self):
        rng = np.random.default_rng(2)
        p = z3_minus_w2()
        counts = {
            root_count_in_disk(fiber_at(p, complex(0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))))
            for _ in range(20)
        }
        assert counts == {2}

    def test_zero_on_circle_rejected(self):
        # 1 - zw has |w| = 1 root when |z| = 1
        with pytest.raises(FiberError):
            root_count_in_disk(fiber_at(poly({(0, 0): 1, (1, 1): -1}), np.exp(0.3j)))


class TestCircleProof:
    """_definite_on_circle proves sign * S_w(z) positive definite on all of
    T from finitely many samples."""

    @staticmethod
    def dense_least_eigenvalue(p, sign, count=1 << 16):
        z = np.exp(2j * np.pi * np.arange(count) / count)
        return float(np.min(np.linalg.eigvalsh(sign * schur_cohn_matrix(p.fibers(z)))))

    @staticmethod
    def dense_definite(p, sign, count=1 << 16):
        # Cholesky succeeds exactly where the least eigenvalue is positive,
        # at a third of the cost of computing it
        z = np.exp(2j * np.pi * np.arange(count) / count)
        try:
            for f in np.split(p.fibers(z), 64):
                np.linalg.cholesky(sign * schur_cohn_matrix(f))
        except np.linalg.LinAlgError:
            return False
        return True

    @pytest.mark.parametrize("seed", range(3))
    def test_proven_means_definite_on_a_dense_grid(self, seed):
        # Near-singular by construction: a product of two rotated
        # 2 + delta - z - w dips to about 2 delta at one point of T, so its
        # proof must bisect there; Kummert det(I - rho K diag(z, w)) with K
        # Haar unitary is definite for rho < 1 and has zeros in the bidisk
        # for rho > 1; the p_w side of a Haar variety is negative definite,
        # and that of a product of two varieties reaches 0 where they cross.
        rng = np.random.default_rng(600 + seed)
        cases = []
        for delta in 10.0 ** -rng.uniform(1, 7, size=3):
            q = poly({(0, 0): 1})
            for a, b in np.exp(2j * np.pi * rng.uniform(size=(2, 2))):
                q = q * poly({(0, 0): 2 + delta, (1, 0): -a, (0, 1): -b})
            cases.append((q, 1))
        k = haar_unitary(rng, 3)
        for rho in (0.999, 1.001):
            cases.append((BivariatePolynomial(kummert(rho * k, 2, 1)), 1))
        dv = BivariatePolynomial(haar_dv(haar_unitary(rng, 8), 4, 4))
        one = BivariatePolynomial(haar_dv(haar_unitary(rng, 2), 1, 1))
        two = BivariatePolynomial(haar_dv(haar_unitary(rng, 4), 2, 2))
        cases += [(dv.partial_w(), -1), ((one * two).partial_w(), -1)]
        outcomes = set()
        for p, sign in cases:
            z, _, _, proven = _definite_on_circle(p, sign)
            if proven:
                assert self.dense_least_eigenvalue(p, sign) > 0
            outcomes.add((proven, proven and len(z) > 64))
        # proven on the base grid, proven after bisection, and unproven
        assert outcomes == {(True, False), (True, True), (False, False)}

    @staticmethod
    def random_samples(count, shift=0.0):
        # S_w of a random degree-(3, 2) polynomial at count points of T
        # turned by shift, with the largest squared fiber coefficient norm
        rng = np.random.default_rng(5)
        p = BivariatePolynomial(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
        fibers = p.fibers(np.exp(1j * (2 * np.pi * np.arange(count) / count + shift)))
        return schur_cohn_matrix(fibers), float(np.max(np.sum(np.abs(fibers) ** 2, axis=1)))

    def test_arc_curvature_bounds_second_differences_inside_its_arc(self):
        n, s_at = 3, self.random_samples
        s, unit = s_at(2 * n + 1)
        series = _FourierSeries(s, n)
        # 64 arcs of width 2 pi / 64, each holding 64 of 4096 points
        arcs, count, h = 64, 4096, 1e-3
        at_mid, third = series.arc_curvature(2 * np.pi * (np.arange(arcs) + 0.5) / arcs, unit)
        own = at_mid + np.pi / arcs * third
        shift = np.pi / count
        second = (s_at(count, shift + h)[0] - 2 * s_at(count, shift)[0] + s_at(count, shift - h)[0]) / h**2
        peak = np.max(np.abs(np.linalg.eigvalsh(second)), axis=1)
        assert np.all(peak.reshape(arcs, -1) <= own[:, None])
        # 2 sum_k k^2 ||S_k||_F bounds ||S''|| on all of T; on a base arc,
        # where (h/2) k <= pi/2 for every k, the arc's own K stays within
        # (1 + pi/2) of it, and on most arcs it is well below it
        coeffs = np.fft.fft(s, axis=0)[1 : n + 1] / len(s)
        k = np.arange(1, n + 1)
        whole = 2 * float(k**2 @ np.linalg.norm(coeffs, axis=(1, 2)))
        assert np.all(own <= (1 + np.pi / 2) * whole)
        assert np.median(own) < 0.75 * whole

    @pytest.mark.parametrize("d", [8, 14])
    def test_haar_variety_sides_are_proven(self, d):
        # The p_w sides of a Haar variety are negative definite on T.  At
        # d = 14 each arc's own K, from S'' at its midpoint, proves both
        # sides in about 500 samples; under 2 sum k^2 ||S_k||, a bound on
        # ||S''|| over all of T, the arcs about the least eigenvalue stay
        # unproven even at width 2 pi / 4096.
        rng = np.random.default_rng(1000 * d + 1)
        p = BivariatePolynomial(haar_dv(haar_unitary(rng, 2 * d), d, d))
        for q in (p, transpose_vars(p)):
            side = q.partial_w()
            _, _, _, proven = _definite_on_circle(side, -1)
            assert proven and self.dense_definite(side, -1)

    def test_z_degree_32_takes_2n_plus_1_base_samples(self):
        # the Fourier coefficients of S_w need 2n + 1 = 65 samples: for
        # 1 + i z^32 / 2 - w, S_w = 1/4 - sin(32 t) reads 1/4 at all 64th
        # roots of unity, where it would look constant and proven
        p = poly({(0, 0): 1, (32, 0): 0.5j, (0, 1): -1})
        assert classify_zero_set(p).label is ZeroLabel.INDETERMINATE

    def test_rotated_two_minus_z_minus_w_stays_unproven(self):
        # the torus zero puts the least eigenvalue at 0 between samples
        for a in (0.3, 1.7, 2.9):
            p = poly({(0, 0): 2, (1, 0): -np.exp(1j * a), (0, 1): -np.exp(-0.4j)})
            _, lam, _, proven = _definite_on_circle(p, 1)
            assert not proven and np.min(lam) > 0


class TestClassification:
    def test_dv_example(self):
        assert classify_zero_set(z3_minus_w2()).label is ZeroLabel.DV_DEFINING

    def test_symmetric_nonvanishing(self):
        q = symmetrize(one_minus_z3w2())
        assert (
            classify_zero_set(q).label is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS
        )

    def test_stable_closed(self):
        assert classify_zero_set(four_minus_z_minus_w()).label is ZeroLabel.STABLE_CLOSED

    def test_stable_open(self):
        assert classify_zero_set(two_minus_z_minus_w()).label is ZeroLabel.STABLE_OPEN

    def test_derived_dv(self):
        assert classify_zero_set(derived_dv_poly(z3_minus_w2())).label is ZeroLabel.DV_DEFINING

    def test_affirmative_labels_have_no_witnesses(self):
        zc = classify_zero_set(z3_minus_w2())
        assert zc.witnesses == ()

    def test_affirmative_label_refuses_witnesses(self):
        with pytest.raises(ValueError, match="cannot carry witnesses"):
            ZeroClass(ZeroLabel.STABLE_OPEN, ((0j, 0j),))

    def test_indeterminate_collects_witnesses(self):
        # zeros crossing both (D x T) and (D x D): (w - 1/2)(w - 2) = scaled
        p = poly({(0, 0): 1, (0, 1): -2.5, (0, 2): 1}, (1, 2)) + poly({(1, 0): 1e-3})
        zc = classify_zero_set(p)
        assert zc.label is ZeroLabel.INDETERMINATE
        assert len(zc.witnesses) > 0

    def test_symmetric_with_fibers_off_the_circle_is_indeterminate(self):
        # (2w - 1)(2 - w) is torus-symmetric, but its w-fibers keep the roots
        # 1/2 and 2 off the circle: the sampled fiber check refuses both
        # symmetric labels, and the sweep finds zeros on w = 1/2
        p = poly({(0, 1): 2, (0, 0): -1}) * poly({(0, 0): 2, (0, 1): -1})
        assert symmetry_constant(p) is not None
        zc = classify_zero_set(p)
        assert zc.label is ZeroLabel.INDETERMINATE
        assert len(zc.witnesses) == 16
        assert all(abs(w - 0.5) <= 1e-12 for _, w in zc.witnesses)

    def test_symmetric_with_split_fiber_at_zero_is_indeterminate(self):
        # (w - z)(1 - zw) passes both circle checks unproven, but its fiber
        # at z = 0 is w alone: one root in the disk of the m = 2 a fiber has
        # elsewhere, so the count there gives neither m nor 0
        p = poly({(0, 1): 1, (1, 0): -1}) * poly({(0, 0): 1, (1, 1): -1})
        assert symmetry_constant(p) is not None
        zc = classify_zero_set(p)
        assert zc.label is ZeroLabel.INDETERMINATE
        assert zc.witnesses
        assert all(abs(z) + abs(w) <= 1e-12 for z, w in zc.witnesses)

    def test_swap_duality_both_directions(self):
        for p in (z3_minus_w2(), w3_minus_z2(), blaschke_dv(2, [0.4, -0.2]), derived_dv_poly(z3_minus_w2())):
            assert classify_zero_set(p).label is ZeroLabel.DV_DEFINING
            q = swap_transform(symmetrize(p))
            assert (
                classify_zero_set(q).label
                is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS
            )
            back = swap_transform(q)
            assert classify_zero_set(back).label is ZeroLabel.DV_DEFINING

    def test_derived_symmetric_reclassifies_iterated(self):
        q = symmetrize(one_minus_z3w2())
        for _ in range(2):
            q = derived_symmetric_poly(q)
            q = symmetrize(q)
            assert (
                classify_zero_set(q).label
                is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS
            )


def scale_cases():
    rng = np.random.default_rng(301)
    gaussian = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {
        "two_minus_z_minus_w": two_minus_z_minus_w(),
        "kummert_3x3": BivariatePolynomial(kummert(0.8 * haar_unitary(rng, 6), 3, 3)),
        "kummert_unitary_2x2": BivariatePolynomial(kummert(haar_unitary(rng, 4), 2, 2)),
        "haar_dv_3x3": BivariatePolynomial(haar_dv(haar_unitary(rng, 6), 3, 3)),
        "haar_dv_3x3_T": BivariatePolynomial(haar_dv(haar_unitary(rng, 6), 3, 3).T),
        "gaussian_3x3": BivariatePolynomial(gaussian),
    }


SCALE_CASES = scale_cases()


def outcome(p):
    zc = classify_zero_set(p)
    return zc.label, zc.proven, zc.witnesses


class TestScaleFree:
    """Every label is covariant under p -> c p; classification divides p by
    a power of two on entry, so 2^k p gets the result of p itself."""

    @pytest.mark.parametrize("name", sorted(SCALE_CASES))
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_power_of_two_scales_agree(self, name, k):
        p = SCALE_CASES[name]
        parts = np.ascontiguousarray(p.coeffs).view(np.float64)
        # 2^k p is exact unless a coefficient leaves the normal range
        assume(np.array_equal(np.ldexp(np.ldexp(parts, k), -k), parts))
        assert outcome(p.ldexp(k)) == outcome(p)

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("name", ["two_minus_z_minus_w", "kummert_3x3"])
    def test_extreme_scales_keep_the_label(self, name, c):
        # the squared fiber coefficients of c p overflowed or underflowed:
        # c (2 - z - w) read as a proven StableClosed, Kummert as StableOpen
        p = SCALE_CASES[name]
        zc = classify_zero_set(BivariatePolynomial(c * p.coeffs))
        assert (zc.label, zc.proven) == outcome(p)[:2]


class TestVerticalLines:
    """A factor in z alone puts a line {z0} x C in the zero set, which no
    w-fiber sweep sees."""

    @pytest.mark.parametrize(
        "p",
        [
            poly({(0, 0): -1, (1, 0): 2, (0, 1): 0.5, (1, 1): -1}),  # (z - 1/2)(2 - w)
            poly({(0, 0): -0.5, (1, 0): 1}),  # z - 1/2
        ],
        ids=["z_half_times_two_minus_w", "z_half"],
    )
    def test_line_inside_disk_is_witnessed(self, p):
        zc = classify_zero_set(p)
        assert zc.label is ZeroLabel.INDETERMINATE
        assert zc.witnesses
        for z, w in zc.witnesses:
            assert abs(p.evaluate(z, w)) <= TOL * p.scale

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_line_on_circle_is_stable_open(self, angle):
        # at angle 0.3 the line misses every grid point
        p = poly({(0, 0): 1, (1, 0): -np.exp(1j * angle)})
        assert classify_zero_set(p).label is ZeroLabel.STABLE_OPEN

    def test_line_on_circle_times_stable_factor(self):
        p = poly({(0, 0): 1, (1, 0): -1}) * two_minus_z_minus_w()
        assert classify_zero_set(p).label is ZeroLabel.STABLE_OPEN

    def test_line_outside_disk_stays_stable_closed(self):
        assert classify_zero_set(poly({(0, 0): 2, (1, 0): -1})).label is ZeroLabel.STABLE_CLOSED


class TestTildeNoZeros:
    def test_reflected_derivatives_nonvanishing(self):
        # for symmetric q with no zeros off the torus, the reflected
        # derivatives and their positive combinations stay zero-free on the
        # closed bidisk away from their common zero set
        rng = np.random.default_rng(9)
        for p in (z3_minus_w2(), blaschke_dv(2, [0.3, 0.1j])):
            q = symmetrize(swap_transform(symmetrize(p)))
            qz_ref, qw_ref = reflected_derivatives(q)
            r = np.sqrt(np.linspace(0.01, 0.96, 40))
            ang = np.exp(2j * np.pi * np.arange(40) / 40)
            zg = (r[:, None] * ang[None, :]).ravel()
            vals_z = np.abs(qz_ref.evaluate(zg[:, None], zg[None, :]))
            vals_w = np.abs(qw_ref.evaluate(zg[:, None], zg[None, :]))
            assert np.min(vals_z) > 1e-7
            assert np.min(vals_w) > 1e-7
            a, b = rng.uniform(0.2, 2.0, 2)
            comb = np.abs(
                a * qz_ref.evaluate(zg[:, None], zg[None, :])
                + b * qw_ref.evaluate(zg[:, None], zg[None, :])
            )
            common = np.minimum(vals_z, vals_w)
            assert np.min(comb[common > 1e-6]) > 1e-7


def assert_reaches_newton_search(p):
    # dv_certificate takes smoothness from a proven DVDefining label and runs
    # torus_singularities only on an unproven one; a singular variety must
    # never be proven.
    zc = classify_zero_set(p)
    assert zc.label is ZeroLabel.DV_DEFINING
    assert not zc.proven


class TestTorusSingularities:
    def test_smooth_example(self):
        assert torus_singularities(z3_minus_w2()).smooth_on_torus

    def test_linear_smooth(self):
        assert torus_singularities(poly({(1, 0): 1, (0, 1): -1})).smooth_on_torus

    def test_singular_curve_detected(self):
        zw1 = poly({(1, 1): 1, (0, 0): -1})
        report = torus_singularities(zw1 * zw1)
        assert not report.smooth_on_torus
        for z, w in report.points:
            assert abs(z * w - 1) < 1e-6

    def test_isolated_torus_singularity(self):
        p = z3_minus_w2() * poly({(1, 0): 1, (0, 1): -1})
        report = torus_singularities(p)
        assert not report.smooth_on_torus

    @pytest.mark.parametrize("seed", range(10))
    def test_crossings_of_two_haar_varieties_all_found(self, seed):
        # Two distinguished varieties cross on the torus exactly where their
        # w-resultant has a unimodular root; every crossing is a node of the
        # product, and none may be lost at the gate.
        rng = np.random.default_rng(seed)
        p1 = det_representation(UnitaryRealization(2, 2, haar_unitary(rng, 4)))
        p2 = det_representation(UnitaryRealization(3, 3, haar_unitary(rng, 6)))
        expected = len(unimodular_resultant_roots(p1, p2))
        assert_reaches_newton_search(p1 * p2)
        report = torus_singularities(p1 * p2)
        assert len(report.points) == expected
        for z, w in report.points:
            assert abs(p1.evaluate(z, w)) <= 1e-10 * p1.scale
            assert abs(p2.evaluate(z, w)) <= 1e-10 * p2.scale

    def test_nodes_off_the_sweep_grid(self):
        # (z - w)(z^3 - e^{0.7i} w) is singular exactly where z^2 = e^{0.7i}
        # and w = z, at angles that no 128th root of unity hits.
        p = poly({(1, 0): 1, (0, 1): -1}) * poly({(3, 0): 1, (0, 1): -np.exp(0.7j)})
        assert_reaches_newton_search(p)
        report = torus_singularities(p)
        root = np.exp(0.35j)
        expected = [(root, root), (-root, -root)]
        assert len(report.points) == 2
        for z0, w0 in expected:
            assert any(abs(z - z0) <= 1e-10 and abs(w - w0) <= 1e-10 for z, w in report.points)


class TestSquarefree:
    def test_squarefree_accepted(self):
        assert is_squarefree(z3_minus_w2())
        assert is_squarefree(poly({(0, 3): 1, (3, 0): -1}))

    def test_repeated_factor_rejected(self):
        zw1 = poly({(1, 1): 1, (0, 0): -1})
        assert not is_squarefree(zw1 * zw1)
        p = z3_minus_w2()
        assert not is_squarefree(p * p)
        one_minus_w = poly({(0, 0): 1, (0, 1): -1})
        assert not is_squarefree(one_minus_w * one_minus_w)
        # a repeated factor free of w leaves every w-fiber squarefree
        z_half = poly({(0, 0): -0.5, (1, 0): 1})
        assert not is_squarefree(z_half * z_half * z3_minus_w2())

    def test_repeated_root_located(self):
        assert repeated_root(z3_minus_w2()) is None
        one_minus_w = poly({(0, 0): 1, (0, 1): -1})
        var, _, root, k = repeated_root(one_minus_w * one_minus_w * z3_minus_w2())
        assert (var, k) == ("w", 2) and abs(root - 1.0) <= 1e-8
        z_half = poly({(0, 0): -0.5, (1, 0): 1})
        var, _, root, k = repeated_root(z_half * z_half * z3_minus_w2())
        assert (var, k) == ("z", 2) and abs(root - 0.5) <= 1e-8

    def test_constant_fibers_have_no_repeated_root(self):
        # 2 - z declared at degree (1, 1): every w-fiber is a nonzero constant
        assert repeated_root(poly({(0, 0): 2, (1, 0): -1}, (1, 1))) is None

    def test_zero_fibers_give_a_nan_root(self):
        # the zero polynomial: every fiber vanishes, at its formal degree 1
        var, _, root, k = repeated_root(poly({}, (1, 1)))
        assert var == "w" and np.isnan(root) and k == 1

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_repeated_root_is_scale_free(self, k):
        # p is divided by a power of two on entry, so 2^k p finds the same root
        one_minus_w = poly({(0, 0): 1, (0, 1): -1})
        for p in (z3_minus_w2(), one_minus_w * one_minus_w * z3_minus_w2()):
            parts = np.ascontiguousarray(p.coeffs).view(np.float64)
            assume(np.array_equal(np.ldexp(np.ldexp(parts, k), -k), parts))
            assert repeated_root(p.ldexp(k)) == repeated_root(p)

    @pytest.mark.parametrize("seed", range(8))
    def test_haar_varieties_and_their_squares(self, seed):
        # the least |p_w| over a fiber's roots does not shrink with the
        # number of roots, so degree 6 is accepted like degree 2
        rng = np.random.default_rng(seed)
        for d in range(2, 7):
            coeffs = haar_dv(haar_unitary(rng, 2 * d), d, d)
            for grid in (coeffs, coeffs.T):
                p = BivariatePolynomial(grid)
                assert is_squarefree(p)
                assert not is_squarefree(p * p)
