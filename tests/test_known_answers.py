"""Seeded inputs whose labels and certificates are known from their
construction, run through classification and the sums-of-squares route.

The constructions are written out here with numpy alone, so that they do
not move with the library:

* Haar-unitary distinguished varieties (Agler-McCarthy, Acta Math. 2005):
  for a Haar unitary U = [[A, B], [C, D]], A of size m,
  det [[A - wI, zB], [C, zD - I]] defines a distinguished variety.
* Kummert polynomials det(I - K diag(z I_n, w I_m)) (Kummert 1989): a
  contraction K gives no zeros on the closed bidisk; a unitary K gives a
  torus-symmetric polynomial whose zeros off the torus avoid the closed
  bidisk.

A torus rotation (z, w) -> (e^{ia} z, e^{ib} w) times a unimodular factor
preserves every answer.
"""

import numpy as np
import pytest

from conftest import haar_unitary, one_minus_z3w2, poly, two_minus_z_minus_w
from dvkit.classify import ZeroLabel, classify_zero_set
from dvkit.poly2 import BivariatePolynomial, reflected_derivatives, symmetrize
from dvkit.soscert import sos_certificate, sym_sos_certificate, verify_certificate


def from_values(fn, n, m):
    """Coefficients of the degree-(n, m) polynomial fn(z, w), read off its
    values at conjugate roots of unity by an inverse 2-D FFT."""
    zs = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    ws = np.exp(-2j * np.pi * np.arange(m + 1) / (m + 1))
    return np.fft.ifft2(fn(zs[:, None], ws[None, :]))


def haar_dv(u, m, n):
    a, b, c, d = u[:m, :m], u[:m, m:], u[m:, :m], u[m:, m:]

    def det(z, w):
        z, w = np.broadcast_arrays(z, w)
        mats = np.zeros(z.shape + (m + n, m + n), dtype=np.complex128)
        mats[..., :m, :m] = a - w[..., None, None] * np.eye(m)
        mats[..., :m, m:] = z[..., None, None] * b
        mats[..., m:, :m] = c
        mats[..., m:, m:] = z[..., None, None] * d - np.eye(n)
        return np.linalg.det(mats)

    return from_values(det, n, m)


def kummert(k, n, m):
    def det(z, w):
        z, w = np.broadcast_arrays(z, w)
        diag = np.concatenate(
            [np.repeat(z[..., None], n, -1), np.repeat(w[..., None], m, -1)], -1
        )
        return np.linalg.det(np.eye(n + m) - k * diag[..., None, :])

    return from_values(det, n, m)


def rotated(coeffs, rng):
    a, b, phase = np.exp(2j * np.pi * rng.uniform(size=3))
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    grid = phase * coeffs * (a ** np.arange(n + 1))[:, None] * (b ** np.arange(m + 1))[None, :]
    return BivariatePolynomial(grid)


DEGREES = [(1, 1), (2, 2), (3, 3)]


def assert_certifies(q, cert):
    report = verify_certificate(q, cert, grid_n=32)
    assert report.passed, (report.max_residual, report.polarized_residual)


@pytest.mark.parametrize("seed", range(3))
def test_rotated_two_minus_z_minus_w_is_stable_open_and_certifies(seed):
    q = rotated(two_minus_z_minus_w().coeffs, np.random.default_rng(seed))
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.STABLE_OPEN and not zc.proven
    assert_certifies(q, sos_certificate(q))


@pytest.mark.parametrize("n, m", DEGREES)
def test_unitary_kummert_is_symmetric_off_torus_and_certifies(n, m):
    rng = np.random.default_rng(10 + n)
    q = rotated(kummert(haar_unitary(rng, n + m), n, m), rng)
    assert classify_zero_set(q).label is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS
    assert_certifies(q, sos_certificate(q))


@pytest.mark.parametrize("n, m", DEGREES)
def test_contraction_kummert_is_proven_stable_closed(n, m):
    rng = np.random.default_rng(20 + n)
    q = rotated(kummert(0.8 * haar_unitary(rng, n + m), n, m), rng)
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.STABLE_CLOSED and zc.proven


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (3, 2), (3, 3)])
def test_haar_variety_is_dv_defining_both_ways(m, n):
    rng = np.random.default_rng(30 + 4 * m + n)
    coeffs = haar_dv(haar_unitary(rng, m + n), m, n)
    for grid in (coeffs, coeffs.T):
        q = rotated(grid, rng)
        assert classify_zero_set(q).label is ZeroLabel.DV_DEFINING


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
def test_reflected_derivative_combinations_of_one_minus_z3w2(a, b):
    # every fiber of the combination loses w-degree on the circle; a root
    # at infinity counts as outside the disk
    q = symmetrize(one_minus_z3w2())
    n, m = q.degree
    qz_ref, qw_ref = reflected_derivatives(q)
    g = (a * qz_ref).with_degree((n, m)) + (b * qw_ref).with_degree((n, m))
    zc = classify_zero_set(g)
    assert zc.label is ZeroLabel.STABLE_CLOSED and zc.proven
    cert = sym_sos_certificate(q, a, b)
    assert verify_certificate(q, cert, grid_n=32).passed


@pytest.mark.parametrize(
    "p, label",
    [
        (poly({(0, 0): -0.5, (1, 0): 1}), ZeroLabel.INDETERMINATE),  # z - 1/2
        (poly({(0, 0): 1, (1, 0): -1}), ZeroLabel.STABLE_OPEN),  # 1 - z
        (poly({(0, 0): 1, (1, 0): -np.exp(0.3j)}) * two_minus_z_minus_w(), ZeroLabel.STABLE_OPEN),
        (poly({(0, 0): -0.5, (1, 0): 1}) * two_minus_z_minus_w(), ZeroLabel.INDETERMINATE),
    ],
    ids=["z_half", "one_minus_z", "line_on_circle_times_two_minus_z_minus_w", "line_inside_times_two_minus_z_minus_w"],
)
def test_vertical_line_traps(p, label):
    zc = classify_zero_set(p)
    assert zc.label is label
    for z, w in zc.witnesses:
        assert abs(p.evaluate(z, w)) <= zc.tol * p.scale
