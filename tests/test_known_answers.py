"""Seeded inputs whose labels and certificates are known from their
construction, run through classification and the sums-of-squares route.

The constructions are written out here, in conftest and in
scripts/degree_survey.py with numpy alone, so that they do not move with
the library:

* Haar-unitary distinguished varieties (Agler-McCarthy, Acta Math. 2005):
  for a Haar unitary U = [[A, B], [C, D]], A of size m,
  det [[A - wI, zB], [C, zD - I]] defines a distinguished variety.
* Kummert polynomials det(I - K diag(z I_n, w I_m)) (Kummert 1989): a
  contraction K gives no zeros on the closed bidisk; a unitary K gives a
  torus-symmetric polynomial whose zeros off the torus avoid the closed
  bidisk.  K of norm 1 gives no zeros on the open bidisk, and none on the
  torus unless K maps its top right singular vector v to a vector u with
  v = diag(z I_n, w I_m) u at some torus point, which a generic draw avoids.
* Products of linear factors 1 - a z - b w: a factor with |a| + |b| > 1
  vanishes in the open bidisk, at a depth of about |a| + |b| - 1.
* The node family (w - z)(den(z) w - num(z)), num/den an elliptic
  automorphism of the disk with fixed points 1 - eps and 1/(1 - eps): both
  factors are graphs of inner functions, so it defines a distinguished
  variety, whose one node lies eps inside the bidisk and none on the torus.

A torus rotation (z, w) -> (e^{ia} z, e^{ib} w) times a unimodular factor
preserves every answer.
"""

import numpy as np
import pytest

from conftest import (
    haar_dv,
    haar_unitary,
    kummert,
    linear_factor_products,
    node_family,
    one_minus_z3w2,
    poly,
    two_minus_z_minus_w,
)
from dvkit.classify import TOL, ZeroLabel, classify_zero_set, torus_singularities
from dvkit.dvrep import represent
from dvkit.extend import ExtensionOperator, verify_extension
from dvkit.poly2 import BivariatePolynomial, reflected_derivatives, symmetrize
from dvkit.soscert import gw_invertibility, sos_certificate, sym_sos_certificate, verify_certificate


def rotated(coeffs, rng):
    a, b, phase = np.exp(2j * np.pi * rng.uniform(size=3))
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    grid = phase * coeffs * (a ** np.arange(n + 1))[:, None] * (b ** np.arange(m + 1))[None, :]
    return BivariatePolynomial(grid)


DEGREES = [(1, 1), (2, 2), (3, 3), (4, 4)]


def norm_one(rng, size):
    """Singular values (1, 0.7, ..., 0.7) between Haar unitaries."""
    sv = np.full(size, 0.7)
    sv[0] = 1.0
    return (haar_unitary(rng, size) * sv) @ haar_unitary(rng, size)


def assert_certifies(q, cert):
    report = verify_certificate(q, cert)
    assert report.passed, report.residual


def wrong_labels(products):
    """(k, eps, label) of each product of :func:`linear_factor_products`
    not labelled Indeterminate with witnesses on its zero set in the closed
    bidisk."""
    wrong = []
    for k, eps, _, p in products:
        zc = classify_zero_set(p)
        if zc.label is not ZeroLabel.INDETERMINATE or not all(
            max(abs(z), abs(w)) <= 1 + 1e-12 and abs(p.evaluate(z, w)) <= TOL * p.scale
            for z, w in zc.witnesses
        ):
            wrong.append((k, eps, zc.label.value))
    return wrong


def test_linear_factor_products_with_a_zero_inside_are_indeterminate():
    # k factors, the first with |a| + |b| = 1 + eps and the others with
    # |a| + |b| ~ U(0.3, 0.99): a zero in the open bidisk at a depth of
    # about eps, over an arc of the circle narrower than the base samples,
    # which only the full-depth circle search reaches
    assert wrong_labels(linear_factor_products(eps=(1e-5, 1e-4, 1e-3, 1e-2))) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: at a depth of 1e-6 the circle search stops before it samples "
    "the arc over which the fibers have a root inside, and 3 of 30 products read StableOpen",
)
def test_linear_factor_products_with_a_zero_one_millionth_inside_are_indeterminate():
    # the 30 products at eps = 1e-6 of the degree survey's family, of which
    # one at k = 6 and two at k = 8 read StableOpen; once the circle proof
    # decides them this passes, which the strict xfail reports as a failure
    assert wrong_labels(x for x in linear_factor_products() if x[1] == 1e-6) == []


@pytest.mark.parametrize("eps", [1e-1, 3e-2, 1e-2])
def test_node_family_is_proven_and_represents_and_extends(eps):
    # the node eps inside the bidisk is still far enough from the torus for
    # the circle proof and the lurking isometry's Gram gate
    p = node_family(eps)
    zc = classify_zero_set(p)
    assert zc.label is ZeroLabel.DV_DEFINING and zc.proven
    cert, _, rep, report = represent(p)
    assert report.passed
    assert verify_extension(ExtensionOperator(rep, cert, BivariatePolynomial.from_terms({(0, 1): 1}))).passed


@pytest.mark.parametrize("eps", [1e-1, 3e-2, 1e-2, 5e-3, 3e-3, 2e-3, 1e-3, 3e-4])
def test_node_family_has_no_torus_singularity(eps):
    # the node lies eps inside the bidisk, not on the torus; near it |p|,
    # |p_z| and |p_w| are all small, so a point the gates on them pass must
    # also lie within TOL of the torus to count.  At eps = 3e-4 Newton's
    # method stops 4.5e-8 off the torus at a critical point of p where
    # |p_z| and |p_w| are about 1e-16 * scale but |p| = 2.4e-12 * scale:
    # not a point of the variety, and the gate |p| <= TOL^2 * scale
    # rejects it
    assert torus_singularities(symmetrize(node_family(eps))).points == ()


@pytest.mark.parametrize("seed", range(3))
def test_rotated_two_minus_z_minus_w_is_stable_open_and_certifies(seed):
    q = rotated(two_minus_z_minus_w().coeffs, np.random.default_rng(seed))
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.STABLE_OPEN and not zc.proven
    assert_certifies(q, sos_certificate(q))


@pytest.mark.parametrize("seed", range(4))
def test_rotated_two_minus_z_minus_w_fails_gw_invertibility(seed):
    # A(w) and B(z) are singular at the torus zero, which falls between the
    # circle samples; the determinant's zeros on the circle are found anyway
    q = rotated(two_minus_z_minus_w().coeffs, np.random.default_rng(100 + seed))
    gw = gw_invertibility(sos_certificate(q))
    assert not gw.passed
    assert max(gw.min_sv_first, gw.min_sv_second) <= 1e-12


@pytest.mark.parametrize("n, m", DEGREES)
def test_unitary_kummert_is_symmetric_off_torus_and_certifies(n, m):
    rng = np.random.default_rng(10 + n)
    q = rotated(kummert(haar_unitary(rng, n + m), n, m), rng)
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS and zc.proven
    assert_certifies(q, sos_certificate(q))


@pytest.mark.parametrize("n, m", DEGREES)
def test_contraction_kummert_is_proven_stable_closed(n, m):
    rng = np.random.default_rng(20 + n)
    q = rotated(kummert(0.8 * haar_unitary(rng, n + m), n, m), rng)
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.STABLE_CLOSED and zc.proven
    assert_certifies(q, sos_certificate(q))


@pytest.mark.parametrize("n, m", DEGREES)
def test_norm_one_kummert_is_proven_stable_closed_and_certifies(n, m):
    rng = np.random.default_rng(40 + n)
    q = rotated(kummert(norm_one(rng, n + m), n, m), rng)
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.STABLE_CLOSED and zc.proven
    assert_certifies(q, sos_certificate(q))


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (3, 2), (3, 3)])
def test_haar_variety_is_dv_defining_both_ways(m, n):
    rng = np.random.default_rng(30 + 4 * m + n)
    coeffs = haar_dv(haar_unitary(rng, m + n), m, n)
    for grid in (coeffs, coeffs.T):
        q = rotated(grid, rng)
        assert classify_zero_set(q).label is ZeroLabel.DV_DEFINING


def haar_family():
    """Haar varieties of degree (d, d), d = 2..6, drawn in turn from one
    generator seeded 0, the family of the classify_sweep benchmark."""
    rng = np.random.default_rng(0)
    return {d: haar_dv(haar_unitary(rng, 2 * d), d, d) for d in range(2, 7)}


@pytest.mark.parametrize("d", range(2, 7))
def test_haar_variety_round_trips_through_represent(d):
    # the realization's block determinant reproduces p; degree 6 reads up
    # to about 8e-13, the size of its certificate's Gram defect
    rng = np.random.default_rng(70 + d)
    coeffs = haar_family()[d]
    for grid in (coeffs, coeffs.T):
        q = rotated(grid, rng)
        assert classify_zero_set(q).label is ZeroLabel.DV_DEFINING
        _, _, _, report = represent(q)
        assert report.passed
        assert report.det_vs_p_rel <= 1e-11


def test_haar_6x6_transpose_is_proven_from_few_samples(monkeypatch):
    # each side's circle proof bisects only its undecided arcs, judged by
    # their own curvature bound: the sides take about 270 and 145 samples
    # where a uniform grid needed 4096
    import dvkit.classify

    samples = []
    prove = dvkit.classify._definite_on_circle

    def counted(*args, **kwargs):
        out = prove(*args, **kwargs)
        samples.append(len(out[0]))
        return out

    monkeypatch.setattr(dvkit.classify, "_definite_on_circle", counted)
    q = rotated(haar_family()[6].T, np.random.default_rng(80))
    zc = classify_zero_set(q)
    assert zc.label is ZeroLabel.DV_DEFINING and zc.proven
    assert len(samples) == 2 and max(samples) <= 320


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
    assert verify_certificate(q, cert).passed


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
        assert abs(p.evaluate(z, w)) <= TOL * p.scale
