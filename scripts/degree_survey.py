#!/usr/bin/env python3
"""Classify generated Haar distinguished varieties of growing degree, and
products of linear factors with a zero just inside the bidisk; survey the
extension constants of the curves w^m = B(z).

For each d and seed s the variety is det [[A - wI, zB], [C, zD - I]] for a
Haar unitary U = [[A, B], [C, D]] of size 2d drawn from
``default_rng(1000 d + s)``, A of size d: a distinguished variety of degree
(d, d) by construction (Agler-McCarthy 2005).  One line per variety reads

    d s label proven samples=a,b

with the label and proof flag of ``classify_zero_set`` and the number of
circle samples each of its circle proofs took, in call order.  Then one
line per product of k linear factors 1 - a z - b w, the first with
|a| + |b| = 1 + eps and so a zero at a depth of about eps in the open
bidisk, reads

    k eps draw label proven samples=a,b

for k in LINEAR_KS, eps in LINEAR_EPS and 6 draws each, all from one
``default_rng(5)`` (:func:`linear_factor_products`); the right label is
Indeterminate.  Then one line per eps in NODE_EPS of the node family
(:func:`node_family`), a distinguished variety of degree (2, 2) with a node
at a depth eps inside the bidisk, reads

    eps label proven torus_points=N

with N the number of points ``torus_singularities`` finds on its
symmetrization; the right answers are DVDefining and N = 0.  Last, one line
per curve w^m = B(z) of :func:`extension_survey`, B a Blaschke product,
reads

    curve: m=M C=c C_swapped=s

with c the extension constant sqrt(m) sup ||Q|| ||Q^{-1}|| of the curve's
determinantal representation and s that of the same realization with z and
w exchanged, "--" where that is refused.  Monomial B give exactly sqrt(m);
the rows show how far general numerator/denominator pairs drift from that
floor.  No timings are printed, so the output of two checkouts can be
compared with ``diff``:

    PYTHONPATH=src python scripts/degree_survey.py > new.txt
"""

from __future__ import annotations

import cmath

import numpy as np

import dvkit.classify
from dvkit.dvrep import UnitaryRealization, det_representation, represent
from dvkit.extend import extension_bound
from dvkit.poly2 import BivariatePolynomial, blaschke_dv, symmetrize

DEGREES = (8, 10, 11, 12, 13, 14, 15, 16, 18, 20)
SEEDS = (1, 2)
LINEAR_KS = (1, 2, 4, 6, 8)
LINEAR_EPS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
LINEAR_DRAWS = 6
NODE_EPS = (1e-1, 3e-2, 1e-2, 5e-3, 3e-3, 2e-3, 1e-3, 3e-4)


def haar_unitary(rng, size):
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed.

    ``tests/conftest.py`` loads this copy, so the tests and the survey
    share one generator."""
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_variety(d, seed):
    u = haar_unitary(np.random.default_rng(1000 * d + seed), 2 * d)
    return det_representation(UnitaryRealization(d, d, u))


def linear_factor(rng, total):
    """1 - a z - b w with |a| + |b| = total, split by s ~ U(0.05, 0.95),
    with uniform phases."""
    s = rng.uniform(0.05, 0.95)
    pa, pb = np.exp(2j * np.pi * rng.uniform(size=2))
    terms = {(0, 0): 1, (1, 0): -s * total * pa, (0, 1): -(1 - s) * total * pb}
    return BivariatePolynomial.from_terms(terms)


def linear_factor_products(ks=LINEAR_KS, eps=LINEAR_EPS, draws=LINEAR_DRAWS):
    """(k, e, draw, p) for each k in ``ks``, e in ``eps`` and draw: p the
    product of k linear factors, the first with |a| + |b| = 1 + e and the
    others with |a| + |b| ~ U(0.3, 0.99), all drawn in turn from one
    ``default_rng(5)``.

    ``tests/conftest.py`` loads this copy, as it loads :func:`haar_unitary`."""
    rng = np.random.default_rng(5)
    for k in ks:
        for e in eps:
            for draw in range(draws):
                p = linear_factor(rng, 1 + e)
                for _ in range(k - 1):
                    p = p * linear_factor(rng, rng.uniform(0.3, 0.99))
                yield k, e, draw, p


def node_family(eps):
    """p = (w - z)(den(z) w - num(z)), num/den the elliptic automorphism
    M_c^-1(e^{0.7i} M_c(z)) of the disk, M_c(z) = (z - c)/(1 - c z) and
    c = 1 - eps.

    Both factors are graphs of inner functions, so p defines a
    distinguished variety of degree (2, 2).  They meet only at the fixed
    points of the automorphism: (c, c), eps inside the bidisk, and
    (1/c, 1/c) outside it.  So the variety is smooth on the torus for every
    eps > 0, and its node reaches the torus only in the limit.
    ``tests/conftest.py`` loads this copy, as it loads :func:`haar_unitary`."""
    c, e = 1.0 - eps, cmath.exp(0.7j)
    # num(z) = (c - e c) + (e - c^2) z and den(z) = (1 - c^2 e) + (c e - c) z
    graph = {(0, 0): e * c - c, (1, 0): c * c - e, (0, 1): 1 - c * c * e, (1, 1): c * e - c}
    diagonal = {(0, 1): 1, (1, 0): -1}
    return BivariatePolynomial.from_terms(diagonal) * BivariatePolynomial.from_terms(graph)


def kummert_torus_zero(n, m, s):
    """det(I - K diag(z I_n, w I_m)) for a K of norm 1 that puts a zero on
    the torus: StableOpen, of degree (n, m).

    From ``default_rng(100 n + 10 m + s)``: V a Haar unitary of size n + m,
    C a complex Gaussian of size n + m - 1 scaled to norm 0.8, M = V (1 + C)
    V^H with 1 + C block diagonal, and a, b uniform in [0, 2 pi).  Then
    K = D^H M for D = diag(e^{ia} I_n, e^{ib} I_m) has norm 1, so the
    polynomial has no zero in the open bidisk, and K D = D^H M D has the
    eigenvalue 1, so it vanishes at (e^{ia}, e^{ib}).  The coefficients are
    read off the values at roots of unity by a 2-D FFT.
    ``tests/conftest.py`` loads this copy, as it loads :func:`haar_unitary`."""
    rng = np.random.default_rng(100 * n + 10 * m + s)
    size = n + m
    v = haar_unitary(rng, size)
    c = rng.normal(size=(size - 1, size - 1)) + 1j * rng.normal(size=(size - 1, size - 1))
    core = np.zeros((size, size), dtype=np.complex128)
    core[0, 0], core[1:, 1:] = 1.0, 0.8 * c / np.linalg.norm(c, 2)
    a, b = rng.uniform(0.0, 2 * np.pi, 2)
    k = np.conj(np.repeat([np.exp(1j * a), np.exp(1j * b)], [n, m]))[:, None] * (v @ core @ v.conj().T)
    # diag(z I_n, w I_m) over the (n + 1) x (m + 1) grid of roots of unity
    zs = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))[:, None, None]
    ws = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))[None, :, None]
    shape = (n + 1, m + 1)
    diag = np.concatenate([np.broadcast_to(zs, shape + (n,)), np.broadcast_to(ws, shape + (m,))], axis=-1)
    values = np.linalg.det(np.eye(size) - k * diag[..., None, :])
    return BivariatePolynomial(np.fft.fft2(values) / ((n + 1) * (m + 1)))


def classified(p):
    """(label, proven, samples) of ``classify_zero_set(p)``, samples the
    count of each of its circle proofs in call order."""
    prove = dvkit.classify._definite_on_circle
    samples = []

    def counted(*args, **kwargs):
        out = prove(*args, **kwargs)
        samples.append(len(out[0]))
        return out

    dvkit.classify._definite_on_circle = counted
    try:
        zc = dvkit.classify.classify_zero_set(p)
    finally:
        dvkit.classify._definite_on_circle = prove
    return zc.label.value, zc.proven, tuple(samples)


def survey(degrees=DEGREES, seeds=SEEDS):
    """(d, s, label, proven, samples) per Haar variety."""
    return [(d, s, *classified(haar_variety(d, s))) for d in degrees for s in seeds]


def linear_survey(**family):
    """(k, eps, draw, label, proven, samples) per product of
    :func:`linear_factor_products`, which takes ``family``."""
    return [(k, e, draw, *classified(p)) for k, e, draw, p in linear_factor_products(**family)]


def node_survey(eps=NODE_EPS):
    """(eps, label, proven, torus points) per member of :func:`node_family`,
    the points those ``torus_singularities`` finds on its symmetrization."""
    rows = []
    for e in eps:
        p = node_family(e)
        zc = dvkit.classify.classify_zero_set(p)
        points = dvkit.classify.torus_singularities(symmetrize(p)).points
        rows.append((e, zc.label.value, zc.proven, len(points)))
    return rows


def extension_survey():
    """(name, m, C, C_swapped) per curve w^m = B(z), m in (2, 3), from
    :func:`dvkit.poly2.blaschke_dv`: the ``extension_bound`` of its
    representation and of the same realization with z and w exchanged,
    None where the swapped one is refused."""
    curves = []
    for m in (2, 3):
        curves.append((f"w^{m} = z^{m}", blaschke_dv(m, [0.0] * m)))
        curves.append((f"w^{m} = z^2 (monomial)", blaschke_dv(m, [0.0, 0.0])))
        curves.append((f"w^{m} = B(z), zeros 0.5, 0", blaschke_dv(m, [0.5, 0.0])))
        curves.append((f"w^{m} = B(z), zeros 0.4, -0.3i", blaschke_dv(m, [0.4, -0.3j])))
    rows = []
    for name, p in curves:
        cert, rep, _ = represent(p)
        try:
            swapped = extension_bound(rep.swapped(), cert.swapped())
        except ValueError:
            swapped = None
        rows.append((name, len(cert.vec_q), extension_bound(rep, cert), swapped))
    return rows


def main():
    for row in survey() + linear_survey():
        *head, samples = row
        print(*head, f"samples={','.join(map(str, samples))}")
    for *head, points in node_survey():
        print(*head, f"torus_points={points}")
    for name, m, c, swapped in extension_survey():
        swapped = "--" if swapped is None else f"{swapped:.6f}"
        print(f"{name}: m={m} C={c:.6f} C_swapped={swapped}")


if __name__ == "__main__":
    main()
