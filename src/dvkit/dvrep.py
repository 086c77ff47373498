"""Determinantal representation of distinguished varieties.

Pipeline: a distinguished-variety polynomial p is symmetrized and carried by
the z-index reversal to a torus-symmetric q with no bidisk zeros off the
torus; the symmetric certificate of q is pulled back to vector polynomials
(P, Q) satisfying (1 - z conj(Z)) <P, P> = (1 - w conj(W)) <Q, Q> on the
variety.  That identity says the map (Q; zP) -> (wQ; P) is isometric on the
span of variety samples, and its unitary completion U = [[A, B], [C, D]]
yields the inner function Phi(z) = A + zB(I - zD)^{-1}C whose eigenvalue
curve det(wI - Phi(z)) = 0 recovers the variety, with p itself a constant
multiple of the block determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (
    ZeroLabel,
    classify_zero_set,
    fiber_root_pairs,
    is_squarefree,
    torus_singularities,
)
from .poly2 import (
    BivariatePolynomial,
    MatrixPolynomial,
    VectorPolynomial,
    swap_transform,
    symmetrize,
)
from .soscert import CertKind, SosCertificate, _matrix_form_in_z, sym_sos_certificate

__all__ = [
    "DvCertificate",
    "UnitaryRealization",
    "VarietySample",
    "RepresentationReport",
    "IsometryError",
    "dv_certificate",
    "sample_variety",
    "lurking_isometry",
    "phi_evaluate",
    "det_representation",
    "verify_representation",
    "represent",
    "shift_realization",
]


class IsometryError(ValueError):
    pass


@dataclass(frozen=True)
class DvCertificate:
    """(P, Q) pair for a distinguished variety: P has n components of degree
    <= (n-1, m), Q has m components of degree <= (n, m-1), and Qmatrix is the
    m x m one-variable matrix with Q = Qmatrix(z) (1, w, ..., w^{m-1})^t."""

    p: BivariatePolynomial
    weights: tuple[float, float]
    vec_p: VectorPolynomial
    vec_q: VectorPolynomial
    qmatrix: MatrixPolynomial
    smooth_on_torus: bool

    def as_sos(self) -> SosCertificate:
        return SosCertificate(
            CertKind.DV,
            self.vec_p,
            self.vec_q,
            self.weights,
            None,
            self.qmatrix,
        )


@dataclass(frozen=True)
class UnitaryRealization:
    """Block unitary on C^m + C^n driving the transfer function
    Phi(z) = A + zB(I - zD)^{-1}C."""

    m: int
    n: int
    U: np.ndarray

    def __post_init__(self):
        arr = np.array(self.U, dtype=np.complex128)
        if arr.shape != (self.m + self.n, self.m + self.n):
            raise ValueError("block sizes do not match the matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "U", arr)

    @property
    def A(self):
        return self.U[: self.m, : self.m]

    @property
    def B(self):
        return self.U[: self.m, self.m :]

    @property
    def C(self):
        return self.U[self.m :, : self.m]

    @property
    def D(self):
        return self.U[self.m :, self.m :]

    def unitarity_defect(self) -> float:
        eye = np.eye(self.m + self.n)
        return float(np.max(np.abs(self.U.conj().T @ self.U - eye)))

    def d_spectral_radius(self) -> float:
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.D))))


@dataclass(frozen=True)
class VarietySample:
    points: tuple  # of (z, w) pairs
    residuals: tuple

    def __len__(self):
        return len(self.points)

    def arrays(self):
        z = np.array([p[0] for p in self.points], dtype=np.complex128)
        w = np.array([p[1] for p in self.points], dtype=np.complex128)
        return z, w


def dv_certificate(
    p: BivariatePolynomial,
    a: float = 1.0,
    b: float = 1.0,
) -> DvCertificate:
    """Build the variety certificate (P, Q) from the symmetric certificate of
    the z-reversed polynomial.

    Requires p to define a distinguished variety and be squarefree.  The
    symmetric certificate takes the direct route when the variety is smooth
    on the torus and the dilation route otherwise.  A proven DVDefining
    label already proves smoothness: it shows the Schur-Cohn matrix of every
    p_w fiber over the circle negative definite, so each fiber of p over the
    circle has m simple roots on the circle (Cohn 1922) and p_w vanishes at
    no torus zero.  Only an unproven label leaves the question to
    :func:`torus_singularities`.  The proven label also proves p
    squarefree, since it proves the same in the other variable: every fiber
    over the circle, p(z, .) and p(., w), has only simple roots.  A repeated
    factor g^2 would give a double root to p(z, .) at each z of the circle
    where g(z, .) has a root, all but finitely many, if g involves w, and to
    every p(., w) at a root of g if g is free of w.  So only an unproven
    label runs the randomized :func:`is_squarefree`.  When the variety is
    smooth on the torus, Qmatrix(z) must be invertible on the closed disk; a
    failure there contradicts the theory and raises."""
    zc = classify_zero_set(p)
    if zc.label is not ZeroLabel.DV_DEFINING:
        raise ValueError(
            f"polynomial does not define a distinguished variety (classified {zc.label.value})"
        )
    if not zc.proven and not is_squarefree(p):
        raise ValueError("polynomial has a repeated factor; certificate needs squarefree input")
    p_sym = symmetrize(p)
    n, m = p_sym.degree
    smooth = zc.proven or torus_singularities(p_sym).smooth_on_torus
    q = swap_transform(p_sym)
    cert = sym_sos_certificate(q, a, b, route="direct" if smooth else "dilation")
    vec_p = VectorPolynomial(
        tuple(
            BivariatePolynomial(c.with_degree((max(n - 1, 0), m)).coeffs[::-1, :])
            for c in cert.vec_first
        )
    )
    vec_q = VectorPolynomial(
        tuple(
            BivariatePolynomial(c.with_degree((n, max(m - 1, 0))).coeffs[::-1, :])
            for c in cert.vec_second
        )
    )
    qmat = _matrix_form_in_z(vec_q, m, n)
    if smooth:
        sv = qmat.min_singular_value_on_disk(48)
        if sv <= 1e-8 * max(qmat.sup_norm(), 1e-300):
            raise IsometryError(
                "Qmatrix is numerically singular on the closed disk for a "
                "torus-smooth variety; this contradicts the refined "
                "representation and signals a certificate bug"
            )
    return DvCertificate(p_sym, (a, b), vec_p, vec_q, qmat, smooth)


def sample_variety(
    p: BivariatePolynomial,
    target_count: int | None = None,
    seed: int = 7,
    radii=(0.3, 0.5, 0.7, 0.85),
) -> VarietySample:
    """Variety points inside the bidisk: fiber roots over jittered circles of
    z, Newton-polished in w to residual <= 1e-12 * scale.  ``target_count``
    defaults to 3(n + m) + 10 for p of degree (n, m).

    All fibers go through one batched root solve and all roots inside the
    disk through one array Newton iteration; a root stops when |p| <= 1e-13
    * scale or |p_w| < 1e-14 * scale, after at most 50 steps.  Points come
    in the order radius, angle, root."""
    rng = np.random.default_rng(seed)
    pw = p.partial_w()
    scale = max(p.scale, 1e-300)
    n, m = p.degree
    if target_count is None:
        target_count = 3 * (n + m) + 10
    per = max(4, int(np.ceil(target_count / (max(len(radii), 1) * max(m, 1)))) + 1)
    jitter = rng.uniform(0.0, 2 * np.pi, len(radii))
    angles = 2 * np.pi * np.arange(per) / per + jitter[:, None]
    zs = (np.asarray(radii, dtype=float)[:, None] * np.exp(1j * angles)).ravel()
    z, w = fiber_root_pairs(p, zs)
    inside = np.abs(w) < 1.0
    z, w = z[inside], w[inside]
    active = np.arange(len(w))
    # A root far from the variety may diverge; it fails the gate.
    with np.errstate(all="ignore"):
        for _ in range(50):
            if not len(active):
                break
            val = p.evaluate(z[active], w[active])
            dw = pw.evaluate(z[active], w[active])
            moving = ~(np.abs(val) <= 1e-13 * scale) & ~(np.abs(dw) < 1e-14 * scale)
            active = active[moving]
            w[active] = w[active] - val[moving] / dw[moving]
        vals = np.abs(p.evaluate(z, w))
    keep = (vals <= 1e-12 * scale) & (np.abs(w) < 1.0)
    if int(np.sum(keep)) < n + m:
        raise IsometryError(
            f"insufficient span: found {int(np.sum(keep))} variety points, need {n + m}"
        )
    points = tuple((complex(a), complex(b)) for a, b in zip(z[keep], w[keep]))
    return VarietySample(points, tuple(float(v) for v in vals[keep]))


def _stacked_maps(cert: DvCertificate, sample: VarietySample):
    z, w = sample.arrays()
    qv = cert.vec_q.evaluate(z, w)  # (m, S)
    pv = cert.vec_p.evaluate(z, w)  # (n, S)
    x = np.vstack([qv, z[None, :] * pv])
    y = np.vstack([w[None, :] * qv, pv])
    return x, y


def gram_defect(cert: DvCertificate, sample: VarietySample) -> float:
    """Relative defect of X*X = Y*Y, the sampled form of the on-variety
    kernel identity."""
    x, y = _stacked_maps(cert, sample)
    gx = x.conj().T @ x
    gy = y.conj().T @ y
    return float(np.max(np.abs(gx - gy))) / max(float(np.max(np.abs(gx))), 1e-300)


def lurking_isometry(
    cert: DvCertificate,
    sample: VarietySample,
    gram_tol: float = 1e-8,
    rank_tol: float = 1e-8,
) -> UnitaryRealization:
    """Unitary completion of the isometry (Q; zP) -> (wQ; P) read off the
    variety samples.

    The Gram equality X*X = Y*Y is asserted before any construction; the
    partial isometry between the ranges comes from a thin SVD, and the
    completion maps the orthonormal complement of range(X) onto that of
    range(Y) in singular-vector order, which makes the result reproducible
    for a fixed sample."""
    m = len(cert.vec_q)
    n = len(cert.vec_p)
    defect = gram_defect(cert, sample)
    if defect > gram_tol:
        raise IsometryError(
            f"isometry violated: Gram mismatch {defect:.3e} exceeds {gram_tol:.1e}"
        )
    x, y = _stacked_maps(cert, sample)
    ux, sx, vxh = np.linalg.svd(x)
    rank = int(np.sum(sx > rank_tol * sx[0]))
    if x.shape[1] > rank + 10:
        sx_head = np.linalg.svd(x[:, :-10], compute_uv=False)
        if int(np.sum(sx_head > rank_tol * sx_head[0])) != rank:
            raise IsometryError("sample rank not saturated; add variety points")
    w_basis = y @ vxh.conj().T[:, :rank] / sx[:rank]
    uy = np.linalg.svd(y)[0]
    u = w_basis @ ux[:, :rank].conj().T
    if rank < m + n:
        u = u + uy[:, rank:] @ ux[:, rank:].conj().T
    # The Gram defect of inexact certificates pushes the completion off the
    # unitary group; the polar projection returns to the nearest unitary.
    pu, _, qvh = np.linalg.svd(u)
    u = pu @ qvh
    rep = UnitaryRealization(m, n, u)
    if rep.unitarity_defect() > 1e-10:
        raise IsometryError("unitary completion failed the unitarity check")
    if rep.d_spectral_radius() >= 1.0 - 1e-8:
        raise IsometryError(
            "unimodular D eigenvalue: the representation degenerates, which "
            "cannot happen for a minimal-degree distinguished variety"
        )
    return rep


def phi_evaluate(rep: UnitaryRealization, z) -> np.ndarray:
    """Phi(z) = A + zB(I - zD)^{-1}C by linear solve.

    A scalar z gives the (m, m) matrix; an array of z gives z.shape + (m, m).
    """
    z = np.asarray(z, dtype=np.complex128)
    zc = z[..., None, None]
    try:
        core = np.linalg.solve(
            np.eye(rep.n) - zc * rep.D, np.broadcast_to(rep.C, z.shape + rep.C.shape)
        )
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"I - zD is singular at some z in {z}") from exc
    return rep.A + (zc * rep.B) @ core


def det_representation(rep: UnitaryRealization, degree=None) -> BivariatePolynomial:
    """Coefficient grid of det [[A - wI, zB], [C, zD - I]].

    The determinant has degree at most (n, m), so evaluation on roots-of-
    unity nodes followed by a 2-D inverse FFT reconstructs it exactly."""
    m, n = rep.m, rep.n
    if degree is None:
        degree = (n, m)
    dn, dm = degree
    zs = np.exp(2j * np.pi * np.arange(dn + 1) / (dn + 1))
    ws = np.exp(2j * np.pi * np.arange(dm + 1) / (dm + 1))
    mats = np.zeros((dn + 1, dm + 1, m + n, m + n), dtype=np.complex128)
    mats[:, :, :m, :m] = rep.A - ws[None, :, None, None] * np.eye(m)
    mats[:, :, :m, m:] = zs[:, None, None, None] * rep.B
    mats[:, :, m:, :m] = rep.C
    mats[:, :, m:, m:] = zs[:, None, None, None] * rep.D - np.eye(n)
    dets = np.linalg.det(mats)
    coeffs = np.fft.fft2(dets) / ((dn + 1) * (dm + 1))
    return BivariatePolynomial(coeffs)


def shift_realization(m: int, n: int) -> UnitaryRealization:
    """Cyclic-shift unitary whose transfer function is the companion inner
    function [[0, I_{m-1}], [z^n, 0]]; realizes the curve w^m = z^n."""
    size = m + n
    u = np.zeros((size, size), dtype=np.complex128)
    for i in range(size - 1):
        u[i, i + 1] = 1.0
    u[size - 1, 0] = 1.0
    return UnitaryRealization(m, n, u)


@dataclass(frozen=True)
class RepresentationReport:
    gram_defect: float
    gram_tolerance: float
    qmatrix_tolerance: float
    det_on_samples: float
    eigen_relation: float
    det_vs_p_rel: float
    unitarity: float
    boundary_unitarity: float
    contractivity_excess: float
    d_spectral_radius: float
    qmatrix_min_sv: float | None
    smooth_on_torus: bool
    grid_n: int

    @property
    def passed(self) -> bool:
        slack = 1.0 if self.smooth_on_torus else self.gram_tolerance / 1e-8
        checks = [
            self.gram_defect <= self.gram_tolerance,
            self.det_on_samples <= 1e-7 * slack,
            self.eigen_relation <= 1e-7 * slack,
            self.det_vs_p_rel <= 1e-6 * slack,
            self.unitarity <= 1e-10,
            self.boundary_unitarity <= 1e-8,
            self.contractivity_excess <= 1e-8,
            self.d_spectral_radius < 1.0 - 1e-8,
        ]
        if self.smooth_on_torus:
            checks.append(
                self.qmatrix_min_sv is not None and self.qmatrix_min_sv > self.qmatrix_tolerance
            )
        return all(checks)


def verify_representation(
    p: BivariatePolynomial,
    cert: DvCertificate,
    rep: UnitaryRealization,
    sample: VarietySample,
    grid_n: int = 64,
    gram_tol: float | None = None,
) -> RepresentationReport:
    """Residual maxima for every claim of the representation theorem.

    ``boundary_unitarity`` (max |Phi^H Phi - I|) and
    ``contractivity_excess`` (max(0, ||Phi|| - 1), from the largest
    eigenvalue of Phi^H Phi) are read at the same 128 circle points.  The
    circle suffices once ``d_spectral_radius``, rho(D), is below 1: Phi is
    then analytic on a neighborhood of the closed disk, so ||Phi(z)|| is
    subharmonic and its sup over the disk lies on the circle; the report
    fails otherwise."""
    if gram_tol is None:
        gram_tol = 1e-8 if cert.smooth_on_torus else 1e-6
    z, w = sample.arrays()
    qv = cert.vec_q.evaluate(z, w)
    q_scale = max(np.max(np.abs(qv)), 1e-300)
    phis = phi_evaluate(rep, z)
    det_vals = np.linalg.det(w[:, None, None] * np.eye(rep.m) - phis)
    eig_vals = np.abs(np.einsum("kij,jk->ik", phis, qv) - w * qv)
    det_poly = det_representation(rep)
    pv = p.coeffs
    dv = det_poly.with_degree(
        (max(p.degree[0], det_poly.degree[0]), max(p.degree[1], det_poly.degree[1]))
    ).coeffs[: pv.shape[0], : pv.shape[1]]
    imax = np.unravel_index(np.argmax(np.abs(pv)), pv.shape)
    lam = pv[imax] / dv[imax]
    det_rel = float(np.max(np.abs(lam * dv - pv))) / float(np.max(np.abs(pv)))
    bphis = phi_evaluate(rep, np.exp(2j * np.pi * np.arange(128) / 128))
    gram = np.conj(np.swapaxes(bphis, -1, -2)) @ bphis
    bdry = float(np.max(np.abs(gram - np.eye(rep.m))))
    excess = max(0.0, math.sqrt(float(np.max(np.linalg.eigvalsh(gram)))) - 1.0)
    sv = cert.qmatrix.min_singular_value_on_disk(grid_n) if cert.smooth_on_torus else None
    return RepresentationReport(
        gram_defect=gram_defect(cert, sample),
        gram_tolerance=gram_tol,
        qmatrix_tolerance=1e-8 * cert.qmatrix.sup_norm(),
        det_on_samples=float(np.max(np.abs(det_vals))),
        eigen_relation=float(np.max(eig_vals)) / q_scale,
        det_vs_p_rel=det_rel,
        unitarity=rep.unitarity_defect(),
        boundary_unitarity=bdry,
        contractivity_excess=excess,
        d_spectral_radius=rep.d_spectral_radius(),
        qmatrix_min_sv=sv,
        smooth_on_torus=cert.smooth_on_torus,
        grid_n=grid_n,
    )


def represent(
    p: BivariatePolynomial,
    a: float = 1.0,
    b: float = 1.0,
    seed: int = 7,
    target_count: int | None = None,
    grid_n: int = 64,
):
    """Full pipeline: certificate, variety sample, unitary, verification."""
    cert = dv_certificate(p, a, b)
    sample = sample_variety(cert.p, target_count, seed)
    # Certificates of torus-singular varieties pass through the dilation
    # limit and carry its extrapolation error, so the sampled-isometry gate
    # is opened up accordingly (and recorded in the report).
    gram_tol = 1e-8 if cert.smooth_on_torus else 1e-6
    rep = lurking_isometry(cert, sample, gram_tol=gram_tol)
    report = verify_representation(cert.p, cert, rep, sample, grid_n, gram_tol=gram_tol)
    return cert, sample, rep, report
