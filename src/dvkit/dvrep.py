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

import functools
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
    _exponent,
    _ldexp,
    roots_of_unity,
    swap_transform,
    symmetrize,
    transpose_vars,
)
from .soscert import CertKind, SosCertificate, sym_sos_certificate

__all__ = [
    "DvCertificate",
    "UnitaryRealization",
    "RepresentationReport",
    "IsometryError",
    "dv_certificate",
    "sample_variety",
    "lurking_isometry",
    "phi_evaluate",
    "eigen_relation",
    "det_representation",
    "verify_representation",
    "represent",
]

# Singular values of the stacked sample map at or below this fraction of
# the largest count as zero when :func:`lurking_isometry` reads its rank.
RANK_TOL = 1e-8
# The circles |z| = r of the variety sample, and the seed of their angular
# jitter.
SAMPLE_RADII = (0.3, 0.5, 0.7, 0.85)
SAMPLE_SEED = 7
# rho(D) must stay below this for Phi(z) = A + zB(I - zD)^{-1}C to be
# analytic on a neighborhood of the closed disk; the representation report
# and the extension both gate on it.
RHO_D_MAX = 1.0 - 1e-8
# Gate on the eigen relation, max |Phi Q - w Q| relative to max |Q| on the
# variety: the representation report (scaled by its slack) and the
# extension both read it.
EIGEN_TOL = 1e-7
# Gate on the sampled Gram defect X*X = Y*Y of a certificate of a variety
# smooth on the torus; the representation report's other residual gates
# loosen by the ratio of a certificate's own Gram gate to this one.
GRAM_TOL = 1e-8


class IsometryError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DvCertificate:
    """(P, Q) pair for a distinguished variety: P has n components at degree
    (n-1, m) and Q has m components at degree (n, m-1)."""

    p: BivariatePolynomial
    weights: tuple[float, float]
    vec_p: VectorPolynomial
    vec_q: VectorPolynomial
    smooth_on_torus: bool

    @functools.cached_property
    def qmatrix(self) -> MatrixPolynomial:
        """The m x m one-variable matrix with Q = Qmatrix(z) (1, w, ...,
        w^{m-1})^t, read from the coefficients of Q."""
        return self.vec_q.matrix_in_z()

    @functools.cached_property
    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        """The variety points (z, w) at which the isometry is read and
        checked: :func:`sample_variety` of p, fixed by the certificate."""
        return sample_variety(self.p)

    @functools.cached_property
    def maps(self) -> tuple[np.ndarray, np.ndarray]:
        """X = (Q; zP) and Y = (wQ; P) at the sample, one column per point,
        both divided by the power of two of their largest entry, so that X*X
        and Y*Y neither underflow nor overflow; the division is exact, and
        every use of the maps is invariant under it.  Q(z, w) is the first m
        rows of X."""
        z, w = self.sample
        qv = self.vec_q.evaluate(z, w)  # (m, S)
        pv = self.vec_p.evaluate(z, w)  # (n, S)
        x = np.vstack([qv, z[None, :] * pv])
        y = np.vstack([w[None, :] * qv, pv])
        e = max(_exponent(x), _exponent(y))
        return _ldexp(x, -e), _ldexp(y, -e)

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def gram_defect(self) -> float:
        """Relative defect of X*X = Y*Y, the sampled form of the on-variety
        kernel identity.  A certificate far above the unit scale overflows to
        a defect that is not finite, which fails the Gram gate."""
        x, y = self.maps
        gx = x.conj().T @ x
        gy = y.conj().T @ y
        return float(np.max(np.abs(gx - gy))) / max(float(np.max(np.abs(gx))), 1e-300)

    @property
    def gram_tolerance(self) -> float:
        """Gate on the sampled Gram defect X*X = Y*Y.  The certificate of a
        variety singular on the torus passes through the dilation limit and
        carries its extrapolation error, so its gate is 1e-6, not GRAM_TOL."""
        return GRAM_TOL if self.smooth_on_torus else 1e-6

    def as_sos(self) -> SosCertificate:
        return SosCertificate(CertKind.DV, self.vec_p, self.vec_q, self.weights)

    def swapped(self) -> "DvCertificate":
        """The certificate of transpose_vars(p), z and w exchanged: P and Q
        trade roles, each component transposed, and the weights trade
        places.  The identity (1 - z conj(Z)) <P, P> = (1 - w conj(W)) <Q, Q>
        is symmetric under that exchange."""
        vec_p, vec_q = (VectorPolynomial(v.coeffs.transpose(0, 2, 1)) for v in (self.vec_q, self.vec_p))
        return DvCertificate(transpose_vars(self.p), self.weights[::-1], vec_p, vec_q, self.smooth_on_torus)


@dataclass(frozen=True, eq=False)
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

    def swapped(self) -> "UnitaryRealization":
        """The realization of the same variety with z and w exchanged.

        U(Q; zP) = (wQ; P) and U^{-1} = U^H give (Pi U^H Pi)(P; wQ) = (zP; Q)
        for the block swap Pi, so Pi U^H Pi = [[D^H, B^H], [C^H, A^H]], with
        block sizes (n, m), is the isometry of :meth:`DvCertificate.swapped`,
        and its transfer function is D^H + wB^H(I - wA^H)^{-1}C^H."""
        return UnitaryRealization(self.n, self.m, np.roll(self.U.conj().T, (-self.m, -self.m), (0, 1)))


def dv_certificate(p: BivariatePolynomial, a: float, b: float) -> DvCertificate:
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
    smooth on the torus, Qmatrix(z) must be invertible on the closed disk,
    which :func:`verify_representation` gates."""
    zc = classify_zero_set(p)
    if zc.label is not ZeroLabel.DV_DEFINING:
        raise ValueError(
            f"polynomial does not define a distinguished variety (classified {zc.label.value})"
        )
    if not zc.proven and not is_squarefree(p):
        raise ValueError("polynomial has a repeated factor; certificate needs squarefree input")
    p_sym = symmetrize(p)
    smooth = zc.proven or torus_singularities(p_sym).smooth_on_torus
    q = swap_transform(p_sym)
    cert = sym_sos_certificate(q, a, b, smooth)
    # both vectors come at their side's degree; reversing z undoes the swap
    vec_p, vec_q = (VectorPolynomial(v.coeffs[:, ::-1]) for v in (cert.vec_first, cert.vec_second))
    return DvCertificate(p_sym, (a, b), vec_p, vec_q, smooth)


def sample_variety(p: BivariatePolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Variety points (z[i], w[i]) inside the bidisk as the read-only pair
    (z, w): the fiber roots over jittered circles of z that lie in the
    disk.  For p of degree (n, m) the circles |z| in
    SAMPLE_RADII carry enough equispaced z, each circle turned by a random
    angle from SAMPLE_SEED, for at least 3(n + m) + 10 points on a
    distinguished variety, whose fibers over the disk keep all m roots
    inside it.  Once the points span C^{n+m} the isometry they fix does not
    depend on where they lie, so one layout serves every input.

    All fibers go through one batched companion root solve.  The roots are
    not polished: a root is kept when |p| <= 1e-12 * scale there, and one
    that misses the gate, or whose residual overflows, is dropped, never
    used.  Points come in the order radius, angle, root."""
    rng = np.random.default_rng(SAMPLE_SEED)
    scale = max(p.scale, 1e-300)
    n, m = p.degree
    radii = np.array(SAMPLE_RADII)
    per = max(4, int(np.ceil((3 * (n + m) + 10) / (len(radii) * max(m, 1)))) + 1)
    jitter = rng.uniform(0.0, 2 * np.pi, len(radii))
    angles = 2 * np.pi * np.arange(per) / per + jitter[:, None]
    zs = (radii[:, None] * np.exp(1j * angles)).ravel()
    # the roots are those of p divided by its power of two, which stay in
    # range at every scale of p
    k, w = fiber_root_pairs(p.ldexp(-p.exponent), zs)
    inside = np.abs(w) < 1.0
    z, w = zs[k[inside]], w[inside]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(p.evaluate(z, w))
    keep = vals <= 1e-12 * scale
    if int(np.sum(keep)) < n + m:
        raise IsometryError(
            f"insufficient span: found {int(np.sum(keep))} variety points, need {n + m}"
        )
    sample = z[keep], w[keep]
    for arr in sample:
        arr.setflags(write=False)
    return sample


def lurking_isometry(cert: DvCertificate) -> UnitaryRealization:
    """Unitary completion of the isometry (Q; zP) -> (wQ; P) read off the
    certificate's variety sample.

    The Gram equality X*X = Y*Y is asserted, to the certificate's
    ``gram_tolerance``, before any construction; the
    partial isometry between the ranges comes from a thin SVD, and the
    completion maps the orthonormal complement of range(X) onto that of
    range(Y) in singular-vector order, which makes the result
    reproducible.  Its unitarity and rho(D) are gated by
    :func:`verify_representation`, and rho(D) again by the extension."""
    m = len(cert.vec_q)
    n = len(cert.vec_p)
    x, y = cert.maps
    defect = cert.gram_defect
    if not defect <= cert.gram_tolerance:
        raise IsometryError(
            f"isometry violated: Gram mismatch {defect:.3e} exceeds {cert.gram_tolerance:.1e}"
        )
    ux, sx, vxh = np.linalg.svd(x)
    rank = int(np.sum(sx > RANK_TOL * sx[0]))
    if x.shape[1] > rank + 10:
        sx_head = np.linalg.svd(x[:, :-10], compute_uv=False)
        head = int(np.sum(sx_head > RANK_TOL * sx_head[0]))
        if head != rank:
            raise IsometryError(
                f"sample rank not saturated: {x.shape[1]} points span rank {rank} of "
                f"m + n = {m + n}, their first {x.shape[1] - 10} rank {head}"
            )
    w_basis = y @ vxh.conj().T[:, :rank] / sx[:rank]
    u = w_basis @ ux[:, :rank].conj().T
    if rank < m + n:
        uy = np.linalg.svd(y)[0]
        u = u + uy[:, rank:] @ ux[:, rank:].conj().T
    # The Gram defect of inexact certificates pushes the completion off the
    # unitary group; the polar projection returns to the nearest unitary.
    pu, _, qvh = np.linalg.svd(u)
    return UnitaryRealization(m, n, pu @ qvh)


def phi_evaluate(rep: UnitaryRealization, z) -> np.ndarray:
    """Phi(z) = A + zB(I - zD)^{-1}C by linear solve.

    A scalar z gives the (m, m) matrix; an array of z gives z.shape + (m, m).
    The pipeline reads Phi only past a gate of rho(D) < RHO_D_MAX, where
    I - zD is invertible on the closed disk.
    """
    z = np.asarray(z, dtype=np.complex128)
    zc = z[..., None, None]
    core = np.linalg.solve(np.eye(rep.n) - zc * rep.D, np.broadcast_to(rep.C, z.shape + rep.C.shape))
    return rep.A + (zc * rep.B) @ core


def eigen_relation(phis: np.ndarray, w: np.ndarray, qv: np.ndarray) -> float:
    """max |Phi(z) Q(z, w) - w Q(z, w)| over variety points (z, w), relative
    to the largest |Q(z, w)|: how far each Q(z, w) is from a w-eigenvector
    of Phi(z).  ``phis`` holds Phi at each point's z, shape (S, m, m), and
    ``qv`` the vectors Q(z, w), shape (m, S).  The representation report
    and the extension gate it at EIGEN_TOL (the report 100 times looser off
    a torus-smooth variety).  No points give 0, and a value that is not
    finite fails the gate."""
    vals = np.abs(np.einsum("kij,jk->ik", phis, qv) - w * qv)
    return float(np.max(vals, initial=0.0) / max(np.max(np.abs(qv), initial=0.0), 1e-300))


def det_representation(rep: UnitaryRealization) -> BivariatePolynomial:
    """Coefficient grid of det [[A - wI, zB], [C, zD - I]].

    The determinant has degree at most (n, m), so evaluation on roots-of-
    unity nodes followed by a 2-D inverse FFT reconstructs it exactly."""
    m, n = rep.m, rep.n
    zs = roots_of_unity(n + 1)
    ws = roots_of_unity(m + 1)
    mats = np.zeros((n + 1, m + 1, m + n, m + n), dtype=np.complex128)
    mats[:, :, :m, :m] = rep.A - ws[None, :, None, None] * np.eye(m)
    mats[:, :, :m, m:] = zs[:, None, None, None] * rep.B
    mats[:, :, m:, :m] = rep.C
    mats[:, :, m:, m:] = zs[:, None, None, None] * rep.D - np.eye(n)
    dets = np.linalg.det(mats)
    coeffs = np.fft.fft2(dets) / ((n + 1) * (m + 1))
    return BivariatePolynomial(coeffs)


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

    @property
    def passed(self) -> bool:
        slack = self.gram_tolerance / GRAM_TOL
        checks = [
            self.gram_defect <= self.gram_tolerance,
            self.det_on_samples <= 1e-7 * slack,
            self.eigen_relation <= EIGEN_TOL * slack,
            self.det_vs_p_rel <= 1e-6 * slack,
            self.unitarity <= 1e-10,
            self.boundary_unitarity <= 1e-8,
            self.contractivity_excess <= 1e-8,
            self.d_spectral_radius < RHO_D_MAX,
        ]
        if self.smooth_on_torus:
            checks.append(
                self.qmatrix_min_sv is not None and self.qmatrix_min_sv > self.qmatrix_tolerance
            )
        return all(checks)


@np.errstate(over="ignore", invalid="ignore")
def verify_representation(
    p: BivariatePolynomial,
    cert: DvCertificate,
    rep: UnitaryRealization,
) -> RepresentationReport:
    """Residual maxima for every claim of the representation theorem.

    Phi is read only when ``d_spectral_radius``, rho(D), is below RHO_D_MAX,
    where it is analytic on a neighborhood of the closed disk; otherwise
    ``det_on_samples``, ``eigen_relation``, ``boundary_unitarity`` and
    ``contractivity_excess`` are NaN and the report fails on rho(D).
    ``boundary_unitarity`` (max |Phi^H Phi - I|) and
    ``contractivity_excess`` (max(0, ||Phi|| - 1), from the largest
    eigenvalue of Phi^H Phi) are read at the same 128 circle points, which
    suffice: ||Phi(z)|| is subharmonic and its sup over the disk lies on
    the circle.  ``qmatrix_min_sv`` is read at 64 circle points and every
    zero of det Q in the closed disk.  ``det_vs_p_rel`` compares p
    with the multiple of the block determinant that matches its largest
    coefficient, over the coefficients of both degrees, so a determinant
    term beyond p's degree counts against it; it is inf when p is zero or
    the determinant has no term there.  Entries far above the unit scale
    overflow to residuals that are not finite, which fail their gates."""
    z, w = cert.sample
    det_poly = det_representation(rep)
    both = tuple(max(a, b) for a, b in zip(p.degree, det_poly.degree))
    pv, dv = p.with_degree(both).coeffs, det_poly.with_degree(both).coeffs
    imax = np.unravel_index(np.argmax(np.abs(pv)), pv.shape)
    if dv[imax] == 0 or pv[imax] == 0:
        det_rel = math.inf
    else:
        lam = pv[imax] / dv[imax]
        det_rel = float(np.max(np.abs(lam * dv - pv))) / float(np.max(np.abs(pv)))
    rho = rep.d_spectral_radius()
    det_on = eig_rel = bdry = excess = math.nan
    if rho < RHO_D_MAX:
        qv = cert.maps[0][: len(cert.vec_q)]
        # one solve for Phi at the samples and at the 128 circle points
        phis, bphis = np.split(phi_evaluate(rep, np.concatenate([z, roots_of_unity(128)])), [len(z)])
        det_on = float(np.max(np.abs(np.linalg.det(w[:, None, None] * np.eye(rep.m) - phis))))
        eig_rel = eigen_relation(phis, w, qv)
        gram = np.conj(np.swapaxes(bphis, -1, -2)) @ bphis
        bdry = float(np.max(np.abs(gram - np.eye(rep.m))))
        # np.maximum, unlike max, keeps a NaN, so a non-finite Phi fails the
        # gate; eigvalsh cannot read a Gram matrix that is not finite
        if np.isfinite(gram).all():
            excess = float(np.maximum(0.0, np.sqrt(np.max(np.linalg.eigvalsh(gram))) - 1.0))
    sv = cert.qmatrix.min_singular_value_on_disk if cert.smooth_on_torus else None
    return RepresentationReport(
        gram_defect=cert.gram_defect,
        gram_tolerance=cert.gram_tolerance,
        qmatrix_tolerance=1e-8 * cert.qmatrix.max_singular_value_on_disk,
        det_on_samples=det_on,
        eigen_relation=eig_rel,
        det_vs_p_rel=det_rel,
        unitarity=rep.unitarity_defect(),
        boundary_unitarity=bdry,
        contractivity_excess=excess,
        d_spectral_radius=rho,
        qmatrix_min_sv=sv,
        smooth_on_torus=cert.smooth_on_torus,
    )


def represent(p: BivariatePolynomial, a: float = 1.0, b: float = 1.0):
    """Full pipeline: certificate, unitary, verification."""
    cert = dv_certificate(p, a, b)
    rep = lurking_isometry(cert)
    report = verify_representation(cert.p, cert, rep)
    return cert, rep, report
