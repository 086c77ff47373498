"""Bounded analytic extension from a distinguished variety to the bidisk.

Given the refined representation data (Phi, Q, Qvec) of a torus-smooth
variety, every polynomial f extends to the rational function

    F(z, w) = (1, 0, ..., 0) Q(z)^{-1} f(zI_m, Phi(z)) Qvec(z, w),

equal to f on the variety because Qvec is a w-eigenvector of Phi(z) there,
and bounded by C * sup_V |f| with C = sqrt(m) sup_z ||Q(z)^{-1}|| ||Q(z)||.
Since Qvec(z, w) = Q(z) (1, w, ..., w^{m-1})^t, F is a polynomial in w with
coefficients analytic in z: F(z, w) = g(z) . (1, w, ..., w^{m-1}) for the
row g(z) = e1^T Q(z)^{-1} f(zI, Phi(z)) Q(z).

Every check is read on the torus.  Once det Q has no zero in the closed
disk and rho(D) < 1, which :func:`extension_bound` checks first, Q^{-1} and
Phi are analytic on a neighborhood of the closed disk, so F is analytic on
the closed bidisk (Agler-McCarthy, "Distinguished varieties", Acta Math.
2005).  Then the sup of ||Q|| ||Q^{-1}|| lies on the circle (log-
subharmonicity of operator norms of analytic matrix functions), the sup of
|F| on the torus T^2 (the maximum principle in each variable), and the sups
of |f| and of |F - f| over the variety on its torus points, where a
distinguished variety meets the boundary of the bidisk (the maximum
principle on the variety).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import fiber_root_pairs
from .dvrep import RHO_D_MAX, DvCertificate, UnitaryRealization, phi_evaluate
from .poly2 import (
    RANGE_BOUND,
    BivariatePolynomial,
    MatrixPolynomial,
    _exponent,
    _ldexp,
    horner,
    roots_of_unity,
)

__all__ = [
    "ExtensionOperator",
    "ExtensionReport",
    "eval_f_of_pair",
    "extension_bound",
    "sup_norm_on_variety",
    "verify_extension",
]

# Absolute allowance, per unit of f's coefficient scale, on the inflation
# check sup|F| <= C sup_V |f| of :func:`verify_extension`.
INFLATION_SLACK = 1e-6
# Fiber roots over the circle within this of |w| = 1 are torus points.
ON_TORUS = 1e-6


def eval_f_of_pair(f: BivariatePolynomial, z, phi: np.ndarray) -> np.ndarray:
    """f(z I_m, Phi) = sum_k (sum_j c_jk z^j) Phi^k, Horner in the matrix.

    ``z`` is a scalar with ``phi`` of shape (m, m), or an array of z with
    ``phi`` of shape z.shape + (m, m), one matrix per z.
    """
    wcoeffs = f.fibers(z)  # scalar coefficient of each Phi power, per z
    eye = np.eye(phi.shape[-1])
    acc = np.zeros(phi.shape, dtype=np.complex128)
    for k in range(f.degree[1], -1, -1):
        acc = acc @ phi + wcoeffs[..., k, None, None] * eye
    return acc


@dataclass(frozen=True, eq=False)
class ExtensionOperator:
    """Evaluator for the extension F of f off the variety of cert.p."""

    rep: UnitaryRealization
    cert: DvCertificate
    f: BivariatePolynomial

    def __post_init__(self):
        if len(self.cert.vec_q) != self.rep.m:
            raise ValueError("certificate and realization disagree on m")

    def __call__(self, z, w):
        return self.evaluate(z, w)

    def rows(self, zs) -> np.ndarray:
        """g(z) = e1^T Q(z)^{-1} f(zI, Phi(z)) Q(z) for each z of the flat
        array ``zs``; shape (len(zs), m).

        F(z, w) is g(z) . (1, w, ..., w^{m-1}).  The row e1^T Q(z)^{-1}
        comes from stacked linear solves and f(zI, Phi(z)) from matrix
        Horner, once per z."""
        m = self.rep.m
        e1 = np.zeros((m, 1), dtype=np.complex128)
        e1[0, 0] = 1.0
        qmats = self.cert.qmatrix.evaluate(zs)
        first = np.linalg.solve(np.swapaxes(qmats, 1, 2), np.broadcast_to(e1, (len(zs), m, 1)))
        fmats = eval_f_of_pair(self.f, zs, phi_evaluate(self.rep, zs))
        return (np.swapaxes(first, 1, 2) @ fmats @ qmats)[:, 0, :]

    def evaluate(self, z, w) -> complex | np.ndarray:
        """F pointwise over the broadcast of z and w (a complex for scalars):
        g once per entry of z, then Horner in w."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        zs = z.ravel()
        g = self.rows(zs).reshape(z.shape + (self.rep.m,))
        out = horner(np.moveaxis(g, -1, 0), w)
        return complex(out) if out.ndim == 0 else out

    def evaluate_grid(self, zs, ws) -> np.ndarray:
        """F on the product grid zs x ws, shape (len(zs), len(ws))."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        ws = np.asarray(ws, dtype=np.complex128).ravel()
        return self.evaluate(zs[:, None], ws[None, :])


def _max_abs(values) -> float:
    return float(np.max(np.abs(values))) if np.size(values) else 0.0


def _require_analytic(rep: UnitaryRealization, cert: DvCertificate) -> None:
    """Refuse a realization whose F may have a pole in the closed bidisk:
    a zero of det Q in the closed disk (found by the block companion of
    :attr:`MatrixPolynomial.det_zeros_in_disk`), or rho(D) not below
    RHO_D_MAX, a NaN radius included."""
    zeros = cert.qmatrix.det_zeros_in_disk
    if len(zeros):
        raise ValueError(
            f"Qmatrix: det Q has a zero at z = {complex(zeros[0]):.6g} in the closed disk, "
            "so Q^-1 and the extension are not analytic on the closed bidisk"
        )
    rho = rep.d_spectral_radius()
    if not rho < RHO_D_MAX:
        raise ValueError(
            f"realization: D has spectral radius {rho:.6g}, so Phi is not analytic on the closed disk"
        )


def _torus_points(p: BivariatePolynomial, circle: np.ndarray):
    """The torus points of the variety of p over the circle samples: the
    fiber roots within ON_TORUS of |w| = 1, as circle index k and w."""
    k, w = fiber_root_pairs(p, circle)
    on_torus = np.abs(np.abs(w) - 1.0) < ON_TORUS
    return k[on_torus], w[on_torus]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def extension_bound(rep: UnitaryRealization, cert: DvCertificate) -> float:
    """C = sqrt(m) max ||Q(z)|| ||Q(z)^{-1}|| over the 256th roots of unity;
    Q and the rho(D) gate alone, neither f nor the variety.

    Raises ValueError when det Q has a zero in the closed disk or rho(D) is
    not below RHO_D_MAX.  Otherwise Q^{-1} is analytic on the closed disk,
    log ||Q|| and log ||Q^{-1}|| are subharmonic, and by the maximum
    principle the condition number ||Q|| ||Q^{-1}|| takes its sup over the
    disk on the circle, which the samples stand for.  A Q too large to
    sample gives a C that is not finite.
    """
    _require_analytic(rep, cert)
    svals = np.linalg.svd(cert.qmatrix.evaluate(roots_of_unity(256)), compute_uv=False)
    return math.sqrt(rep.m) * float(np.max(svals[:, 0] / svals[:, -1]))


def sup_norm_on_variety(
    f: BivariatePolynomial, p: BivariatePolynomial, grid_n: int = 256
) -> float:
    """sup of |f| over the variety of p inside the closed bidisk.

    A distinguished variety meets the boundary of the bidisk only in the
    torus, and |f| on the variety is subharmonic, so by the maximum
    principle the sup is attained among the unimodular fiber roots over the
    ``grid_n`` roots of unity in z."""
    circle = roots_of_unity(grid_n)
    k, w = _torus_points(p, circle)
    return _max_abs(f.evaluate(circle[k], w))


@np.errstate(over="ignore", invalid="ignore")
def expand_extension(op: ExtensionOperator):
    """Numerator/denominator display form of F: a bivariate numerator and a
    one-variable denominator det(Q(z)) det(I - zD)^K, K the w-degree of f.

    F itself stays an evaluator; this expansion exists for inspection and
    serialization only.  Both parts are recovered by evaluation on
    roots-of-unity nodes and exact inverse DFT; every real or imaginary part
    of a coefficient at or below the DFT's rounding, the part's coefficient
    count times the machine epsilon times its largest modulus, is then set
    to zero, and the trailing zeros are trimmed.  A coarser cut would cost
    accuracy: det Q falls on the circle far below its largest coefficient,
    and the error of each dropped part is divided by it.  The parts are
    defined up to one common factor, so det Q is read from Q as it is while
    m times the exponent e of its largest coefficient stays within
    RANGE_BOUND, and from Q / 2^e beyond, where det Q itself would leave the
    float range.
    Raises ValueError, naming the part, when its samples or coefficients
    are not finite."""
    m, n = op.rep.m, op.rep.n
    fz, fw = op.f.degree
    dz_deg = m * n + fw * n
    nz_deg = n * m + fw * (n + 1) + fz + n
    e = _exponent(op.cert.qmatrix.coeffs)
    qmatrix = MatrixPolynomial(_ldexp(op.cert.qmatrix.coeffs, 0 if m * abs(e) <= RANGE_BOUND else -e))

    def denom_at(z):
        qdet = np.linalg.det(qmatrix.evaluate(z))
        core = np.linalg.det(np.eye(n) - np.asarray(z)[..., None, None] * op.rep.D)
        return qdet * core**fw

    def finite(part, coeffs):
        # a sample that overflows leaves a coefficient that is not finite
        if not np.isfinite(coeffs).all():
            raise ValueError(f"{part}: the extension overflows, so its coefficients are not finite")
        return coeffs

    zs = roots_of_unity(dz_deg + 1)
    den_coeffs = finite("denominator", np.fft.fft(denom_at(zs)) / (dz_deg + 1))
    zs2 = roots_of_unity(nz_deg + 1)
    ws2 = roots_of_unity(m)
    fvals = op.evaluate_grid(zs2, ws2) * denom_at(zs2)[:, None]
    num_coeffs = finite("numerator", np.fft.fft2(fvals) / ((nz_deg + 1) * max(m, 1)))

    def cut(coeffs):
        parts = np.ascontiguousarray(coeffs).view(np.float64)
        rounding = coeffs.size * np.finfo(float).eps * np.max(np.abs(coeffs))
        kept = np.where(np.abs(parts) > rounding, parts, 0.0)
        part = BivariatePolynomial(kept.view(np.complex128))
        tz, tw = part.true_degree()
        return BivariatePolynomial(part.coeffs[: tz + 1, : tw + 1])

    return cut(num_coeffs), cut(den_coeffs[:, None])


@dataclass(frozen=True)
class ExtensionReport:
    on_variety_residual: float
    sup_F_on_bidisk: float
    sup_f_on_variety: float
    C: float
    ratio: float
    passed: bool


@np.errstate(over="ignore", invalid="ignore")
def verify_extension(op: ExtensionOperator) -> ExtensionReport:
    """Check F = f on the variety and the norm inflation against C of
    :func:`extension_bound`, from one pass over the 128th roots of unity
    z_k, which are every other one of the 256 that C reads.

    The pass computes Q(z_k), the rows g(z_k) and the torus points of the
    variety over the z_k once.  ``on_variety_residual`` is max |F - f| over
    those torus points, relative to 1 + sup_V |f|; F - f is analytic on the
    variety, so by the maximum principle this bounds it inside the bidisk
    too.  ``sup_F_on_bidisk`` is max |g(z_k) . (1, w, ..., w^{m-1})| over
    the grid z_k x z_k of the torus, where F, analytic on the closed bidisk,
    takes its sup.  A value that overflows is not finite and fails the
    check, and so does a C that is not finite, against which the inflation
    check would hold vacuously.  Raises ValueError as
    :func:`extension_bound` does."""
    c_const = extension_bound(op.rep, op.cert)
    circle = roots_of_unity(128)
    k, w = _torus_points(op.cert.p, circle)
    fv = op.f.evaluate(circle[k], w)
    sup_f = _max_abs(fv)
    g = op.rows(circle)
    on_var = _max_abs(horner(g[k].T, w) - fv) / (1.0 + sup_f)
    sup_F = _max_abs(horner(g.T[:, :, None], circle))
    ratio = sup_F / sup_f if sup_f > 0 else 0.0
    bound = c_const * sup_f + INFLATION_SLACK * max(1.0, op.f.scale)
    passed = on_var <= 1e-7 and math.isfinite(c_const) and sup_F <= bound
    return ExtensionReport(on_var, sup_F, sup_f, c_const, ratio, passed)
