"""Bounded analytic extension from a distinguished variety to the bidisk.

Given the refined representation data (Phi, Q, Qvec) of a torus-smooth
variety, every polynomial f extends to the rational function

    F(z, w) = (1, 0, ..., 0) Q(z)^{-1} f(zI_m, Phi(z)) Qvec(z, w),

equal to f on the variety because Qvec is a w-eigenvector of Phi(z) there,
and bounded by C * sup_V |f| with C = sqrt(m) sup_z ||Q(z)^{-1}|| ||Q(z)||.
The sup is attained on the boundary circle (log-subharmonicity of operator
norms of analytic matrix functions); interior points are spot-checked only
to guard against implementation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import fiber_root_pairs
from .dvrep import DvCertificate, UnitaryRealization, VarietySample, phi_evaluate
from .poly2 import BivariatePolynomial, disk_spiral

__all__ = [
    "ExtensionOperator",
    "BoundReport",
    "ExtensionReport",
    "eval_f_of_pair",
    "extension_bound",
    "sup_norm_on_variety",
    "verify_extension",
]


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


@dataclass(frozen=True)
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

    def evaluate(self, z, w) -> complex | np.ndarray:
        """F pointwise over the broadcast of z and w (a complex for scalars).

        The row e1^T Q(z)^{-1} f(zI, Phi(z)) is formed once per entry of z,
        through stacked linear solves and matrix Horner, and then paired with
        Qvec(z, w) at the broadcast shape.
        """
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        zs = z.ravel()
        m = self.rep.m
        qmats = self.cert.qmatrix.evaluate(zs)  # (K, m, m)
        e1 = np.zeros((m, 1), dtype=np.complex128)
        e1[0, 0] = 1.0
        rows = np.linalg.solve(
            np.swapaxes(qmats, 1, 2), np.broadcast_to(e1, (len(zs), m, 1))
        )[..., 0]
        fmats = eval_f_of_pair(self.f, zs, phi_evaluate(self.rep, zs))
        rowf = np.einsum("km,kmj->kj", rows, fmats).reshape(z.shape + (m,))
        qvec = self.cert.vec_q.evaluate(z, w)  # (m,) + broadcast shape
        out = np.einsum("...j,j...->...", rowf, qvec)
        return complex(out) if out.ndim == 0 else out

    def evaluate_grid(self, zs, ws) -> np.ndarray:
        """F on the product grid zs x ws, shape (len(zs), len(ws))."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        ws = np.asarray(ws, dtype=np.complex128).ravel()
        return self.evaluate(zs[:, None], ws[None, :])


@dataclass(frozen=True)
class BoundReport:
    """Extension constant C = sqrt(m) sup ||Q^{-1}|| ||Q|| and the sharper
    per-point bound sup ||Q(z)^{-1}|| |Qvec(z, w)|."""

    C: float
    per_point_bound: float
    sup_f_on_variety: float


def extension_bound(op: ExtensionOperator, grid_n: int = 256) -> BoundReport:
    """C from grid_n circle samples of Q(z) (with an interior spot grid), the
    per-point bound on a torus grid, and sup |f| on the variety.

    For a torus-smooth variety the certificate's gate,
    :meth:`MatrixPolynomial.min_singular_value_on_disk`, finds every zero of
    det Q in the closed disk by a block companion and refuses the
    certificate if there is one.  So Q^{-1} is analytic on the closed disk,
    log ||Q|| and log ||Q^{-1}|| are subharmonic, and by the maximum
    principle the condition number ||Q|| ||Q^{-1}|| takes its sup over the
    disk on the circle, which the samples stand for.
    """
    m = op.rep.m
    circle = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    interior = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16)
    svals = np.linalg.svd(
        op.cert.qmatrix.evaluate(np.concatenate([circle, interior])), compute_uv=False
    )
    c_const = math.sqrt(m) * float(np.max(svals[:, 0] / svals[:, -1]))
    step = max(1, grid_n // 32)
    sub = circle[::step]
    inv_norm = 1.0 / svals[:grid_n:step, -1]
    qnorm = np.sqrt(op.cert.vec_q.norm_sq(sub[:, None], sub[None, :]))
    per_point = float(np.max(inv_norm * np.max(qnorm, axis=1)))
    sup_f = sup_norm_on_variety(op.f, op.cert.p, max(grid_n, 128))
    return BoundReport(c_const, per_point, sup_f)


def sup_norm_on_variety(
    f: BivariatePolynomial, p: BivariatePolynomial, grid_n: int = 256
) -> float:
    """sup of |f| over the variety of p inside the closed bidisk.

    A distinguished variety meets the boundary only in the torus, so the sup
    is attained among the unimodular fiber roots over unimodular z; interior
    fiber samples are folded in as a safety net (they cannot exceed the
    boundary value beyond numerical error for honest inputs)."""
    best = 0.0
    circle = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    sweeps = [(circle, lambda w: np.abs(np.abs(w) - 1.0) < 1e-6)]
    inner = np.exp(2j * np.pi * np.arange(max(grid_n // 4, 8)) / max(grid_n // 4, 8))
    for r in (0.5, 0.9):
        sweeps.append((r * inner, lambda w: np.abs(w) <= 1.0))
    for zs, keep in sweeps:
        z, w = fiber_root_pairs(p, zs)
        mask = keep(w)
        if mask.any():
            best = max(best, float(np.max(np.abs(f.evaluate(z[mask], w[mask])))))
    return best


def expand_extension(op: ExtensionOperator, trim_tol: float = 1e-12):
    """Numerator/denominator display form of F: a bivariate numerator and a
    one-variable denominator det(Q(z)) det(I - zD)^K, K the w-degree of f.

    F itself stays an evaluator; this expansion exists for inspection and
    serialization only.  Both parts are recovered by evaluation on
    roots-of-unity nodes and exact inverse DFT, then trimmed of trailing
    zero coefficients."""
    m, n = op.rep.m, op.rep.n
    fz, fw = op.f.degree
    dz_deg = m * n + fw * n
    nz_deg = n * m + fw * (n + 1) + fz + n

    def denom_at(z):
        qdet = np.linalg.det(op.cert.qmatrix.evaluate(z))
        core = np.linalg.det(np.eye(n) - np.asarray(z)[..., None, None] * op.rep.D)
        return qdet * core**fw

    zs = np.exp(2j * np.pi * np.arange(dz_deg + 1) / (dz_deg + 1))
    den_coeffs = np.fft.fft(denom_at(zs)) / (dz_deg + 1)
    zs2 = np.exp(2j * np.pi * np.arange(nz_deg + 1) / (nz_deg + 1))
    ws2 = np.exp(2j * np.pi * np.arange(m) / max(m, 1))
    fvals = op.evaluate_grid(zs2, ws2) * denom_at(zs2)[:, None]
    num_coeffs = np.fft.fft2(fvals) / ((nz_deg + 1) * max(m, 1))
    numerator = BivariatePolynomial(num_coeffs)
    denominator = BivariatePolynomial(den_coeffs[:, None])
    tn = numerator.true_degree(trim_tol)
    td = denominator.true_degree(trim_tol)
    numerator = BivariatePolynomial(numerator.coeffs[: tn[0] + 1, : tn[1] + 1])
    denominator = BivariatePolynomial(denominator.coeffs[: td[0] + 1, :1])
    return numerator, denominator


@dataclass(frozen=True)
class ExtensionReport:
    on_variety_residual: float
    sup_F_on_bidisk: float
    sup_f_on_variety: float
    bound_C: float
    ratio: float
    passed: bool


def verify_extension(
    op: ExtensionOperator,
    sample: VarietySample,
    grid_n: int = 64,
    tol: float = 1e-6,
) -> ExtensionReport:
    """Check F = f at variety samples and the norm inflation against C."""
    z, w = sample.arrays()
    fv = np.asarray(op.f.evaluate(z, w))
    ev = op.evaluate(z, w)
    scale = 1.0 + float(np.max(np.abs(fv)))
    on_var = float(np.max(np.abs(ev - fv))) / scale
    bound = extension_bound(op, grid_n=max(grid_n, 128))
    pts = disk_spiral(grid_n)
    sup_F = float(np.max(np.abs(op.evaluate_grid(pts, pts))))
    sup_f = bound.sup_f_on_variety
    ratio = sup_F / sup_f if sup_f > 0 else 0.0
    passed = on_var <= 1e-7 and sup_F <= bound.C * sup_f + tol * max(1.0, op.f.scale)
    return ExtensionReport(on_var, sup_F, sup_f, bound.C, ratio, passed)
