"""Bounded analytic extension from a distinguished variety to the bidisk.

Given a realization (Phi, Q) of the variety of p, of degree (n, m), the
paper's extension of a polynomial f is

    F(z, w) = (1, 0, ..., 0) Q(z)^{-1} f(zI_m, Phi(z)) Q(z) (1, w, ..., w^{m-1})^t,

bounded by C * sup_V |f| with C = sqrt(m) sup_z ||Q(z)^{-1}|| ||Q(z)||.  F
has w-degree at most m - 1, and at each fiber root lambda of p(z, .) the
vector Q(z) (1, lambda, ..., lambda^{m-1})^t is a lambda-eigenvector of
Phi(z), so F(z, lambda) = f(z, lambda).  F(z, .) is therefore the remainder
of f(z, .) on division by p(z, .), and that is how F is computed: by
synthetic division in w, and, for display, by pseudo-division as
r(z, w) / p_m(z)^k with p_m the leading w-coefficient of p.  The
realization enters only through C and the gates that tie it to p.

Every check is read on the torus.  Once det Q and p_m have no zero in the
closed disk and rho(D) < 1, which :func:`extension_bound` checks first,
Q^{-1}, Phi and the remainder are analytic on a neighborhood of the closed
disk, and F on the closed bidisk (Agler-McCarthy, "Distinguished
varieties", Acta Math. 2005).  Then the sup of ||Q|| ||Q^{-1}|| lies on the
circle (log-subharmonicity of operator norms of analytic matrix functions),
the sup of |F| on the torus T^2 (the maximum principle in each variable),
and the sups of |f|, of |F - f| and of the eigen relation's residual over
the variety on its torus points, where a distinguished variety meets the
boundary of the bidisk (the maximum principle on the variety).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import torus_points
from .dvrep import EIGEN_TOL, RHO_D_MAX, DvCertificate, UnitaryRealization, eigen_relation, phi_evaluate
from .poly2 import BivariatePolynomial, MatrixPolynomial, horner, roots_of_unity

__all__ = [
    "ExtensionOperator",
    "ExtensionReport",
    "expand_extension",
    "extension_bound",
    "sup_norm_on_variety",
    "verify_extension",
]

# Absolute allowance, per unit of f's coefficient scale, on the inflation
# check sup|F| <= C sup_V |f| of :func:`verify_extension`.
INFLATION_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class ExtensionOperator:
    """Evaluator for the extension F of f off the variety of cert.p."""

    rep: UnitaryRealization
    cert: DvCertificate
    f: BivariatePolynomial

    def __post_init__(self):
        if len(self.cert.vec_q) != self.rep.m or self.cert.p.degree[1] != self.rep.m:
            raise ValueError("certificate and realization disagree on m")

    @functools.cached_property
    def p(self) -> BivariatePolynomial:
        """cert.p divided by its power of two, exactly: the divisor of F at
        unit scale, whatever the scale of cert.p."""
        return self.cert.p.ldexp(-self.cert.p.exponent)

    def rows(self, zs) -> np.ndarray:
        """g(z), the coefficients low to high in w of the remainder of
        f(z, .) on division by p(z, .), for each z of the flat array ``zs``;
        shape (len(zs), m).

        F(z, w) is g(z) . (1, w, ..., w^{m-1}).  Synthetic division takes
        one step per w-degree of f from deg_w f down to m, all z at once."""
        m = self.rep.m
        r = self.f.fibers(zs)
        pc = self.p.fibers(zs)
        for j in range(r.shape[1] - 1, m - 1, -1):
            r[:, j - m : j + 1] -= (r[:, j] / pc[:, m])[:, None] * pc
        out = np.zeros((len(zs), m), dtype=np.complex128)
        out[:, : min(m, r.shape[1])] = r[:, :m]
        return out

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
        """F on the product grid zs x ws, shape (len(zs), len(ws)).  Nothing
        in the library calls it: it stays for tests and for the benchmark
        tracer, which counts it."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        ws = np.asarray(ws, dtype=np.complex128).ravel()
        return self.evaluate(zs[:, None], ws[None, :])


def _max_abs(values) -> float:
    return float(np.max(np.abs(values))) if np.size(values) else 0.0


def _require_analytic(rep: UnitaryRealization, cert: DvCertificate) -> None:
    """Refuse a realization whose F may have a pole in the closed bidisk:
    Q failing the Qmatrix gate of the representation report (a zero of
    det Q in the closed disk, which is named, or one just outside), rho(D)
    not below RHO_D_MAX, a NaN radius included, or a zero in the closed
    disk of p_m, the leading w-coefficient of p, which F divides by."""
    qmatrix = cert.qmatrix
    sigma, bound = qmatrix.min_singular_value_on_disk, qmatrix.disk_bound(1e-8)
    if not sigma > bound:
        zeros = qmatrix.det_zeros_in_disk
        why = f"det Q has a zero at z = {complex(zeros[0]):.6g} in the closed disk" if len(zeros) else (
            f"Q's least singular value on the closed disk, {sigma:.3e}, is not above {bound:.3e}"
        )
        raise ValueError(f"Qmatrix: {why}, so Q^-1 and the extension are not analytic on the closed bidisk")
    rho = rep.d_spectral_radius()
    if not rho < RHO_D_MAX:
        raise ValueError(
            f"realization: D has spectral radius {rho:.6g}, so Phi is not analytic on the closed disk"
        )
    zeros = MatrixPolynomial(cert.p.coeffs[None, None, :, -1]).det_zeros_in_disk
    if len(zeros):
        raise ValueError(
            f"poly: p_m, the leading coefficient of p in w, has a zero at z = {complex(zeros[0]):.6g} "
            "in the closed disk, so the extension is not analytic on the closed bidisk"
        )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def extension_bound(rep: UnitaryRealization, cert: DvCertificate) -> float:
    """C = sqrt(m) max ||Q(z)|| ||Q(z)^{-1}|| over the 256th roots of unity,
    from :meth:`MatrixPolynomial.singular_values_on_circle`; Q and the
    analyticity gates alone, neither f nor the variety's points.

    Raises ValueError when Q fails the Qmatrix gate, p_m has a zero in
    the closed disk or rho(D) is not below RHO_D_MAX.  Otherwise Q^{-1} is
    analytic on the closed disk, log ||Q|| and log ||Q^{-1}|| are subharmonic, and by the
    maximum principle the condition number ||Q|| ||Q^{-1}|| takes its sup
    over the disk on the circle, which the samples stand for, at every
    scale of Q.  A Q singular at a sample gives a C that is not finite.
    """
    _require_analytic(rep, cert)
    s, _ = cert.qmatrix.singular_values_on_circle(256)
    return math.sqrt(rep.m) * float(np.max(s[:, 0] / s[:, -1]))


def sup_norm_on_variety(
    f: BivariatePolynomial, p: BivariatePolynomial, grid_n: int = 256
) -> float:
    """sup of |f| over the variety of p inside the closed bidisk.

    A distinguished variety meets the boundary of the bidisk only in the
    torus, and |f| on the variety is subharmonic, so by the maximum
    principle the sup is attained among the unimodular fiber roots over the
    ``grid_n`` roots of unity in z."""
    circle = roots_of_unity(grid_n)
    k, w = torus_points(p, circle)
    return _max_abs(f.evaluate(circle[k], w))


@np.errstate(over="ignore", invalid="ignore")
def expand_extension(op: ExtensionOperator):
    """Numerator/denominator display form of F, a bivariate numerator r and
    a one-variable denominator p_m(z)^k.

    Pseudo-division of f by p in w gives p_m^k f = s p + r with r of
    w-degree below m, p_m the leading w-coefficient of p and
    k = max(0, deg_w f - m + 1), so F = r / p_m^k, and f = w reads w over 1
    whenever m >= 2.  Each step multiplies by p_m and cancels the leading
    w-term, which is dropped; trailing zero coefficients are trimmed.  p is
    taken at unit scale (:attr:`ExtensionOperator.p`), so the parts are the
    same at every scale of p.  Raises ValueError, naming the part, when its
    coefficients are not finite."""
    m = op.rep.m
    p_m = BivariatePolynomial(op.p.coeffs[:, m:])
    fw = op.f.true_degree()[1]
    num = BivariatePolynomial(op.f.coeffs[:, : fw + 1])
    den = BivariatePolynomial.constant(1.0)
    for j in range(fw, m - 1, -1):
        lead = np.zeros((num.coeffs.shape[0], j - m + 1), dtype=np.complex128)
        lead[:, -1] = num.coeffs[:, j]  # the w^j coefficient, times w^(j - m)
        num = BivariatePolynomial((p_m * num - BivariatePolynomial(lead) * op.p).coeffs[:, :j])
        den = den * p_m
    parts = []
    for name, part in (("numerator", num), ("denominator", den)):
        if not np.isfinite(part.coeffs).all():
            raise ValueError(f"{name}: the extension overflows, so its coefficients are not finite")
        tz, tw = part.true_degree()
        parts.append(BivariatePolynomial(part.coeffs[: tz + 1, : tw + 1]))
    return tuple(parts)


@dataclass(frozen=True)
class ExtensionReport:
    on_variety_residual: float
    eigen_relation: float
    sup_F_on_bidisk: float
    sup_f_on_variety: float
    C: float
    ratio: float
    passed: bool


@np.errstate(over="ignore", invalid="ignore")
def verify_extension(op: ExtensionOperator) -> ExtensionReport:
    """Check F = f on the variety, the eigen relation of the realization and
    the norm inflation against C of :func:`extension_bound`, over the 128th
    roots of unity z_k, which are every other one of the 256 that C reads.

    F is read through the operator's own evaluator, so the checks hold of
    the values :class:`ExtensionOperator` gives.  ``on_variety_residual`` is
    max |F - f| over the torus points of the variety over the z_k, relative
    to 1 + sup_V |f|: a check of the division against f.
    ``eigen_relation`` is the :func:`dvrep.eigen_relation` of Phi and Q at
    the same points, which ties the realization, and so C, to p: where
    Q(z, w) is a w-eigenvector of Phi(z) on the variety, the paper's F is
    the remainder that the operator computes.  Both are analytic on the
    variety, so by the maximum principle they bound their values inside the
    bidisk too.  ``sup_F_on_bidisk`` is max |F| over the grid z_k x z_k of
    the torus, read by one broadcast :meth:`ExtensionOperator.evaluate`,
    where F, analytic on the closed bidisk, takes its sup.  A value that
    overflows is not finite and fails the check, and so does a C that is
    not finite, against which the inflation check would hold vacuously.
    Raises ValueError as :func:`extension_bound` does."""
    c_const = extension_bound(op.rep, op.cert)
    circle = roots_of_unity(128)
    k, w = torus_points(op.p, circle)
    fv = op.f.evaluate(circle[k], w)
    sup_f = _max_abs(fv)
    on_var = _max_abs(op.evaluate(circle[k], w) - fv) / (1.0 + sup_f)
    # Q(z, w) = Qmatrix(z) (1, w, ..., w^{m-1})^t at the torus points
    qv = horner(np.moveaxis(op.cert.qmatrix.evaluate(circle)[k], 2, 0), w[:, None]).T
    eig = eigen_relation(phi_evaluate(op.rep, circle)[k], w, qv)
    sup_F = _max_abs(op.evaluate(circle[:, None], circle[None, :]))
    ratio = sup_F / sup_f if sup_f > 0 else 0.0
    bound = c_const * sup_f + INFLATION_SLACK * max(1.0, op.f.scale)
    passed = on_var <= 1e-7 and eig <= EIGEN_TOL and math.isfinite(c_const) and sup_F <= bound
    return ExtensionReport(on_var, eig, sup_F, sup_f, c_const, ratio, passed)
