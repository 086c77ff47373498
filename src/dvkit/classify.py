"""Locate zero sets of bivariate polynomials relative to the bidisk.

Tests run on one-variable fibers, whose Schur-Cohn matrices count their
roots inside and outside the unit disk (Schur 1917, Cohn 1922).  Over z on
the circle T, the Schur-Cohn matrix S_w(z) of q(z, .) is the Gram matrix of
the B side of the paper's identity, and a trigonometric polynomial of
degree n in z.  Between two samples h apart its least eigenvalue lies at
most h^2 K / 8 below the smaller of theirs, K a curvature bound on the arc
read off the Fourier coefficients that 2n + 1 samples fix, so samples bound
it on all of T.  Each arc gets its own K, from the second derivative at
its midpoint and a bound on the third, and only the arcs left undecided
are bisected.  q has no zeros on the closed (open) bidisk exactly when no
fiber over T has a root in the closed (open) disk and neither has q(., 0)
(DeCarlo, Murray and Saeks 1977).
Labels say whether they are proven or hold at the sampled resolution.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .poly2 import (
    FIBER_TRIM,
    BivariatePolynomial,
    companion_roots,
    roots_of_unity,
    symmetry_constant,
    transpose_vars,
)

__all__ = [
    "ZeroLabel",
    "ZeroClass",
    "SingularityReport",
    "FiberError",
    "fiber_roots",
    "fiber_root_pairs",
    "schur_cohn_matrix",
    "root_count_in_disk",
    "classify_zero_set",
    "torus_points",
    "torus_singularities",
    "is_squarefree",
    "repeated_root",
]

# The zero-set tolerance: fiber roots within this of the circle, and
# Schur-Cohn eigenvalues within this times the fiber's squared coefficient
# norm of zero, count as on it.  :func:`torus_points` and every gate of
# :func:`torus_singularities` read the same band.
TOL = 1e-7
# Equispaced circle samples the label search starts from.
CIRCLE_SAMPLES = 64
# Undecided arcs of the circle are bisected down to width 2 pi / this.
ARC_FLOOR = 1 << 16
# Rounding allowance on Schur-Cohn eigenvalues, relative to the squared
# coefficient norm of the fiber.
EIG_ROUNDING = 1e-12
# Roots of unity in z over which torus_singularities seeks candidates.
TORUS_SWEEP = 128
# is_squarefree: random fibers tried per variable, the gate on the least
# normalized |p_w| at their roots, and the seed of the fiber points.
SQUAREFREE_TRIALS = 5
SQUAREFREE_TOL = 1e-6
SQUAREFREE_SEED = 11


class FiberError(ValueError):
    pass


class ZeroLabel(Enum):
    STABLE_OPEN = "StableOpen"
    STABLE_CLOSED = "StableClosed"
    DV_DEFINING = "DVDefining"
    SYMMETRIC_NONVANISHING_OFF_TORUS = "SymmetricNonvanishingOffTorus"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ZeroClass:
    label: ZeroLabel
    witnesses: tuple = ()
    proven: bool = False  # the label holds beyond the sampled resolution

    def __post_init__(self):
        if self.label is not ZeroLabel.INDETERMINATE and self.witnesses:
            raise ValueError("affirmative label cannot carry witnesses")


@dataclass(frozen=True)
class SingularityReport:
    points: tuple

    @property
    def smooth_on_torus(self) -> bool:
        return not self.points


def fiber_roots(p: BivariatePolynomial, z: complex) -> np.ndarray:
    """All w with p(z, w) = 0, multiplicities included: the batch of one of
    :func:`fiber_root_pairs`.

    The w-degree is reduced at this fiber when leading coefficients vanish;
    an identically zero fiber raises :class:`FiberError`.
    """
    if not np.any(p.fibers(z)):
        raise FiberError("fiber degenerate: p(z, .) is identically zero")
    return fiber_root_pairs(p, [z])[1]


def fiber_root_pairs(p: BivariatePolynomial, zs) -> tuple[np.ndarray, np.ndarray]:
    """Every fiber root over the flattened zs as flat arrays (k, w), w a
    root of p(zs[k], .), ordered by k and then by root.

    Each fiber is cut to its own w-degree by dropping trailing coefficients
    at or below FIBER_TRIM times its largest one, so it contributes as many
    pairs as that degree; a constant or identically zero fiber contributes
    none.  The fibers of each degree, divided by their leading coefficients,
    share one batched :func:`companion_roots` solve."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    fibers = p.fibers(zs)
    mag = np.abs(fibers)
    kept = mag > FIBER_TRIM * np.max(mag, axis=1, keepdims=True)
    deg = np.where(kept.any(axis=1), mag.shape[1] - 1 - np.argmax(kept[:, ::-1], axis=1), -1)
    k = np.repeat(np.arange(len(zs)), np.maximum(deg, 0))
    w = np.empty(len(k), dtype=np.complex128)
    for d in set(deg[k].tolist()):
        f = fibers[deg == d, : d + 1]
        w[deg[k] == d] = companion_roots((f[:, :-1] / f[:, -1:])[..., None, None]).ravel()
    return k, w


def schur_cohn_matrix(coeffs) -> np.ndarray:
    """Schur-Cohn matrices T1^H T1 - T2^H T2 of univariate polynomials,
    coefficients low to high along the last axis, batched over the leading
    axes; T1 and T2 are the m x m lower-triangular Toeplitz matrices of
    (a_0, ..., a_{m-1}) and (conj a_m, ..., conj a_1).  The matrices are
    complex128, or long double complex for such coefficients.

    Entry (i, k) exceeds entry (i+1, k+1) by conj(a_{m-1-i}) a_{m-1-k} -
    a_{i+1} conj(a_{k+1}), so the matrix sums that matrix's diagonal shifts.
    """
    a = np.asarray(coeffs)
    a = a.astype(np.result_type(a, np.complex128), copy=False)
    m = a.shape[-1] - 1
    u, v = a[..., :m][..., ::-1], a[..., 1:]
    step = np.conj(u)[..., :, None] * u[..., None, :] - v[..., :, None] * np.conj(v)[..., None, :]
    out = step.copy()
    for t in range(1, m):
        out[..., :-t, :-t] += step[..., t:, t:]
    return out


def root_count_in_disk(p: BivariatePolynomial, z: complex) -> int:
    """Number of roots of p(z, .) inside the unit disk: the negative inertia
    of its Schur-Cohn matrix at the formal w-degree (a root at infinity is
    outside).  A singular matrix, from a root on the unit circle, a pair of
    roots reflected in it or a zero fiber, raises :class:`FiberError`.
    """
    fiber = p.fibers(z)
    eig = np.linalg.eigvalsh(schur_cohn_matrix(fiber))
    if np.any(np.abs(eig) <= EIG_ROUNDING * np.sum(np.abs(fiber) ** 2)):
        raise FiberError("zero on fiber circle: p(z, .) has a root on |w| = 1 or a reflected pair")
    return int(np.sum(eig < 0))


class _FourierSeries:
    """A Hermitian trigonometric matrix polynomial S(t) = sum_{|k| <= n}
    S_k e^{ikt} of degree n, sampled as ``s`` at len(s) >= 2n + 1
    equispaced points from t = 0.

    One FFT of the samples gives S_1, ..., S_n exactly up to rounding,
    allowed for by EIG_ROUNDING * unit per coefficient; S Hermitian makes
    S_{-k} = S_k^H.  Each arc's curvature bound reads off these
    coefficients."""

    def __init__(self, s, n):
        # -S''(t) = sum_{k >= 1} cos(kt) P_k + sin(kt) Q_k with P_k, Q_k =
        # k^2 (S_k + S_k^H), i k^2 (S_k - S_k^H), flattened to real rows;
        # sum_{|k| <= n} k^2 and |k|^3, and sum |k|^3 ||S_k||_F
        coeffs = np.fft.fft(s, axis=0)[1 : n + 1] / len(s)
        m = coeffs.shape[1]
        self.k = k = np.arange(1, n + 1)
        scaled = (k * k)[:, None, None] * coeffs
        adjoint = scaled.conj().swapaxes(1, 2)
        rows = np.concatenate([scaled + adjoint, 1j * (scaled - adjoint)])
        self.rows = rows.reshape(2 * n, m * m).view(float)
        self.k2, self.k3 = 2.0 * float(k @ k), 2.0 * float(np.sum(k**3))
        self.third = 2.0 * float(k**3 @ np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=(1, 2))))

    def arc_curvature(self, mid, unit):
        """(a, b) with ||S''(t)|| <= a + b |t - mid| on T, one entry of a per
        entry of ``mid``: a bounds ||S''(mid)||_F and b = sum_{|k| <= n}
        |k|^3 ||S_k||_F bounds ||S'''||."""
        err = EIG_ROUNDING * unit
        t = np.multiply.outer(mid, self.k)
        second = np.hstack([np.cos(t), np.sin(t)]) @ self.rows
        return np.sqrt(np.einsum("ij,ij->i", second, second)) + self.k2 * err, self.third + self.k3 * err


def _definite_on_circle(p, sign):
    """Circle samples z, the least eigenvalue of sign * S_w(z) at each, the
    largest squared fiber coefficient norm, and whether sign * S_w is proven
    positive definite on T.

    CIRCLE_SAMPLES equispaced samples, doubled until there are 2n + 1, cut
    T into arcs.  For a unit eigenvector v at a point of an arc of width h,
    v^H S v leaves its chord between the arc's ends by at most h^2 K / 8,
    K a bound on |v^H S'' v| over the arc, and lies above the least
    eigenvalues there; so the arc is proven when the smaller end value,
    less the rounding allowance EIG_ROUNDING * unit, exceeds h^2 K / 8.
    Each arc is judged by its own K, read off the coefficients S_k that one
    FFT of the base samples gives (:class:`_FourierSeries`): on an arc of
    width h about c, S''(t) differs from S''(c) by at most
    |t - c| max||S'''|| <= (h/2) sum |k|^3 ||S_k||, so
    K = ||S''(c)|| + (h/2) sum |k|^3 ||S_k|| bounds ||S''|| there.  Each
    round bisects the unproven arcs, down to width 2 pi / ARC_FLOOR.  The
    search stops, proving nothing, at an unproven arc whose end lies at or
    below the slack its own K, taken at the finest width about its
    midpoint, leaves at that width; an arc end at or below zero is one.
    The samples come back in angular order, each on the uniform grid of
    their arc width."""
    n, count = p.degree[0], CIRCLE_SAMPLES
    while count < 2 * n + 1:
        count *= 2
    fine = count
    while fine < ARC_FLOOR:
        fine *= 2

    def sample(pos):
        fibers = p.fibers(np.exp(2j * np.pi * pos / fine))
        s = sign * schur_cohn_matrix(fibers)
        lam = np.min(np.linalg.eigvalsh(s), axis=1, initial=np.inf)
        return s, lam, float(np.max(np.sum(np.abs(fibers) ** 2, axis=1)))

    width = fine // count
    # the least eigenvalue at each sampled position of the fine grid; an arc
    # is its left end, and its ends read lam[left] and lam[left + width]
    lam, seen = np.empty(fine), np.zeros(fine, dtype=bool)
    left = np.arange(count) * width
    s, lam[left], unit = sample(left)
    seen[left] = True
    series = _FourierSeries(s, n)
    floor = (np.pi / fine) ** 2 / 2
    proven = False
    while True:
        # an arc of this width is proven when its end exceeds slack * K
        slack = (np.pi * width / fine) ** 2 / 2
        ends = np.minimum(lam[left], lam[(left + width) % fine]) - EIG_ROUNDING * unit
        at_mid, third = series.arc_curvature(2 * np.pi * (left + 0.5 * width) / fine, unit)
        undecided = ends <= slack * (at_mid + np.pi * width / fine * third)
        if not undecided.any():
            proven = True
            break
        # the arc's own K on the finest arc about its midpoint
        finest = at_mid[undecided] + np.pi / fine * third
        if (ends[undecided] <= floor * finest).any():
            break
        left = left[undecided]
        width //= 2
        mid = left + width
        _, lam[mid], mid_unit = sample(mid)
        seen[mid] = True
        unit = max(unit, mid_unit)
        left = np.concatenate([left, mid])
    pos = np.flatnonzero(seen)
    return np.exp(2j * np.pi * pos / fine), lam[pos], unit, proven


def _open_disk_roots(p, zs):
    """Points (z, w), z in zs, with w a root of p(z, .) inside the disk by
    more than TOL."""
    zs = np.asarray(zs, dtype=np.complex128)
    k, w = fiber_root_pairs(p, zs)
    inside = np.abs(w) < 1.0 - TOL
    return [(complex(a), complex(b)) for a, b in zip(zs[k[inside]], w[inside])]


def _vertical_lines(p):
    """z0 in the closed disk (to TOL) with p(z0, .) identically zero to
    TOL * scale: the lines {z0} x C inside the zero set.

    Every candidate is a z-root of the largest coefficient column of p,
    read as the one fiber of a polynomial constant in z."""
    col = p.coeffs[:, int(np.argmax(np.max(np.abs(p.coeffs), axis=0)))]
    z0 = fiber_root_pairs(BivariatePolynomial(col[None]), [0.0])[1]
    z0 = z0[np.abs(z0) <= 1.0 + TOL]
    return z0[np.max(np.abs(p.fibers(z0)), axis=1) <= TOL * p.scale]


def _symmetric_label(p):
    """(DVDefining or SymmetricNonvanishingOffTorus, proven) for a
    torus-symmetric p, or None.  In both variables the self-inversive fibers
    over T must have every root on T, as they do when the derivative fiber's
    Schur-Cohn matrix is negative semidefinite (Cohn 1922), and no line may
    meet the closed bidisk (unseen by that test when the other degree is at
    most 1).  No zero then meets (D x T) u (T x D), so every fiber over the
    disk has as many roots inside as the one at z = 0: m or 0."""
    proven = True
    for q in (p, transpose_vars(p)):
        if len(_vertical_lines(q)):
            return None
        _, lam, unit, side_proven = _definite_on_circle(q.partial_w(), -1)
        if np.min(lam) < -TOL * unit:
            return None
        proven = proven and side_proven
    with suppress(FiberError):
        inside = root_count_in_disk(p, 0.0)
        if inside == p.degree[1] > 0:
            return ZeroLabel.DV_DEFINING, proven
        if inside == 0:
            return ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS, proven
    return None


def classify_zero_set(p: BivariatePolynomial) -> ZeroClass:
    """Label the zero set of p relative to the bidisk.

    A torus-symmetric p is tested for DVDefining (zeros confined to
    disk^2 u torus^2 u exterior^2) and SymmetricNonvanishingOffTorus (no
    zeros on the closed bidisk off the torus).  Otherwise StableClosed
    needs S_w(z) proven positive definite on T and q(., 0) without roots in
    the closed disk; StableOpen needs no root in the open disk from q(., 0),
    the fiber at z = 0, or the sampled fibers over T whose S_w(z) is not
    clearly positive definite, and up to 16 such roots are the witnesses of
    Indeterminate.  The search starts from CIRCLE_SAMPLES circle samples;
    roots within TOL of the circle and eigenvalues within TOL times the
    squared fiber coefficient norm of zero count as on it.  p is first
    divided by the power of two that brings its scale into [1/2, 1), which
    is exact, so every 2^k p that stays in range gets the same result.
    """
    p = p.ldexp(-p.exponent)

    def result(label, proven=False, witnesses=()):
        return ZeroClass(label, tuple(witnesses), proven)

    if symmetry_constant(p) is not None:
        found = _symmetric_label(p)
        if found is not None:
            return result(*found)
    z, lam, unit, proven = _definite_on_circle(p, 1)
    at_w0 = transpose_vars(p)
    with suppress(FiberError):
        if proven and root_count_in_disk(at_w0, 0.0) == 0:
            return result(ZeroLabel.STABLE_CLOSED, proven=True)
    zs = np.concatenate([[0.0], z[lam <= TOL * unit]])
    witnesses = _open_disk_roots(p, zs)
    witnesses += [(z0, w0) for w0, z0 in _open_disk_roots(at_w0, [0.0])]
    if not witnesses:
        return result(ZeroLabel.STABLE_OPEN)
    return result(ZeroLabel.INDETERMINATE, witnesses=witnesses[:16])


def torus_points(p: BivariatePolynomial, circle: np.ndarray):
    """The torus points of the variety of p over the circle samples: the
    fiber roots within TOL of |w| = 1, as circle index k and w."""
    k, w = fiber_root_pairs(p, circle)
    on_torus = np.abs(np.abs(w) - 1.0) < TOL
    return k[on_torus], w[on_torus]


def torus_singularities(p: BivariatePolynomial) -> SingularityReport:
    """Points of the torus where p, p_z and p_w vanish together.

    The candidates are the :func:`torus_points` over TORUS_SWEEP roots of
    unity in z.  All are refined at once by Newton's method on
    grad p = (p_z, p_w) = 0, whose Jacobian is the Hessian of p; it is
    nonsingular at an ordinary node, so convergence there is quadratic.  A
    candidate stops when its step falls below 1e-14 or its Hessian
    determinant is exactly 0 (it then sits on a singular curve, as along a
    repeated factor), after at most 30 steps.  The points kept lie within
    TOL of the torus with |p_z| and |p_w| at most TOL * scale and, since p
    vanishes to second order where its gradient does, |p| at most
    TOL^2 * scale: a critical point of p off its variety fails that gate.
    They are de-duplicated at TOL.
    """
    fz, fw = p.partial_z(), p.partial_w()
    fzz, fzw, fww = fz.partial_z(), fz.partial_w(), fw.partial_w()
    scale = p.scale
    circle = roots_of_unity(TORUS_SWEEP)
    k, w = torus_points(p, circle)
    z = circle[k]

    active = np.arange(len(z))
    # A candidate far from any critical point may diverge; it fails the gate.
    with np.errstate(all="ignore"):
        for _ in range(30):
            if not len(active):
                break
            za, wa = z[active], w[active]
            gz, gw = fz.evaluate(za, wa), fw.evaluate(za, wa)
            hzz, hzw, hww = fzz.evaluate(za, wa), fzw.evaluate(za, wa), fww.evaluate(za, wa)
            det = hzz * hww - hzw * hzw
            moving = det != 0
            dz = (hww * gz - hzw * gw)[moving] / det[moving]
            dw = (hzz * gw - hzw * gz)[moving] / det[moving]
            active = active[moving]
            z[active] -= dz
            w[active] -= dw
            step = np.abs(dz) + np.abs(dw)
            active = active[step >= 1e-14]

        bound = TOL * scale
        keep = (
            (np.abs(np.abs(z) - 1.0) < TOL)
            & (np.abs(np.abs(w) - 1.0) < TOL)
            & (np.abs(p.evaluate(z, w)) <= TOL * bound)
            & (np.abs(fz.evaluate(z, w)) <= bound)
            & (np.abs(fw.evaluate(z, w)) <= bound)
        )
    found = []
    for zz, ww in zip(z[keep], w[keep]):
        if all(abs(zz - a) + abs(ww - b) > TOL for a, b in found):
            found.append((complex(zz), complex(ww)))
    return SingularityReport(tuple(found))


def is_squarefree(p: BivariatePolynomial) -> bool:
    """Probabilistic squarefreeness check on fibers over random z, and on
    fibers over random w for a repeated factor free of w.

    A repeated factor gives every fiber a multiple root, where p_w vanishes.
    At each of SQUAREFREE_TRIALS random z the check takes the least |p_w|
    over the fiber's roots, normalized by the size of p_w on a circle
    enclosing them, so the verdict depends neither on the scale of p nor on
    the number of roots.
    A double root is computed only to about sqrt(eps) ~ 1e-8, which leaves
    that least value near 1e-8 when a factor repeats, against the root
    separations (above 1e-3 on seeded Haar varieties up to degree 6) when
    none does.  A variable counts as squarefree when one trial stays above
    SQUAREFREE_TOL; p needs both.
    """
    return repeated_root(p) is None


def repeated_root(p: BivariatePolynomial):
    """Where :func:`is_squarefree` fails, the multiple fiber root it found at
    its first trial, as (variable, fiber point, root, multiplicity): the
    variable ("w" or "z") the fiber is taken in, the root the mean of the
    roots at which the derivative passes the test, within 10% of the least
    one, and the multiplicity their count; a fiber that vanishes
    identically gives root nan and its formal degree.  None where p
    passes.  p is first divided by a power of two, which is exact, so the
    verdict does not depend on its scale."""
    p = p.ldexp(-p.exponent)
    for var, f in (("w", p), ("z", transpose_vars(p))):
        found = _multiple_fiber_root(f)
        if found is not None:
            return (var,) + found
    return None


def _multiple_fiber_root(p):
    rng = np.random.default_rng(SQUAREFREE_SEED)
    if p.degree[1] == 0:
        return None
    pw = p.partial_w()
    u = rng.uniform(size=(SQUAREFREE_TRIALS, 2))
    zs = 0.7 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    k, w = fiber_root_pairs(p, zs)
    first = None
    for i, z in enumerate(zs):
        roots = w[k == i]
        if not len(roots):
            if np.any(p.fibers(z)):  # a nonzero constant fiber has no root
                return None
            first = first or (complex(z), complex(np.nan), p.degree[1])
            continue
        circle = roots_of_unity(32) * max(1.0, np.max(np.abs(roots)))
        ref = max(float(np.max(np.abs(pw.evaluate(z, circle)))), 1e-300)
        slope = np.abs(pw.evaluate(z, roots))
        if np.min(slope) > SQUAREFREE_TOL * ref:
            return None
        if first is None:
            w0 = roots[np.argmin(slope)]
            near = (slope <= SQUAREFREE_TOL * ref) & (np.abs(roots - w0) <= 0.1 * max(1.0, abs(w0)))
            first = (complex(z), complex(np.mean(roots[near])), int(np.sum(near)))
    return first
