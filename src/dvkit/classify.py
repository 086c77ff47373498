"""Locate zero sets of bivariate polynomials relative to the bidisk.

Tests run on one-variable fibers, whose Schur-Cohn matrices count their
roots inside and outside the unit disk (Schur 1917, Cohn 1922).  Over z on
the circle T, the Schur-Cohn matrix S_w(z) of q(z, .) is the Gram matrix of
the B side of the paper's identity, and a trigonometric polynomial of
degree n in z.  Between two samples h apart its least eigenvalue lies at
most h^2 K / 8 below the smaller of theirs, K a curvature bound read off the
Fourier coefficients that 2n + 1 samples fix, so samples bound it on all of
T; only the arcs this leaves undecided are bisected.  q has no zeros on the
closed (open) bidisk exactly when no fiber over T has a root in the closed
(open) disk and neither has q(., 0) (DeCarlo, Murray and Saeks 1977).
Labels say whether they are proven or hold at the sampled resolution.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .poly2 import BivariatePolynomial, symmetry_analysis, transpose_vars

__all__ = [
    "ZeroLabel",
    "ZeroClass",
    "SingularityReport",
    "FiberError",
    "fiber_polynomial",
    "companion_roots",
    "fiber_roots",
    "batched_fiber_roots",
    "fiber_root_pairs",
    "schur_cohn_matrix",
    "root_count_in_disk",
    "classify_zero_set",
    "torus_singularities",
    "is_squarefree",
    "repeated_root",
]

# Undecided arcs of the circle are bisected down to width 2 pi / this.
CIRCLE_SAMPLES_MAX = 4096
# Rounding allowance on Schur-Cohn eigenvalues, relative to the squared
# coefficient norm of the fiber.
EIG_ROUNDING = 1e-12
# Fiber coefficients at or below this fraction of the fiber's largest one
# count as zero when the fiber's w-degree is read off.
FIBER_TRIM = 1e-12


class FiberError(ValueError):
    pass


class QuadratureError(ValueError):
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
    grid_n: int = 0
    tol: float = 0.0
    proven: bool = False  # the label holds beyond the sampled resolution

    def __post_init__(self):
        if self.label is not ZeroLabel.INDETERMINATE and self.witnesses:
            raise ValueError("affirmative label cannot carry witnesses")


@dataclass(frozen=True)
class SingularityReport:
    points: tuple
    smooth_on_torus: bool

    def __post_init__(self):
        if self.smooth_on_torus != (len(self.points) == 0):
            raise ValueError("smooth_on_torus must mirror emptiness of points")


def fiber_polynomial(p: BivariatePolynomial, z: complex):
    """Coefficients (low to high in w) of p(z, .), trailing near-zeros trimmed."""
    coeffs = p.fibers(z)
    top = np.max(np.abs(coeffs))
    if top == 0.0:
        raise FiberError("fiber degenerate: p(z, .) is identically zero")
    k = p.degree[1]
    while k > 0 and abs(coeffs[k]) <= FIBER_TRIM * top:
        k -= 1
    return coeffs[: k + 1]


def companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of univariate polynomials, low-to-high coefficients along the
    last axis, via the eigenvalues of their companion matrices.

    Batched over the leading axes; every leading coefficient must be nonzero.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    deg = coeffs.shape[-1] - 1
    if deg == 0:
        return np.zeros(coeffs.shape[:-1] + (0,), dtype=np.complex128)
    comp = np.zeros(coeffs.shape[:-1] + (deg, deg), dtype=np.complex128)
    comp[..., 1:, :-1] = np.eye(deg - 1)
    comp[..., :, -1] = -(coeffs[..., :-1] / coeffs[..., -1:])
    return np.linalg.eigvals(comp)


def fiber_roots(p: BivariatePolynomial, z: complex) -> np.ndarray:
    """All w with p(z, w) = 0, multiplicities included.

    The w-degree is reduced at this fiber when leading coefficients vanish;
    an identically zero fiber raises :class:`FiberError`.
    """
    return companion_roots(fiber_polynomial(p, z))


def batched_fiber_roots(p: BivariatePolynomial, zs) -> list:
    """Fiber roots over many z at once, one entry per z.

    Fibers at full w-degree share one batched companion solve; fibers that
    lose degree go through :func:`fiber_roots` one at a time, and an
    identically zero fiber gives None.
    """
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    fibers = p.fibers(zs)
    full = np.abs(fibers[:, -1]) > FIBER_TRIM * np.max(np.abs(fibers), axis=1)
    batched = iter(companion_roots(fibers[full]))
    out = []
    for z, ok in zip(zs, full):
        if ok:
            out.append(next(batched))
            continue
        try:
            out.append(fiber_roots(p, complex(z)))
        except FiberError:
            out.append(None)
    return out


def fiber_root_pairs(p: BivariatePolynomial, zs) -> tuple[np.ndarray, np.ndarray]:
    """Every fiber root over zs as flat arrays (z, w), ordered by z and then
    by root; identically zero fibers contribute no pair."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    empty = np.zeros(0, dtype=np.complex128)
    roots = [empty if r is None else r for r in batched_fiber_roots(p, zs)]
    return np.repeat(zs, [len(r) for r in roots]), np.concatenate([empty] + roots)


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


def _fourier_curvature(s, n, unit):
    """Bound on ||S''(theta)|| over T for a degree-n trigonometric matrix
    polynomial S sampled as ``s`` at len(s) >= 2n + 1 equispaced points.

    One FFT of the samples gives the coefficients S_k, |k| <= n, exactly up
    to rounding, allowed for by EIG_ROUNDING * unit per coefficient; S
    Hermitian makes S_{-k} = S_k^H, and ||S''|| <= sum k^2 ||S_k||_F."""
    coeffs = np.fft.fft(s, axis=0)[1 : n + 1] / len(s)
    frob = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=(1, 2)))
    k = np.arange(1, n + 1)
    return 2.0 * float(np.sum(k * k * (frob + EIG_ROUNDING * unit)))


def _definite_on_circle(p, grid_n, sign, cap=CIRCLE_SAMPLES_MAX):
    """Circle samples z, the least eigenvalue of sign * S_w(z) at each, the
    largest squared fiber coefficient norm, and whether sign * S_w is proven
    positive definite on T.

    ``grid_n`` equispaced samples, doubled until there are 2n + 1, cut T
    into arcs.  For a unit eigenvector v at a point of an arc of width h,
    v^H S v leaves its chord between the arc's ends by at most h^2 K / 8,
    K a bound on |v^H S'' v|, and lies above the least eigenvalues there;
    so the arc is proven when the smaller end value, less the rounding
    allowance EIG_ROUNDING * unit, exceeds h^2 K / 8.  K is Bernstein's
    n^2 max||S||, max||S|| <= max sampled ||S|| / (1 - (1/2)(pi n / M)^2) on
    M samples by the same chord argument at the maximum, or the smaller
    Fourier bound of :func:`_fourier_curvature` when Bernstein's leaves a
    base arc unproven.  Each round then bisects the unproven arcs, down to
    width 2 pi / ``cap``; an unproven arc whose end lies at or below the
    slack of that finest width can never be proven and ends the search.
    The samples come back in angular order, each on the uniform grid of its
    arc width."""
    n, count = p.degree[0], grid_n
    while count < 2 * n + 1:
        count *= 2
    fine = count
    while fine < cap:
        fine *= 2

    def sample(pos):
        z = np.exp(2j * np.pi * pos / fine)
        fibers = p.fibers(z)
        s = sign * schur_cohn_matrix(fibers)
        eig = np.linalg.eigvalsh(s)
        unit = float(np.max(np.sum(np.abs(fibers) ** 2, axis=1)))
        return z, s, eig, np.min(eig, axis=1, initial=np.inf), unit

    width = fine // count
    pos = np.arange(count) * width
    z, s, eig, lam, unit = sample(pos)
    half_sq = 0.5 * (np.pi * n / count) ** 2
    norm = float(np.max(np.abs(eig), initial=0.0))
    curve = n * n * norm / (1.0 - half_sq) if half_sq < 1.0 else np.inf
    if float(np.min(lam)) - EIG_ROUNDING * unit > (np.pi / count) ** 2 * curve / 2:
        return z, lam, unit, True
    curve = min(curve, _fourier_curvature(s, n, unit))
    # arcs: left end position and the least eigenvalues at both ends
    left, lo, hi = pos, lam, np.roll(lam, -1)
    all_pos, all_lam = [pos], [lam]
    while True:
        ends = np.minimum(lo, hi) - EIG_ROUNDING * unit
        undecided = ends <= (np.pi * width / fine) ** 2 * curve / 2
        proven = not np.any(undecided)
        if proven or np.min(ends[undecided]) <= (np.pi / fine) ** 2 * curve / 2:
            break
        left, lo, hi = left[undecided], lo[undecided], hi[undecided]
        width //= 2
        mid = left + width
        _, _, _, mid_lam, mid_unit = sample(mid)
        unit = max(unit, mid_unit)
        all_pos.append(mid)
        all_lam.append(mid_lam)
        left = np.concatenate([left, mid])
        lo, hi = np.concatenate([lo, mid_lam]), np.concatenate([mid_lam, hi])
    pos, lam = np.concatenate(all_pos), np.concatenate(all_lam)
    order = np.argsort(pos)
    return np.exp(2j * np.pi * pos[order] / fine), lam[order], unit, proven


def _open_disk_roots(p, zs, tol):
    """Points (z, w), z in zs, with w a root of p(z, .) inside the disk by
    more than ``tol``."""
    z, w = fiber_root_pairs(p, zs)
    inside = np.abs(w) < 1.0 - tol
    return [(complex(a), complex(b)) for a, b in zip(z[inside], w[inside])]


def _vertical_lines(p, tol):
    """z0 in the closed disk (to ``tol``) with p(z0, .) identically zero to
    ``tol * scale``: the lines {z0} x C inside the zero set.

    Every candidate is a z-root of the largest coefficient column of p."""
    col = p.coeffs[:, int(np.argmax(np.max(np.abs(p.coeffs), axis=0)))]
    k = len(col) - 1
    while k > 0 and abs(col[k]) <= FIBER_TRIM * np.max(np.abs(col)):
        k -= 1
    z0 = companion_roots(col[: k + 1])
    z0 = z0[np.abs(z0) <= 1.0 + tol]
    return z0[np.max(np.abs(p.fibers(z0)), axis=1) <= tol * p.scale]


def _symmetric_label(p, grid_n, tol):
    """(DVDefining or SymmetricNonvanishingOffTorus, proven) for a
    torus-symmetric p, or None.  In both variables the self-inversive fibers
    over T must have every root on T, as they do when the derivative fiber's
    Schur-Cohn matrix is negative semidefinite (Cohn 1922), and no line may
    meet the closed bidisk (unseen by that test when the other degree is at
    most 1).  No zero then meets (D x T) u (T x D), so every fiber over the
    disk has as many roots inside as the one at z = 0: m or 0."""
    proven = True
    for q in (p, transpose_vars(p)):
        if len(_vertical_lines(q, tol)):
            return None
        cap = CIRCLE_SAMPLES_MAX if proven else grid_n
        _, lam, unit, side_proven = _definite_on_circle(q.partial_w(), grid_n, -1, cap)
        if np.min(lam) < -tol * unit:
            return None
        proven = proven and side_proven
    with suppress(FiberError):
        inside = root_count_in_disk(p, 0.0)
        if inside == p.degree[1] > 0:
            return ZeroLabel.DV_DEFINING, proven
        if inside == 0:
            return ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS, proven
    return None


def classify_zero_set(
    p: BivariatePolynomial, grid_n: int = 64, tol: float = 1e-7
) -> ZeroClass:
    """Label the zero set of p relative to the bidisk.

    A torus-symmetric p is tested for DVDefining (zeros confined to
    disk^2 u torus^2 u exterior^2) and SymmetricNonvanishingOffTorus (no
    zeros on the closed bidisk off the torus).  Otherwise StableClosed
    needs S_w(z) proven positive definite on T and q(., 0) without roots in
    the closed disk; StableOpen needs no root in the open disk from q(., 0),
    the fiber at z = 0, or the sampled fibers over T whose S_w(z) is not
    clearly positive definite, and up to 16 such roots are the witnesses of
    Indeterminate.  ``grid_n`` is the starting number of circle samples;
    roots within ``tol`` of the circle and eigenvalues within ``tol`` times
    the squared fiber coefficient norm of zero count as on it.  p is first
    divided by the power of two that brings its scale into [1/2, 1), which
    is exact, so every 2^k p that stays in range gets the same result.
    """
    p = p.ldexp(-p.exponent)

    def result(label, proven=False, witnesses=()):
        return ZeroClass(label, tuple(witnesses), grid_n, tol, proven)

    if symmetry_analysis(p, tol=1e-8).is_symmetric:
        found = _symmetric_label(p, grid_n, tol)
        if found is not None:
            return result(*found)
    z, lam, unit, proven = _definite_on_circle(p, grid_n, 1)
    at_w0 = transpose_vars(p)
    with suppress(FiberError):
        if proven and root_count_in_disk(at_w0, 0.0) == 0:
            return result(ZeroLabel.STABLE_CLOSED, proven=True)
    zs = np.concatenate([[0.0], z[lam <= tol * unit]])
    witnesses = _open_disk_roots(p, zs, tol)
    witnesses += [(z0, w0) for w0, z0 in _open_disk_roots(at_w0, [0.0], tol)]
    if not witnesses:
        return result(ZeroLabel.STABLE_OPEN)
    return result(ZeroLabel.INDETERMINATE, witnesses=witnesses[:16])


def torus_singularities(
    p: BivariatePolynomial, grid_n: int = 128, tol: float = 1e-8
) -> SingularityReport:
    """Points of the torus where p, p_z and p_w vanish together.

    Sweeps z over ``grid_n`` roots of unity and takes the fiber roots within
    1e-2 of the unit circle as candidates.  All candidates are refined at
    once by Newton's method on grad p = (p_z, p_w) = 0, whose Jacobian is the
    Hessian of p; it is nonsingular at an ordinary node, so convergence there
    is quadratic.  A candidate stops when its step falls below 1e-14 or its
    Hessian determinant is exactly 0 (it then sits on a singular curve, as
    along a repeated factor), after at most 30 steps.  The points kept lie
    within 1e-6 of the torus with |p|, |p_z| and |p_w| all below
    ``tol * scale``, de-duplicated at 1e-5.
    """
    fz, fw = p.partial_z(), p.partial_w()
    fzz, fzw, fww = fz.partial_z(), fz.partial_w(), fw.partial_w()
    scale = p.scale
    circle = np.exp(1j * (2 * np.pi * np.arange(grid_n) / grid_n))
    z, w = fiber_root_pairs(p, circle)
    near = np.abs(np.abs(w) - 1.0) <= 1e-2
    z, w = z[near], w[near]

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

        bound = tol * scale
        keep = (
            (np.abs(np.abs(z) - 1.0) < 1e-6)
            & (np.abs(np.abs(w) - 1.0) < 1e-6)
            & (np.abs(p.evaluate(z, w)) <= bound)
            & (np.abs(fz.evaluate(z, w)) <= bound)
            & (np.abs(fw.evaluate(z, w)) <= bound)
        )
    found = []
    for zz, ww in zip(z[keep], w[keep]):
        if all(abs(zz - a) + abs(ww - b) > 1e-5 for a, b in found):
            found.append((complex(zz), complex(ww)))
    return SingularityReport(tuple(found), smooth_on_torus=not found)


def is_squarefree(
    p: BivariatePolynomial, trials: int = 5, tol: float = 1e-6, seed: int = 11
) -> bool:
    """Probabilistic squarefreeness check on fibers over random z, and on
    fibers over random w for a repeated factor free of w.

    A repeated factor gives every fiber a multiple root, where p_w vanishes.
    At each random z the check takes the least |p_w| over the fiber's
    roots, normalized by the size of p_w on a circle enclosing them, so the
    verdict depends neither on the scale of p nor on the number of roots.
    A double root is computed only to about sqrt(eps) ~ 1e-8, which leaves
    that least value near 1e-8 when a factor repeats, against the root
    separations (above 1e-3 on seeded Haar varieties up to degree 6) when
    none does.  A variable counts as squarefree when one trial stays above
    ``tol``; p needs both.
    """
    return repeated_root(p, trials, tol, seed) is None


def repeated_root(p: BivariatePolynomial, trials: int = 5, tol: float = 1e-6, seed: int = 11):
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
        found = _multiple_fiber_root(f, trials, tol, seed)
        if found is not None:
            return (var,) + found
    return None


def _multiple_fiber_root(p, trials, tol, seed):
    rng = np.random.default_rng(seed)
    if p.degree[1] == 0:
        return None
    pw = p.partial_w()
    u = rng.uniform(size=(trials, 2))
    zs = 0.7 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    first = None
    for z, roots in zip(zs, batched_fiber_roots(p, zs)):
        if roots is None:
            first = first or (complex(z), complex(np.nan), p.degree[1])
            continue
        if not len(roots):
            return None
        circle = np.exp(2j * np.pi * np.arange(32) / 32) * max(
            1.0, np.max(np.abs(roots))
        )
        ref = max(float(np.max(np.abs(pw.evaluate(z, circle)))), 1e-300)
        slope = np.abs(pw.evaluate(z, roots))
        if np.min(slope) > tol * ref:
            return None
        if first is None:
            w0 = roots[np.argmin(slope)]
            near = (slope <= tol * ref) & (np.abs(roots - w0) <= 0.1 * max(1.0, abs(w0)))
            first = (complex(z), complex(np.mean(roots[near])), int(np.sum(near)))
    return first
