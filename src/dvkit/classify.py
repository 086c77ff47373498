"""Locate zero sets of bivariate polynomials relative to the bidisk.

The tests here are sampling-based: a witness (a near-zero in a forbidden
region) certifies failure, while affirmative labels are certified only at
the resolution of the grid, which the report records.  Fibers p(z, .) are
analyzed through companion-matrix roots, and the number of fiber roots
inside the unit disk is measured by the argument-principle contour integral
N(z) = (1/2 pi i) contour_int p_w / p dw, which is constant in z exactly
when the zero set stays clear of the disk-times-circle region.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .poly2 import BivariatePolynomial, symmetry_analysis

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
    "root_count_in_disk",
    "classify_zero_set",
    "torus_singularities",
    "is_squarefree",
]

# Sample points closer than this to the torus (max metric) are excluded from
# forbidden-region sweeps: zeros of honest variety-defining polynomials
# legitimately accumulate at the torus.
TORUS_MARGIN = 0.02
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


def root_count_in_disk(
    p: BivariatePolynomial,
    z: complex,
    quad_points: int | None = None,
    zero_tol: float = 1e-9,
) -> int:
    """Number of roots of p(z, .) inside the unit disk, by contour integral.

    Trapezoidal quadrature of p_w/p * w over uniform circle nodes; the node
    count doubles until two successive values agree, and the final value
    must sit within 0.25 of an integer.
    """
    n, m = p.degree
    pw = p.partial_w()
    scale = p.scale
    profile = {}

    def quad(npts: int) -> complex:
        w = np.exp(2j * np.pi * np.arange(npts) / npts)
        pv = p.evaluate(z, w)
        absv = np.abs(pv)
        profile["min"], profile["max"] = float(np.min(absv)), float(np.max(absv))
        if profile["min"] <= zero_tol * max(scale, 1e-300):
            raise FiberError("zero on fiber circle: p(z, .) vanishes near |w| = 1")
        return np.mean(pw.evaluate(z, w) / pv * w)

    if quad_points is not None:
        val = quad(quad_points)
    else:
        npts = max(256, 16 * (n + m))
        val = quad(npts)
        while npts <= 2**16:
            nxt = quad(2 * npts)
            if abs(nxt - val) < 1e-6:
                val = nxt
                break
            val, npts = nxt, 2 * npts
    nearest = round(val.real)
    if abs(val - nearest) > 0.25 or nearest < 0 or nearest > m:
        if profile["min"] <= 1e-3 * profile["max"]:
            raise FiberError("zero on fiber circle: p(z, .) vanishes near |w| = 1")
        raise QuadratureError(
            f"quadrature unresolved, increase quad_points (got {val})"
        )
    return int(nearest)


def _disk_z_samples(grid_n: int, rmax: float) -> np.ndarray:
    """grid_n angles x grid_n radii covering [0, rmax], plus the center."""
    radii = np.linspace(rmax / grid_n, rmax, grid_n)
    angles = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    return np.concatenate([[0.0 + 0.0j], np.outer(radii, angles).ravel()])


def _fiber_sweep(p, zs):
    """(z, roots) pairs over the sample; identically zero fibers yield None."""
    return [(complex(z), roots) for z, roots in zip(zs, batched_fiber_roots(p, zs))]


def _boundary_witnesses(p, grid_n, tol):
    """Near-zeros on (T x D) u (D x T), staying TORUS_MARGIN away from T^2."""
    scale = p.scale
    circ = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    radial = _disk_z_samples(max(grid_n // 2, 8), 1.0 - TORUS_MARGIN)
    witnesses = []
    for zs, ws in ((circ, radial), (radial, circ)):
        vals = np.abs(p.evaluate(zs[:, None], ws[None, :]))
        bad = np.argwhere(vals <= tol * scale)
        for i, j in bad[:8]:
            witnesses.append((complex(zs[i]), complex(ws[j])))
    return witnesses


def _vertical_lines(p, tol):
    """z0 in the closed disk (to ``tol``) with p(z0, .) identically zero to
    ``tol * scale``: the lines {z0} x C inside the zero set.

    A factor in z alone is invisible to w-fiber sweeps, and a sweep point
    that lands on such a line is skipped as an identically zero fiber, so
    the lines are found from the coefficients: every candidate is a z-root
    of the largest coefficient column of p."""
    col = p.coeffs[:, int(np.argmax(np.max(np.abs(p.coeffs), axis=0)))]
    k = len(col) - 1
    while k > 0 and abs(col[k]) <= FIBER_TRIM * np.max(np.abs(col)):
        k -= 1
    z0 = companion_roots(col[: k + 1])
    z0 = z0[np.abs(z0) <= 1.0 + tol]
    return z0[np.max(np.abs(p.fibers(z0)), axis=1) <= tol * p.scale]


def classify_zero_set(
    p: BivariatePolynomial, grid_n: int = 64, tol: float = 1e-7
) -> ZeroClass:
    """Label the zero set of p relative to the bidisk.

    Tested in order: DVDefining (zeros confined to disk^2 u torus^2 u
    exterior^2), SymmetricNonvanishingOffTorus, StableClosed, StableOpen;
    anything else is Indeterminate with witnesses.  Affirmative labels are
    certified at resolution ``grid_n`` only.  A line {z0} x C in the zero
    set with |z0| < 1 is a witness; one with |z0| = 1 rules out every label
    but StableOpen.
    """
    sym = symmetry_analysis(p, tol=1e-8)
    interior = _disk_z_samples(grid_n, 1.0 - TORUS_MARGIN)
    closure = _disk_z_samples(grid_n, 1.0)
    sweep_interior = _fiber_sweep(p, interior)
    sweep_closure = _fiber_sweep(p, closure)
    boundary_wit = _boundary_witnesses(p, grid_n, tol)
    line_wit = [(complex(z0), 0.0 + 0.0j) for z0 in _vertical_lines(p, tol)]

    def result(label, witnesses=()):
        return ZeroClass(label, tuple(witnesses), grid_n, tol)

    # --- distinguished variety: symmetric, fibers over the inner disk fully
    # inside the disk at full w-degree, constant disk root count, and no
    # zeros escaping through the bidisk boundary off the torus.
    if sym.is_symmetric and not boundary_wit and not line_wit:
        m = p.degree[1]
        dv_wit = []
        for z, roots in sweep_interior:
            if roots is None or len(roots) != m or np.any(np.abs(roots) >= 1.0 - tol):
                if roots is not None:
                    dv_wit.extend(
                        (z, complex(w)) for w in roots if abs(w) >= 1.0 - tol
                    )
                else:
                    dv_wit.append((z, 0.0 + 0.0j))
                if len(dv_wit) >= 8:
                    break
        if not dv_wit and m > 0:
            counts = set()
            step = max(1, len(interior) // 20)
            try:
                for z in interior[1::step][:20]:
                    counts.add(root_count_in_disk(p, complex(z)))
            except (FiberError, QuadratureError):
                counts = {-1, -2}
            if len(counts) == 1:
                return result(ZeroLabel.DV_DEFINING)

    # --- symmetric and zero-free on the closed bidisk off the torus:
    # interior fibers must have every root strictly outside the disk.
    if sym.is_symmetric and not boundary_wit and not line_wit:
        off_wit = []
        for z, roots in sweep_interior:
            if roots is not None and len(roots):
                inside = roots[np.abs(roots) <= 1.0 + tol]
                off_wit.extend((z, complex(w)) for w in inside[:4])
            if len(off_wit) >= 8:
                break
        if not off_wit:
            return result(ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS)

    # --- stable labels: no fiber roots meeting the closed (resp. open) disk
    # for z sweeping the closed disk.
    closed_wit = list(line_wit)
    open_wit = [(z, w) for z, w in line_wit if abs(z) < 1.0 - tol]
    for z, roots in sweep_closure:
        if roots is None or not len(roots):
            continue
        closed_hits = roots[np.abs(roots) <= 1.0 + tol]
        closed_wit.extend((z, complex(w)) for w in closed_hits[:4])
        if abs(z) <= 1.0 - TORUS_MARGIN:
            open_hits = roots[np.abs(roots) < 1.0 - tol]
            open_wit.extend((z, complex(w)) for w in open_hits[:4])
    if not closed_wit:
        return result(ZeroLabel.STABLE_CLOSED)
    if not open_wit:
        return result(ZeroLabel.STABLE_OPEN)

    witnesses = [(z, w) for z, w in (boundary_wit + closed_wit + open_wit)[:16]]
    return result(ZeroLabel.INDETERMINATE, witnesses)


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
    p: BivariatePolynomial, trials: int = 5, tol: float = 1e-9, seed: int = 11
) -> bool:
    """Probabilistic squarefreeness check via the w-resultant of (p, p_w).

    Evaluates res_w(p, p_w)(z) at random z; a polynomial with a repeated
    factor makes the resultant vanish identically.  p_w is normalized by its
    size on a circle enclosing the fiber roots, so the verdict is scale-free.
    """
    rng = np.random.default_rng(seed)
    if p.degree[1] == 0:
        return True
    pw = p.partial_w()
    u = rng.uniform(size=(trials, 2))
    zs = 0.7 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    hits = 0
    for z, roots in _fiber_sweep(p, zs):
        if roots is None:
            hits += 1
            continue
        if not len(roots):
            continue
        circle = np.exp(2j * np.pi * np.arange(32) / 32) * max(
            1.0, np.max(np.abs(roots))
        )
        ref = max(float(np.max(np.abs(pw.evaluate(z, circle)))), 1e-300)
        res = np.prod(np.asarray(pw.evaluate(z, roots)) / ref)
        if abs(res) <= tol:
            hits += 1
    return hits < trials
