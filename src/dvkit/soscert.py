"""Sums-of-squares certificates for polynomials without bidisk zeros.

Construction route: the density c^2 / |q|^2 on the two-torus is a probability
measure once c is chosen to normalize it, and its monomial moments define an
inner product on polynomial spaces.  Two orthogonal complements taken in that
inner product,

    S1 = {degree <= (n-1, m)}  minus  w * {degree <= (n-1, m-1)}
    S2 = {degree <= (n, m-1)}  minus  {degree <= (n-1, m-1)},

have dimensions exactly n and m.  Gram-Schmidt in that inner product, with
the shifted monomials first, is one Cholesky factor of the family's moment
Gram matrix; it gives orthonormal bases E, F of the complements, which satisfy

    |q|^2 - |reflect(q)|^2 = c^2 [ (1-|z|^2) |E|^2 + (1-|w|^2) |F|^2 ],

which after absorbing c into the vectors is the two-square decomposition for
a polynomial with no zeros on the closed bidisk.  One zero-free only on the
open bidisk (torus zeros allowed) refines the certificate of its dilate
q(0.9z, 0.9w) by Gauss-Newton on its own identity; a torus-symmetric one has
|q| = |reflect(q)| everywhere, so its certificate is zero.

Moments are two-dimensional Fourier coefficients.  Their w-integrals at a
node z are exact: the Toeplitz matrix of the fiber density 1/|q(z, .)|^2 is
the inverse of the fiber's Schur-Cohn matrix (Gohberg-Semencul), so one
small Cholesky factorization per node gives them, with no roots, residues
or 2-D FFT; a 1-D quadrature in z follows.

Every certificate identity is a polynomial identity in (z, w, conj Z,
conj W), so :func:`verify_certificate` compares coefficients: one tensor of
the difference of the two sides, with no sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import (
    ZeroLabel,
    classify_zero_set,
    is_squarefree,
    schur_cohn_matrix,
)
from .poly2 import (
    SYMMETRY_TOL,
    BivariatePolynomial,
    VectorPolynomial,
    reflect,
    reflected_derivatives,
    side_degrees,
    symmetry_constant,
)

__all__ = [
    "MomentTable",
    "SosCertificate",
    "CertKind",
    "GwReport",
    "VerificationReport",
    "SubspaceError",
    "StabilityError",
    "QuadratureError",
    "compute_moments",
    "sos_certificate",
    "gw_invertibility",
    "sym_sos_certificate",
    "verify_certificate",
    "dilate",
]

# Condition estimate J_0 tr(S) of a fiber's Schur-Cohn matrix S above which
# its moment column is refined in long double.
REFINE_COND = 1e2
# Largest quadrature grid of a moment table.
GRID_CAP = 1 << 20


class SubspaceError(ValueError):
    pass


class StabilityError(ValueError):
    pass


class QuadratureError(ValueError):
    pass


class CertKind(Enum):
    COLE_WERMER = "ColeWermer"
    SYMMETRIC = "Symmetric"
    DV = "DV"


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Window of torus moments mu(a, b) of the normalized 1/|q|^2 density.

    ``window[a + n, b + m]`` holds mu(a, b) for |a| <= n, |b| <= m, scaled so
    mu(0, 0) = 1; ``normalizer_c`` is the positive constant with
    d rho = c^2/|q|^2 d(normalized Lebesgue).
    """

    q: BivariatePolynomial
    normalizer_c: float
    window: np.ndarray
    grid_size: int


def dilate(q: BivariatePolynomial, r: float) -> BivariatePolynomial:
    """q(rz, rw): every zero moves radially outward by 1/r in each variable."""
    n, m = q.degree
    scale = np.power(r, np.arange(n + 1))[:, None] * np.power(r, np.arange(m + 1))
    return BivariatePolynomial(q.coeffs * scale)


def _moment_column(fibers):
    """J_b(z) = (1/2 pi) int w^b / |q(z, w)|^2 dtheta for b = 0..m, along
    the last axis, for each fiber (coefficients low to high in w, shape
    (..., m+1)).

    By Gohberg-Semencul, the (m+1)-square Toeplitz matrix [J_{k-j}] of a
    fiber f with no root in the closed disk is the inverse of the Schur-Cohn
    matrix S of f padded with a zero top coefficient, so its last column
    S^-1 e_m lists J_m..J_0.  S is positive definite exactly when every root
    of the padded fiber, roots at infinity included, lies outside the closed
    disk; degree drops and all-zero top coefficient columns need no special
    case.  With S = L L^H, S^-1 e_m is one back substitution in L^H.  Both
    run across all fibers at once, the fiber axis last, looping over the
    rows of L only; a pivot d_j^2 that is not positive at some fiber, NaN
    included, raises StabilityError.

    A fiber root near the circle leaves S nearly singular, and rounding S to
    double then costs eps cond(S) relative in the column.  J_0 tr(S) lies
    within a factor m+1 of cond(S) (|J_b| <= J_0 bounds the norm of S^-1
    by (m+1) J_0, and tr(S) bounds that of S); where it exceeds REFINE_COND,
    one refinement step against S formed in long double recovers the loss,
    on platforms whose long double is wider than double.  Every step acts on
    each fiber alone, so a fiber's column does not depend on the others."""
    shape = np.shape(fibers)
    padded = np.concatenate([fibers, np.zeros(shape[:-1] + (1,))], axis=-1).reshape(-1, shape[-1] + 1)
    s = schur_cohn_matrix(padded)
    t = s.transpose(1, 2, 0)  # S[i, k] at every fiber, a view of the kernel's array
    rows = t.shape[0]
    chol = np.zeros_like(t)
    diag, trace = np.empty(t.shape[1:]), np.zeros(t.shape[2])
    for j in range(rows):
        # column j of L: (S[j:, j] - sum_{k<j} L[j:, k] conj(L[j, k])) / d_j,
        # the sum formed before it is subtracted, as LAPACK's unblocked
        # Cholesky forms it
        rest = t[j:, j] - sum(chol[j:, k] * np.conj(chol[j, k]) for k in range(j))
        pivot = rest[0].real
        if not np.all(pivot > 0):
            raise StabilityError("fiber root inside the closed disk on the contour")
        diag[j] = np.sqrt(pivot)
        chol[j + 1 :, j] = rest[1:] / diag[j]
        trace += t[j, j].real
    col = np.empty(t.shape[1:], dtype=np.complex128)
    col[-1] = 1.0 / diag[-1] ** 2
    for i in range(rows - 2, -1, -1):
        col[i] = -sum(np.conj(chol[k, i]) * col[k] for k in range(i + 1, rows)) / diag[i]
    near = np.flatnonzero(col[-1].real * trace > REFINE_COND)
    if len(near):
        last = np.eye(rows)[-1]
        s_ext = schur_cohn_matrix(padded[near].astype(np.clongdouble))
        fix = (last - np.einsum("nij,jn->ni", s_ext, col[:, near])).astype(np.complex128)
        col[:, near] += np.linalg.solve(s[near], fix[..., None])[..., 0].T
    return col[::-1].T.reshape(shape)


def compute_moments(q: BivariatePolynomial) -> MomentTable:
    """Moment table of the normalized density c^2/|q|^2 on the torus.

    :func:`_moment_column` gives the exact w-integrals J_0..J_m at each
    z-node, and a 1-D quadrature in z the window: the means over ``size``
    nodes exp(2 pi i k / size) of z^a J_b(z) for |a| <= n and b = 0..m, one
    inverse FFT of the columns, with mu(a, -b) = conj(mu(-a, b)) for the
    rest.  The grid starts at the smallest power of two >= max(256,
    16(n+m)) and doubles until the window agrees with the doubled grid's to
    1e-9 relative; past GRID_CAP nodes it raises QuadratureError.  The odd
    nodes of the doubled grid are the old ones turned by omega =
    exp(i pi / size), so a doubling computes their columns alone and adds
    omega^a times their inverse FFT, one radix-2 step.  A fiber root inside
    the closed disk on the contour (a zero of q on the closed bidisk, or
    q(z, 0) = 0) raises StabilityError.
    """
    n, m = q.degree
    a = np.arange(-n, n + 1)

    def node_means(size, step):
        # half window over the nodes k = step - 1, 2 step - 1, ... < size
        nodes = np.exp(2j * np.pi * np.arange(step - 1, size, step) / size)
        cols = _moment_column((nodes[:, None] ** np.arange(n + 1)) @ q.coeffs)
        return np.fft.ifft(cols.T, axis=-1)[:, a % len(nodes)].T

    size = 1 << max(8, math.ceil(math.log2(max(1, 16 * (n + m)))))
    half = node_means(size, 1)
    while size < GRID_CAP:
        nxt = 0.5 * (half + np.exp(1j * np.pi * a / size)[:, None] * node_means(2 * size, 2))
        size *= 2
        # the lower half of a window holds the same moduli as the upper
        if np.max(np.abs(nxt - half)) / max(np.max(np.abs(nxt)), 1e-300) <= 1e-9:
            window = np.concatenate([np.conj(nxt[::-1, :0:-1]), nxt], axis=-1)
            mu00 = window[n, m].real
            return MomentTable(q, math.sqrt(1.0 / mu00), window / mu00, size)
        half = nxt
    raise QuadratureError("quadrature unresolved: moment window did not converge")


def _gram(window, rows, cols):
    """[mu(ic - ir, jc - jr)] over row monomials (ir, jr) and column
    monomials (ic, jc), gathered from a moment window, or from each window
    of a stack of them."""
    n, m = (window.shape[-2] - 1) // 2, (window.shape[-1] - 1) // 2
    r = np.asarray(rows, dtype=np.intp).reshape(-1, 2)
    c = np.asarray(cols, dtype=np.intp).reshape(-1, 2)
    return window[..., c[None, :, 0] - r[:, None, 0] + n, c[None, :, 1] - r[:, None, 1] + m]


def _complement_basis(window, shifted, rest, degree):
    """An orthonormal basis, in the moment inner product of ``window``, of
    the complement of span(shifted) in span(shifted + rest): len(rest)
    components of ``degree``.

    With the Gram matrix G of shifted + rest factored as L L^H, B = L^-H is
    upper triangular with B^H G B = I, and G B = L is lower triangular, so
    the trailing len(rest) columns of B, one solve against L^H, are
    orthonormal and orthogonal to every shifted monomial.  No threshold is
    involved; a G that is not numerically positive definite raises
    SubspaceError."""
    family = shifted + rest
    try:
        chol = np.linalg.cholesky(_gram(window, family, family))
    except np.linalg.LinAlgError:
        raise SubspaceError("subspace degenerate: Gram matrix not positive definite") from None
    basis = np.linalg.solve(np.conj(chol).T, np.eye(len(family))[:, len(shifted) :])
    grid = np.zeros((len(rest), degree[0] + 1, degree[1] + 1), dtype=np.complex128)
    i, j = np.asarray(family, dtype=np.intp).reshape(-1, 2).T
    grid[:, i, j] = basis.T
    return VectorPolynomial(grid)


def _kernel_pairs(degree, window):
    """Orthonormal bases (E, F) of the two complements whose kernels build
    the certificate, from a moment window; for q of degree (n, m), E has
    exactly n components of degree <= (n-1, m) and F exactly m of degree
    <= (n, m-1)."""
    n, m = degree
    deg_e, deg_f = side_degrees(n, m)
    shift1 = [(i, j) for i in range(n) for j in range(1, m + 1)]
    shift2 = [(i, j) for i in range(n) for j in range(m)]
    return (
        _complement_basis(window, shift1, [(i, 0) for i in range(n)], deg_e),
        _complement_basis(window, shift2, [(n, j) for j in range(m)], deg_f),
    )


@dataclass(frozen=True, eq=False)
class SosCertificate:
    """Vector-polynomial pair (with weights, for the symmetric/DV kinds)
    witnessing a two-square identity.  For q of degree (n, m) the first
    vector has n components of degree <= (n-1, m) and the second m of
    degree <= (n, m-1); the matrix forms that :func:`gw_invertibility`
    reads are views of their coefficient arrays."""

    kind: CertKind
    vec_first: VectorPolynomial
    vec_second: VectorPolynomial
    weights: tuple[float, float] | None = None


def _stability_route(q):
    """The certificate builder that the classification of q calls for."""
    label = classify_zero_set(q).label
    if label is ZeroLabel.STABLE_CLOSED:
        return _direct_certificate
    if label is ZeroLabel.STABLE_OPEN:
        return _dilation_certificate
    if label is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS:
        return _zero_certificate
    raise StabilityError(
        f"polynomial has zeros on the open bidisk (classified {label.value}); "
        "no sums-of-squares certificate exists"
    )


def _direct_certificate(q):
    """Certificate vectors for q with no zeros on the closed bidisk: the
    complement bases of its own moment table, scaled by its normalizer."""
    table = compute_moments(q)
    vec_e, vec_f = _kernel_pairs(q.degree, table.window)
    return vec_e.scaled(table.normalizer_c), vec_f.scaled(table.normalizer_c)


def _kernel_tensor(vec):
    """Coefficient tensor of the kernel of ``vec`` at its degree:
    T[i,j,k,l] = sum_c a_c[i,j] conj(a_c[k,l]).

    Invariant under any constant unitary mixing of the components, which
    makes it the right object to compare when the basis itself is only
    determined up to unitary equivalence.  An empty vector
    (the side of a certificate with n = 0 or m = 0) gives the zero tensor.
    """
    count, rows, cols = vec.coeffs.shape
    flat = vec.coeffs.reshape(count, rows * cols)
    return (flat.T @ np.conj(flat)).reshape(rows, cols, rows, cols)


def _zero_certificate(q):
    """n and m zero components: reflect(q) is a unimodular multiple of a
    torus-symmetric q, so |q|^2 - |reflect(q)|^2 vanishes identically."""
    n, m = q.degree
    return tuple(
        VectorPolynomial(np.zeros((count, rows + 1, cols + 1)))
        for count, (rows, cols) in zip((n, m), side_degrees(n, m))
    )


def _dilation_certificate(q):
    """Certificate for q stable on the open bidisk with torus zeros, the
    limit of its dilates' certificates (Knese, arXiv 0909.1818): the dilate
    q(0.9z, 0.9w) has no zeros on the closed bidisk, and its certificate
    starts :func:`_refined`.  A repeated factor, double fiber roots at every
    radius, is refused first."""
    if not is_squarefree(q):
        raise QuadratureError("colliding fiber roots at every radius: q has a repeated factor")
    return _refined(q, *_direct_certificate(dilate(q, 0.9)))


def _refined(q, vec_a, vec_b):
    """Certificate vectors of q refined from (vec_a, vec_b) by Gauss-Newton
    on the identity that :func:`verify_certificate` checks,
    D = q (x) q* - q~ (x) q~* - (1 - zZ*) K_A - (1 - wW*) K_B = 0.

    x holds the components as columns at degree (n, m), and S multiplies
    A's by z and B's by w: D = T - x x^H + Sx (Sx)^H, J d = E + E^H with
    E = d x^H - Sd (Sx)^H, and J^H R = 2 (R x - S^H R Sx) on the supports,
    adjoint in Re tr(X^H Y).  A step solves J d = D in least squares on a
    Golub-Kahan space of J orthogonal to the unitary mixings x H within a
    side, which J annihilates, grown until LSQR's normal-residual estimate
    falls below 1e-10 or to 2^13 / (n + 1)(m + 1) directions; a dense solve
    on the stored J v resolves the small singular values that a torus zero
    drives to 0.  The trials t in (2, 1, 1/2, 1/4) of the quadratic
    D(x + t d) cost one J d and one D(d), t = 2 for the linear convergence
    toward a singular solution; a step that does not halve ||D|| meets the
    best multiple of the last, which crosses a fold.  The loop ends at
    ||D|| < 1e-15 sum |q_ij|^2, after 30 steps, at a step that does not
    lower ||D||, or that does not halve it while ||D|| >= 1e-10 of that."""
    n, m = q.degree
    rows, cols = (n + 1) * (m + 1), n + m
    flat, side = np.arange(rows)[:, None], np.arange(cols) >= n
    support = np.where(side, flat % (m + 1) < m, flat < n * (m + 1))
    # the flat index i (m + 1) + j moves by m + 1 under z and by 1 under w
    moves = [flat + sign * np.where(side, 1, m + 1) for sign in (-1, 1)]
    x = np.vstack([v.with_degree((n, m)).coeffs.reshape(len(v), rows) for v in (vec_a, vec_b)]).T
    qv, qr = q.coeffs.ravel(), reflect(q).with_degree((n, m)).coeffs.ravel()
    target = np.outer(qv, np.conj(qv)) - np.outer(qr, np.conj(qr))
    scale = float(np.sum(np.abs(qv) ** 2))

    def shift(v, back=False):
        to = moves[back]
        return np.where((to >= 0) & (to < rows), v[to % rows, np.arange(cols)], 0)

    def form(v):
        sv = shift(v)
        return v @ np.conj(v).T - sv @ np.conj(sv).T

    def packed(v):
        return np.ascontiguousarray(v).view(np.float64).ravel()

    def jac(v):
        e = v @ np.conj(x).T - shift(v) @ np.conj(sx).T
        return e + np.conj(e).T

    def jac_h(r):
        return packed(2 * (r @ x - shift(r @ sx, back=True)) * support)

    def step():
        e = np.einsum("rj,kl->jkrl", x, np.eye(cols))
        e, et = e[np.equal.outer(side, side)], e.swapaxes(0, 1)[np.equal.outer(side, side)]
        mixings = np.concatenate([e - et, 1j * (e + et)]).view(np.float64).reshape(-1, 2 * x.size)
        u, sv, _ = np.linalg.svd(mixings.T, full_matrices=False)
        fixed = u[:, sv > 1e-12 * sv[0]].T
        basis = np.vstack([fixed, np.zeros(((1 << 13) // rows, 2 * x.size))])
        known, images, anorm = len(fixed), [], 0.0

        def orth(v):
            for _ in range(2):
                v = v - (basis[:known] @ v) @ basis[:known]
            return v

        u = d / np.linalg.norm(d)
        v = orth(jac_h(u))
        alpha = rhobar = np.linalg.norm(v)
        while alpha > 0 and known < len(basis):
            basis[known], known = v / alpha, known + 1
            images.append(packed(jv := jac(basis[known - 1].view(np.complex128).reshape(x.shape))))
            u = jv - alpha * u
            beta = np.linalg.norm(u)
            anorm = math.sqrt(anorm**2 + alpha**2 + beta**2)
            if beta == 0:
                break
            u = u / beta
            v = orth(jac_h(u) - beta * basis[known - 1])
            # LSQR: ||J^H r|| = ||r|| alpha |c| for the last plane rotation c
            alpha, rho = np.linalg.norm(v), math.hypot(rhobar, beta)
            c, rhobar = rhobar / rho, -rhobar / rho * alpha
            if alpha * abs(c) <= 1e-10 * anorm:
                break
        y = np.linalg.lstsq(np.reshape(images, (-1, 2 * rows * rows)).T, packed(d), rcond=1e-12)[0]
        # the SVD of the mixings can leave rounding off the supports
        return (y @ basis[len(fixed) : known]).view(np.complex128).reshape(x.shape) * support

    def line(v, ts):
        # (||D(x + t v)||, t v) at the best t of ts; None takes every
        # stationary point of ||D(x + t v)||^2, a quartic in t
        lin, quad = jac(v), form(v)
        if ts is None:
            pairs = ((quad, quad), (lin, quad), (lin, lin), (d, quad), (d, lin))
            qq, lq, ll, dq, dl = (np.vdot(f, g).real for f, g in pairs)
            roots = np.roots([4 * qq, 6 * lq, 2 * ll - 4 * dq, -2 * dl])
            ts = roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)]
        trials = ((np.linalg.norm(d - t * lin - t * t * quad), t * v) for t in ts)
        return min(trials, key=lambda c: c[0], default=(math.inf, v))

    # jac, jac_h, step and line read the iterate x, sx = shift(x) and D = d
    d, sx, last = target - form(x), shift(x), None
    res = np.linalg.norm(d)
    for _ in range(30):
        if not res >= 1e-15 * scale:
            break
        best, dx = line(step(), (2.0, 1.0, 0.5, 0.25))
        if not best <= 0.5 * res and last is not None:
            best, dx = min((best, dx), line(last, None), key=lambda c: c[0])
        if not (best < res and (best <= 0.5 * res or res < 1e-10 * scale)):
            break
        x, last = x + dx, dx
        d, sx = target - form(x), shift(x)
        res = np.linalg.norm(d)
    parts = zip(np.split(x, [n], axis=1), side_degrees(n, m))
    return tuple(VectorPolynomial(v.T.reshape(-1, n + 1, m + 1)).with_degree(deg) for v, deg in parts)


def _times_power_of_two(vec_a, vec_b, e):
    """Both certificate vectors times 2^e.  A coefficient carried past the
    float range raises OverflowError: a certificate that is not finite
    would only fail every later gate, for a reason that does not name it."""
    with np.errstate(over="ignore"):
        vec_a, vec_b = vec_a.ldexp(e), vec_b.ldexp(e)
    if not (np.isfinite(vec_a.coeffs).all() and np.isfinite(vec_b.coeffs).all()):
        raise OverflowError(f"certificate overflow: 2^{e} times the certificate leaves the float range")
    return vec_a, vec_b


def sos_certificate(q: BivariatePolynomial) -> SosCertificate:
    """Two-square certificate q qbar - reflect(q) reflect(q)bar =
    (1-|z|^2)|A|^2 + (1-|w|^2)|B|^2 for q with no zeros on the bidisk.

    The route follows from classifying q: zero-free on the closed bidisk
    goes through the moment construction directly, torus zeros through the
    dilation route, and the certificate of a SymmetricNonvanishingOffTorus
    q is zero.  q is first divided by the power of two that brings its
    scale into [1/2, 1) and both vectors are multiplied back by it, which
    is exact: the certificate of 2^k q is 2^k times that of q wherever both
    stay in range.  A certificate beyond the float range raises
    OverflowError.
    """
    e = q.exponent
    q = q.ldexp(-e)
    vec_a, vec_b = _stability_route(q)(q)
    return SosCertificate(CertKind.COLE_WERMER, *_times_power_of_two(vec_a, vec_b, e))


@dataclass(frozen=True)
class GwReport:
    """Minimum singular values over the closed disk of A(w) and of the
    z-reflected B(z) matrix; both must stay away from zero for polynomials
    with no zeros on the closed bidisk (Geronimo-Woerdeman 2004).

    Each minimum is taken by :meth:`MatrixPolynomial.min_singular_value_on_disk`
    over the circle samples and every zero of the determinant in the closed
    disk, found by a block companion.  A zero anywhere in the closed
    disk, also one on the circle between samples, gives a minimum of about 0;
    without one, the maximum principle puts the minimum on the circle.  Each
    minimum passes above 1e-6 times its matrix's largest singular value over
    the same points, so the verdict is the same for every multiple c q and
    every unitary mixing of a vector's components."""

    min_sv_first: float
    min_sv_second: float
    passed: bool


def gw_invertibility(cert: SosCertificate) -> GwReport:
    """:class:`GwReport` of the matrix forms of a certificate, built here
    from its vectors: with n = len(vec_first) and m = len(vec_second),
    A(z, w) = A(w) (1, z, ..., z^{n-1})^t and B(z, w) = B(z) (1, w, ...,
    w^{m-1})^t, A and B square.  Each minimum is taken at 64 circle
    samples.  A certificate with an empty side has no matrix form to test
    and raises ValueError."""
    n, m = len(cert.vec_first), len(cert.vec_second)
    if n == 0 or m == 0:
        raise ValueError("certificate has an empty side and no matrix forms")
    deg_a, deg_b = side_degrees(n, m)
    mat_a = cert.vec_first.with_degree(deg_a).matrix_in_w()
    mat_b = cert.vec_second.with_degree(deg_b).matrix_in_z().reflected()
    passed = all(mat.min_singular_value_on_disk > mat.disk_bound(1e-6) for mat in (mat_a, mat_b))
    return GwReport(mat_a.min_singular_value_on_disk, mat_b.min_singular_value_on_disk, passed)


def sym_sos_certificate(
    q: BivariatePolynomial,
    a: float,
    b: float,
    smooth: bool | None = None,
) -> SosCertificate:
    """Certificate of (an+bm)|q|^2 - 2 Re[(a z q_z + b w q_w) conj(q)] =
    (1-|z|^2)|A|^2 + (1-|w|^2)|B|^2 for torus-symmetric q without bidisk
    zeros: q's :func:`symmetry_constant` must lie within SYMMETRY_TOL of 1,
    or ValueError asks that it be symmetrized first.

    The combination g = a * reflect(q_z) + b * reflect(q_w) reflects back to
    a z q_z + b w q_w, so the plain certificate of g divided by (an + bm)
    is exactly the stated identity; weights with an + bm = 0 raise
    ValueError.  On the torus |g| = |a z q_z + b w q_w|,
    so g has torus zeros exactly where the zero set of q is torus-singular.
    A caller that knows whether it is passes ``smooth``, which takes the
    direct route when True and the dilation route when False, and skips
    classifying g; None classifies g.  Like :func:`sos_certificate`, it
    builds from q divided by a power of two and multiplies both vectors
    back, so it is exactly covariant under 2^k q, and a certificate beyond
    the float range raises OverflowError.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("weights must be non-negative and not both zero")
    n, m = q.degree
    if a * n + b * m == 0:
        raise ValueError(f"a n + b m = 0 for weights ({a:g}, {b:g}) at degree {(n, m)}")
    e = q.exponent
    q = q.ldexp(-e)
    c = symmetry_constant(q)
    if c is None or abs(c - 1) > SYMMETRY_TOL:
        raise ValueError("polynomial is not torus-symmetric; symmetrize it first")
    qz_ref, qw_ref = reflected_derivatives(q)
    g = (a * qz_ref).with_degree((n, m)) + (b * qw_ref).with_degree((n, m))
    if smooth is None:
        try:
            build = _stability_route(g)
        except StabilityError as exc:
            raise StabilityError(
                "reflected-derivative combination vanishes on the closed bidisk"
            ) from exc
    else:
        build = _direct_certificate if smooth else _dilation_certificate
    vec_a, vec_b = build(g)
    scale = 1.0 / math.sqrt(a * n + b * m)
    vec_a, vec_b = _times_power_of_two(vec_a.scaled(scale), vec_b.scaled(scale), e)
    return SosCertificate(CertKind.SYMMETRIC, vec_a, vec_b, (a, b))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def _shifted_kernel(vec, axis):
    """Coefficient tensor of (1 - z conj(Z)) K (axis 0) or (1 - w conj(W)) K
    (axis 1), K the kernel of ``vec``, whose degree must leave the top power
    of that variable free."""
    t = _kernel_tensor(vec)
    out = t.copy()
    if axis == 0:
        out[1:, :, 1:, :] -= t[:-1, :, :-1, :]
    else:
        out[:, 1:, :, 1:] -= t[:, :-1, :, :-1]
    return out


def verify_certificate(q: BivariatePolynomial, cert: SosCertificate) -> VerificationReport:
    """Coefficient check of a certificate's polarized identity.

    The tensor D of the coefficients of z^i w^j conj(Z)^k conj(W)^l in
    lhs - rhs, padded to the largest degree that q or a component declares,
    is, with q~ = reflect(q), K_A and K_B the kernel tensors of the vectors
    and q (x) q* that of q,
        ColeWermer  q (x) q* - q~ (x) q~* - (1 - zZ*) K_A - (1 - wW*) K_B,
        Symmetric   (an + bm - a(i+k) - b(j+l)) q (x) q* - (1 - zZ*) K_A - (1 - wW*) K_B,
        DV          (bm - an + a(i+k) - b(j+l)) q (x) q* + (1 - zZ*) K_A - (1 - wW*) K_B.
    The residual is ||D||_1 / (kappa sum |q_ij|^2), kappa = 1 for ColeWermer
    and an + bm otherwise.  Every monomial has modulus <= 1 on the closed
    bidisk and sum |q_ij|^2 <= sup |q|^2 on the torus, so it bounds the error
    of the identity at every pair of closed-bidisk points, relative to
    kappa sup |q|^2, up to rounding.  q and both vectors are first divided
    by one power of two read off q's scale, which is exact: (2^k q, 2^k cert)
    has the residual of (q, cert).  The report passes at or below 1e-7; a
    residual that is not finite, as for an + bm <= 0, fails.
    """
    n, m = q.degree
    first, second = cert.vec_first, cert.vec_second
    # the first vector is multiplied by z and the second by w; an empty one
    # needs no degree
    needs = [np.add(v.degree, shift) for v, shift in ((first, (1, 0)), (second, (0, 1))) if len(v)]
    degree = tuple(int(d) for d in np.max([(n, m), *needs], axis=0))
    e = q.exponent
    q = q.ldexp(-e)
    first, second = first.ldexp(-e).with_degree(degree), second.ldexp(-e).with_degree(degree)
    # components far above q's scale overflow to a residual that fails
    with np.errstate(over="ignore", invalid="ignore"):
        qq = _kernel_tensor(VectorPolynomial.of([q]).with_degree(degree))
        ka = _shifted_kernel(first, 0)
        kb = _shifted_kernel(second, 1)
        if cert.kind is CertKind.COLE_WERMER:
            kappa = 1.0
            diff = qq - _kernel_tensor(VectorPolynomial.of([reflect(q)]).with_degree(degree)) - ka - kb
        else:
            a, b = cert.weights
            kappa = a * n + b * m
            i, j, k, l = np.indices(qq.shape, sparse=True)
            zpow, wpow = a * (i + k), b * (j + l)
            if cert.kind is CertKind.SYMMETRIC:
                diff = (kappa - zpow - wpow) * qq - ka - kb
            else:
                diff = (b * m - a * n + zpow - wpow) * qq + ka - kb
        # the nonzero terms alone, in order, so that zero padding leaves the
        # grouping of the sum, and so its rounding, as it is
        mags = np.abs(diff)
        l1 = float(np.sum(mags[mags != 0]))
    denom = kappa * float(np.sum(np.abs(q.coeffs) ** 2))
    residual = l1 / denom if denom > 0 else math.inf
    return VerificationReport(residual, 1e-7)
