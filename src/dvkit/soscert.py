"""Sums-of-squares certificates for polynomials without bidisk zeros.

Construction route: the density c^2 / |q|^2 on the two-torus is a probability
measure once c is chosen to normalize it, and its monomial moments define an
inner product on polynomial spaces.  Two orthogonal complements taken in that
inner product,

    S1 = {degree <= (n-1, m)}  minus  w * {degree <= (n-1, m-1)}
    S2 = {degree <= (n, m-1)}  minus  {degree <= (n-1, m-1)},

have dimensions exactly n and m, and orthonormal bases E, F of them satisfy

    |q|^2 - |reflect(q)|^2 = c^2 [ (1-|z|^2) |E|^2 + (1-|w|^2) |F|^2 ],

which after absorbing c into the vectors is the two-square decomposition for
a polynomial with no zeros on the closed bidisk.  Polynomials that are only
zero-free on the open bidisk (torus zeros allowed) are handled by dilating
q_r(z, w) = q(rz, rw), building certificates along r -> 1, and extrapolating
the (unitary-invariant) kernel coefficient tensors to r = 1; a torus-symmetric
one has |q| = |reflect(q)| everywhere, so its certificate is zero.

Moments are two-dimensional Fourier coefficients.  Their w-integrals at a
node z are exact: the Toeplitz matrix of the fiber density 1/|q(z, .)|^2 is
the inverse of the fiber's Schur-Cohn matrix (Gohberg-Semencul), so one
small Cholesky factorization per node gives them, with no roots, residues
or 2-D FFT.  A
single 1-D quadrature in z follows, whose grid doubles by adding the odd
nodes to the columns already computed.

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
    QuadratureError,
    ZeroLabel,
    classify_zero_set,
    is_squarefree,
    schur_cohn_matrix,
)
from .poly2 import (
    BivariatePolynomial,
    MatrixPolynomial,
    VectorPolynomial,
    reflect,
    reflected_derivatives,
    symmetry_analysis,
)

__all__ = [
    "MomentTable",
    "SosCertificate",
    "CertKind",
    "GwReport",
    "VerificationReport",
    "SubspaceError",
    "StabilityError",
    "compute_moments",
    "subspace_kernel_pair",
    "sos_certificate",
    "gw_invertibility",
    "sym_sos_certificate",
    "verify_certificate",
    "dilate",
]

EIG_CLIP = 1e-12
# Certificate coefficients of the dilated family q(rz, rw) approach the
# boundary-zero limit like sqrt(1 - r) (measured, and stable across the
# corpus), so extrapolation runs in h = sqrt(1 - r); the radii are geometric
# in h, which makes polynomial extrapolation to h = 0 well conditioned.
DILATION_RADII = (0.9, 0.97, 0.99, 0.997, 0.999, 0.9997, 0.9999)
# Condition estimate J_0 tr(S) of a fiber's Schur-Cohn matrix S above which
# its moment column is refined in long double.
REFINE_COND = 1e2


class SubspaceError(ValueError):
    pass


class StabilityError(ValueError):
    pass


class CertKind(Enum):
    COLE_WERMER = "ColeWermer"
    SYMMETRIC = "Symmetric"
    DV = "DV"


@dataclass(frozen=True)
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

    def mu(self, a: int, b: int) -> complex:
        n, m = self.q.degree
        if abs(a) > n or abs(b) > m:
            raise KeyError(f"moment ({a},{b}) outside stored window")
        return complex(self.window[a + n, b + m])


def dilate(q: BivariatePolynomial, r: float) -> BivariatePolynomial:
    """q(rz, rw): every zero moves radially outward by 1/r in each variable."""
    n, m = q.degree
    scale = np.power(r, np.arange(n + 1))[:, None] * np.power(r, np.arange(m + 1))
    return BivariatePolynomial(q.coeffs * scale)


def _moment_column(q, nodes):
    """J_b(z) = (1/2 pi) int w^b / |q(z, w)|^2 dtheta for b = 0..m at each node.

    By Gohberg-Semencul, the (m+1)-square Toeplitz matrix [J_{k-j}] of a
    fiber f with no root in the closed disk is the inverse of the Schur-Cohn
    matrix S of f padded with a zero top coefficient, so its last column
    S^-1 e_m lists J_m..J_0.  S is positive definite exactly when every root
    of the padded fiber, roots at infinity included, lies outside the closed
    disk; degree drops and all-zero top coefficient columns need no special
    case.  With S = L L^H, S^-1 e_m is one back substitution in L^H.

    A fiber root near the circle leaves S nearly singular, and rounding S to
    double then costs eps cond(S) relative in the column.  J_0 tr(S) lies
    within a factor m+1 of cond(S) (|J_b| <= J_0 bounds the norm of S^-1
    by (m+1) J_0, and tr(S) bounds that of S); where it exceeds REFINE_COND,
    one refinement step against S formed in long double recovers the loss,
    on platforms whose long double is wider than double."""
    padded = np.concatenate([q.fibers(nodes), np.zeros((len(nodes), 1))], axis=1)
    s = schur_cohn_matrix(padded)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise StabilityError("fiber root inside the closed disk on the contour") from None
    diag = np.einsum("nii->ni", chol).real
    col = np.zeros(s.shape[:-1], dtype=np.complex128)
    col[:, -1] = 1.0 / diag[:, -1] ** 2
    for i in range(s.shape[-1] - 2, -1, -1):
        col[:, i] = -np.sum(np.conj(chol[:, i + 1 :, i]) * col[:, i + 1 :], axis=1) / diag[:, i]
    near = np.flatnonzero(col[:, -1].real * np.einsum("nii->n", s).real > REFINE_COND)
    if len(near):
        last = np.eye(s.shape[-1])[-1]
        s_ext = schur_cohn_matrix(padded[near].astype(np.clongdouble))
        fix = (last - np.einsum("nij,nj->ni", s_ext, col[near])).astype(np.complex128)
        col[near] += np.linalg.solve(s[near], fix[..., None])[..., 0]
    return col[:, ::-1].T


def _moment_window(q, size, cols=None):
    """Window from the moment columns at ``size`` nodes, and those columns.

    ``cols`` are the columns at size/2 nodes: those nodes are the even nodes
    of this grid, so only the size/2 odd nodes are computed afresh."""
    n, m = q.degree
    if cols is None:
        cols = _moment_column(q, np.exp(2j * np.pi * np.arange(size) / size))
    else:
        odd = np.exp(2j * np.pi * np.arange(1, size, 2) / size)
        both = np.empty((m + 1, size), dtype=np.complex128)
        both[:, 0::2] = cols
        both[:, 1::2] = _moment_column(q, odd)
        cols = both
    spectra = np.fft.ifft(cols, axis=1)  # spectra[b, a % size] = raw mu(a, b)
    a = np.arange(-n, n + 1)
    # mu(a, -b) = conj(mu(-a, b)) fills the columns b < 0
    lower = np.conj(spectra[:0:-1, (-a) % size]).T
    return np.concatenate([lower, spectra[:, a % size].T], axis=1), cols


def compute_moments(q: BivariatePolynomial) -> MomentTable:
    """Moment table of the normalized density c^2/|q|^2 on the torus.

    One Cholesky factorization of the fiber's Schur-Cohn matrix per z-node
    gives the exact w-integrals J_0..J_m, refined once where a fiber root
    nears the circle; no roots, residues or 2-D FFT are involved.  A 1-D
    quadrature in z then gives the window.  Its grid starts at the smallest
    power of two >= max(256, 16(n+m)) and doubles, adding only the odd
    nodes, until the window agrees with the doubled grid's to 1e-9 relative,
    up to 2^20 nodes.  A fiber root inside the closed disk on the contour (a zero of q
    on the closed bidisk, or q(z, 0) = 0) raises StabilityError.
    """
    n, m = q.degree
    size = 1 << max(8, math.ceil(math.log2(max(1, 16 * (n + m)))))
    win, cols = _moment_window(q, size)
    while size < 1 << 20:
        nxt, cols = _moment_window(q, 2 * size, cols)
        err = np.max(np.abs(nxt - win)) / max(np.max(np.abs(nxt)), 1e-300)
        win, size = nxt, 2 * size
        if err <= 1e-9:
            mu00 = win[n, m].real
            return MomentTable(q, math.sqrt(1.0 / mu00), win / mu00, size)
    raise QuadratureError("quadrature unresolved: moment window did not converge")


def _monomials(imax, jmax):
    return [(i, j) for i in range(imax + 1) for j in range(jmax + 1)]


def _gram(moments, rows, cols):
    """[mu(ic - ir, jc - jr)] over row monomials (ir, jr) and column
    monomials (ic, jc), gathered from the moment window."""
    n, m = moments.q.degree
    r = np.asarray(rows, dtype=np.intp).reshape(-1, 2)
    c = np.asarray(cols, dtype=np.intp).reshape(-1, 2)
    return moments.window[c[None, :, 0] - r[:, None, 0] + n, c[None, :, 1] - r[:, None, 1] + m]


def _complement_basis(moments, family, shifted, expect_dim):
    """Orthonormal basis (w.r.t. the moment inner product) of the orthogonal
    complement of span(shifted) inside span(family).

    Projection coefficients come from a linear solve against the shifted
    block's Gram; the complement vectors are then orthonormalized through a
    Hermitian eigendecomposition with eigenvalue clipping, so near-rank-
    deficiency degrades detectably instead of catastrophically.
    """
    rest = [mono for mono in family if mono not in set(shifted)]
    if len(rest) != expect_dim:
        raise SubspaceError("subspace degenerate: complement dimension mismatch")
    gram_jj = _gram(moments, shifted, shifted)
    gram_jr = _gram(moments, shifted, rest)
    if shifted:
        proj = np.linalg.solve(gram_jj, gram_jr)  # (|J|, |rest|)
    else:
        proj = np.zeros((0, len(rest)), dtype=np.complex128)
    index = {mono: k for k, mono in enumerate(family)}
    vecs = np.zeros((len(family), len(rest)), dtype=np.complex128)
    for t, mono in enumerate(rest):
        vecs[index[mono], t] = 1.0
        for s, smono in enumerate(shifted):
            vecs[index[smono], t] -= proj[s, t]
    gram_ff = _gram(moments, family, family)
    small = vecs.conj().T @ gram_ff @ vecs
    small = 0.5 * (small + small.conj().T)
    evals, evecs = np.linalg.eigh(small)
    keep = evals > EIG_CLIP * max(np.trace(small).real, 1e-300)
    if int(np.sum(keep)) != expect_dim:
        raise SubspaceError(
            f"subspace degenerate: rank {int(np.sum(keep))}, expected {expect_dim}"
        )
    order_desc = np.argsort(evals[keep])[::-1]
    basis = (vecs @ evecs[:, keep] / np.sqrt(evals[keep]))[:, order_desc]
    for k in range(basis.shape[1]):
        piv = int(np.argmax(np.abs(basis[:, k])))
        phase = basis[piv, k] / abs(basis[piv, k])
        basis[:, k] /= phase
    return basis, index


def _basis_to_vector(basis, index, degree):
    n, m = degree
    comps = []
    for k in range(basis.shape[1]):
        grid = np.zeros((n + 1, m + 1), dtype=np.complex128)
        for mono, pos in index.items():
            grid[mono] = basis[pos, k]
        comps.append(BivariatePolynomial(grid))
    return VectorPolynomial(tuple(comps))


def subspace_kernel_pair(q: BivariatePolynomial, moments: MomentTable):
    """Orthonormal bases (E, F) of the two complements whose kernels build the
    certificate; E has exactly n components of degree <= (n-1, m), F exactly
    m of degree <= (n, m-1)."""
    n, m = q.degree
    fam1 = _monomials(n - 1, m)
    shift1 = [(i, j) for i in range(n) for j in range(1, m + 1)]
    basis1, idx1 = _complement_basis(moments, fam1, shift1, n)
    vec_e = _basis_to_vector(basis1, idx1, (max(n - 1, 0), m))
    fam2 = _monomials(n, m - 1)
    shift2 = [(i, j) for i in range(n) for j in range(m)]
    basis2, idx2 = _complement_basis(moments, fam2, shift2, m)
    vec_f = _basis_to_vector(basis2, idx2, (n, max(m - 1, 0)))
    return vec_e, vec_f


@dataclass(frozen=True)
class SosCertificate:
    """Vector-polynomial pair (with weights, for the symmetric/DV kinds)
    witnessing a two-square identity; matrix forms are the one-variable
    matrix polynomials reproducing the vectors against monomial columns."""

    kind: CertKind
    vec_first: VectorPolynomial
    vec_second: VectorPolynomial
    weights: tuple[float, float] | None = None
    matrix_first: MatrixPolynomial | None = None
    matrix_second: MatrixPolynomial | None = None

    @property
    def degree(self):
        n1, m1 = self.vec_first.degree_bound() if len(self.vec_first) else (0, 0)
        n2, m2 = self.vec_second.degree_bound() if len(self.vec_second) else (0, 0)
        return max(n1 + 1, n2), max(m1, m2 + 1)


def _matrix_form_in_w(vec: VectorPolynomial, n: int, m: int) -> MatrixPolynomial:
    arr = np.zeros((len(vec), n, m + 1), dtype=np.complex128)
    for k, comp in enumerate(vec):
        g = comp.with_degree((n - 1, m)).coeffs
        arr[k, :, :] = g
    return MatrixPolynomial(arr)


def _matrix_form_in_z(vec: VectorPolynomial, m: int, n: int) -> MatrixPolynomial:
    arr = np.zeros((len(vec), m, n + 1), dtype=np.complex128)
    for k, comp in enumerate(vec):
        g = comp.with_degree((n, m - 1)).coeffs
        arr[k, :, :] = g.T
    return MatrixPolynomial(arr)


def _attach_matrix_forms(kind, vec_a, vec_b, n, m, weights=None):
    mat_a = _matrix_form_in_w(vec_a, n, m) if n > 0 else None
    mat_b = _matrix_form_in_z(vec_b, m, n) if m > 0 else None
    return SosCertificate(kind, vec_a, vec_b, weights, mat_a, mat_b)


def _stability_route(q):
    label = classify_zero_set(q).label
    if label is ZeroLabel.STABLE_CLOSED:
        return "direct"
    if label is ZeroLabel.STABLE_OPEN:
        return "dilation"
    if label is ZeroLabel.SYMMETRIC_NONVANISHING_OFF_TORUS:
        return "symmetric"
    raise StabilityError(
        f"polynomial has zeros on the open bidisk (classified {label.value}); "
        "no sums-of-squares certificate exists"
    )


def _direct_certificate(q):
    mom = compute_moments(q)
    vec_e, vec_f = subspace_kernel_pair(q, mom)
    c = mom.normalizer_c
    return vec_e.scaled(c), vec_f.scaled(c)


def _refactor_kernel_tensor(tensor, rank, degree):
    """Recover a component list from a kernel coefficient tensor: eigh of the
    PSD Gram-in-coefficient-space form, keeping the leading ``rank`` modes."""
    n, m = degree
    d = (n + 1) * (m + 1)
    gram = tensor.reshape(d, d)
    gram = 0.5 * (gram + gram.conj().T)
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    comps = []
    for k in order[:rank]:
        lam = max(evals[k], 0.0)
        comps.append(
            BivariatePolynomial((evecs[:, k] * math.sqrt(lam)).reshape(n + 1, m + 1))
        )
    return VectorPolynomial(tuple(comps))


def _neville_to_zero(hs, tables):
    """Polynomial extrapolation of table-valued data to h = 0."""
    tab = list(tables)
    for lev in range(1, len(hs)):
        tab = [
            (hs[i] * tab[i + 1] - hs[i + lev] * tab[i]) / (hs[i] - hs[i + lev])
            for i in range(len(hs) - lev)
        ]
    return tab[0]


def _kernel_tensor(vec, degree):
    """Coefficient tensor of the kernel of ``vec`` padded to ``degree``:
    T[i,j,k,l] = sum_c a_c[i,j] conj(a_c[k,l]).

    Invariant under any constant unitary mixing of the components, which
    makes it the right object to compare or extrapolate when the basis
    itself is only determined up to unitary equivalence.  An empty vector
    (the side of a certificate with n = 0 or m = 0) gives the zero tensor.
    """
    n, m = degree
    flat = np.zeros((len(vec), (n + 1) * (m + 1)), dtype=np.complex128)
    for k, comp in enumerate(vec):
        flat[k] = comp.with_degree(degree).coeffs.ravel()
    return (flat.T @ np.conj(flat)).reshape(n + 1, m + 1, n + 1, m + 1)


def _zero_certificate(q):
    """n and m zero components: reflect(q) is a unimodular multiple of a
    torus-symmetric q, so |q|^2 - |reflect(q)|^2 vanishes identically."""
    n, m = q.degree
    vec_a = BivariatePolynomial.zero((max(n - 1, 0), m))
    vec_b = BivariatePolynomial.zero((n, max(m - 1, 0)))
    return VectorPolynomial((vec_a,) * n), VectorPolynomial((vec_b,) * m)


def _dilation_certificate(q):
    """Certificate for q stable on the open bidisk with torus zeros.

    Certificates for the dilates q(rz, rw) exist by closed-bidisk stability;
    their kernel coefficient tensors (invariant under the per-radius unitary
    freedom of the orthonormal bases) are extrapolated to r = 1 in the
    variable sqrt(1 - r) and refactored into vectors of the right rank.  A
    repeated factor, double fiber roots at every radius, is refused first.
    """
    if not is_squarefree(q):
        raise QuadratureError("colliding fiber roots at every radius: q has a repeated factor")
    n, m = q.degree
    hs, ta_list, tb_list = [], [], []
    for r in DILATION_RADII:
        vec_a, vec_b = _direct_certificate(dilate(q, r))
        hs.append(math.sqrt(1.0 - r))
        ta_list.append(_kernel_tensor(vec_a, (max(n - 1, 0), m)))
        tb_list.append(_kernel_tensor(vec_b, (n, max(m - 1, 0))))
    for tensors in (ta_list, tb_list):
        gaps = [float(np.max(np.abs(tensors[k + 1] - tensors[k]))) for k in range(len(hs) - 1)]
        if gaps[-1] > gaps[0]:
            raise QuadratureError("dilation certificates are not converging toward r = 1")
    ta0 = _neville_to_zero(hs, ta_list)
    tb0 = _neville_to_zero(hs, tb_list)
    vec_a = _refactor_kernel_tensor(ta0, n, (max(n - 1, 0), m))
    vec_b = _refactor_kernel_tensor(tb0, m, (n, max(m - 1, 0)))
    return vec_a, vec_b


def _route_vectors(q, route):
    if route == "direct":
        return _direct_certificate(q)
    if route == "dilation":
        return _dilation_certificate(q)
    if route == "symmetric":
        return _zero_certificate(q)
    raise ValueError(f"unknown route {route!r}")


def sos_certificate(q: BivariatePolynomial, route: str | None = None) -> SosCertificate:
    """Two-square certificate q qbar - reflect(q) reflect(q)bar =
    (1-|z|^2)|A|^2 + (1-|w|^2)|B|^2 for q with no zeros on the bidisk.

    Zero-free on the closed bidisk goes through the moment construction
    directly, torus zeros through the dilation route, and the certificate of
    a SymmetricNonvanishingOffTorus q is zero.  A ``route`` of "direct",
    "dilation" or "symmetric" skips the classification step.  q is first
    divided by the power of two that brings its scale into [1/2, 1) and
    both vectors are multiplied back by it, which is exact: the certificate
    of 2^k q is 2^k times that of q wherever both stay in range.
    """
    n, m = q.degree
    e = q.exponent
    q = q.ldexp(-e)
    if route is None:
        route = _stability_route(q)
    vec_a, vec_b = _route_vectors(q, route)
    return _attach_matrix_forms(CertKind.COLE_WERMER, vec_a.ldexp(e), vec_b.ldexp(e), n, m)


@dataclass(frozen=True)
class GwReport:
    """Minimum singular values over the closed disk of A(w) and of the
    z-reflected B(z) matrix; both must stay away from zero for polynomials
    with no zeros on the closed bidisk (Geronimo-Woerdeman 2004).

    Each minimum is taken by :meth:`MatrixPolynomial.min_singular_value_on_disk`
    over the circle samples, z = 0 and every zero of the determinant in the
    closed disk, found by a block companion.  A zero anywhere in the closed
    disk, also one on the circle between samples, gives a minimum of about 0;
    without one, the maximum principle puts the minimum on the circle."""

    min_sv_first: float
    min_sv_second: float
    threshold: float
    passed: bool


def gw_invertibility(cert: SosCertificate, grid_n: int = 32, threshold: float = 1e-6) -> GwReport:
    if cert.matrix_first is None or cert.matrix_second is None:
        raise ValueError("certificate carries no matrix forms")
    n = cert.matrix_second.var_degree
    sv_a = cert.matrix_first.min_singular_value_on_disk(grid_n)
    sv_b = cert.matrix_second.reflected(n).min_singular_value_on_disk(grid_n)
    return GwReport(sv_a, sv_b, threshold, sv_a > threshold and sv_b > threshold)


def sym_sos_certificate(
    q: BivariatePolynomial,
    a: float,
    b: float,
    route: str | None = None,
) -> SosCertificate:
    """Certificate of (an+bm)|q|^2 - 2 Re[(a z q_z + b w q_w) conj(q)] =
    (1-|z|^2)|A|^2 + (1-|w|^2)|B|^2 for torus-symmetric q without bidisk
    zeros.

    The combination g = a * reflect(q_z) + b * reflect(q_w) reflects back to
    a z q_z + b w q_w, so the plain certificate of g divided by (an + bm)
    is exactly the stated identity.  On the torus |g| = |a z q_z + b w q_w|,
    so g has torus zeros exactly where the zero set of q is torus-singular;
    a caller that knows this passes ``route`` ("direct" when smooth,
    "dilation" otherwise) and skips classifying g.  Like
    :func:`sos_certificate`, it builds from q divided by a power of two and
    multiplies both vectors back, so it is exactly covariant under 2^k q.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("weights must be non-negative and not both zero")
    e = q.exponent
    q = q.ldexp(-e)
    sym = symmetry_analysis(q, tol=1e-8)
    if not (sym.is_symmetric and abs(sym.constant - 1.0) <= 1e-6):
        raise ValueError("polynomial is not torus-symmetric; symmetrize it first")
    n, m = q.degree
    qz_ref, qw_ref = reflected_derivatives(q)
    g = (a * qz_ref).with_degree((n, m)) + (b * qw_ref).with_degree((n, m))
    if route is None:
        try:
            route = _stability_route(g)
        except StabilityError as exc:
            raise StabilityError(
                "reflected-derivative combination vanishes on the closed bidisk"
            ) from exc
    vec_a, vec_b = _route_vectors(g, route)
    scale = 1.0 / math.sqrt(a * n + b * m)
    vec_a, vec_b = vec_a.scaled(scale).ldexp(e), vec_b.scaled(scale).ldexp(e)
    return _attach_matrix_forms(CertKind.SYMMETRIC, vec_a, vec_b, n, m, weights=(a, b))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    kind: CertKind
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def _shifted_kernel(vec, degree, axis):
    """Coefficient tensor of (1 - z conj(Z)) K (axis 0) or (1 - w conj(W)) K
    (axis 1), K the kernel of ``vec`` padded to ``degree``, which must leave
    the top power of that variable free."""
    t = _kernel_tensor(vec, degree)
    out = t.copy()
    if axis == 0:
        out[1:, :, 1:, :] -= t[:-1, :, :-1, :]
    else:
        out[:, 1:, :, 1:] -= t[:, :-1, :, :-1]
    return out


def verify_certificate(
    q: BivariatePolynomial, cert: SosCertificate, threshold: float = 1e-7
) -> VerificationReport:
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
    has the residual of (q, cert).  A residual that is not finite, as for
    an + bm <= 0, fails.
    """
    n, m = q.degree
    first, second = cert.vec_first, cert.vec_second
    degree = (
        max([n] + [c.degree[0] + 1 for c in first] + [c.degree[0] for c in second]),
        max([m] + [c.degree[1] for c in first] + [c.degree[1] + 1 for c in second]),
    )
    e = q.exponent
    q = q.ldexp(-e)
    first, second = first.ldexp(-e), second.ldexp(-e)
    # components far above q's scale overflow to a residual that fails
    with np.errstate(over="ignore", invalid="ignore"):
        qq = _kernel_tensor(VectorPolynomial((q,)), degree)
        ka = _shifted_kernel(first, degree, 0)
        kb = _shifted_kernel(second, degree, 1)
        if cert.kind is CertKind.COLE_WERMER:
            kappa = 1.0
            diff = qq - _kernel_tensor(VectorPolynomial((reflect(q),)), degree) - ka - kb
        else:
            a, b = cert.weights
            kappa = a * n + b * m
            i, j, k, l = np.indices(qq.shape, sparse=True)
            zpow, wpow = a * (i + k), b * (j + l)
            if cert.kind is CertKind.SYMMETRIC:
                diff = (kappa - zpow - wpow) * qq - ka - kb
            else:
                diff = (b * m - a * n + zpow - wpow) * qq + ka - kb
        l1 = float(np.sum(np.abs(diff)))
    denom = kappa * float(np.sum(np.abs(q.coeffs) ** 2))
    residual = l1 / denom if denom > 0 else math.inf
    return VerificationReport(cert.kind, residual, threshold)
