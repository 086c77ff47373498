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
a polynomial with no zeros on the closed bidisk.  Polynomials that are only
zero-free on the open bidisk (torus zeros allowed) are handled by dilating
q_r(z, w) = q(rz, rw), building certificates along r -> 1, and extrapolating
the (unitary-invariant) kernel coefficient tensors to r = 1; a torus-symmetric
one has |q| = |reflect(q)| everywhere, so its certificate is zero.

Moments are two-dimensional Fourier coefficients.  Their w-integrals at a
node z are exact: the Toeplitz matrix of the fiber density 1/|q(z, .)|^2 is
the inverse of the fiber's Schur-Cohn matrix (Gohberg-Semencul), so one
small Cholesky factorization per node gives them, with no roots, residues
or 2-D FFT.  A single 1-D quadrature in z follows, whose grid doubles by
adding the odd nodes to the columns already computed.  The dilates of the
dilation route share that loop: each level computes the new nodes of every
dilate not yet converged in one batch, each dilate converges on its own,
and one basis factorization per side serves them all.  Every step acts on
each node or matrix alone, so each dilate gets, to the bit, what it would
get alone.

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

# Certificate coefficients of the dilated family q(rz, rw) approach the
# boundary-zero limit like sqrt(1 - r) (measured, and stable across the
# corpus), so extrapolation runs in h = sqrt(1 - r); the radii are geometric
# in h, which makes polynomial extrapolation to h = 0 well conditioned.
DILATION_RADII = (0.9, 0.97, 0.99, 0.997, 0.999, 0.9997, 0.9999)
# Condition estimate J_0 tr(S) of a fiber's Schur-Cohn matrix S above which
# its moment column is refined in long double.
REFINE_COND = 1e2
# Largest quadrature grid of a moment table; the polynomials of a batch
# that double their grids together hold at most this many nodes between them.
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
    case.  With S = L L^H, S^-1 e_m is one back substitution in L^H.

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
    return col[:, ::-1].reshape(shape)


def _moment_window(qs, size, cols=None):
    """Windows of the same-degree polynomials ``qs`` from their moment
    columns at ``size`` nodes, and those columns, shaped (len(qs), m+1,
    size).

    ``cols`` are each polynomial's columns at size/2 nodes: those nodes are
    the even nodes of this grid, so only the size/2 odd nodes are computed
    afresh.  The new fibers of every polynomial go through one
    :func:`_moment_column` call and every column through one inverse FFT.
    Each polynomial's returned columns are an array of its own, so holding
    them holds nothing of the others'."""
    n, m = qs[0].degree
    step = 1 if cols is None else 2
    nodes = np.exp(2j * np.pi * np.arange(step - 1, size, step) / size)
    fresh = _moment_column(np.stack([q.fibers(nodes) for q in qs])).transpose(0, 2, 1)
    if cols is None:
        cols = fresh
    else:
        both = np.empty((len(qs), m + 1, size), dtype=np.complex128)
        for k, old in enumerate(cols):
            both[k, :, 0::2] = old
        both[:, :, 1::2] = fresh
        cols = both
    spectra = np.fft.ifft(cols, axis=-1)  # spectra[k, b, a % size] = raw mu(a, b) of qs[k]
    a = np.arange(-n, n + 1)
    # mu(a, -b) = conj(mu(-a, b)) fills the columns b < 0
    lower = np.conj(spectra[:, :0:-1, (-a) % size]).transpose(0, 2, 1)
    windows = np.concatenate([lower, spectra[:, :, a % size].transpose(0, 2, 1)], axis=-1)
    return windows, [col.copy() for col in cols]


def _moment_tables(qs):
    """Moment tables of the same-degree polynomials ``qs``, climbing their
    quadrature grids together.

    Each level doubles the grids of the unconverged polynomials in one
    :func:`_moment_window` call; each leaves at the level where its own
    window agrees with the one before to 1e-9 relative.  The polynomials
    advancing together hold at most GRID_CAP nodes between them, so a
    batch that converges late climbs its last levels in smaller groups, the
    first unconverged polynomial always among them; it raises
    QuadratureError once that one reaches GRID_CAP nodes unconverged.  Only
    the unconverged polynomials hold columns, each its own.
    """
    n, m = qs[0].degree
    size = 1 << max(8, math.ceil(math.log2(max(1, 16 * (n + m)))))
    wins, cols = _moment_window(qs, size)
    wins, sizes = list(wins), [size] * len(qs)
    tables = [None] * len(qs)
    pending = list(range(len(qs)))
    while pending:
        size = sizes[pending[0]]
        if size >= GRID_CAP:
            raise QuadratureError("quadrature unresolved: moment window did not converge")
        group = [k for k in pending if sizes[k] == size][: max(1, GRID_CAP // (2 * size))]
        nxt, both = _moment_window([qs[k] for k in group], 2 * size, [cols[k] for k in group])
        prev = np.stack([wins[k] for k in group])
        scale = np.maximum(np.max(np.abs(nxt), axis=(1, 2)), 1e-300)
        errs = np.max(np.abs(nxt - prev), axis=(1, 2)) / scale
        for i, k in enumerate(group):
            if errs[i] <= 1e-9:
                mu00 = nxt[i, n, m].real
                tables[k] = MomentTable(qs[k], math.sqrt(1.0 / mu00), nxt[i] / mu00, 2 * size)
                wins[k] = cols[k] = None
                pending.remove(k)
            else:
                wins[k], cols[k], sizes[k] = nxt[i], both[i], 2 * size
        del both  # a converged member's columns go now, not after the next level
    return tables


def compute_moments(q: BivariatePolynomial) -> MomentTable:
    """Moment table of the normalized density c^2/|q|^2 on the torus.

    One Cholesky factorization of the fiber's Schur-Cohn matrix per z-node
    gives the exact w-integrals J_0..J_m, refined once where a fiber root
    nears the circle; no roots, residues or 2-D FFT are involved.  A 1-D
    quadrature in z then gives the window.  Its grid starts at the smallest
    power of two >= max(256, 16(n+m)) and doubles, adding only the odd
    nodes, until the window agrees with the doubled grid's to 1e-9 relative,
    up to GRID_CAP = 2^20 nodes.  A fiber root inside the closed disk on the
    contour (a zero of q on the closed bidisk, or q(z, 0) = 0) raises
    StabilityError.  This is the batch of one of the loop that the dilates
    of the dilation route share: they climb the grid together, one
    Schur-Cohn solve and one inverse FFT per level, each converging on its
    own, and every table is the one q alone would get, to the bit.
    """
    return _moment_tables([q])[0]


def _gram(window, rows, cols):
    """[mu(ic - ir, jc - jr)] over row monomials (ir, jr) and column
    monomials (ic, jc), gathered from a moment window, or from each window
    of a stack of them."""
    n, m = (window.shape[-2] - 1) // 2, (window.shape[-1] - 1) // 2
    r = np.asarray(rows, dtype=np.intp).reshape(-1, 2)
    c = np.asarray(cols, dtype=np.intp).reshape(-1, 2)
    return window[..., c[None, :, 0] - r[:, None, 0] + n, c[None, :, 1] - r[:, None, 1] + m]


def _complement_basis(windows, shifted, rest, degree):
    """For each window of the stack ``windows``, an orthonormal basis, in
    its moment inner product, of the complement of span(shifted) in
    span(shifted + rest): len(rest) components of ``degree``.

    With the Gram matrix G of shifted + rest factored as L L^H, B = L^-H is
    upper triangular with B^H G B = I, and G B = L is lower triangular, so
    the trailing len(rest) columns of B, one solve against L^H, are
    orthonormal and orthogonal to every shifted monomial.  The stack's Gram
    matrices go through one Cholesky and one solve call, each matrix on its
    own.  No threshold is involved; a G that is not numerically positive
    definite raises SubspaceError."""
    family = shifted + rest
    try:
        chol = np.linalg.cholesky(_gram(windows, family, family))
    except np.linalg.LinAlgError:
        raise SubspaceError("subspace degenerate: Gram matrix not positive definite") from None
    # b carries the batch axis, so solve reads it as a stack of matrices
    # under numpy 1.x's broadcasting rule as well as numpy 2's
    tail = np.broadcast_to(np.eye(len(family))[:, len(shifted) :], chol.shape[:-1] + (len(rest),))
    basis = np.linalg.solve(np.conj(chol).swapaxes(-1, -2), tail)
    grids = np.zeros((len(windows), len(rest), degree[0] + 1, degree[1] + 1), dtype=np.complex128)
    i, j = np.asarray(family, dtype=np.intp).reshape(-1, 2).T
    grids[:, :, i, j] = basis.swapaxes(-1, -2)
    return [VectorPolynomial(g) for g in grids]


def _kernel_pairs(degree, windows):
    """Orthonormal bases (E, F) of the two complements whose kernels build
    the certificate, for each window of a stack of same-degree moment
    windows; for q of degree (n, m), E has exactly n components of degree
    <= (n-1, m) and F exactly m of degree <= (n, m-1)."""
    n, m = degree
    deg_e, deg_f = side_degrees(n, m)
    shift1 = [(i, j) for i in range(n) for j in range(1, m + 1)]
    vecs_e = _complement_basis(windows, shift1, [(i, 0) for i in range(n)], deg_e)
    shift2 = [(i, j) for i in range(n) for j in range(m)]
    vecs_f = _complement_basis(windows, shift2, [(n, j) for j in range(m)], deg_f)
    return list(zip(vecs_e, vecs_f))


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


def _certificate_vectors(tables):
    """Certificate vectors from the moment tables of same-degree polynomials
    zero-free on the closed bidisk: each table's complement bases scaled by
    its normalizer.  One factorization per side serves all the tables, and
    each pair is the one its table alone would give."""
    pairs = _kernel_pairs(tables[0].q.degree, np.stack([t.window for t in tables]))
    return [(e.scaled(t.normalizer_c), f.scaled(t.normalizer_c)) for t, (e, f) in zip(tables, pairs)]


def _direct_certificate(q):
    """Certificate vectors for q with no zeros on the closed bidisk, from
    its own moment table."""
    return _certificate_vectors([compute_moments(q)])[0]


def _refactor_kernel_tensor(tensor, rank):
    """Recover a vector at the tensor's degree from a kernel coefficient
    tensor: eigh of the PSD Gram-in-coefficient-space form, keeping the
    leading ``rank`` modes."""
    rows, cols = tensor.shape[:2]
    gram = tensor.reshape(rows * cols, rows * cols)
    gram = 0.5 * (gram + gram.conj().T)
    evals, evecs = np.linalg.eigh(gram)
    keep = np.argsort(evals)[::-1][:rank]
    modes = evecs[:, keep] * np.sqrt(np.maximum(evals[keep], 0.0))
    return VectorPolynomial(modes.T.reshape(rank, rows, cols))


def _neville_to_zero(hs, tables):
    """Polynomial extrapolation of table-valued data to h = 0."""
    tab = list(tables)
    for lev in range(1, len(hs)):
        tab = [
            (hs[i] * tab[i + 1] - hs[i + lev] * tab[i]) / (hs[i] - hs[i + lev])
            for i in range(len(hs) - lev)
        ]
    return tab[0]


def _kernel_tensor(vec):
    """Coefficient tensor of the kernel of ``vec`` at its degree:
    T[i,j,k,l] = sum_c a_c[i,j] conj(a_c[k,l]).

    Invariant under any constant unitary mixing of the components, which
    makes it the right object to compare or extrapolate when the basis
    itself is only determined up to unitary equivalence.  An empty vector
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
    """Certificate for q stable on the open bidisk with torus zeros.

    Certificates for the dilates q(rz, rw) exist by closed-bidisk stability;
    their kernel coefficient tensors (invariant under the per-radius unitary
    freedom of the orthonormal bases) are extrapolated to r = 1 in the
    variable sqrt(1 - r) and refactored into vectors of the right rank.  A
    repeated factor, double fiber roots at every radius, is refused first.
    The dilates are certified as one batch: they share each level of the
    moment quadrature and one basis factorization per side, and each
    converges on its own, so every radius gets the certificate it would get
    alone.
    """
    if not is_squarefree(q):
        raise QuadratureError("colliding fiber roots at every radius: q has a repeated factor")
    n, m = q.degree
    hs = [math.sqrt(1.0 - r) for r in DILATION_RADII]
    pairs = _certificate_vectors(_moment_tables([dilate(q, r) for r in DILATION_RADII]))
    ta_list = [_kernel_tensor(vec_a) for vec_a, _ in pairs]
    tb_list = [_kernel_tensor(vec_b) for _, vec_b in pairs]
    for tensors in (ta_list, tb_list):
        gaps = [float(np.max(np.abs(tensors[k + 1] - tensors[k]))) for k in range(len(hs) - 1)]
        if gaps[-1] > gaps[0]:
            raise QuadratureError("dilation certificates are not converging toward r = 1")
    ta0 = _neville_to_zero(hs, ta_list)
    tb0 = _neville_to_zero(hs, tb_list)
    return _refactor_kernel_tensor(ta0, n), _refactor_kernel_tensor(tb0, m)


def sos_certificate(q: BivariatePolynomial) -> SosCertificate:
    """Two-square certificate q qbar - reflect(q) reflect(q)bar =
    (1-|z|^2)|A|^2 + (1-|w|^2)|B|^2 for q with no zeros on the bidisk.

    The route follows from classifying q: zero-free on the closed bidisk
    goes through the moment construction directly, torus zeros through the
    dilation route, and the certificate of a SymmetricNonvanishingOffTorus
    q is zero.  q is first divided by the power of two that brings its
    scale into [1/2, 1) and both vectors are multiplied back by it, which
    is exact: the certificate of 2^k q is 2^k times that of q wherever both
    stay in range.
    """
    e = q.exponent
    q = q.ldexp(-e)
    vec_a, vec_b = _stability_route(q)(q)
    return SosCertificate(CertKind.COLE_WERMER, vec_a.ldexp(e), vec_b.ldexp(e))


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
    back, so it is exactly covariant under 2^k q.
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
    vec_a, vec_b = vec_a.scaled(scale).ldexp(e), vec_b.scaled(scale).ldexp(e)
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
        l1 = float(np.sum(np.abs(diff)))
    denom = kappa * float(np.sum(np.abs(q.coeffs) ** 2))
    residual = l1 / denom if denom > 0 else math.inf
    return VerificationReport(residual, 1e-7)
