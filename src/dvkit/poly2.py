"""Coefficient-level algebra for bivariate complex polynomials.

A polynomial sum_{i,j} c[i,j] z^i w^j is stored as a dense (n+1) x (m+1)
complex grid indexed [z-power, w-power].  The grid shape *is* the formal
degree: reflection depends on the declared degree, so the degree is carried
explicitly by the data and never inferred from which entries happen to be
nonzero.  A constant declared at degree (3,2) is a 4x3 grid with one nonzero
entry, and it reflects differently from the same constant at degree (0,0).
A degree may be re-declared at or above the true degree, also below the
declared one.

A vector of polynomials is one (len, n+1, m+1) array at one degree, so the
two sides of a certificate are each one array; its matrix forms A(w) and
B(z) are views of it, read along z or along w.

All values are immutable; every operation returns a fresh polynomial.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BivariatePolynomial",
    "VectorPolynomial",
    "MatrixPolynomial",
    "DegreeMismatchError",
    "reflect",
    "reflected_derivatives",
    "side_degrees",
    "symmetry_constant",
    "symmetrize",
    "swap_transform",
    "transpose_vars",
    "derived_dv_poly",
    "blaschke_dv",
    "companion_roots",
    "horner",
    "roots_of_unity",
]


class DegreeMismatchError(ValueError):
    """Raised when an operation needs a formal degree the operand lacks."""


def horner(coeffs, x) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, coefficients low to high along
    axis 0.

    Each slice ``coeffs[k]`` broadcasts against ``x``, so one call evaluates
    one polynomial at many points or many polynomials at their own points.
    This is the package's one scalar Horner loop.
    """
    acc = np.zeros(np.broadcast_shapes(np.shape(coeffs)[1:], np.shape(x)), dtype=np.complex128)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def companion_roots(lower) -> np.ndarray:
    """The s d zeros of det(t^d I + sum_{j<d} lower[j] t^j), multiplicities
    included, for ``lower`` of shape (..., d, s, s) batched over the leading
    axes: the eigenvalues of the block companion matrix with identity blocks
    on its subdiagonal and -lower[0], ..., -lower[d-1] down its last block
    column.  This is the package's one companion matrix; s = 1 gives the
    roots of scalar monic polynomials.
    """
    lower = np.asarray(lower, dtype=np.complex128)
    *batch, d, s, _ = lower.shape
    comp = np.zeros((*batch, d * s, d * s), dtype=np.complex128) + np.eye(d * s, k=-s)
    comp[..., -s:] = -lower.reshape(*batch, d * s, s)
    return np.linalg.eigvals(comp)


def roots_of_unity(count: int) -> np.ndarray:
    """The ``count``-th roots of unity exp(2 pi i k / count), k = 0..count-1."""
    return np.exp(2j * np.pi * np.arange(count) / count)


# Relative proportionality tolerance of q against reflect(q), shared by every
# caller of symmetry_constant, so a polynomial that classifies as symmetric
# also symmetrizes; sym_sos_certificate reads it as the bound on |c - 1|.
SYMMETRY_TOL = 1e-8
# Coefficients at or below this fraction of the largest one count as zero
# when a degree is read off: a fiber's w-degree in classify, and the
# z-degree swap_transform requires.
FIBER_TRIM = 1e-12
# MatrixPolynomial's SVD and block companion divide by a power of two only a
# largest coefficient beyond 2^+-RANGE_BOUND, and only down to that bound.
RANGE_BOUND = 500


def _stacked_horner(grids, z, w) -> np.ndarray:
    """Values of the polynomials with coefficient grids ``grids[..., i, j]``
    (leading axes stack polynomials), shape grids.shape[:-2] + broadcast.

    The rows go through one Horner pass in w at w's own shape, then the row
    values through one pass in z."""
    shape = np.broadcast_shapes(z.shape, w.shape)
    w = w.reshape((1,) * (len(shape) - w.ndim) + w.shape)
    by_w = grids.transpose(-1, *range(grids.ndim - 1))
    rows = horner(by_w.reshape(by_w.shape + (1,) * w.ndim), w)  # grids.shape[:-1] + w.shape
    return horner(rows.swapaxes(0, grids.ndim - 2), z)


def _redeclared(coeffs, degree) -> np.ndarray:
    """The grids on the last two axes of ``coeffs`` at ``degree``: the block
    both degrees share is copied and the rest is zero.  Raises
    :class:`DegreeMismatchError` when a coefficient beyond ``degree`` is
    nonzero."""
    n, m = degree
    if np.any(coeffs[..., n + 1 :, :]) or np.any(coeffs[..., m + 1 :]):
        raise DegreeMismatchError(f"cannot declare degree {(n, m)} below the true degree")
    out = np.zeros(coeffs.shape[:-2] + (n + 1, m + 1), dtype=np.complex128)
    rows, cols = min(n + 1, coeffs.shape[-2]), min(m + 1, coeffs.shape[-1])
    out[..., :rows, :cols] = coeffs[..., :rows, :cols]
    return out


def side_degrees(n: int, m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((n - 1, m), (n, m - 1)), each clamped at 0: the degrees of q_z and
    q_w for q of degree (n, m), and of the two vectors of its certificate."""
    return (max(n - 1, 0), m), (n, max(m - 1, 0))


def _exponent(arr) -> int:
    """The e with 2^(e-1) <= max |arr| < 2^e, or 0 when the maximum is zero
    or not finite, so that ``_ldexp(arr, -e)`` brings it into [1/2, 1)."""
    return int(np.frexp(np.max(np.abs(arr), initial=0.0))[1])


def _ldexp(arr, e: int) -> np.ndarray:
    """Complex ``arr`` times 2^e, exact unless an entry leaves the normal
    range."""
    parts = np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64)
    return np.ldexp(parts, e).view(np.complex128)


def _frozen(coeffs, ndim: int) -> np.ndarray:
    """Read-only complex copy of ``coeffs``, which must have ``ndim`` axes."""
    arr = np.array(coeffs, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"coefficients must be {ndim}-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BivariatePolynomial:
    """Dense bivariate polynomial with an explicit formal degree.

    Parameters
    ----------
    coeffs : array_like
        (n+1) x (m+1) complex grid, ``coeffs[i, j]`` multiplying z^i w^j.
        The shape declares the formal degree (n, m).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.reshape(self.coeffs, (1, 1)) if np.ndim(self.coeffs) == 0 else self.coeffs
        object.__setattr__(self, "coeffs", _frozen(coeffs, 2))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree) -> "BivariatePolynomial":
        n, m = degree
        return cls(np.zeros((n + 1, m + 1), dtype=np.complex128))

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        """``value`` at degree (0, 0)."""
        return cls(np.full((1, 1), value, dtype=np.complex128))

    @classmethod
    def from_terms(cls, terms: dict) -> "BivariatePolynomial":
        """Build from a {(i, j): coefficient} mapping, at the degree of its
        largest indices; :meth:`with_degree` declares a higher one."""
        n, m = (max((k[a] for k in terms), default=0) for a in (0, 1))
        grid = np.zeros((n + 1, m + 1), dtype=np.complex128)
        for (i, j), c in terms.items():
            grid[i, j] = c
        return cls(grid)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> tuple[int, int]:
        """Formal degree (n, m) declared by the grid shape."""
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1

    @property
    def scale(self) -> float:
        """Maximum coefficient modulus; the unit for relative tolerances."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    @property
    def exponent(self) -> int:
        """The e with 2^(e-1) <= scale < 2^e, or 0 for the zero polynomial,
        so that ``ldexp(-exponent)`` brings the scale into [1/2, 1)."""
        return _exponent(self.coeffs)

    def ldexp(self, e: int) -> "BivariatePolynomial":
        """self * 2^e, exact unless a coefficient leaves the normal range."""
        return BivariatePolynomial(_ldexp(self.coeffs, e))

    def true_degree(self) -> tuple[int, int]:
        """Largest (i, j) with c[i,j] nonzero, or (0, 0) if zero."""
        mask = np.abs(self.coeffs) > 0
        if not mask.any():
            return 0, 0
        rows = np.nonzero(mask.any(axis=1))[0]
        cols = np.nonzero(mask.any(axis=0))[0]
        return int(rows[-1]), int(cols[-1])

    def with_degree(self, degree) -> "BivariatePolynomial":
        """Re-declare the formal degree at or above the true degree; pads
        with zeros, never truncates a nonzero coefficient."""
        return BivariatePolynomial(_redeclared(self.coeffs, degree))

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, z, w):
        """Evaluate by nested Horner: one :func:`horner` call takes every
        coefficient row in w at once, the rows stacked on a leading axis at
        w's own shape, and a second takes the row values in z at the
        broadcast shape.

        Each point sees the operations of a row-by-row loop in the same
        order, so the values are the same to the bit.  Accepts scalars or
        broadcastable numpy arrays and returns an array of the broadcast
        shape (a scalar for scalar inputs).
        """
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        acc = _stacked_horner(self.coeffs, z, w)
        if acc.ndim == 0:
            return complex(acc)
        return acc

    def fibers(self, z) -> np.ndarray:
        """Coefficients, low to high in w, of the fibers p(z, .).

        A scalar z gives shape (m+1,); an array of z gives z.shape + (m+1,).
        """
        z = np.asarray(z, dtype=np.complex128)
        return (z[..., None] ** np.arange(self.coeffs.shape[0])) @ self.coeffs

    # -- arithmetic ---------------------------------------------------

    def _binary(self, other, sign):
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        m = max(self.coeffs.shape[1], other.coeffs.shape[1])
        grid = np.zeros((n, m), dtype=np.complex128)
        grid[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        grid[: other.coeffs.shape[0], : other.coeffs.shape[1]] += sign * other.coeffs
        return BivariatePolynomial(grid)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, other):
        if isinstance(other, BivariatePolynomial):
            a, b = self.coeffs, other.coeffs
            out = np.zeros(
                (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                dtype=np.complex128,
            )
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0:
                        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return BivariatePolynomial(out)
        return BivariatePolynomial(self.coeffs * complex(other))

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def partial_z(self) -> "BivariatePolynomial":
        """d/dz with formal degree (n-1, m), clamped at 0."""
        n, m = self.degree
        if n == 0:
            return BivariatePolynomial.zero((0, m))
        mult = np.arange(1, n + 1, dtype=np.complex128)[:, None]
        return BivariatePolynomial(self.coeffs[1:, :] * mult)

    def partial_w(self) -> "BivariatePolynomial":
        """d/dw with formal degree (n, m-1), clamped at 0."""
        n, m = self.degree
        if m == 0:
            return BivariatePolynomial.zero((n, 0))
        mult = np.arange(1, m + 1, dtype=np.complex128)[None, :]
        return BivariatePolynomial(self.coeffs[:, 1:] * mult)

    def __repr__(self):
        n, m = self.degree
        return f"BivariatePolynomial(degree=({n},{m}))"


def reflect(p: BivariatePolynomial) -> BivariatePolynomial:
    """Reflection z^n w^m conj(p(1/conj(z), 1/conj(w))) at p's declared
    degree (n, m); reflect ``p.with_degree(d)`` for another degree d.

    On the grid this is a reversal of both indices with entrywise
    conjugation.  An involution at fixed degree.
    """
    return BivariatePolynomial(np.conj(p.coeffs[::-1, ::-1]))


def reflected_derivatives(q: BivariatePolynomial):
    """(reflection of q_z at (n-1, m), reflection of q_w at (n, m-1)).

    Each derivative is declared at the degree generically expected of it
    (:func:`side_degrees`) and reflected there, which is what makes the
    reflection calculus identities (z*q_z + reflected(q_z) = n*q for
    torus-symmetric q, and the w analogue) hold at the coefficient level.
    """
    return reflect(q.partial_z()), reflect(q.partial_w())


def symmetry_constant(q: BivariatePolynomial) -> complex | None:
    """The unimodular c with q = c * reflect(q), or None when q is not
    essentially torus-symmetric; c = 1 makes q torus-symmetric itself.

    c is estimated at the largest-modulus coefficient of the reflection and
    validated against every coefficient of the grid; a grid that fails
    proportionality within ``SYMMETRY_TOL * scale``, or a c whose modulus
    misses 1 by more than SYMMETRY_TOL, gives None.
    """
    if q.is_zero():
        raise ValueError("symmetry analysis of the zero polynomial")
    # the ratio of two coefficients is the same at every power-of-two scale,
    # and at unit scale it neither overflows nor underflows
    q = q.ldexp(-q.exponent)
    qr = reflect(q)
    k = int(np.argmax(np.abs(qr.coeffs)))
    idx = np.unravel_index(k, qr.coeffs.shape)
    c = q.coeffs[idx] / qr.coeffs[idx]
    residual = float(np.max(np.abs(q.coeffs - c * qr.coeffs)))
    if residual > SYMMETRY_TOL * q.scale or abs(abs(c) - 1.0) > SYMMETRY_TOL:
        return None
    return complex(c)


def symmetrize(q: BivariatePolynomial) -> BivariatePolynomial:
    """s * q, s the principal square root of conj(c) for c the
    :func:`symmetry_constant` of q (Re s >= 0, and Im s > 0 when Re s = 0):
    the unimodular factor, unique up to sign, that makes s * q
    torus-symmetric.  For real c (every polynomial in this package's corpus)
    s * s equals c itself.

    The factor is applied also when c is within SYMMETRY_TOL of 1: the
    rotation it undoes still exceeds rounding."""
    c = symmetry_constant(q)
    if c is None:
        raise ValueError("polynomial is not essentially torus-symmetric")
    s = cmath.sqrt(c.conjugate())
    if s.real == 0 and s.imag < 0:
        s = -s
    return s * q


def swap_transform(p: BivariatePolynomial) -> BivariatePolynomial:
    """q(z, w) = z^n p(1/z, w): the z-index reversal, no conjugation.

    Carries polynomials defining a distinguished variety to torus-symmetric
    polynomials with no zeros on the closed bidisk off the torus, and back.
    Requires exact degree n in z (top coefficient row above FIBER_TRIM of
    the scale); self-inverse when degrees are exact.
    """
    n, _ = p.degree
    if np.max(np.abs(p.coeffs[n, :])) <= FIBER_TRIM * p.scale:
        raise DegreeMismatchError(
            f"z-degree is declared {n} but coefficient row {n} vanishes"
        )
    return BivariatePolynomial(p.coeffs[::-1, :])


def transpose_vars(p: BivariatePolynomial) -> BivariatePolynomial:
    """p with the roles of z and w exchanged (grid transpose)."""
    return BivariatePolynomial(p.coeffs.T)


def derived_dv_poly(p: BivariatePolynomial) -> BivariatePolynomial:
    """m*z*p_z - n*w*p_w at formal degree (n, m).

    Maps distinguished-variety-defining polynomials to distinguished-
    variety-defining polynomials; on the grid the (i, j) entry is scaled
    by (m*i - n*j).
    """
    n, m = p.degree
    i = np.arange(n + 1)[:, None]
    j = np.arange(m + 1)[None, :]
    return BivariatePolynomial(p.coeffs * (m * i - n * j))


def blaschke_dv(m: int, alphas) -> BivariatePolynomial:
    """w^m * prod(1 - conj(a) z) - prod(z - a): the denominator-cleared curve
    w^m = B(z) for the Blaschke product B with zeros ``alphas``.

    Defines a distinguished variety of degree (len(alphas), m) when every
    zero lies inside the disk.
    """
    denom = np.array([1.0 + 0.0j])
    numer = np.array([1.0 + 0.0j])
    for a in alphas:
        denom = np.convolve(denom, np.array([1.0, -np.conj(a)]))
        numer = np.convolve(numer, np.array([-a, 1.0]))
    grid = np.zeros((len(alphas) + 1, m + 1), dtype=np.complex128)
    grid[:, m] = denom
    grid[:, 0] -= numer
    return BivariatePolynomial(grid)


@dataclass(frozen=True, eq=False)
class VectorPolynomial:
    """Vector of bivariate polynomials at one formal degree: ``coeffs[k, i,
    j]`` multiplies z^i w^j in component k, and the grid shape (len, n+1,
    m+1) declares the degree (n, m) of every component.  Its matrix forms
    are views of the same array (:meth:`matrix_in_w`, :meth:`matrix_in_z`)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs, 3))

    @classmethod
    def of(cls, components) -> "VectorPolynomial":
        """Stack polynomials, each padded to the largest degree any of them
        declares; no components give an empty vector of degree (0, 0)."""
        components = tuple(components)
        n, m = (max((c.degree[a] for c in components), default=0) for a in (0, 1))
        grids = [c.with_degree((n, m)).coeffs for c in components]
        return cls(np.reshape(grids, (len(grids), n + 1, m + 1)))

    @property
    def degree(self) -> tuple[int, int]:
        """Formal degree (n, m) of every component, declared by the shape."""
        return self.coeffs.shape[1] - 1, self.coeffs.shape[2] - 1

    def with_degree(self, degree) -> "VectorPolynomial":
        """Re-declare the formal degree of every component at once, at or
        above their true degree."""
        return VectorPolynomial(_redeclared(self.coeffs, degree))

    def __len__(self):
        return self.coeffs.shape[0]

    def __iter__(self):
        return (BivariatePolynomial(g) for g in self.coeffs)

    def matrix_in_w(self) -> "MatrixPolynomial":
        """A(w), len x (n+1), with V(z, w) = A(w) (1, z, ..., z^n)^t."""
        return MatrixPolynomial(self.coeffs)

    def matrix_in_z(self) -> "MatrixPolynomial":
        """B(z), len x (m+1), with V(z, w) = B(z) (1, w, ..., w^m)^t."""
        return MatrixPolynomial(self.coeffs.transpose(0, 2, 1))

    def evaluate(self, z, w) -> np.ndarray:
        """Stacked values, shape (len(self), *broadcast(z, w).shape).

        All components go through one stacked Horner evaluation.  Components
        declared at a lower degree and padded carry only exact zeros ahead
        of their own terms, so every value equals the component's own
        :meth:`BivariatePolynomial.evaluate` to the bit."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        return _stacked_horner(self.coeffs, z, w)

    def scaled(self, factor) -> "VectorPolynomial":
        return VectorPolynomial(self.coeffs * complex(factor))

    def ldexp(self, e: int) -> "VectorPolynomial":
        """self * 2^e, exact unless a coefficient leaves the normal range."""
        return VectorPolynomial(_ldexp(self.coeffs, e))


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Matrix of one-variable polynomials; ``coeffs[r, c, k]`` multiplies t^k."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs, 3))

    @property
    def var_degree(self):
        return self.coeffs.shape[2] - 1

    def evaluate(self, t) -> np.ndarray:
        """Horner evaluation; scalar t gives (rows, cols), arrays broadcast in front."""
        t = np.asarray(t, dtype=np.complex128)
        return horner(np.moveaxis(self.coeffs, 2, 0), t[..., None, None])

    def reflected(self) -> "MatrixPolynomial":
        """Entrywise t^d conj(entry(1/conj(t))) at the entries' degree d =
        :attr:`var_degree`: reversed, conjugated coefficients."""
        return MatrixPolynomial(np.conj(self.coeffs[:, :, ::-1]))

    @functools.cached_property
    def _range_exponent(self) -> int:
        """The e for which the SVD and the block companion read Q / 2^e: 0
        while the largest coefficient lies within 2^+-RANGE_BOUND, and
        otherwise the excess, which brings it to that bound.  Q / 2^e then
        neither overflows nor underflows at any scale of Q, and coefficients
        up to 2^RANGE_BOUND below the largest stay normal."""
        e = _exponent(self.coeffs)
        return e - int(np.clip(e, -RANGE_BOUND, RANGE_BOUND))

    def singular_values_on_circle(self, count: int) -> tuple[np.ndarray, int]:
        """(s, e): s[k] the singular values, largest first, of Q / 2^e at
        exp(2 pi i k / count), e of :attr:`_range_exponent`; Q's are s * 2^e."""
        e = self._range_exponent
        ranged = MatrixPolynomial(_ldexp(self.coeffs, -e))
        return np.linalg.svd(ranged.evaluate(roots_of_unity(count)), compute_uv=False), e

    @functools.cached_property
    def _singular_values_on_disk(self) -> tuple[np.ndarray, int]:
        """:meth:`singular_values_on_circle` at 64 points, computed once."""
        return self.singular_values_on_circle(64)

    @property
    def min_singular_value_on_disk(self) -> float:
        """Least singular value of the square matrix polynomial Q over the
        closed disk: 0.0 when det Q has a zero there (:attr:`det_zeros_in_disk`),
        and otherwise the least over the 64 circle points, from one cached SVD.

        With no such zero, Q^{-1} is analytic on the closed disk and
        ||Q^{-1}|| is subharmonic, so the least singular value 1 / ||Q^{-1}||
        over the disk is attained on the circle, which the samples stand for.
        """
        if len(self.det_zeros_in_disk):
            return 0.0
        s, e = self._singular_values_on_disk
        return float(np.ldexp(np.min(s), e))

    def disk_bound(self, rel: float) -> float:
        """``rel`` times the largest singular value over the 64 circle points,
        from the same SVD: the gate on :attr:`min_singular_value_on_disk`,
        which no constant unitary mixing of the rows of Q moves.  The product
        is formed before the 2^e, so the bound overflows only where ``rel``
        times that largest value does, not where the largest value does."""
        s, e = self._singular_values_on_disk
        return float(np.ldexp(rel * np.max(s), e))

    @functools.cached_property
    def det_zeros_in_disk(self) -> np.ndarray:
        """Zeros of det Q with |z| <= 1 + O(1e-12), read-only, computed once.

        They come from one :func:`companion_roots` solve: the reversed
        polynomial z^d Q(1/z), made monic by Q(0)^{-1}, has the zeros
        mu = 1/z of the zeros z of det Q, and mu = 0 for each zero at
        infinity (a singular top coefficient).  A zero counts as in
        the closed disk when |mu| >= 1 - 1e-12.  An exactly singular Q(0)
        admits no companion and gives the one zero z = 0.  A constant Q
        gives none.  The solve reads Q / 2^e for the e of
        :attr:`_range_exponent`, which has the zeros of Q.
        """
        zeros = np.zeros(0, dtype=np.complex128)
        if self.var_degree > 0:
            # c[k] multiplies t^k
            c = np.moveaxis(_ldexp(self.coeffs, -self._range_exponent), 2, 0)
            try:
                # z^d C_0^{-1} Q(1/z) = z^d I + sum_{j<d} lower[j] z^j
                lower = np.linalg.solve(c[0], c[:0:-1])
            except np.linalg.LinAlgError:
                zeros = np.zeros(1, dtype=np.complex128)
            else:
                mu = companion_roots(lower)
                zeros = 1.0 / mu[np.abs(mu) >= 1.0 - 1e-12]
        zeros.setflags(write=False)
        return zeros
