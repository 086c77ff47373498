"""Coefficient-level algebra for bivariate complex polynomials.

A polynomial sum_{i,j} c[i,j] z^i w^j is stored as a dense (n+1) x (m+1)
complex grid indexed [z-power, w-power].  The grid shape *is* the formal
degree: reflection depends on the declared degree, so the degree is carried
explicitly by the data and never inferred from which entries happen to be
nonzero.  A constant declared at degree (3,2) is a 4x3 grid with one nonzero
entry, and it reflects differently from the same constant at degree (0,0).

All values are immutable; every operation returns a fresh polynomial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BivariatePolynomial",
    "VectorPolynomial",
    "MatrixPolynomial",
    "SymmetryKind",
    "SymmetryResult",
    "DegreeMismatchError",
    "reflect",
    "reflected_derivatives",
    "symmetry_analysis",
    "symmetrize",
    "swap_transform",
    "transpose_vars",
    "derived_dv_poly",
    "derived_symmetric_poly",
    "blaschke_dv",
    "horner",
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


# Largest size of the values that one stacked evaluation of vector components
# computes at once; larger ones go in groups of components, which bounds the
# Horner temporaries near this size.
STACK_BYTES = 1 << 18


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


def _as_grid(coeffs) -> np.ndarray:
    arr = np.array(coeffs, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ValueError(f"coefficient grid must be 2-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
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
        object.__setattr__(self, "coeffs", _as_grid(self.coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree=(0, 0)) -> "BivariatePolynomial":
        n, m = degree
        return cls(np.zeros((n + 1, m + 1), dtype=np.complex128))

    @classmethod
    def constant(cls, value, degree=(0, 0)) -> "BivariatePolynomial":
        n, m = degree
        grid = np.zeros((n + 1, m + 1), dtype=np.complex128)
        grid[0, 0] = value
        return cls(grid)

    @classmethod
    def from_terms(cls, terms: dict, degree=None) -> "BivariatePolynomial":
        """Build from a {(i, j): coefficient} mapping."""
        if degree is None:
            degree = (max(i for i, _ in terms), max(j for _, j in terms))
        n, m = degree
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
        return int(np.frexp(self.scale)[1])

    def ldexp(self, e: int) -> "BivariatePolynomial":
        """self * 2^e, exact unless a coefficient leaves the normal range."""
        parts = np.ascontiguousarray(self.coeffs).view(np.float64)
        return BivariatePolynomial(np.ldexp(parts, e).view(np.complex128))

    def true_degree(self, tol: float = 0.0) -> tuple[int, int]:
        """Largest (i, j) with |c[i,j]| > tol * scale, or (0, 0) if zero."""
        mask = np.abs(self.coeffs) > tol * self.scale
        if not mask.any():
            return 0, 0
        rows = np.nonzero(mask.any(axis=1))[0]
        cols = np.nonzero(mask.any(axis=0))[0]
        return int(rows[-1]), int(cols[-1])

    def with_degree(self, degree) -> "BivariatePolynomial":
        """Re-declare the formal degree; pads with zeros, never truncates."""
        n, m = degree
        tn, tm = self.true_degree()
        if n < tn or m < tm:
            raise DegreeMismatchError(
                f"cannot declare degree {(n, m)} on a polynomial of true degree {(tn, tm)}"
            )
        grid = np.zeros((n + 1, m + 1), dtype=np.complex128)
        grid[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        return BivariatePolynomial(grid)

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    # -- evaluation ---------------------------------------------------

    def __call__(self, z, w):
        return self.evaluate(z, w)

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

    def __neg__(self):
        return BivariatePolynomial(-self.coeffs)

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

    def max_coeff_distance(self, other: "BivariatePolynomial") -> float:
        diff = self._binary(other, -1.0)
        return float(np.max(np.abs(diff.coeffs)))

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


def reflect(p: BivariatePolynomial, at_degree=None) -> BivariatePolynomial:
    """Reflection z^n w^m conj(p(1/conj(z), 1/conj(w))) at the stated degree.

    On the grid this is a reversal of both indices with entrywise
    conjugation, after padding to ``at_degree``.  An involution at fixed
    degree.  Raises :class:`DegreeMismatchError` when ``at_degree`` is
    below the true degree.
    """
    if at_degree is None:
        at_degree = p.degree
    padded = p.with_degree(at_degree)
    return BivariatePolynomial(np.conj(padded.coeffs[::-1, ::-1]))


def reflected_derivatives(q: BivariatePolynomial):
    """(reflection of q_z at (n-1, m), reflection of q_w at (n, m-1)).

    The derivative of a degree-(n, m) polynomial is reflected at the degree
    generically expected of it, which is what makes the reflection calculus
    identities (z*q_z + reflected(q_z) = n*q for torus-symmetric q, and the
    w analogue) hold at the coefficient level.
    """
    n, m = q.degree
    qz_ref = reflect(q.partial_z(), (max(n - 1, 0), m))
    qw_ref = reflect(q.partial_w(), (n, max(m - 1, 0)))
    return qz_ref, qw_ref


class SymmetryKind(Enum):
    T2_SYMMETRIC = "T2Symmetric"
    ESSENTIALLY_T2_SYMMETRIC = "EssentiallyT2Symmetric"
    NOT_SYMMETRIC = "NotSymmetric"


@dataclass(frozen=True)
class SymmetryResult:
    """Outcome of comparing q against its reflection.

    ``constant`` is the unimodular c with q = c * reflect(q); the
    ``symmetrizing_factor`` s is the principal square root of conj(c)
    (Re s >= 0, and Im s > 0 when Re s = 0), which is the unique-up-to-sign
    unimodular factor making s*q torus-symmetric.  For real c (every
    polynomial in this package's corpus) s*s equals c itself.
    """

    kind: SymmetryKind
    constant: complex | None = None
    symmetrizing_factor: complex | None = None
    residual: float = field(default=0.0)

    @property
    def is_symmetric(self) -> bool:
        return self.kind is not SymmetryKind.NOT_SYMMETRIC


def symmetry_analysis(q: BivariatePolynomial, tol: float = 1e-9) -> SymmetryResult:
    """Classify q as torus-symmetric, essentially so, or neither.

    The ratio c is estimated at the largest-modulus coefficient of the
    reflection and validated against every coefficient of the grid; grids
    that fail proportionality within ``tol * scale`` give NotSymmetric.
    """
    if q.is_zero():
        raise ValueError("symmetry analysis of the zero polynomial")
    qr = reflect(q)
    scale = q.scale
    k = int(np.argmax(np.abs(qr.coeffs)))
    idx = np.unravel_index(k, qr.coeffs.shape)
    c = q.coeffs[idx] / qr.coeffs[idx]
    residual = float(np.max(np.abs(q.coeffs - c * qr.coeffs)))
    if residual > tol * scale or abs(abs(c) - 1.0) > tol:
        return SymmetryResult(SymmetryKind.NOT_SYMMETRIC, residual=residual)
    s = cmath.sqrt(np.conj(c))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    kind = (
        SymmetryKind.T2_SYMMETRIC
        if abs(c - 1.0) <= tol
        else SymmetryKind.ESSENTIALLY_T2_SYMMETRIC
    )
    return SymmetryResult(kind, complex(c), complex(s), residual)


def symmetrize(q: BivariatePolynomial, tol: float = 1e-9) -> BivariatePolynomial:
    """Multiply q by its symmetrizing factor so the result is torus-symmetric."""
    res = symmetry_analysis(q, tol)
    if not res.is_symmetric:
        raise ValueError("polynomial is not essentially torus-symmetric")
    if res.kind is SymmetryKind.T2_SYMMETRIC:
        return q
    return res.symmetrizing_factor * q


def swap_transform(p: BivariatePolynomial, tol: float = 1e-12) -> BivariatePolynomial:
    """q(z, w) = z^n p(1/z, w): the z-index reversal, no conjugation.

    Carries polynomials defining a distinguished variety to torus-symmetric
    polynomials with no zeros on the closed bidisk off the torus, and back.
    Requires exact degree n in z (nonzero top coefficient row); self-inverse
    when degrees are exact.
    """
    n, _ = p.degree
    if np.max(np.abs(p.coeffs[n, :])) <= tol * p.scale:
        raise DegreeMismatchError(
            f"z-degree is declared {n} but coefficient row {n} vanishes"
        )
    return BivariatePolynomial(p.coeffs[::-1, :].copy())


def transpose_vars(p: BivariatePolynomial) -> BivariatePolynomial:
    """p with the roles of z and w exchanged (grid transpose)."""
    return BivariatePolynomial(p.coeffs.T.copy())


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


def derived_symmetric_poly(q: BivariatePolynomial) -> BivariatePolynomial:
    """m*n*q - m*z*q_z - n*w*q_w at formal degree (n, m); entry scale (mn - mi - nj)."""
    n, m = q.degree
    i = np.arange(n + 1)[:, None]
    j = np.arange(m + 1)[None, :]
    return BivariatePolynomial(q.coeffs * (m * n - m * i - n * j))


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


@dataclass(frozen=True)
class VectorPolynomial:
    """Tuple of bivariate polynomials viewed as one vector-valued polynomial."""

    components: tuple[BivariatePolynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, k):
        return self.components[k]

    def evaluate(self, z, w) -> np.ndarray:
        """Stacked values, shape (len(self), *broadcast(z, w).shape).

        The component grids are zero-padded to the common degree and go
        through one stacked Horner evaluation, in groups of components whose
        values fill at most STACK_BYTES when the points are many.  Padding
        adds only exact zeros ahead of each component's own terms, so every
        value equals the component's own :meth:`BivariatePolynomial.evaluate`
        to the bit."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        shape = np.broadcast_shapes(z.shape, w.shape)
        if not self.components:
            return np.zeros((0,) + shape, dtype=np.complex128)
        n, m = self.degree_bound()
        grids = np.zeros((len(self), n + 1, m + 1), dtype=np.complex128)
        for k, comp in enumerate(self.components):
            grids[k, : comp.coeffs.shape[0], : comp.coeffs.shape[1]] = comp.coeffs
        group = max(1, STACK_BYTES // max(16 * math.prod(shape), 1))
        if group >= len(self):
            return _stacked_horner(grids, z, w)
        out = np.empty((len(self),) + shape, dtype=np.complex128)
        for k in range(0, len(self), group):
            out[k : k + group] = _stacked_horner(grids[k : k + group], z, w)
        return out

    def kernel(self, z, w, Z, W):
        """sum_k comp_k(z, w) * conj(comp_k(Z, W)), pointwise over the common
        broadcast of the two point pairs.

        Each pair is evaluated at its own shape, and only once when (Z, W)
        is (z, w) itself."""
        a = self.evaluate(z, w)
        b = a if (Z is z and W is w) else self.evaluate(Z, W)
        nd = max(a.ndim, b.ndim)
        a, b = (x.reshape(x.shape[:1] + (1,) * (nd - x.ndim) + x.shape[1:]) for x in (a, b))
        return np.sum(a * np.conj(b), axis=0)

    def norm_sq(self, z, w):
        a = self.evaluate(z, w)
        return np.sum(np.abs(a) ** 2, axis=0)

    def scaled(self, factor) -> "VectorPolynomial":
        return VectorPolynomial(tuple(factor * c for c in self.components))

    def ldexp(self, e: int) -> "VectorPolynomial":
        """self * 2^e, exact unless a coefficient leaves the normal range."""
        return VectorPolynomial(tuple(c.ldexp(e) for c in self.components))

    def degree_bound(self) -> tuple[int, int]:
        return (
            max(c.degree[0] for c in self.components),
            max(c.degree[1] for c in self.components),
        )


@dataclass(frozen=True)
class MatrixPolynomial:
    """Matrix of one-variable polynomials; ``coeffs[r, c, k]`` multiplies t^k."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValueError("matrix polynomial needs a (rows, cols, deg+1) array")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def shape(self):
        return self.coeffs.shape[:2]

    @property
    def var_degree(self):
        return self.coeffs.shape[2] - 1

    def evaluate(self, t) -> np.ndarray:
        """Horner evaluation; scalar t gives (rows, cols), arrays broadcast in front."""
        t = np.asarray(t, dtype=np.complex128)
        return horner(np.moveaxis(self.coeffs, 2, 0), t[..., None, None])

    def reflected(self, at_degree: int) -> "MatrixPolynomial":
        """Entrywise t^d conj(entry(1/conj(t))): reversed, conjugated coefficients."""
        d = at_degree
        if d < self.var_degree:
            raise DegreeMismatchError("reflection degree below entry degree")
        pad = np.zeros(self.shape + (d + 1,), dtype=np.complex128)
        pad[:, :, : self.coeffs.shape[2]] = self.coeffs
        return MatrixPolynomial(np.conj(pad[:, :, ::-1]))

    def min_singular_value_on_disk(self, grid_n: int = 24) -> float:
        """Least singular value of the square matrix polynomial Q over z = 0,
        the grid_n circle points exp(2 pi i k / grid_n) and every zero of
        det Q in the closed disk.

        The zeros come from one eigenvalue solve: the block companion of the
        reversed polynomial z^d Q(1/z), made monic by Q(0)^{-1}, has the
        eigenvalues mu = 1/z of the zeros z of det Q, and mu = 0 for each
        zero at infinity (a singular top coefficient).  A zero counts as in
        the closed disk when |mu| >= 1 - 1e-12; Q at it is singular, so its
        singular value, about 0, enters the minimum.  With no zero of det Q
        in the closed disk, Q^{-1} is analytic there and ||Q^{-1}|| is
        subharmonic, so the least singular value 1 / ||Q^{-1}|| over the
        disk is attained on the circle, which the samples stand for.  A
        singular Q(0) already puts about 0 in the minimum at z = 0 and
        admits no companion.
        """
        circle = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
        pts = np.concatenate([[0.0 + 0.0j], circle, self._det_zeros_in_disk()])
        return float(np.min(np.linalg.svd(self.evaluate(pts), compute_uv=False)))

    def _det_zeros_in_disk(self) -> np.ndarray:
        """Zeros of det Q with |z| <= 1 + O(1e-12), from the block companion
        of the reversed polynomial; empty when Q(0) is singular."""
        size, d = self.shape[0], self.var_degree
        empty = np.zeros(0, dtype=np.complex128)
        if d == 0:
            return empty
        c = np.moveaxis(self.coeffs, 2, 0)  # c[k] multiplies t^k
        try:
            # [C_0^{-1} C_1, ..., C_0^{-1} C_d] side by side
            lead = np.linalg.solve(c[0], np.concatenate(list(c[1:]), axis=1))
        except np.linalg.LinAlgError:
            return empty
        comp = np.zeros((d * size, d * size), dtype=np.complex128)
        comp[:size] = -lead
        comp[size:, :-size] = np.eye((d - 1) * size)
        mu = np.linalg.eigvals(comp)
        return 1.0 / mu[np.abs(mu) >= 1.0 - 1e-12]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


def disk_spiral(count: int, radius: float = 1.0) -> np.ndarray:
    """count points on a golden-angle spiral filling the disk of given radius."""
    k = np.arange(count)
    golden = (1 + 5**0.5) / 2
    return radius * np.sqrt((k + 0.5) / count) * np.exp(2j * np.pi * golden * k)
