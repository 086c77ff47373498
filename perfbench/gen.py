"""Seeded benchmark inputs with answers known from their construction.

Built with numpy only, never with dvkit, so the inputs do not move when the
library's own constructions change.  Every polynomial is recovered from its
values at roots of unity by an inverse FFT, which is exact for the stated
degree.

Random draws come from one fixed family seed, so every run faces inputs of
the same numerical difficulty; ``--seed`` then moves every input by an
independent torus rotation (z, w) -> (e^{ia} z, e^{ib} w) and a unimodular
factor, drawn afresh for each pass of a run.  Both preserve every known answer below: the rotation maps the
bidisk, the torus and the exterior to themselves, and a Kummert polynomial
stays one (K diag(e^{ia} I_n, e^{ib} I_m) has the same singular values).
Fresh Haar draws per seed were tried first: the time to verdict of a single
draw varies by up to 40x between draws (how close its zeros come to the
torus), which put the seed-to-seed spread of the end-to-end metrics beyond
any usable bound.

Constructions:

* Haar-unitary distinguished varieties (Agler-McCarthy, "Distinguished
  varieties", Acta Math. 2005): for a Haar unitary U = [[A, B], [C, D]] with
  A of size m and D of size n, p = det [[A - wI, zB], [C, zD - I]] has degree
  (n, m) and defines a distinguished variety.
* Kummert polynomials (Kummert 1989): q = det(I - K diag(z I_n, w I_m)).  A
  contraction K gives a polynomial with no zeros on the closed bidisk; K with
  norm 1 (and K unitary) gives one with no zeros on the open bidisk, so a
  two-square certificate exists in every case.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

SCHEMA = "dvkit/1"
FAMILY_SEED = 0
# Passes of a run cycle through this many independently rotated copies.
ROTATIONS = 4

# Known answers, in the words of the library's reports.
DV = "DVDefining"
STABLE_CLOSED = "StableClosed"
SYM_OFF_TORUS = "SymmetricNonvanishingOffTorus"
INDETERMINATE = "Indeterminate"
CERTIFIES = "certifies"


@dataclass(frozen=True)
class Input:
    """One generated polynomial: ``cls`` names the construction and
    ``answer`` the verdict the construction guarantees."""

    name: str
    cls: str
    answer: str
    coeffs: np.ndarray  # coeffs[i, j] multiplies z^i w^j
    args: tuple = ()  # extra CLI arguments for the operation

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1


def haar_unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    phases of R's diagonal moved into Q."""
    g = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def from_values(fn, n: int, m: int) -> np.ndarray:
    """Coefficients of the degree-(n, m) polynomial fn(z, w), read off its
    values at the conjugate roots of unity by an inverse 2-D FFT."""
    zs = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    ws = np.exp(-2j * np.pi * np.arange(m + 1) / (m + 1))
    vals = fn(zs[:, None], ws[None, :])
    return np.fft.ifft2(vals)


def dv_coeffs(u: np.ndarray, m: int, n: int) -> np.ndarray:
    """det [[A - wI, zB], [C, zD - I]] for U = [[A, B], [C, D]], A m x m."""
    a, b, c, d = u[:m, :m], u[:m, m:], u[m:, :m], u[m:, m:]

    def det(z, w):
        z, w = np.broadcast_arrays(z, w)
        mats = np.zeros(z.shape + (m + n, m + n), dtype=np.complex128)
        mats[..., :m, :m] = a - w[..., None, None] * np.eye(m)
        mats[..., :m, m:] = z[..., None, None] * b
        mats[..., m:, :m] = c
        mats[..., m:, m:] = z[..., None, None] * d - np.eye(n)
        return np.linalg.det(mats)

    return from_values(det, n, m)


def kummert_coeffs(k: np.ndarray, n: int, m: int) -> np.ndarray:
    """det(I - K diag(z I_n, w I_m))."""

    def det(z, w):
        z, w = np.broadcast_arrays(z, w)
        diag = np.concatenate(
            [np.repeat(z[..., None], n, -1), np.repeat(w[..., None], m, -1)], -1
        )
        return np.linalg.det(np.eye(n + m) - k * diag[..., None, :])

    return from_values(det, n, m)


def kummert_k(rng: np.random.Generator, size: int, kind: str) -> np.ndarray:
    """K for the three Kummert kinds: 0.8 Haar, singular values (1, 0.7, ...)
    between Haar factors, or Haar unitary."""
    if kind == "contraction":
        return 0.8 * haar_unitary(rng, size)
    if kind == "norm1":
        sv = np.full(size, 0.7)
        sv[0] = 1.0
        return (haar_unitary(rng, size) * sv) @ haar_unitary(rng, size)
    if kind == "unitary":
        return haar_unitary(rng, size)
    raise ValueError(kind)


def from_terms(terms: dict) -> np.ndarray:
    n = max(i for i, _ in terms)
    m = max(j for _, j in terms)
    grid = np.zeros((n + 1, m + 1), dtype=np.complex128)
    for (i, j), c in terms.items():
        grid[i, j] = c
    return grid


def _mobius(m):
    # w^m = z (z - 1/2) / (1 - z/2), cleared of its denominator
    return from_terms({(0, m): 1.0, (1, m): -0.5, (2, 0): -1.0, (1, 0): 0.5})


# The six distinguished-variety rows of the library's demo corpus, written
# out here so the benchmark does not read them from the library.
DEMO_DV = {
    "z3_minus_w2": from_terms({(3, 0): 1, (0, 2): -1}),
    "w3_minus_z2": from_terms({(0, 3): 1, (2, 0): -1}),
    "blaschke_m2_cubic": from_terms({(0, 2): 1, (3, 0): -1}),
    "blaschke_m3_cubic": from_terms({(0, 3): 1, (3, 0): -1}),
    "blaschke_m2_mobius": _mobius(2),
    "blaschke_m3_mobius": _mobius(3),
}

# (m, n) block sizes of the seeded Haar varieties; the polynomial has
# degree (n, m) in (z, w).
DV_BLOCKS = ((2, 2), (3, 3), (4, 3), (6, 6))
KUMMERT_DEGREES = ((1, 1), (2, 2), (3, 3))
KUMMERT_SOS_ANSWER = {"contraction": STABLE_CLOSED, "norm1": CERTIFIES, "unitary": CERTIFIES}
KUMMERT_LABEL = {"contraction": STABLE_CLOSED, "unitary": SYM_OFF_TORUS}


def dv_pipeline(rng):
    out = [Input(f"demo_{k}", "demo_dv", DV, c) for k, c in DEMO_DV.items()]
    for m, n in DV_BLOCKS:
        c = dv_coeffs(haar_unitary(rng, m + n), m, n)
        out.append(Input(f"haar_dv_{m}x{n}", "haar_dv", DV, c))
    return out


def sos_certify(rng):
    out = []
    for kind in ("contraction", "norm1", "unitary"):
        for n, m in KUMMERT_DEGREES:
            c = kummert_coeffs(kummert_k(rng, n + m, kind), n, m)
            out.append(Input(f"kummert_{kind}_{n}x{m}", f"kummert_{kind}", KUMMERT_SOS_ANSWER[kind], c))
    out.append(Input("two_minus_z_minus_w", "dilation", CERTIFIES, from_terms({(0, 0): 2, (1, 0): -1, (0, 1): -1})))
    out.append(
        Input("one_minus_z3w2_weighted", "weighted", CERTIFIES,
              from_terms({(0, 0): 1, (3, 2): -1}), ("--a", "1", "--b", "1"))
    )
    return out


def classify_sweep(rng):
    out = []
    for d in range(2, 7):
        c = dv_coeffs(haar_unitary(rng, 2 * d), d, d)
        out.append(Input(f"haar_dv_{d}x{d}", "haar_dv", DV, c))
        out.append(Input(f"haar_dv_{d}x{d}_T", "haar_dv_transposed", DV, c.T.copy()))
    for kind in ("contraction", "unitary"):
        for n, m in KUMMERT_DEGREES:
            c = kummert_coeffs(kummert_k(rng, n + m, kind), n, m)
            out.append(Input(f"kummert_{kind}_{n}x{m}", f"kummert_{kind}", KUMMERT_LABEL[kind], c))
    for k in range(4):
        out.append(Input(f"gaussian_3x3_{k}", "gaussian", INDETERMINATE, gaussian_with_bidisk_zero(rng)))
    return out


def gaussian_with_bidisk_zero(rng):
    """Complex Gaussian degree-(3, 3) coefficients, redrawn until the fiber
    z = 0 has a root in the open unit disk.  Such a polynomial is neither
    stable nor torus-symmetric (almost surely), so the only correct label is
    Indeterminate."""
    while True:
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if np.min(np.abs(np.roots(c[0, ::-1]))) < 1.0:
            return c


WORKLOADS = {"dv_pipeline": dv_pipeline, "sos_certify": sos_certify, "classify_sweep": classify_sweep}


def rotate(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """phase * p(e^{ia} z, e^{ib} w) for uniform a, b and phase."""
    a, b, phase = np.exp(2j * np.pi * rng.uniform(size=3))
    n, m = c.shape[0] - 1, c.shape[1] - 1
    return phase * c * (a ** np.arange(n + 1))[:, None] * (b ** np.arange(m + 1))[None, :]


def generate(workload: str, seed: int) -> list[list[Input]]:
    """ROTATIONS passes over the workload's inputs, each pass with its own
    rotations; file names carry the pass as ``.r<k>``."""
    inputs = WORKLOADS[workload](np.random.default_rng(FAMILY_SEED))
    rng = np.random.default_rng(seed)
    return [
        [replace(x, name=f"{x.name}.r{k}", coeffs=rotate(x.coeffs, rng)) for x in inputs]
        for k in range(ROTATIONS)
    ]


def poly_obj(coeffs: np.ndarray) -> dict:
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    return {
        "schema": SCHEMA,
        "kind": "polynomial",
        "degree": [n, m],
        "coeffs": [[[float(c.real), float(c.imag)] for c in row] for row in coeffs],
    }


def write_inputs(inputs: list[Input], directory: str) -> None:
    """One dvkit/1 polynomial file per input, plus f = w for extensions."""
    os.makedirs(directory, exist_ok=True)
    files = [(f"{x.name}.json", x.coeffs) for x in inputs]
    files.append(("f_w.json", from_terms({(0, 1): 1})))
    for fname, coeffs in files:
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            json.dump(poly_obj(coeffs), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
