import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dvkit.poly2 import BivariatePolynomial, reflect

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def load_script(name):
    """scripts/<name>.py as a fresh module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def load_gen():
    """perfbench/gen.py, the benchmark's input generator, by path; it
    builds its inputs with numpy only."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def poly(terms, degree=None):
    p = BivariatePolynomial.from_terms(terms)
    return p if degree is None else p.with_degree(degree)


def z3_minus_w2():
    return poly({(3, 0): 1, (0, 2): -1})


def w3_minus_z2():
    return poly({(0, 3): 1, (2, 0): -1})


def one_minus_z3w2():
    return poly({(0, 0): 1, (3, 2): -1})


def two_minus_z_minus_w():
    return poly({(0, 0): 2, (1, 0): -1, (0, 1): -1})


def four_minus_z_minus_w():
    return poly({(0, 0): 4, (1, 0): -1, (0, 1): -1})


def max_coeff_distance(p, q):
    """Largest coefficient modulus of p - q, each padded to the larger
    degree."""
    return float(np.max(np.abs((p - q).coeffs)))


def kernel(vec, z, w, Z, W):
    """sum_k comp_k(z, w) * conj(comp_k(Z, W)) of a vector polynomial,
    pointwise over the common broadcast of the two point pairs."""
    a, b = vec.evaluate(z, w), vec.evaluate(Z, W)
    nd = max(a.ndim, b.ndim)
    a, b = (x.reshape(x.shape[:1] + (1,) * (nd - x.ndim) + x.shape[1:]) for x in (a, b))
    return np.sum(a * np.conj(b), axis=0)


def derived_symmetric_poly(q):
    """m*n*q - m*z*q_z - n*w*q_w at formal degree (n, m); entry scale (mn - mi - nj)."""
    n, m = q.degree
    i = np.arange(n + 1)[:, None]
    j = np.arange(m + 1)[None, :]
    return BivariatePolynomial(q.coeffs * (m * n - m * i - n * j))


def shift_realization(m, n):
    """Cyclic-shift unitary whose transfer function is the companion inner
    function [[0, I_{m-1}], [z^n, 0]]; realizes the curve w^m = z^n."""
    from dvkit.dvrep import UnitaryRealization

    return UnitaryRealization(m, n, np.roll(np.eye(m + n, dtype=np.complex128), 1, axis=1))


def mu(table, a, b):
    """The moment mu(a, b) of a moment table, |a| <= n and |b| <= m."""
    n, m = table.q.degree
    if abs(a) > n or abs(b) > m:
        raise KeyError(f"moment ({a},{b}) outside stored window")
    return complex(table.window[a + n, b + m])


def subspace_kernel_pair(q, moments):
    """Orthonormal bases (E, F) of the two complements whose kernels build
    the certificate of q, from its moment table alone."""
    from dvkit.soscert import _kernel_pairs

    return _kernel_pairs(q.degree, moments.window[None])[0]


def norm_sq(vec, z, w):
    """sum_k |comp_k(z, w)|^2 of a vector polynomial, pointwise."""
    return np.sum(np.abs(vec.evaluate(z, w)) ** 2, axis=0)


def disk_spiral(count, radius=1.0):
    """count points on a golden-angle spiral filling the disk of given radius."""
    k = np.arange(count)
    golden = (1 + 5**0.5) / 2
    return radius * np.sqrt((k + 0.5) / count) * np.exp(2j * np.pi * golden * k)


# the one Haar generator, the one linear-factor family and the one node
# family, shared with the degree survey
_survey = load_script("degree_survey")
haar_unitary = _survey.haar_unitary
linear_factor_products = _survey.linear_factor_products
node_family = _survey.node_family


# the benchmark generator's constructions: det(I - K diag(z I_n, w I_m))
# (Kummert 1989), with no zeros on the closed bidisk for a strict contraction
# K, and the Haar distinguished variety det [[A - wI, zB], [C, zD - I]] of
# degree (n, m) for U = [[A, B], [C, D]], A of size m (Agler-McCarthy 2005)
kummert = load_gen().kummert_coeffs
haar_dv = load_gen().dv_coeffs


def dv_corpus():
    """The six distinguished varieties of the demo corpus and seeded Haar
    varieties of degree (d, d), d = 2..6, with their transposes."""
    from dvkit.cli import demo_corpus

    out = {k: p for k, p in demo_corpus().items() if not k.endswith("minus_z_minus_w")}
    rng = np.random.default_rng(301)
    for d in range(2, 7):
        c = haar_dv(haar_unitary(rng, 2 * d), d, d)
        out[f"haar_dv_{d}x{d}"] = BivariatePolynomial(c)
        out[f"haar_dv_{d}x{d}_T"] = BivariatePolynomial(c.T.copy())
    return out


def random_poly(rng, n, m, scale=1.0):
    grid = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
    return BivariatePolynomial(scale * grid)


def random_symmetric_poly(rng, n, m):
    """Torus-symmetric by construction: r + reflect(r)."""
    r = random_poly(rng, n, m)
    return r + reflect(r)


@pytest.fixture(scope="session")
def pipeline_z3w2():
    from dvkit.dvrep import represent

    return represent(z3_minus_w2())


@pytest.fixture(scope="session")
def pipeline_w3z2():
    from dvkit.dvrep import represent

    return represent(w3_minus_z2())


@pytest.fixture(scope="session")
def cert_four():
    from dvkit.soscert import sos_certificate

    return sos_certificate(four_minus_z_minus_w())


@pytest.fixture(scope="session")
def cert_two():
    from dvkit.soscert import sos_certificate

    return sos_certificate(two_minus_z_minus_w())


@pytest.fixture(scope="session")
def sym_cert_z3w2():
    from dvkit.poly2 import symmetrize
    from dvkit.soscert import sym_sos_certificate

    q = symmetrize(one_minus_z3w2())
    return q, sym_sos_certificate(q, 1.0, 1.0)
