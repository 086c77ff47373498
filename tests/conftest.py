import numpy as np
import pytest

from dvkit.poly2 import BivariatePolynomial, reflect


def poly(terms, degree=None):
    return BivariatePolynomial.from_terms(terms, degree)


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


def haar_unitary(rng, size):
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def from_values(fn, n, m):
    """Coefficients of the degree-(n, m) polynomial fn(z, w), read off its
    values at conjugate roots of unity by an inverse 2-D FFT."""
    zs = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    ws = np.exp(-2j * np.pi * np.arange(m + 1) / (m + 1))
    return np.fft.ifft2(fn(zs[:, None], ws[None, :]))


def kummert(k, n, m):
    """det(I - K diag(z I_n, w I_m)) (Kummert 1989): no zeros on the closed
    bidisk for a strict contraction K."""

    def det(z, w):
        z, w = np.broadcast_arrays(z, w)
        diag = np.concatenate(
            [np.repeat(z[..., None], n, -1), np.repeat(w[..., None], m, -1)], -1
        )
        return np.linalg.det(np.eye(n + m) - k * diag[..., None, :])

    return from_values(det, n, m)


def haar_dv(u, m, n):
    """det [[A - wI, zB], [C, zD - I]] for U = [[A, B], [C, D]], A of size m:
    a distinguished variety of degree (n, m) (Agler-McCarthy 2005)."""
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
    return r + reflect(r, (n, m))


def poly1d_to_grid(coeffs):
    return np.array(coeffs, dtype=np.complex128)


@pytest.fixture(scope="session")
def pipeline_z3w2():
    from dvkit.dvrep import represent

    return represent(z3_minus_w2(), seed=7)


@pytest.fixture(scope="session")
def pipeline_w3z2():
    from dvkit.dvrep import represent

    return represent(w3_minus_z2(), seed=11)


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
