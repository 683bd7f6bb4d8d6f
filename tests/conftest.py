import numpy as np
import pytest

from burgerslab.spectral import SQRT_2PI, SpectralField


def random_field(rng, K, n=1, decay=1.0):
    """Random real band-limited field with coefficients ~ (1+|k|)^-decay."""
    k = np.arange(1, K + 1)
    amp = (1.0 + k) ** (-decay)
    z = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    c = np.zeros((n, K + 1), dtype=np.complex128)  # modes 0..K
    c[:, 1:] = amp * z
    c[:, 0] = rng.standard_normal(n)
    return SpectralField(K, n, c)


def mirror(half):
    """Two-sided (n, 2K+1) coefficients, modes -K..K, of a half spectrum
    (n, K+1): mode -k is the conjugate of mode k.  The package keeps no
    two-sided array; the tests build one as the reference the half layout
    is compared against."""
    return np.concatenate([np.conj(half[:, :0:-1]), half], axis=1)


def scatter_fold(coeffs, M):
    """Exact point values at x_j = 2*pi*j/M, for any M >= 1, of the real
    field with half spectrum ``coeffs``: the two-sided modes -K..K (Im c_0
    dropped) are scatter-added, in order, into the bins k mod M, and one
    complex inverse transform of the bins gives the values.  The oracle for
    point evaluation on grids coarser than the band."""
    n, width = coeffs.shape
    K = width - 1
    c = mirror(coeffs)
    c[:, K] = c[:, K].real
    B = np.zeros((n, M), dtype=np.complex128)
    cols = np.mod(np.arange(-K, K + 1), M)
    np.add.at(B, (np.arange(n)[:, None], cols[None, :]), c)
    return np.ascontiguousarray(np.fft.ifft(B * (M / SQRT_2PI), axis=1).real)


def grid_quadratic_variation(coeffs, M):
    """sum_j |u(x_{j+1}) - u(x_j)|^2 per row, from the ``scatter_fold``
    values on M points with periodic wrap: the oracle for
    ``estimators.quadratic_variation``."""
    vals = scatter_fold(coeffs, M)
    return np.sum((np.roll(vals, -1, axis=1) - vals) ** 2, axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def reference_polynomial_value(p, v):
    """Value of the Polynomial p at v, by the allocating term-by-term
    arithmetic that Polynomial.__call__ must match bit for bit: each term
    coeff * f1 * f2 ... left to right with f = v[j] ** e, the first term
    plus 0.0 (a lone constant term as it is), later terms added in order."""
    shape = v.shape[1:]
    out = None
    for expo, coeff in p.terms:
        factors = [(j, e) for j, e in enumerate(expo) if e]
        term = coeff
        for j, e in factors:
            term = term * (v[j] if e == 1 else v[j] ** e)
        if out is not None:
            out += term
        elif not factors:
            out = np.full(shape, coeff) if shape else np.float64(coeff)
        else:
            term += 0.0
            out = term
    return np.zeros(shape) if out is None else out
