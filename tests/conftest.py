import numpy as np
import pytest

from burgerslab.spectral import SpectralField


def random_field(rng, K, n=1, decay=1.0):
    """Random real band-limited field with coefficients ~ (1+|k|)^-decay."""
    k = np.arange(1, K + 1)
    amp = (1.0 + k) ** (-decay)
    z = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    c = np.zeros((n, K + 1), dtype=np.complex128)  # modes 0..K
    c[:, 1:] = amp * z
    c[:, 0] = rng.standard_normal(n)
    return SpectralField(K, n, c)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
