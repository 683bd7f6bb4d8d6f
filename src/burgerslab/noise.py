"""Gaussian inputs: stationary linear-equation samples and Wiener increments.

The stationary solution of the damped linear equation has independent
per-mode complex amplitudes with variance 1/(2(1 + nu k^2)); its discretized
counterpart has variance h(eps|k|)^2 / (2(1 + nu k^2 f(eps|k|))).  Sampling
both from one shared set of standard normals (comonotone per mode) couples
them optimally for single-time marginals and keeps the sampler exact and
stateless; this replaces a shared-driving-noise time integral and changes
only constants, not scaling exponents.  The draw is made when a pair is
sampled, so the random stream moves the same whichever field is read; each
field is built from it on first read, so a study that reads one of the two
never builds the other.

Random streams are derived from (seed, replicate, purpose) through a seed
sequence, so ensembles parallelize without any shared mutable state and
results cannot depend on thread scheduling.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .schemes import symbols_at
from .spectral import SpectralField


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2_COMPLEX = np.array(_INV_SQRT2, dtype=np.complex128)
_INV_SQRT2_COMPLEX.flags.writeable = False


def derive_stream(seed, replicate, purpose):
    """Deterministic, independent generator for one (replicate, purpose) pair."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, int(replicate)) + tuple(
        purpose.encode("utf-8")
    )
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class ModeGaussianDraw:
    """One standard normal pair per mode k = 0..K and component.

    z0 is the (real) mode-0 draw; zz[:, k-1] holds the real and imaginary
    draws of mode k = 1..K, in the order they were drawn.  The complex
    unit-variance amplitude of mode k >= 1 is (zz[:, k-1, 0] + i*zz[:, k-1, 1])
    / sqrt(2); negative modes are conjugates, never drawn.
    """

    K: int
    n: int
    z0: np.ndarray  # (n,)
    zz: np.ndarray  # (n, K, 2), C-contiguous

    @staticmethod
    def sample(K, n, rng):
        # one call draws the stream of two: the n mode-0 normals, then the
        # (n, K, 2) pairs, both viewed in the one array
        z = rng.standard_normal(n + 2 * n * K)
        return ModeGaussianDraw(K, n, z[:n], z[n:].reshape(n, K, 2))

    @staticmethod
    def stack(draws):
        """One draw whose components are those of ``draws`` (of one K), in
        order; its coefficients are, row by row, those of the draws."""
        return ModeGaussianDraw(
            draws[0].K,
            sum(d.n for d in draws),
            np.concatenate([d.z0 for d in draws]),
            np.concatenate([d.zz for d in draws]),
        )

    def half_coeffs(self, sigma, out=None):
        """Half spectrum (n, K+1) with mode-k entry sigma[k] * zeta_k, k = 0..K;
        a scalar sigma stands for the same value at every mode.  It is
        written into ``out``, an (n, K+1) complex array, which is returned,
        or into a new array when None.

        Byte for byte sigma * (re + 1j*im) / sqrt(2), without its
        temporaries: the pairs of zz are read in place as complex numbers,
        and numpy's complex-by-real division scales by the reciprocal, so a
        product with 1/sqrt(2) gives the quotient's bytes wherever the
        product is nonzero.  Modes with sigma[k] == 0, where the signs of the
        zeros would differ, are divided.  A nonzero float sigma takes a short
        path with the same arithmetic and no zero scan.
        """
        c = np.empty((self.n, self.K + 1), dtype=np.complex128) if out is None else out
        zeta = self.zz.view(np.complex128)[..., 0]
        pos = c[:, 1:]
        if isinstance(sigma, float) and sigma != 0.0:
            c[:, 0] = sigma * self.z0
            # sigma and 1/sqrt(2) as the complex128 scalars numpy would cast
            # them to (x + 0j): the same products, without the casting loop
            np.multiply(zeta, np.array(sigma, dtype=np.complex128), out=pos)
            pos *= _INV_SQRT2_COMPLEX
            return c
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim and sigma.shape != (self.K + 1,):
            raise ValueError("sigma must be a scalar or have one entry per mode k = 0..K")
        head, tail = (sigma, sigma) if sigma.ndim == 0 else (sigma[0], sigma[1:])
        c[:, 0] = head * self.z0
        np.multiply(zeta, tail, out=pos)
        pos *= _INV_SQRT2
        if np.count_nonzero(tail) < tail.size:
            tail = np.broadcast_to(tail, (self.K,))
            zero = np.flatnonzero(tail == 0.0)
            pos[:, zero] = tail[zero] * zeta[:, zero] / np.sqrt(2.0)
        return c

    def field(self, sigma):
        """Field with mode-k coefficient sigma[k] * zeta_k (reality built in).

        sigma is a real array over k = 0..K; E|coefficient_k|^2 = sigma[k]^2.
        """
        return SpectralField(self.K, self.n, self.half_coeffs(sigma))


@dataclass(frozen=True)
class CoupledStationaryPair:
    """Stationary samples of the limit and discretized linear equations,
    built from one shared draw.

    ``psi`` and ``psi_tilde`` are built from ``draw`` on first read and then
    kept; reading them draws nothing.
    """

    draw: ModeGaussianDraw
    scheme: object
    eps: float
    nu: float

    @functools.cached_property
    def psi(self):
        return self.draw.field(stationary_sigmas(self.draw.K, self.nu))

    @functools.cached_property
    def psi_tilde(self):
        return self.draw.field(discrete_sigmas(self.scheme, self.eps, self.nu, self.draw.K))


@functools.lru_cache(maxsize=None)
def stationary_sigmas(K, nu):
    """Per-mode standard deviations (2(1 + nu k^2))^(-1/2) of the limit
    equation, as a read-only array (memoized per (K, nu))."""
    k = np.arange(K + 1, dtype=float)
    sigma = 1.0 / np.sqrt(2.0 * (1.0 + nu * k * k))
    sigma.flags.writeable = False
    return sigma


def discrete_sigmas(scheme, eps, nu, K):
    """Per-mode standard deviations of the discretized stationary solution
    on modes k = 0..K: ``symbol_sigmas`` of the scheme's symbols at eps."""
    return symbol_sigmas(symbols_at(scheme, eps * np.arange(K + 1, dtype=float)), nu)


def symbol_sigmas(symbols, nu):
    """h / sqrt(2(1 + nu k^2 f)) on the live modes of ``symbols``, the
    (f, killed, h) of ``schemes.symbols_at`` on modes k = 0..K, and 0 on
    the killed ones (validated schemes have h = 0 there)."""
    f, killed, h = symbols
    live = ~killed
    k = np.arange(f.size, dtype=float)
    out = np.zeros(f.size)
    out[live] = h[live] / np.sqrt(2.0 * (1.0 + nu * k[live] ** 2 * f[live]))
    return out


def sample_stationary_pair(scheme, eps, nu, K, rng, n=1):
    """Draw the coupled pair (psi, psi_tilde) from one set of mode normals;
    the fields are built on first read (see ``CoupledStationaryPair``)."""
    if K < 1 or nu <= 0 or eps <= 0:
        raise ValueError("need K >= 1, nu > 0, eps > 0")
    return CoupledStationaryPair(ModeGaussianDraw.sample(K, n, rng), scheme, eps, nu)


def wiener_increment_coeffs(K, n, dt, rng, out=None):
    """Half spectrum (n, K+1), modes 0..K, of one Wiener increment (single
    source of the draw order, so coupled runs that re-derive the stream stay
    in lockstep), written into ``out`` (an (n, K+1) complex array, which is
    returned) or into a new array when None, with the same bits."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return ModeGaussianDraw.sample(K, n, rng).half_coeffs(math.sqrt(dt), out=out)
