"""Band-limited real vector fields on the torus [0, 2*pi].

A field with max mode K has Fourier coefficients with respect to the
orthonormal basis

    e_k(x) = (2*pi)**(-1/2) * exp(i*k*x),      k = -K..K,

so that u(x) = sum_k c_k e_k(x).  The fields are real, so c_{-k} is the
conjugate of c_k and c_0 is real.  A field is therefore stored as its half
spectrum, the (n, K+1) coefficients of modes 0..K (the layout of rfft and
irfft), and reality holds by construction: the only condition the layout
leaves open, a real c_0, is checked when a field is made.  The stepper, the
Wiener draws and the stacked norms work on the same layout, and no code
builds the two-sided array of modes -K..K: ``mode(k)`` reads a negative
mode as the conjugate of its positive one.

Grid values are plain (n, M) arrays at x_j = 2*pi*j/M.  One transform pair
on padded grids M >= 2K+1 serves every caller: ``coeffs_to_values`` is a
single real inverse transform, and ``values_to_coeffs`` the real forward
transform back to modes 0..K; a coarser grid raises ``ResolutionError``.
Both take optional caller-owned ``buf`` and ``out`` arrays, passed by
keyword, and give the bits of the allocating call; the stepper passes its
scratch.
``to_grid`` and ``from_grid`` are the checked pair on odd padded grids,
whose oddness keeps the mode <-> gridpoint correspondence symmetric.
"""

import functools
from dataclasses import dataclass

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Relative tolerance accepted for the reality condition at construction.
_REALITY_RTOL = 1e-9


class ResolutionError(ValueError):
    """Grid is too coarse, or of the wrong parity, for the requested band."""


# Cost of one real FFT of odd, 11-smooth length M = prod_p p**e_p, modelled
# as M * sum_p e_p * w_p: one pass over the points per prime factor, weighted
# by the cost of a radix-p pass.  w_p in ns per point and row, fitted once
# from numpy (pocketfft) irfft timings of pure prime powers (3^5..3^9,
# 5^4..5^6, 7^3..7^5, 11^3..11^4; 2 rows, call overhead subtracted, median
# over the powers, rounded) on a 2-core Intel Xeon with Python 3.11.7 and
# numpy 2.4.6.  These are constants, never timed at run time: the grid, and
# with it every output byte, must not depend on the machine.
_RADIX_COST = {3: 1.0, 5: 1.24, 7: 3.3, 11: 4.0}


@functools.lru_cache(maxsize=None)
def odd_fft_size(m):
    """Odd, 11-smooth grid size >= m with the least modelled FFT cost.

    Candidates are the odd 11-smooth sizes from m up to ceil(1.1 m), or up
    to the smallest one when that lies further out; the pick minimizes
    M * sum_p e_p * w_p (see ``_RADIX_COST``), ties going to the smaller M.
    The smallest candidate is often a slow one (3087 = 3^2 7^3 loses to
    3125 = 5^5), and lengths with a large prime factor, like 4099, would take
    Bluestein's algorithm.
    """
    m = max(int(np.ceil(m)), 1)
    # sum_p e_p * w_p of every odd 11-smooth size up to 3m (a power of 3
    # lies in [m, 3m))
    costs = {1: 0.0}
    for p, w in _RADIX_COST.items():
        for size, cost in list(costs.items()):
            while size * p <= 3 * m:
                size, cost = size * p, cost + w
                costs[size] = cost
    candidates = sorted(size for size in costs if size >= m)
    limit = max(candidates[0], (11 * m + 9) // 10)  # (11m + 9) // 10 = ceil(1.1 m)
    return min((M * costs[M], M) for M in candidates if M <= limit)[1]


@dataclass(frozen=True)
class SpectralField:
    """Immutable real band-limited field; ``half`` has shape (n, K+1), the
    coefficients of modes 0..K (mode -k is the conjugate of mode k).  Two
    fields are equal (and hash alike) when their K, n and coefficients are,
    so two configs with one initial profile compare equal."""

    K: int
    n: int
    half: np.ndarray

    def __post_init__(self):
        c = np.array(self.half, dtype=np.complex128)
        if c.shape != (self.n, self.K + 1):
            raise ValueError(
                f"half spectrum shape {c.shape} does not match (n, K+1) = ({self.n}, {self.K + 1})"
            )
        im0 = np.abs(c[:, 0].imag)
        if im0.any() and np.max(im0) > _REALITY_RTOL * max(float(np.max(np.abs(c))), 1e-300):
            raise ValueError("reality condition violated: mode 0 is not real")
        c[:, 0] = c[:, 0].real
        c.flags.writeable = False
        object.__setattr__(self, "half", c)

    def _key(self):
        return self.K, self.n, tuple(self.half.ravel().tolist())

    def __eq__(self, other):
        return isinstance(other, SpectralField) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(K, n=1):
        return SpectralField(K, n, np.zeros((n, K + 1), dtype=np.complex128))

    @staticmethod
    def constant(values, K):
        """Field identically equal to `values` (scalar or length-n vector)."""
        v = np.atleast_1d(np.asarray(values, dtype=float))
        c = np.zeros((v.size, K + 1), dtype=np.complex128)
        c[:, 0] = v * SQRT_2PI
        return SpectralField(K, v.size, c)

    @staticmethod
    def from_modes(K, entries, n=1):
        """Build a field from {k: value} (or iterable of (k, value)) pairs.

        Each entry sets the coefficient of mode k for one component (value
        may be a length-n vector), and with it the conjugate at -k; a later
        entry for k or -k overrides an earlier one.
        """
        c = np.zeros((n, K + 1), dtype=np.complex128)
        items = entries.items() if hasattr(entries, "items") else entries
        for k, val in items:
            if abs(k) > K:
                raise ValueError(f"mode {k} outside band [-{K}, {K}]")
            v = np.atleast_1d(np.asarray(val, dtype=np.complex128))
            c[:, abs(k)] = v if k >= 0 else np.conj(v)
        return SpectralField(K, n, c)

    # -- basic accessors ---------------------------------------------------

    @property
    def modes(self):
        """The stored modes 0..K."""
        return np.arange(self.K + 1)

    def mode(self, k):
        """Coefficient vector (length n) of mode k, for any |k| <= K."""
        return self.half[:, k] if k >= 0 else np.conj(self.half[:, -k])

    # -- arithmetic (fields of equal K and n) ------------------------------

    def _binary(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.K != self.K or other.n != self.n:
            raise ValueError("field shape mismatch")
        return SpectralField(self.K, self.n, op(self.half, other.half))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.K, self.n, self.half * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.K, self.n, -self.half)

    def apply_multiplier(self, m):
        """Apply a Fourier multiplier m(k), given as an array over k = 0..K.

        Mode -k is scaled by conj(m(k)), so the multiplier is Hermitian by
        construction; m(0) must be real, like the mode it scales.
        """
        m = np.asarray(m)
        if m.shape != (self.K + 1,):
            raise ValueError("multiplier must have one entry per mode k = 0..K")
        return SpectralField(self.K, self.n, self.half * m)


# -- transforms -------------------------------------------------------------


def coeffs_to_values(coeffs, M, buf=None, out=None):
    """Point values at x_j = 2*pi*j/M of the real field with half spectrum
    ``coeffs`` (n, K+1), on a padded grid M >= 2K+1 (else ResolutionError).
    No mode folds there, so this is exact point evaluation (not an
    interpolation statement) by one real inverse transform of the spectrum
    scaled by M/sqrt(2 pi); like irfft, it takes the real part of mode 0 and
    ignores Im c_0.  ``buf`` is an optional caller-owned (n, M//2+1) complex
    array, zero above mode K, that holds the scaled spectrum, and ``out`` an
    optional (n, M) float array that receives the values; new ones are made
    when None, with the same bits.
    """
    M = int(M)
    n, width = coeffs.shape
    if M < 2 * width - 1:
        raise ResolutionError(f"need M >= 2K+1 = {2 * width - 1}, got M = {M}")
    if buf is None:
        buf = np.zeros((n, M // 2 + 1), dtype=np.complex128)
    np.multiply(coeffs, M / SQRT_2PI, out=buf[:, :width])
    return np.fft.irfft(buf, n=M, axis=1, out=out)


def values_to_coeffs(values, K, buf=None, out=None):
    """Half spectrum (modes 0..K, shape (n, K+1)) of real (n, M) grid data,
    band-limited to max mode K; needs M >= 2K+1.

    ``buf`` is an optional caller-owned (n, M//2+1) complex array that
    receives the whole real transform, and ``out`` an optional (n, K+1)
    complex array that receives the scaled modes 0..K; new ones are made
    when None, with the same bits."""
    K = int(K)
    M = values.shape[1]
    if M < 2 * K + 1:
        raise ResolutionError(f"need M >= 2K+1 = {2 * K + 1}, got M = {M}")
    spectrum = np.fft.rfft(values, axis=1, out=buf)
    return np.multiply(spectrum[:, : K + 1], SQRT_2PI / M, out=out)


def to_grid(u, M):
    """Values of the field on an odd grid of size M >= 2K+1 (exact sampling),
    as an (n, M) array."""
    M = int(M)
    if M % 2 == 0 or M < 2 * u.K + 1:
        raise ResolutionError(f"need odd M >= 2K+1 = {2 * u.K + 1}, got M = {M}")
    return coeffs_to_values(u.half, M)


def from_grid(values, K):
    """Field of (n, M) grid values, band-limited to max mode K.

    Exact inverse of ``to_grid`` when M == 2K+1; for M > 2K+1 the modes above
    K are discarded (low-pass).  Reality holds exactly by construction.
    """
    return SpectralField(int(K), values.shape[0], values_to_coeffs(values, K))


# -- projections and norms ---------------------------------------------------


def project(u, N):
    """Low-pass projection: keep modes with |k| <= N, zero the rest."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return u.apply_multiplier((u.modes <= N).astype(float))


def band_project(u, n_lo, n_hi):
    """Keep modes with n_lo < |k| <= n_hi (annular band; thresholds may be real)."""
    k = u.modes
    return u.apply_multiplier(((k > n_lo) & (k <= n_hi)).astype(float))


def sobolev_norm(u, s):
    """Fractional Sobolev norm (sum_{|k| <= K} |c_k|^2 (1+k^2)^s)^(1/2)."""
    return float(sobolev_norms(u.half[None], s)[0])


def sobolev_norms(half, s):
    """Sobolev norm of order s of each row of a (rows, n, K+1) stack of
    half spectra, as a (rows,) array: mode 0 counts once, modes 1..K twice
    (for themselves and their conjugates at -k)."""
    rows, n, width = half.shape
    k = np.arange(width, dtype=float)
    w = (1.0 + k**2) ** s
    w[1:] *= 2.0
    power = half.real**2 + half.imag**2
    return np.sqrt(np.sum((power * w).reshape(rows, n * width), axis=1))


def sup_norm(u):
    """Approximate sup over x and components of |u| (see ``sup_norms``)."""
    return float(sup_norms(u.half[None])[0])


# Grid points of one sup_norms transform: each transform takes as many
# component rows as fit (at least one), which bounds its buffers at about
# _SUP_POINTS doubles each, whatever the stack's size.
_SUP_POINTS = 1 << 15


def sup_norms(half):
    """Approximate sup over x and components of |u| for each row u of a
    (rows, n, K+1) stack of half spectra, as a (rows,) array.

    Localizes the maximum of each component on a 4x-oversampled grid
    (M = odd_fft_size(4(2K+1)), the same grid rule as the alias-free
    working grids; 8505 at K = 1024) and polishes it with a few Newton
    steps on the trigonometric polynomial, so smooth maxima that fall
    between grid points are not truncated.  Still an approximation of the
    true sup, but a much better one than the bare grid maximum.  Every row
    is computed on its own, so a row's norm does not depend on the rows
    stacked with it; a zero row gives exactly 0.0.
    """
    rows, n, width = half.shape
    M = odd_fft_size(4 * (2 * width - 1))
    lines = half.reshape(rows * n, width)
    chunk = max(1, _SUP_POINTS // M)
    line_max = np.concatenate([_line_maxima(lines[lo : lo + chunk], M) for lo in range(0, rows * n, chunk)])
    return line_max.reshape(rows, n).max(axis=1)


def _line_maxima(lines, M):
    """max_x |f(x)| of each (K+1,) half spectrum in ``lines``: the grid
    maximum on M points, polished by at most six Newton steps.  A row leaves
    the polish when a step would leave the grid cell (|step| > h), when f is
    not concave there, or once its step gains no more than rounding."""
    vals = coeffs_to_values(lines, M)
    idx = np.arange(len(lines))
    j = np.argmax(np.abs(vals), axis=1)
    at = vals[idx, j]
    best = np.abs(at)
    h = 2.0 * np.pi / M
    k = np.arange(lines.shape[1], dtype=float)
    # f = (c_0 + 2 Re sum_{k>0} c_k e^{ikx}) / sqrt(2 pi), taken with the sign
    # of the grid maximum so that every row climbs to a maximum.  With a + ib
    # those coefficients, f, f' and f'' are sum_k U cos(kx) + V sin(kx) over
    # the three rows of U and V, up to the factor.
    c = lines * np.where(at >= 0, 1.0, -1.0)[:, None]
    c[:, 1:] *= 2.0
    a, b = c.real, c.imag
    U = np.stack([a, -k * b, -(k**2) * a], axis=1)
    V = np.stack([-b, -k * a, k**2 * b], axis=1)

    def derivatives(live, x):
        theta = np.outer(x, k)
        f = np.sum(U[live] * np.cos(theta)[:, None, :] + V[live] * np.sin(theta)[:, None, :], axis=2)
        return f / SQRT_2PI

    live, x = idx, h * j
    f = derivatives(live, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6):
            hess = f[:, 2]
            step = -f[:, 1] / hess
            gain = -0.5 * hess * step**2  # f(x + step) - f(x) to second order
            go = (hess < -1e-300) & (np.abs(step) <= h) & (gain > np.finfo(float).eps * best[live])
            if not go.any():
                break
            live, x = live[go], x[go] + step[go]
            f = derivatives(live, x)
            best[live] = np.maximum(best[live], f[:, 0])
    return best


def embed(u, K):
    """Copy of u with the band enlarged to max mode K >= u.K (zero padding)."""
    K = int(K)
    if K < u.K:
        raise ValueError("embed target band smaller than the field band")
    c = np.zeros((u.n, K + 1), dtype=np.complex128)
    c[:, : u.K + 1] = u.half
    return SpectralField(K, u.n, c)
