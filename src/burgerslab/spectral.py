"""Band-limited real vector fields on the torus [0, 2*pi].

A field with max mode K is stored as the two-sided array of Fourier
coefficients with respect to the orthonormal basis

    e_k(x) = (2*pi)**(-1/2) * exp(i*k*x),      k = -K..K,

so that u(x) = sum_k coeffs[k] * e_k(x).  Reality of the field is the
invariant coeffs[-k] == conj(coeffs[k]); every operation in this module
preserves it.  Grid sizes paired with a band limit are odd, which keeps the
mode <-> gridpoint correspondence symmetric.
"""

import functools
from dataclasses import dataclass

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Relative tolerance accepted for the reality condition at construction.
_REALITY_RTOL = 1e-9


class ResolutionError(ValueError):
    """Grid is too coarse, or of the wrong parity, for the requested band."""


def smallest_odd_at_least(m):
    m = int(np.ceil(m))
    return m if m % 2 == 1 else m + 1


@functools.lru_cache(maxsize=None)
def smooth_odd_at_least(m):
    """Smallest odd integer >= m with no prime factor above 11.

    Working grids only need a lower bound to be alias-free; rounding up to a
    transform-friendly length avoids Bluestein-sized FFT bills on prime
    lengths like 4099.
    """
    n = smallest_odd_at_least(m)
    while True:
        r = n
        for p in (3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 2


@dataclass(frozen=True)
class SpectralField:
    """Immutable band-limited field; coeffs has shape (n, 2K+1), modes -K..K."""

    K: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.n, 2 * self.K + 1):
            raise ValueError(
                f"coeffs shape {c.shape} does not match (n, 2K+1) = "
                f"({self.n}, {2 * self.K + 1})"
            )
        scale = max(float(np.max(np.abs(c))), 1e-300) if c.size else 1.0
        mirrored = np.conj(c[:, ::-1])
        if np.max(np.abs(c - mirrored)) > _REALITY_RTOL * scale:
            raise ValueError("reality condition violated: coeffs[-k] != conj(coeffs[k])")
        # Make the invariant exact (identity on already-symmetric data).
        c = 0.5 * (c + mirrored)
        c[:, self.K] = c[:, self.K].real
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(K, n=1):
        return SpectralField(K, n, np.zeros((n, 2 * K + 1), dtype=np.complex128))

    @staticmethod
    def constant(values, K):
        """Field identically equal to `values` (scalar or length-n vector)."""
        v = np.atleast_1d(np.asarray(values, dtype=float))
        c = np.zeros((v.size, 2 * K + 1), dtype=np.complex128)
        c[:, K] = v * SQRT_2PI
        return SpectralField(K, v.size, c)

    @staticmethod
    def from_modes(K, entries, n=1):
        """Build a field from {k: value} (or iterable of (k, value)) pairs.

        Each entry sets coeffs[k] for one component (value may be a length-n
        vector); the conjugate at -k is filled in automatically.
        """
        c = np.zeros((n, 2 * K + 1), dtype=np.complex128)
        items = entries.items() if hasattr(entries, "items") else entries
        for k, val in items:
            if abs(k) > K:
                raise ValueError(f"mode {k} outside band [-{K}, {K}]")
            v = np.atleast_1d(np.asarray(val, dtype=np.complex128))
            c[:, K + k] = v
            c[:, K - k] = np.conj(v)
        return SpectralField(K, n, c)

    # -- basic accessors ---------------------------------------------------

    @property
    def modes(self):
        return np.arange(-self.K, self.K + 1)

    def mode(self, k):
        """Coefficient vector (length n) of mode k."""
        return self.coeffs[:, self.K + k]

    # -- arithmetic (fields of equal K and n) ------------------------------

    def _binary(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.K != self.K or other.n != self.n:
            raise ValueError("field shape mismatch")
        return SpectralField(self.K, self.n, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.K, self.n, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.K, self.n, -self.coeffs)

    def apply_multiplier(self, m):
        """Apply a Fourier multiplier m(k), given as an array over k = -K..K.

        The multiplier must be Hermitian (m(-k) == conj(m(k))) so that the
        reality condition survives; this holds for every operator used here.
        """
        m = np.asarray(m)
        if m.shape != (2 * self.K + 1,):
            raise ValueError("multiplier must have one entry per mode")
        return SpectralField(self.K, self.n, self.coeffs * m[None, :])


@dataclass(frozen=True)
class GridField:
    """Real values on the uniform grid x_j = 2*pi*j/M, j = 0..M-1 (M odd)."""

    M: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.M:
            raise ValueError(f"values shape {v.shape} does not match (n, M={self.M})")
        if self.M % 2 == 0:
            raise ResolutionError("grid size must be odd")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def x(self):
        return 2.0 * np.pi * np.arange(self.M) / self.M


# -- transforms -------------------------------------------------------------


def coeffs_to_values(coeffs, M):
    """Raw fast path: point values at x_j = 2*pi*j/M of a (n, 2K+1) coefficient
    array, for any M >= 1.  This is exact point evaluation of the
    trigonometric polynomial (not an interpolation statement).

    Two paths, both rejecting coefficients that break the reality condition
    by more than 1e-10 * max|c| with ValueError (non-finite input passes
    through unchecked, so a blown-up state reaches its caller as such):

    - padded, M >= 2K+1: no mode folds, so modes 0..K form the half spectrum
      of one real inverse transform (``half_to_values``); the reality check
      is the O(nK) Hermitian test max|c_k - conj c_{-k}|, |Im c_0| on the
      input.
    - fold, M < 2K+1: modes are folded modulo M into a full complex
      spectrum; the check is the imaginary residue of the inverse ``ifft``.
    """
    M = int(M)
    if M < 1:
        raise ValueError("M must be positive")
    n, width = coeffs.shape
    K = (width - 1) // 2
    if M >= width:
        scale = max(float(np.max(np.abs(coeffs))), 1e-300)
        asym = np.abs(coeffs[:, K:] - np.conj(coeffs[:, K::-1]))
        asym[:, 0] *= 0.5  # c_0 - conj(c_0) = 2i Im c_0
        resid = float(np.max(asym))
        if resid > 1e-10 * scale:
            raise ValueError(f"Hermitian residue {resid:.3e} exceeds 1e-10 * coefficient magnitude")
        return half_to_values(coeffs[:, K:], M)
    B = np.zeros((n, M), dtype=np.complex128)
    cols = np.mod(np.arange(-K, K + 1), M)
    np.add.at(B, (np.arange(n)[:, None], cols[None, :]), coeffs)
    vals = np.fft.ifft(B * (M / SQRT_2PI), axis=1)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-10 * scale:
        raise ValueError(f"imaginary residue {resid:.3e} exceeds 1e-10 * field magnitude")
    return np.ascontiguousarray(vals.real)


def values_to_coeffs(values, K):
    """Raw fast path: band-limited coefficients of real (n, M) grid data."""
    K = int(K)
    M = values.shape[1]
    if M < 2 * K + 1:
        raise ResolutionError(f"need M >= 2K+1 = {2 * K + 1}, got M = {M}")
    return mirror(values_to_half(values, K))


def mirror(half):
    """Two-sided (n, 2K+1) coefficients, modes -K..K, of a half spectrum
    (n, K+1): mode -k is the conjugate of mode k."""
    return np.concatenate([np.conj(half[:, :0:-1]), half], axis=1)


def half_to_values(half, M):
    """Point values on M >= 2K+1 points of a real field given by its half
    spectrum: the (n, K+1) coefficients of modes 0..K, the negative modes
    being their conjugates.  Reality holds by construction; Im of mode 0 is
    ignored, so the caller vouches for it."""
    n, width = half.shape
    buf = np.zeros((n, M // 2 + 1), dtype=np.complex128)
    np.multiply(half, M / SQRT_2PI, out=buf[:, :width])
    return np.fft.irfft(buf, n=M, axis=1)


def values_to_half(values, K):
    """Half spectrum (modes 0..K, shape (n, K+1)) of real (n, M) grid data,
    M >= 2K+1 (unchecked)."""
    M = values.shape[1]
    return np.fft.rfft(values, axis=1)[:, : K + 1] * (SQRT_2PI / M)


def evaluate_on_grid(u, M):
    """Point values of u at x_j = 2*pi*j/M for any M >= 1, as an (n, M) array."""
    return coeffs_to_values(u.coeffs, M)


def to_grid(u, M):
    """Evaluate the field on an odd grid of size M >= 2K+1 (exact sampling)."""
    M = int(M)
    if M % 2 == 0 or M < 2 * u.K + 1:
        raise ResolutionError(f"need odd M >= 2K+1 = {2 * u.K + 1}, got M = {M}")
    return GridField(M, evaluate_on_grid(u, M))


def to_grid_direct(u, M):
    """Direct O(K*M) evaluation; reference path and oracle for ``to_grid``."""
    M = int(M)
    if M % 2 == 0 or M < 2 * u.K + 1:
        raise ResolutionError(f"need odd M >= 2K+1 = {2 * u.K + 1}, got M = {M}")
    x = 2.0 * np.pi * np.arange(M) / M
    phases = np.exp(1j * np.outer(u.modes, x)) / SQRT_2PI
    vals = u.coeffs @ phases
    return GridField(M, vals.real)


def from_grid(g, K):
    """Fourier coefficients of the grid data, band-limited to max mode K.

    Exact inverse of ``to_grid`` when M == 2K+1; for M > 2K+1 the modes above
    K are discarded (low-pass).  Reality holds exactly by construction.
    """
    return SpectralField(int(K), g.n, values_to_coeffs(g.values, K))


# -- projections and norms ---------------------------------------------------


def project(u, N):
    """Low-pass projection: keep modes with |k| <= N, zero the rest."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    keep = (np.abs(u.modes) <= N).astype(float)
    return u.apply_multiplier(keep)


def band_project(u, n_lo, n_hi):
    """Keep modes with n_lo < |k| <= n_hi (annular band; thresholds may be real)."""
    a = np.abs(u.modes)
    keep = ((a > n_lo) & (a <= n_hi)).astype(float)
    return u.apply_multiplier(keep)


def sobolev_norm(u, s):
    """Fractional Sobolev norm (sum_k |coeffs[k]|^2 (1+k^2)^s)^(1/2)."""
    w = (1.0 + u.modes.astype(float) ** 2) ** s
    return float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2 * w[None, :])))


def l2_inner(u, v):
    """L^2 pairing of two real fields, sum_k conj(u_k) . v_k (real)."""
    if u.K != v.K or u.n != v.n:
        raise ValueError("field shape mismatch")
    return float(np.sum(np.conj(u.coeffs) * v.coeffs).real)


def sup_norm(u):
    """Approximate sup over x and components of |u|.

    Localizes the maximum of each component on a 4x-oversampled grid
    (an odd, FFT-friendly M >= 4(2K+1)) and polishes it with a few Newton
    steps on the trigonometric polynomial, so smooth maxima that fall
    between grid points are not truncated.  Still an approximation of the
    true sup, but a much better one than the bare grid maximum.
    """
    M = smooth_odd_at_least(4 * (2 * u.K + 1))
    vals = evaluate_on_grid(u, M)
    modes = u.modes.astype(float)
    best = 0.0
    h = 2.0 * np.pi / M
    for i in range(u.n):
        j = int(np.argmax(np.abs(vals[i])))
        sign = 1.0 if vals[i, j] >= 0 else -1.0
        x = h * j
        c = u.coeffs[i]
        d1 = c * (1j * modes)
        d2 = c * -(modes**2)
        val = sign * vals[i, j]
        # one phase vector per iterate serves the derivatives at x and, after
        # the step, the value at the new x (which the next iterate reuses)
        phase = np.exp(1j * modes * x)
        for _ in range(6):
            g = sign * ((d1 @ phase).real / SQRT_2PI)
            hess = sign * ((d2 @ phase).real / SQRT_2PI)
            if hess >= -1e-300:
                break
            step = -g / hess
            if abs(step) > h:  # keep the polish local to the grid maximum
                break
            x += step
            phase = np.exp(1j * modes * x)
            val = max(val, sign * ((c @ phase).real / SQRT_2PI))
        best = max(best, val)
    return float(best)


def embed(u, K):
    """Copy of u with the band enlarged to max mode K >= u.K (zero padding)."""
    K = int(K)
    if K < u.K:
        raise ValueError("embed target band smaller than the field band")
    c = np.zeros((u.n, 2 * K + 1), dtype=np.complex128)
    c[:, K - u.K : K + u.K + 1] = u.coeffs
    return SpectralField(K, u.n, c)


# -- field dump --------------------------------------------------------------


def write_grid_csv(g, path):
    """Dump a grid field as CSV: header x,comp0[,comp1,...], 17 significant digits."""
    header = "x," + ",".join(f"comp{i}" for i in range(g.n))
    x = g.x
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for j in range(g.M):
            row = [f"{x[j]:.17g}"] + [f"{g.values[i, j]:.17g}" for i in range(g.n)]
            fh.write(",".join(row) + "\n")
