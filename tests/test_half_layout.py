"""The half-spectrum layout of SpectralField against the two-sided one.

A field used to be stored as its two-sided (n, 2K+1) coefficient array of
modes -K..K, checked for the reality condition and symmetrized on every
construction.  The oracle below keeps that code: each operation mirrors its
input to the two-sided array, acts over modes -K..K, symmetrizes, and takes
modes 0..K.  The half-spectrum layout must give the same bits, up to the
sign of a zero: the symmetrization multiplied by the complex 0.5, which
turns an imaginary -0.0 into +0.0 wherever the real part is not negative,
while the half layout keeps the sign its own arithmetic gives.  No norm,
grid value or output can tell the two zeros apart.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab.runconfig import parse_v0
from burgerslab.schemes import (
    InfiniteSymbolError,
    apply_D_eps,
    apply_Delta_eps,
    d_eps_multiplier,
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
    shift_minus,
)
from burgerslab.spectral import (
    SQRT_2PI,
    SpectralField,
    band_project,
    coeffs_to_values,
    embed,
    from_grid,
    mirror,
    odd_fft_size,
    project,
    to_grid,
    values_to_coeffs,
)

# -- the two-sided oracle ------------------------------------------------------------


def symmetrize(c):
    """The two-sided constructor's symmetrization (its reality check left
    out): exact on Hermitian input, the real part on mode 0."""
    K = (c.shape[1] - 1) // 2
    c = 0.5 * (c + np.conj(c[:, ::-1]))
    c[:, K] = c[:, K].real
    return c


def two_sided_modes(K):
    return np.arange(-K, K + 1)


def old_multiplier(c, m):
    """Modes 0..K of the symmetrized product of a two-sided array and a
    two-sided multiplier."""
    K = (c.shape[1] - 1) // 2
    return symmetrize(c * m[None, :])[:, K:]


def old_coeffs_to_values(coeffs, M):
    """The two-sided point evaluation (its Hermitian checks left out)."""
    n, width = coeffs.shape
    K = (width - 1) // 2
    if M >= width:
        return coeffs_to_values(coeffs[:, K:], M)
    B = np.zeros((n, M), dtype=np.complex128)
    cols = np.mod(np.arange(-K, K + 1), M)
    np.add.at(B, (np.arange(n)[:, None], cols[None, :]), coeffs)
    vals = np.fft.ifft(B * (M / SQRT_2PI), axis=1)
    return np.ascontiguousarray(vals.real)


def old_embed(c, K):
    n, width = c.shape
    k = (width - 1) // 2
    out = np.zeros((n, 2 * K + 1), dtype=np.complex128)
    out[:, K - k : K + k + 1] = c
    return symmetrize(out)[:, K:]


def old_delta_multiplier(scheme, eps, c):
    """apply_Delta_eps's multiplier over -K..K, or None where it raised."""
    K = (c.shape[1] - 1) // 2
    k = two_sided_modes(K).astype(float)
    fv = scheme.f_at(eps * np.abs(k))
    infinite = ~np.isfinite(fv)
    if np.any(infinite) and np.any(np.abs(c[:, infinite]) > 0.0):
        return None
    return np.where(infinite, 0.0, -(k**2) * np.where(infinite, 0.0, fv))


# -- generated fields ----------------------------------------------------------------


def same_bits(a, b):
    """Equal shape, dtype and bytes once every -0.0 is read as +0.0."""
    a, b = np.asarray(a) + 0.0, np.asarray(b) + 0.0  # -0.0 + 0.0 == +0.0
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def half_spectra(draw, K=None, n=None):
    """A half spectrum (n, K+1) with real mode 0; entries are drawn to hit
    signed zeros and exact cancellations as well as generic values."""
    K = draw(st.integers(0, 24)) if K is None else K
    n = draw(st.integers(1, 3)) if n is None else n
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]), st.floats(-1e3, 1e3))
    re, im = draw(hnp.arrays(np.float64, (2, n, K + 1), elements=values))
    half = re + 1j * im
    half[:, 0] = re[:, 0]
    return half


@st.composite
def field_pairs(draw):
    """Two half spectra of the same shape."""
    a = draw(half_spectra())
    return a, draw(half_spectra(K=a.shape[1] - 1, n=a.shape[0]))


SCHEMES = [identity_scheme(1, 0), identity_scheme(1, 1), finite_difference_scheme(1, 0), galerkin_scheme(2, 1)]

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(field_pairs(), st.floats(-10.0, 10.0))
def test_arithmetic_matches_two_sided(pair, scalar):
    a, b = pair
    K, n = a.shape[1] - 1, a.shape[0]
    u, v = SpectralField(K, n, a), SpectralField(K, n, b)
    A, B = mirror(a), mirror(b)
    assert same_bits(u.half, symmetrize(A)[:, K:])
    assert same_bits((u + v).half, symmetrize(A + B)[:, K:])
    assert same_bits((u - v).half, symmetrize(A - B)[:, K:])
    assert same_bits((scalar * u).half, symmetrize(A * float(scalar))[:, K:])
    assert same_bits((-u).half, symmetrize(-A)[:, K:])


@PROPERTY
@given(half_spectra(), st.sampled_from(range(len(SCHEMES))), st.floats(0.01, 2.0),
       st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01)))
def test_scheme_operators_match_two_sided(half, which, eps, delta):
    scheme = SCHEMES[which]
    K, n = half.shape[1] - 1, half.shape[0]
    u, C = SpectralField(K, n, half), mirror(half)
    k = two_sided_modes(K).astype(float)
    assert same_bits(apply_D_eps(scheme, u, eps).half, old_multiplier(C, d_eps_multiplier(scheme, eps, k)))
    assert same_bits(shift_minus(u, delta).half, old_multiplier(C, np.exp(1j * k * delta) - 1.0))
    mult = old_delta_multiplier(scheme, eps, C)
    if mult is None:
        with pytest.raises(InfiniteSymbolError):
            apply_Delta_eps(scheme, u, eps)
    else:
        assert same_bits(apply_Delta_eps(scheme, u, eps).half, old_multiplier(C, mult))


@PROPERTY
@given(half_spectra(), st.floats(-1.0, 30.0), st.floats(-1.0, 30.0), st.integers(0, 20))
def test_projections_and_embed_match_two_sided(half, lo, hi, extra):
    K, n = half.shape[1] - 1, half.shape[0]
    u, C = SpectralField(K, n, half), mirror(half)
    a = np.abs(two_sided_modes(K))
    if lo >= 0:
        assert same_bits(project(u, lo).half, old_multiplier(C, (a <= lo).astype(float)))
    assert same_bits(band_project(u, lo, hi).half, old_multiplier(C, ((a > lo) & (a <= hi)).astype(float)))
    assert same_bits(embed(u, K + extra).half, old_embed(C, K + extra))


@PROPERTY
@given(half_spectra(), st.integers(0, 3), st.booleans())
def test_grid_round_trip_matches_two_sided(half, pad, alias_free):
    K, n = half.shape[1] - 1, half.shape[0]
    u = SpectralField(K, n, half)
    M = odd_fft_size((pad + 2) * K + 1) if alias_free else 2 * K + 1 + 2 * pad
    values = to_grid(u, M)
    assert same_bits(values, old_coeffs_to_values(mirror(u.half), M))
    old = symmetrize(mirror(values_to_coeffs(values, K)))[:, K:]
    assert same_bits(from_grid(values, K).half, old)


@PROPERTY
@given(half_spectra(), st.integers(1, 60))
def test_both_transform_paths_match_two_sided(half, M):
    # M < 2K+1 folds, M >= 2K+1 is padded
    assert same_bits(coeffs_to_values(half, M), old_coeffs_to_values(mirror(half), M))


def old_parse_modes(rows, K, n):
    """The two-sided modes: reader (one write at k and its conjugate at -k
    per line), symmetrized, modes 0..K.  The two-sided constructor refused a
    complex k = 0 entry; its symmetrization takes the real part."""
    c = np.zeros((n, 2 * K + 1), dtype=np.complex128)
    for k, comp, re, im in rows:
        val = float(re) + 1j * float(im)
        c[comp - 1, K + k] = val
        c[comp - 1, K - k] = np.conj(val)
    return symmetrize(c)[:, K:]


@st.composite
def mode_rows(draw):
    K, n = draw(st.integers(1, 12)), draw(st.integers(1, 2))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.25]), st.floats(-5.0, 5.0))
    row = st.tuples(st.integers(-K, K), st.integers(1, n), value, value)
    rows = draw(st.lists(row, max_size=10))
    # a mode k < 0, a complex k = 0 entry and a repeated k, wherever they land
    k = draw(st.integers(1, K))
    forced = [(-k, 1, 0.5, -0.25), (0, n, 1.5, 2.0), (k, 1, -0.75, 0.5)]
    for r in forced:
        rows.insert(draw(st.integers(0, len(rows))), r)
    return K, n, rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mode_rows())
def test_parse_v0_modes_matches_two_sided(tmp_path_factory, case):
    K, n, rows = case
    path = tmp_path_factory.mktemp("v0") / "modes.csv"
    path.write_text("k,comp,re,im\n" + "".join(f"{k},{c},{re!r},{im!r}\n" for k, c, re, im in rows))
    u = parse_v0(f"modes:{path}", K, n)
    assert same_bits(u.half, old_parse_modes(rows, K, n))
