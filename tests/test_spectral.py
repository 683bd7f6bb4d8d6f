import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab.spectral import (
    SQRT_2PI,
    ResolutionError,
    SpectralField,
    band_project,
    coeffs_to_values,
    embed,
    from_grid,
    odd_fft_size,
    project,
    sobolev_norm,
    sobolev_norms,
    sup_norm,
    sup_norms,
    to_grid,
    values_to_coeffs,
)
from burgerslab import spectral
from conftest import mirror, random_field


def to_grid_direct(u, M):
    """Direct O(K*M) evaluation on an odd grid M >= 2K+1; oracle for ``to_grid``."""
    M = int(M)
    if M % 2 == 0 or M < 2 * u.K + 1:
        raise ResolutionError(f"need odd M >= 2K+1 = {2 * u.K + 1}, got M = {M}")
    return direct_values(u, M)


def direct_values(u, M):
    """Direct O(K*M) sum over the two-sided modes -K..K at x_j = 2*pi*j/M,
    for any M >= 1."""
    xs = 2.0 * np.pi * np.arange(M) / M
    return (mirror(u.half) @ (np.exp(1j * np.outer(np.arange(-u.K, u.K + 1), xs)) / SQRT_2PI)).real


def l2_inner(u, v):
    """L^2 pairing of two real fields, sum_k conj(u_k) . v_k (real)."""
    return float(np.sum(np.conj(mirror(u.half)) * mirror(v.half)).real)


class TestToGrid:
    def test_constant_field(self):
        u = SpectralField.constant(3.25, K=6)
        g = to_grid(u, 13)
        assert np.allclose(g, 3.25, atol=1e-14)

    def test_single_mode_cosine_pair(self):
        # coeffs[+-1] = 1 is the reality pair of a pure cosine
        u = SpectralField.from_modes(K=2, entries={1: 1.0})
        g = to_grid(u, 5)
        expected = 2.0 / SQRT_2PI * np.cos(2.0 * np.pi * np.arange(5) / 5)
        assert np.allclose(g[0], expected, atol=1e-14)

    def test_round_trip(self, rng):
        u = random_field(rng, K=33, n=2)
        v = from_grid(to_grid(u, 67), 33)
        assert np.max(np.abs(v.half - u.half)) < 1e-12

    def test_rejects_even_or_coarse_grid(self):
        u = SpectralField.zeros(4)
        with pytest.raises(ResolutionError):
            to_grid(u, 10)
        with pytest.raises(ResolutionError):
            to_grid(u, 7)

    def test_matches_direct_evaluation(self, rng):
        # the O(K*M) sum is the oracle for the FFT path
        u = random_field(rng, K=17, n=3)
        g_fast = to_grid(u, 41)
        g_ref = to_grid_direct(u, 41)
        assert np.max(np.abs(g_fast - g_ref)) < 1e-12


class TestFromGrid:
    def test_constant_grid(self):
        u = from_grid(np.full((1, 9), 2.5), 4)
        assert abs(u.mode(0)[0] - 2.5 * SQRT_2PI) < 1e-13
        others = np.delete(mirror(u.half)[0], 4)
        assert np.max(np.abs(others)) < 1e-14

    def test_inverse_pair(self, rng):
        u = random_field(rng, K=12)
        g = to_grid(u, 25)
        v = from_grid(g, 12)
        assert np.max(np.abs(v.half - u.half)) < 1e-13

    def test_sine_coefficients(self):
        # under e_k = (2pi)^(-1/2) e^{ikx}: sin(x) has coeffs[+-1] = -+ i sqrt(pi/2)
        M = 33
        x = 2.0 * np.pi * np.arange(M) / M
        u = from_grid(np.sin(x)[None, :], 8)
        assert abs(u.mode(1)[0] - (-1j * np.sqrt(np.pi / 2))) < 1e-13
        assert abs(u.mode(-1)[0] - (1j * np.sqrt(np.pi / 2))) < 1e-13
        others = np.abs(mirror(u.half)[0]).copy()
        others[[7, 9]] = 0.0
        assert np.max(others) < 1e-12

    def test_lowpass_on_fine_grid(self, rng):
        u = random_field(rng, K=5)
        g = to_grid(embed(u, 20), 41)
        v = from_grid(g, 5)
        assert np.max(np.abs(v.half - u.half)) < 1e-13

    def test_rejects_coarse_grid(self):
        with pytest.raises(ResolutionError):
            from_grid(np.zeros((1, 8)), 4)


class TestProjections:
    def test_full_band_is_identity(self, rng):
        u = random_field(rng, K=9)
        assert np.array_equal(project(u, 9).half, u.half)

    def test_project_zero_keeps_mean(self, rng):
        u = random_field(rng, K=9)
        v = project(u, 0)
        assert v.mode(0)[0] == u.mode(0)[0]
        assert np.count_nonzero(mirror(v.half)) <= 1

    def test_empty_band_is_zero(self, rng):
        u = random_field(rng, K=9)
        v = band_project(u, 4, 4)
        assert np.all(v.half == 0)

    def test_band_edges(self, rng):
        u = random_field(rng, K=9)
        v = band_project(u, 2, 5)
        kept = v.modes
        expect = (kept > 2) & (kept <= 5)
        assert np.all((np.abs(v.half[0]) > 0) == expect)

    def test_idempotent_and_self_adjoint(self, rng):
        u = random_field(rng, K=16, n=2)
        v = random_field(rng, K=16, n=2)
        p = project(u, 7)
        assert np.max(np.abs(project(p, 7).half - p.half)) < 1e-15
        lhs = l2_inner(project(u, 7), v)
        rhs = l2_inner(u, project(v, 7))
        assert abs(lhs - rhs) < 1e-12


class TestNorms:
    @pytest.mark.parametrize("s", [-0.75, 0.0, 1.5])
    def test_single_mode_sobolev(self, s):
        u = SpectralField.from_modes(K=3, entries={1: np.exp(0.3j)})
        assert abs(sobolev_norm(u, s) - np.sqrt(2.0) * 2.0 ** (s / 2)) < 1e-14

    def test_zero_field(self):
        assert sobolev_norm(SpectralField.zeros(5, n=2), 0.7) == 0.0

    def test_l2_norm_matches_trapezoid_quadrature(self, rng):
        # Parseval: the L2 norm of the trig polynomial over [0, 2pi] equals
        # sobolev_norm(u, 0); the grid integral of |u|^2 is exact at M >= 2K+1.
        u = random_field(rng, K=21, n=2)
        g = to_grid(u, 129)
        quad = np.sqrt(np.sum(g**2) * 2.0 * np.pi / 129)
        assert abs(quad - sobolev_norm(u, 0.0)) < 1e-10

    def test_sup_norm_constant(self):
        assert abs(sup_norm(SpectralField.constant(-1.75, K=4)) - 1.75) < 1e-12

    def test_sup_norm_sine(self):
        M = 17
        x = 2.0 * np.pi * np.arange(M) / M
        u = from_grid(np.sin(x)[None, :], 3)
        assert abs(sup_norm(u) - 1.0) < 1e-6

    def test_sup_norm_against_dense_sampling(self, rng):
        # band-limited bump: compare against brute force max on 1e5 points
        u = random_field(rng, K=12, decay=2.0)
        vals = direct_values(u, 100_000)
        assert abs(sup_norm(u) - np.max(np.abs(vals))) < 1e-4



def _random_stack(rng, rows, n, K, decay=1.0):
    """(rows, n, K+1) half spectra with real mode 0 and |c_k| ~ (1+k)^-decay."""
    k = np.arange(K + 1)
    half = (rng.standard_normal((rows, n, K + 1)) + 1j * rng.standard_normal((rows, n, K + 1))) * (1.0 + k) ** -decay
    half[..., 0] = half[..., 0].real
    return half


def _dense_sup(line):
    """max_x |f| of one half spectrum: the maximum of an irfft at 32x
    oversampling, zoomed in three times by direct evaluation on 201 points
    across the cells next to it (each zoom shrinks the spacing 100-fold)."""
    K = line.size - 1
    M = 32 * (2 * K + 1)
    vals = coeffs_to_values(line[None, :], M)[0]
    j = int(np.argmax(np.abs(vals)))
    x, width = 2.0 * np.pi * j / M, 2.0 * np.pi / M
    c = line * np.where(np.arange(K + 1) > 0, 2.0, 1.0)
    best = abs(vals[j])
    for _ in range(3):
        xs = x + np.linspace(-width, width, 201)
        f = np.abs((np.exp(1j * np.outer(xs, np.arange(K + 1))) @ c).real / SQRT_2PI)
        i = int(np.argmax(f))
        best, x, width = max(best, f[i]), xs[i], width / 100.0
    return best


def _peaked_stack(rng, rows, n, K):
    """Half spectra with one dominant extremum per component: a Fejer kernel
    of random sign and height centred at a random x0 (off every grid), plus
    noise at a tenth of the kernel's coefficients."""
    k = np.arange(K + 1)
    x0 = rng.uniform(0.0, 2.0 * np.pi, (rows, n, 1))
    amp = rng.uniform(0.5, 2.0, (rows, n, 1)) * rng.choice([-1.0, 1.0], (rows, n, 1))
    return amp * (1.0 - k / (K + 1)) * np.exp(-1j * k * x0) + 0.1 * _random_stack(rng, rows, n, K)


class TestStackedNorms:
    @pytest.mark.parametrize("K", [1, 7, 128, 1024])
    @pytest.mark.parametrize("n", [1, 2])
    def test_sup_norms_match_dense_oracle(self, rng, K, n):
        half = _peaked_stack(rng, 6, n, K)
        oracle = np.array([max(_dense_sup(comp) for comp in row) for row in half])
        assert np.max(np.abs(sup_norms(half) - oracle) / oracle) < 1e-10

    def test_rows_are_bitwise_their_one_row_calls(self, rng):
        # more rows than one transform takes, so the stack spans chunks, one
        # of them ending inside a row
        K = 64
        per_transform = spectral._SUP_POINTS // odd_fft_size(4 * (2 * K + 1))
        assert per_transform % 3
        half = _random_stack(rng, per_transform // 3 + 3, 3, K)
        stacked = sup_norms(half)
        alone = np.concatenate([sup_norms(half[i : i + 1]) for i in range(len(half))])
        assert stacked.tobytes() == alone.tobytes()
        sob = sobolev_norms(half, 0.75)
        assert sob.tobytes() == np.concatenate([sobolev_norms(half[i : i + 1], 0.75) for i in range(len(half))]).tobytes()

    def test_zero_rows_give_exactly_zero(self, rng):
        half = _random_stack(rng, 5, 1, 16)
        half[[0, 3]] = 0.0
        out = sup_norms(half)
        assert out[0] == 0.0 and out[3] == 0.0
        assert not np.signbit(out[[0, 3]]).any()
        assert np.all(out[[1, 2, 4]] > 0.0)

    def test_two_components_take_the_larger(self, rng):
        half = _random_stack(rng, 4, 2, 32)
        half[1, 0] *= 10.0  # component 0 dominates row 1
        out = sup_norms(half)
        per_comp = [sup_norms(half[:, i : i + 1]) for i in range(2)]
        assert out.tobytes() == np.maximum(*per_comp).tobytes()

    @pytest.mark.parametrize("s", [-0.75, 0.0, 0.75, 1.5])
    def test_sobolev_norms_match_the_two_sided_sum(self, rng, s):
        K = 50
        half = _random_stack(rng, 5, 2, K)
        w = (1.0 + np.arange(-K, K + 1) ** 2.0) ** s
        two_sided = np.array([np.sqrt(np.sum(np.abs(mirror(row)) ** 2 * w)) for row in half])
        assert np.max(np.abs(sobolev_norms(half, s) - two_sided) / two_sided) < 1e-14


class TestInvariants:
    def test_round_trip_large_band(self, rng):
        u = random_field(rng, K=512)
        v = from_grid(to_grid(u, 1025), 512)
        assert np.max(np.abs(v.half - u.half)) < 1e-12

    def test_reality_preserved_by_operations(self, rng):
        u = random_field(rng, K=14, n=2)
        ops = [
            lambda w: project(w, 6),
            lambda w: band_project(w, 2, 9),
            lambda w: w.apply_multiplier(1j * w.modes.astype(complex)),
            lambda w: 2.5 * w + w,
            lambda w: from_grid(to_grid(w, 29), 14),
        ]
        for op in ops:
            w = op(u)
            g = to_grid(w, 61)  # raises if imag residue > 1e-10
            assert np.all(np.isfinite(g))
            two = mirror(w.half)
            assert np.max(np.abs(two - np.conj(two[:, ::-1]))) == 0.0

    def test_constructor_rejects_non_real_mode_zero(self):
        # the one reality condition a half spectrum does not enforce itself
        c = np.zeros((2, 3), dtype=complex)
        c[:, 1] = 1.0 - 2.0j
        c[1, 0] = 1.0 + 1e-3j
        with pytest.raises(ValueError, match="mode 0 is not real"):
            SpectralField(2, 2, c)
        c[1, 0] = 1.0 + 1e-12j  # rounding level: accepted, and made exactly real
        u = SpectralField(2, 2, c)
        assert u.half[1, 0] == 1.0 and not np.signbit(u.half[:, 0].imag).any()
        assert np.array_equal(u.half[:, 1:], c[:, 1:])

    def test_constructor_checks_shape_and_keeps_a_frozen_copy(self):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(2, 1, np.zeros((1, 5)))  # the two-sided layout
        c = np.zeros((1, 3), dtype=complex)
        u = SpectralField(2, 1, c)
        c[0, 1] = 1.0
        assert u.mode(1)[0] == 0.0
        assert not u.half.flags.writeable

    def test_multiplier_is_given_on_modes_zero_to_K(self, rng):
        u = random_field(rng, K=4, n=2)
        with pytest.raises(ValueError, match="k = 0..K"):
            u.apply_multiplier(np.ones(9))  # the two-sided layout
        # a complex factor at k = 0 would make the mean complex
        with pytest.raises(ValueError, match="mode 0 is not real"):
            u.apply_multiplier(np.array([1j, 1.0, 1.0, 1.0, 1.0]))

    def test_negative_modes_are_conjugates(self, rng):
        u = random_field(rng, K=6, n=2)
        assert np.array_equal(u.modes, np.arange(7))
        for k in range(1, 7):
            assert np.array_equal(u.mode(-k), np.conj(u.mode(k)))
            assert np.array_equal(mirror(u.half)[:, 6 - k], u.mode(-k))

    def test_coeffs_to_values_allows_coarse_grids(self, rng):
        # aliased point evaluation agrees with the direct sum for M < 2K+1
        u = random_field(rng, K=10)
        assert np.max(np.abs(coeffs_to_values(u.half, 7) - direct_values(u, 7))) < 1e-12


class TestTransformPaths:
    """Padded grids (M >= 2K+1) take one real inverse transform of the half
    spectrum; coarser grids fold the two-sided modes into a complex one.
    Both must be exact point evaluation, and both take the real part of
    mode 0."""

    @pytest.mark.parametrize(
        "K, M, n",
        [(0, 1, 1), (0, 4, 2), (6, 13, 1), (6, 13, 2), (6, 14, 2), (17, 41, 2), (17, 64, 2), (9, 45, 2)],
    )
    def test_padded_path_matches_direct_evaluation(self, rng, K, M, n):
        # to_grid_direct takes odd grids only; even ones use the same sum
        u = random_field(rng, K=K, n=n)
        ref = to_grid_direct(u, M) if M % 2 else direct_values(u, M)
        assert np.max(np.abs(coeffs_to_values(u.half, M) - ref)) < 1e-12

    @pytest.mark.parametrize("K, M", [(8, 17), (8, 18), (8, 40), (8, 7), (8, 4), (0, 3), (0, 1)])  # padded, fold
    def test_both_paths_ignore_imaginary_mode_zero(self, rng, K, M):
        u = random_field(rng, K=K, n=2)
        c = u.half.copy()
        c[:, 0] += np.array([1e-3j, -2.5j])
        assert coeffs_to_values(c, M).tobytes() == coeffs_to_values(u.half, M).tobytes()

    @staticmethod
    def scatter_fold(coeffs, M):
        # the fold as a scatter-add of the two-sided modes -K..K, in order
        n, width = coeffs.shape
        K = width - 1
        c = mirror(coeffs)
        c[:, K] = c[:, K].real
        B = np.zeros((n, M), dtype=np.complex128)
        cols = np.mod(np.arange(-K, K + 1), M)
        np.add.at(B, (np.arange(n)[:, None], cols[None, :]), c)
        return np.ascontiguousarray(np.fft.ifft(B * (M / SQRT_2PI), axis=1).real)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "K, M",
        [(1, 1), (1, 2), (5, 1), (5, 2), (5, 3), (12, 5), (12, 12), (12, 13), (12, 20), (12, 24), (40, 7), (40, 80)],
    )
    def test_fold_bytes_match_the_scatter_add(self, rng, K, M, n):
        # M < K+1, K+1 <= M < 2K+1 and M = 2K; random, partly zeroed and
        # all -0.0 spectra, whose zero signs a reordered sum would change
        assert M < 2 * K + 1
        half = random_field(rng, K=K, n=n).half.copy()
        zeroed = half.copy()
        zeroed[:, rng.random(K + 1) < 0.5] = 0.0
        zeroed[:, 1::3] = -0.0
        negative_zero = np.full((n, K + 1), complex(-0.0, -0.0))
        for c in (half, zeroed, negative_zero):
            assert coeffs_to_values(c, M).tobytes() == self.scatter_fold(c, M).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_passes_through(self, rng, bad):
        # a blown-up state must reach the integrator's finiteness test, not
        # be mistaken for broken reality
        c = random_field(rng, K=8, n=2).half.copy()
        c[1, 2] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            vals = coeffs_to_values(c, 17)
        assert np.all(np.isfinite(vals[0])) and not np.all(np.isfinite(vals[1]))


class TestHalfSpectrum:
    """The padded path of coeffs_to_values and values_to_coeffs are the
    two-sided transforms restricted to modes 0..K, bit for bit, with or
    without caller-owned arrays."""

    @pytest.mark.parametrize("M", [35, 36, 41])
    def test_padded_path_is_one_real_inverse_transform(self, rng, M):
        u = random_field(rng, K=17, n=2)
        spectrum = np.zeros((2, M // 2 + 1), dtype=np.complex128)
        spectrum[:, :18] = u.half * (M / SQRT_2PI)
        assert np.array_equal(coeffs_to_values(u.half, M), np.fft.irfft(spectrum, n=M, axis=1))

    @pytest.mark.parametrize("K, M, n", [(17, 35, 2), (17, 36, 1), (17, 105, 3), (0, 1, 1)])
    def test_padded_path_with_buf_and_out_is_bitwise_equal(self, rng, K, M, n):
        half = random_field(rng, K=K, n=n).half
        buf = np.zeros((n, M // 2 + 1), dtype=np.complex128)
        out = np.empty((n, M))
        for _ in range(2):  # reused arrays as well as fresh ones
            got = coeffs_to_values(half, M, buf=buf)
            assert got.tobytes() == coeffs_to_values(half, M).tobytes()
            assert not np.shares_memory(got, buf)
            assert coeffs_to_values(half, M, buf=buf, out=out) is out
            assert out.tobytes() == got.tobytes()
            half = half * 0.5

    def test_values_to_coeffs_is_the_nonnegative_half(self, rng):
        vals = rng.standard_normal((2, 41))
        half = values_to_coeffs(vals, 17)
        assert half.shape == (2, 18)
        assert np.array_equal(mirror(half)[:, 17:], half)
        assert np.array_equal(half, np.fft.rfft(vals, axis=1)[:, :18] * (SQRT_2PI / 41))
        buf, out = np.empty((2, 21), dtype=np.complex128), np.empty((2, 18), dtype=np.complex128)
        assert values_to_coeffs(vals, 17, buf=buf, out=out) is out
        assert out.tobytes() == half.tobytes()

    def test_mirror_restores_a_hermitian_array(self, rng):
        u = random_field(rng, K=9, n=2)
        two = mirror(u.half)
        assert np.array_equal(two[:, 9:], u.half)
        assert np.array_equal(two[:, :9], np.conj(u.half[:, :0:-1]))


@st.composite
def _hermitian_half_and_grid(draw):
    """A half spectrum (n, K+1) with real mode 0, and an odd grid M >= 2K+1:
    any such M, or the alias-free pick for a degree 1..5."""
    K = draw(st.integers(0, 64))
    n = draw(st.integers(1, 3))
    parts = hnp.arrays(np.float64, (2, n, K + 1), elements=st.floats(-1e6, 1e6))
    re, im = draw(parts)
    half = re + 1j * im
    half[:, 0] = re[:, 0]
    if draw(st.booleans()):
        M = 2 * K + 1 + 2 * draw(st.integers(0, 100))
    else:
        M = odd_fft_size((draw(st.integers(1, 5)) + 1) * K + 1)
    return half, M


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_hermitian_half_and_grid())
def test_half_spectrum_round_trip(case):
    half, M = case
    K = half.shape[1] - 1
    back = mirror(values_to_coeffs(coeffs_to_values(half, M), K))
    scale = float(np.max(np.abs(half), initial=0.0))
    assert back.shape == (half.shape[0], 2 * K + 1)
    # the scaling by M/sqrt(2 pi) and back rounds a subnormal coefficient
    # (5e-324 at M = 1 becomes 0), so errors below the smallest normal
    # number are underflow, not transform error
    assert np.max(np.abs(back - mirror(half))) <= 1e-13 * scale + np.finfo(float).tiny
