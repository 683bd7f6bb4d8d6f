import numpy as np
import pytest

from burgerslab.noise import (
    ModeGaussianDraw,
    derive_stream,
    discrete_sigmas,
    sample_stationary_pair,
    stationary_sigmas,
    wiener_increment_coeffs,
)
from burgerslab.schemes import (
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
)
from burgerslab.spectral import SpectralField, sobolev_norm, sup_norm


def coupling_l2_distance_sq(scheme, eps, nu, K, n=1):
    """Exact E||psi_tilde - psi||_{L^2}^2 under the shared-draw coupling:
    the sum over two-sided modes and components of (sigma_tilde - sigma)^2."""
    d2 = (discrete_sigmas(scheme, eps, nu, K) - stationary_sigmas(K, nu)) ** 2
    return float(n * (d2[0] + 2.0 * np.sum(d2[1:])))


def wiener_increment(K, n, dt, rng):
    """One Wiener increment as a field."""
    return SpectralField(K, n, wiener_increment_coeffs(K, n, dt, rng))


class TestDeriveStream:
    def test_reproducible(self):
        a = derive_stream(42, 3, "ic").standard_normal(100)
        b = derive_stream(42, 3, "ic").standard_normal(100)
        assert np.array_equal(a, b)

    def test_replicates_independent(self):
        a = derive_stream(42, 0, "ic").standard_normal(10_000)
        b = derive_stream(42, 1, "ic").standard_normal(10_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_purposes_distinct(self):
        a = derive_stream(42, 0, "ic").standard_normal(5)
        b = derive_stream(42, 0, "wiener").standard_normal(5)
        assert not np.array_equal(a, b)


class TestStationaryPair:
    def test_identity_scheme_couples_exactly(self):
        pair = sample_stationary_pair(
            identity_scheme(1, 0), eps=0.1, nu=1.0, K=32, rng=derive_stream(1, 0, "ic")
        )
        assert np.array_equal(pair.psi.coeffs, pair.psi_tilde.coeffs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fields_are_built_from_the_draw_on_first_read(self, n):
        # the draw moves the stream when the pair is sampled; reading a field
        # draws nothing, and a second read returns the field already built
        scheme, eps, nu, K = finite_difference_scheme(1, 0), 0.05, 2.0, 64
        rng = derive_stream(n, 0, "lazy")
        pair = sample_stationary_pair(scheme, eps, nu, K, rng, n=n)
        after_draw = rng.bit_generator.state
        reference = derive_stream(n, 0, "lazy")
        ModeGaussianDraw.sample(K, n, reference)
        assert after_draw == reference.bit_generator.state
        for name, sigma in (
            ("psi_tilde", discrete_sigmas(scheme, eps, nu, K)),
            ("psi", stationary_sigmas(K, nu)),
        ):
            field = getattr(pair, name)
            assert rng.bit_generator.state == after_draw
            assert field.n == n and field.half.tobytes() == pair.draw.field(sigma).half.tobytes()
            assert getattr(pair, name) is field

    def test_stationary_sigmas_are_read_only(self):
        sigma = stationary_sigmas(16, 1.0)
        assert stationary_sigmas(16, 1.0) is sigma
        with pytest.raises(ValueError):
            sigma[1] = 0.0

    def test_mode_zero_variance_half(self):
        s = finite_difference_scheme(1, 0)
        assert abs(stationary_sigmas(8, nu=3.0)[0] ** 2 - 0.5) < 1e-15
        assert abs(discrete_sigmas(s, 0.1, 3.0, 8)[0] ** 2 - 0.5) < 1e-15

    def test_killed_modes_have_no_noise(self):
        s = galerkin_scheme(1, 0)
        sig = discrete_sigmas(s, 0.5, 1.0, 16)  # eps*k >= pi at k >= 7
        assert np.all(sig[7:] == 0.0)
        assert np.all(sig[:7] > 0.0)

    def test_discrete_mode_variance_formula(self):
        # 1e4 draws of mode 5 under the finite-difference symbols at eps = 0.1
        s = finite_difference_scheme(1, 0)
        rng = derive_stream(7, 0, "variance")
        K, k, nsamp = 8, 5, 10_000
        samples = np.empty(nsamp)
        for i in range(nsamp):
            pair = sample_stationary_pair(s, 0.1, 1.0, K, rng)
            samples[i] = np.abs(pair.psi_tilde.mode(k)[0]) ** 2
        f_half = 16.0 * np.sin(0.25) ** 2
        expected = 1.0 / (2.0 * (1.0 + 25.0 * f_half))
        se = np.std(samples, ddof=1) / np.sqrt(nsamp)
        assert abs(np.mean(samples) - expected) < 5.0 * se

    def test_variance_spectrum_matches_formula(self):
        # stationary spectrum mode by mode at 1e4 samples, 5 standard errors
        s = finite_difference_scheme(1, 0)
        K, nsamp = 12, 10_000
        sig = discrete_sigmas(s, 0.2, 1.0, K)
        rng = derive_stream(11, 0, "spectrum")
        draws = [sample_stationary_pair(s, 0.2, 1.0, K, rng).psi_tilde for _ in range(nsamp)]
        for k in (0, 1, 4, 9):
            vals = np.array([np.abs(d.mode(k)[0]) ** 2 for d in draws])
            se = np.std(vals, ddof=1) / np.sqrt(nsamp)
            assert abs(np.mean(vals) - sig[k] ** 2) < 5.0 * se, k


class TestCouplingContraction:
    def test_exact_identity_for_l2_distance(self):
        s = finite_difference_scheme(1, 0)
        K, eps, nu, nsamp = 64, 0.1, 1.0, 4000
        rng = derive_stream(3, 0, "contraction")
        vals = np.empty(nsamp)
        for i in range(nsamp):
            pair = sample_stationary_pair(s, eps, nu, K, rng)
            vals[i] = sobolev_norm(pair.psi_tilde - pair.psi, 0.0) ** 2
        exact = coupling_l2_distance_sq(s, eps, nu, K)
        se = np.std(vals, ddof=1) / np.sqrt(nsamp)
        assert abs(np.mean(vals) - exact) < 5.0 * se

    def test_envelope_with_stable_constant(self):
        # exact coupled distance obeys C * sum_k min(k^-2, eps^4 k^2) with C stable
        s = finite_difference_scheme(1, 0)
        K = 512
        ratios = []
        for eps in (0.1, 0.05, 0.025):
            exact = coupling_l2_distance_sq(s, eps, 1.0, K)
            k = np.arange(1, K + 1, dtype=float)
            envelope = 2.0 * np.sum(np.minimum(k**-2.0, eps**4 * k**2))
            ratios.append(exact / envelope)
        assert max(ratios) <= 1.0  # the envelope dominates outright here
        assert max(ratios) / min(ratios) < 1.5  # and the fitted constant is stable

    def test_sup_difference_scaling_smoke(self):
        # light version of the ensemble scaling study (full one in acceptance)
        s = finite_difference_scheme(1, 0)
        K = 256
        means = []
        eps_list = (0.125, 0.0625, 0.03125)
        for i, eps in enumerate(eps_list):
            rng = derive_stream(5, i, "slope")
            vals = [
                sup_norm(p.psi_tilde - p.psi)
                for p in (sample_stationary_pair(s, eps, 1.0, K, rng) for _ in range(60))
            ]
            means.append(np.mean(vals))
        slope = np.polyfit(np.log(eps_list), np.log(means), 1)[0]
        assert 0.3 < slope < 0.7


class TestWienerIncrement:
    def test_variance(self):
        rng = derive_stream(9, 0, "w")
        dt, nsamp = 0.01, 10_000
        vals = np.array(
            [np.abs(wiener_increment(6, 1, dt, rng).mode(3)[0]) ** 2 for i in range(nsamp)]
        )
        se = np.std(vals, ddof=1) / np.sqrt(nsamp)
        assert abs(np.mean(vals) - dt) < 5.0 * se


def test_draw_field_shape_checks():
    draw = ModeGaussianDraw.sample(4, 1, derive_stream(0, 0, "x"))
    with pytest.raises(ValueError):
        draw.field(np.ones(3))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 7, 1024])
def test_half_coeffs_bytes_match_the_complex_expression(n, K):
    # the in-place assembly must give the bytes of the plain expression,
    # signs of zeros included (sigma has zeros, of either sign)
    rng = np.random.default_rng(1000 * n + K)
    draw = ModeGaussianDraw.sample(K, n, derive_stream(n, K, "bytes"))
    for scale in (1e-3, 1.0, 1e3):
        sigma = scale * rng.uniform(0.0, 2.0, K + 1)
        sigma[rng.random(K + 1) < 0.3] = 0.0
        sigma[rng.random(K + 1) < 0.1] *= -1.0
        zre, zim = draw.zz[:, :, 0], draw.zz[:, :, 1]
        expected = np.empty((n, K + 1), dtype=np.complex128)
        expected[:, 0] = sigma[0] * draw.z0
        expected[:, 1:] = sigma[1:] * (zre + 1j * zim) / np.sqrt(2.0)
        assert draw.half_coeffs(sigma).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 7, 1024])
def test_one_call_sample_bytes_match_the_two_call_draw(n, K):
    # the mode-0 normals, then the (n, K, 2) pairs, drawn by two calls
    got = ModeGaussianDraw.sample(K, n, derive_stream(n, K, "one-call"))
    rng = derive_stream(n, K, "one-call")
    z0 = rng.standard_normal(n)
    zz = rng.standard_normal((n, K, 2))
    assert got.z0.shape == (n,) and got.zz.shape == (n, K, 2) and got.zz.flags.c_contiguous
    assert got.z0.tobytes() == z0.tobytes() and got.zz.tobytes() == zz.tobytes()
    sigma = stationary_sigmas(K, 1.0)
    want = ModeGaussianDraw(K, n, z0, zz).half_coeffs(sigma)
    assert got.half_coeffs(sigma).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 7, 1024])
def test_wiener_increment_bytes_match_the_per_mode_sigma(n, K):
    # the scalar sqrt(dt) must give the bytes of the per-mode sigma array
    for seed, dt in enumerate((1e-6, 2.5e-4, 0.3)):
        got = wiener_increment_coeffs(K, n, dt, derive_stream(seed, K, "w"))
        draw = ModeGaussianDraw.sample(K, n, derive_stream(seed, K, "w"))
        assert got.tobytes() == draw.half_coeffs(np.full(K + 1, np.sqrt(dt))).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("K", [1, 7, 128])
def test_increment_into_a_given_array_is_the_allocating_call(n, K):
    # one buffer, written again by every draw, as simulate owns it: each call
    # returns it, holding the bytes of the allocating call on the same stream
    buf = np.full((n, K + 1), np.nan + 1j * np.nan)
    got, want = derive_stream(n, K, "out"), derive_stream(n, K, "out")
    for dt in (1e-6, 2.5e-4, 0.3):
        assert wiener_increment_coeffs(K, n, dt, got, out=buf) is buf
        assert buf.tobytes() == wiener_increment_coeffs(K, n, dt, want).tobytes()
    draw = ModeGaussianDraw.sample(K, n, got)
    sigma = stationary_sigmas(K, 1.0).copy()
    sigma[::2] = 0.0
    assert draw.half_coeffs(sigma, out=buf) is buf
    assert buf.tobytes() == draw.half_coeffs(sigma).tobytes()


def test_scalar_sigma_is_the_constant_array():
    draw = ModeGaussianDraw.sample(9, 2, derive_stream(0, 0, "s"))
    for sigma in (0.0, -0.0, 0.7, -2.5):
        assert draw.half_coeffs(sigma).tobytes() == draw.half_coeffs(np.full(10, sigma)).tobytes()


@pytest.mark.parametrize("K", [1, 7, 1024])
def test_stacked_draw_rows_are_the_draws(K):
    # a chunk of draws stacked into one gives each draw's coefficients, row
    # by row and byte for byte, also on modes whose sigma is zero
    rng = derive_stream(3, K, "stack")
    draws = [ModeGaussianDraw.sample(K, n, rng) for n in (1, 2, 1)]
    stacked = ModeGaussianDraw.stack(draws)
    assert (stacked.K, stacked.n) == (K, 4) and stacked.zz.flags.c_contiguous
    sigma = np.random.default_rng(K).uniform(0.0, 1.0, K + 1)
    sigma[::3] = 0.0
    assert stacked.half_coeffs(sigma).tobytes() == np.concatenate([d.half_coeffs(sigma) for d in draws]).tobytes()
