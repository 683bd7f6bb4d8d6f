import numpy as np
import pytest

from burgerslab.correction import lambda_eps, lambda_eps_y
from burgerslab.estimators import (
    chain_rule_defect,
    difference_grids,
    expected_qv,
    mean_stderr,
    negative_sobolev_distance,
    negative_sobolev_distances,
    quadratic_variation,
    rate_fit,
    spatial_means,
    xi_eps,
    xi_eps_y,
    xi_halves,
)
from burgerslab.noise import derive_stream, discrete_sigmas, sample_stationary_pair
from burgerslab.nonlin import alias_free_grid_size, apply_bilinear, apply_pointwise, jacobian, parse_polynomial_map
from burgerslab.schemes import (
    apply_D_eps,
    finite_difference_scheme,
    identity_scheme,
    shift_minus,
)
from burgerslab.spectral import (
    SQRT_2PI,
    SpectralField,
    band_project,
    from_grid,
    sobolev_norm,
    to_grid,
)
from conftest import random_field


class TestXi:
    def test_constant_field_zero_matrix(self):
        u = SpectralField.constant(2.0, K=5)
        A = xi_eps(u, identity_scheme(1, 0), 0.1)
        assert np.all(spatial_means(A) == 0.0)
        assert np.all(A[0, 0] == 0.0)

    def test_symmetric_measure_cancels_on_single_mode(self):
        # a = b: the two atoms contribute equal spatial means with opposite
        # weights, so the mean of the weighted tensor cancels exactly
        u = SpectralField.from_modes(K=5, entries={3: 0.8 - 0.1j})
        A = xi_eps(u, identity_scheme(1, 1), 0.2)
        assert abs(spatial_means(A)[0, 0]) < 1e-14

    def test_single_mode_spatial_mean_closed_form(self):
        # spatial mean of (1/(2 eps)) |d(x)|^2 for u = c e_k + conj is
        # 2 |c m_k|^2 / (2 pi) with m_k = e^{i k eps y} - 1, summed over atoms
        eps, k, c = 0.17, 3, 0.6 + 0.2j
        u = SpectralField.from_modes(K=8, entries={k: c})
        s = identity_scheme(2, 1)
        A = xi_eps(u, s, eps)
        want = 0.0
        for y, w in s.mu:
            m = np.exp(1j * k * eps * y) - 1.0
            want += w / (2.0 * eps) * 2.0 * abs(c * m) ** 2 / (2.0 * np.pi)
        assert abs(spatial_means(A)[0, 0] - want) < 1e-10

    def test_per_atom_expectation_matches_mode_sum(self):
        # E of the per-atom spatial mean over the band-projected stationary
        # sample equals the corresponding finite-resolution mode sum
        s = finite_difference_scheme(1, 0)
        eps, gamma, chi, nu = 0.02, 1.0 / 3.0, 1.5, 1.0
        K = int(np.ceil(eps**-chi))
        rng = derive_stream(31, 0, "xi")
        nsamp = 200
        vals = np.empty(nsamp)
        for i in range(nsamp):
            psit = sample_stationary_pair(s, eps, nu, K, rng).psi_tilde
            band = band_project(psit, eps**-gamma, eps**-chi)
            vals[i] = spatial_means(xi_eps_y(band, 1.0, eps))[0, 0]
        target = lambda_eps_y(s, eps, gamma, chi, nu, 1.0)
        se = np.std(vals, ddof=1) / np.sqrt(nsamp)
        assert abs(np.mean(vals) - target) < 5.0 * se

    def test_two_component_off_diagonals_centered_at_zero(self):
        s = finite_difference_scheme(1, 0)
        eps, nu, K = 0.05, 1.0, 80
        rng = derive_stream(32, 0, "xi2")
        nsamp = 150
        vals = np.empty(nsamp)
        for i in range(nsamp):
            psit = sample_stationary_pair(s, eps, nu, K, rng, n=2).psi_tilde
            band = band_project(psit, eps ** (-1.0 / 3.0), K)
            A = xi_eps(band, s, eps)
            vals[i] = spatial_means(A)[0, 1]
        se = np.std(vals, ddof=1) / np.sqrt(nsamp)
        assert abs(np.mean(vals)) < 5.0 * se


def _xi_reference(u, atoms, eps):
    """Entries of the weighted tensor, one entry field at a time, with the
    arithmetic of the per-entry implementation the stacked form replaced."""
    M = alias_free_grid_size(u.K, 2)
    acc = np.zeros((u.n, u.n, M))
    for y, w in atoms:
        if w == 0.0 or y == 0.0:
            continue
        d = to_grid(shift_minus(u, eps * y), M)
        acc += (w / (2.0 * eps)) * d[:, None, :] * d[None, :, :]
    return [[from_grid(acc[i, j][None, :], u.K) for j in range(u.n)] for i in range(u.n)]


def _distance_reference(entries, c, alpha):
    total = 0.0
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            total += sobolev_norm(SpectralField.constant(c if i == j else 0.0, e.K) - e, -alpha) ** 2
    return float(np.sqrt(total))


class TestStackedForms:
    """The stacked tensors and distances give every row the bytes of the
    one-row calls, and of the per-entry reference arithmetic."""

    # atoms (2, 1/3) and (-1, -1/3): two live atoms, neither weight 1; modes
    # above pi/eps have zero sigma, and the band (3, 36] holds 32..36 of them
    scheme = finite_difference_scheme(2, 1)
    eps, K, n = 0.1, 40, 2

    def fields(self):
        sigma = discrete_sigmas(self.scheme, self.eps, 1.0, self.K)
        assert np.all(sigma[32:37] == 0.0) and np.all(sigma[4:32] > 0.0)
        rng = derive_stream(5, 0, "stacked")
        draws = [sample_stationary_pair(self.scheme, self.eps, 1.0, self.K, rng, n=self.n) for _ in range(2)]
        return [band_project(pair.psi_tilde, 3, 36) for pair in draws]

    @staticmethod
    def same(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_xi_rows_are_the_one_row_calls(self):
        fields = self.fields()
        half = np.stack([u.half for u in fields])
        grids = difference_grids(half, self.scheme.mu, self.eps)
        assert [(y, w) for y, w, _ in grids] == list(self.scheme.mu)
        xi = xi_halves(half.shape, grids, self.eps)
        assert xi.shape == (2, self.n, self.n, self.K + 1)
        for r, u in enumerate(fields):
            one_row = xi_eps(u, self.scheme, self.eps)
            assert one_row.shape == (self.n, self.n, self.K + 1)
            assert self.same(xi[r], one_row)
            assert self.same(xi[r], [[e.half[0] for e in row] for row in _xi_reference(u, self.scheme.mu, self.eps)])
            assert self.same(spatial_means(xi)[r], spatial_means(one_row))
        for y, _, d in grids:
            single = xi_halves(half.shape, [(y, 1.0, d)], self.eps)
            for r, u in enumerate(fields):
                one_row = xi_eps_y(u, y, self.eps)
                assert one_row.shape == (self.n, self.n, self.K + 1)
                assert self.same(single[r], one_row)
                assert self.same(single[r], [[e.half[0] for e in row] for row in _xi_reference(u, ((y, 1.0),), self.eps)])
                assert self.same(spatial_means(single)[r], spatial_means(one_row))

    def test_distance_rows_are_the_one_row_calls(self):
        fields = self.fields()
        half = np.stack([u.half for u in fields])
        xi = xi_halves(half.shape, difference_grids(half, self.scheme.mu, self.eps), self.eps)
        dists = negative_sobolev_distances(xi, 0.3, 0.75)
        assert dists.shape == (2,)
        for r, u in enumerate(fields):
            A = xi_eps(u, self.scheme, self.eps)
            assert self.same(dists[r], negative_sobolev_distance(A, 0.3, 0.75))
            entries = [[SpectralField(u.K, 1, A[i, j][None]) for j in range(self.n)] for i in range(self.n)]
            assert self.same(dists[r], _distance_reference(entries, 0.3, 0.75))

    def test_no_live_atom_gives_the_zero_tensor(self):
        u = self.fields()[0]
        assert difference_grids(u.half[None], ((0.0, 1.0), (1.0, 0.0)), self.eps) == []
        assert np.all(xi_eps_y(u, 0.0, self.eps) == 0.0)

    def test_eps_must_be_positive(self):
        u = self.fields()[0]
        with pytest.raises(ValueError):
            difference_grids(u.half[None], self.scheme.mu, 0.0)


class TestChainRuleDefect:
    @pytest.mark.parametrize(
        "scheme", [identity_scheme(1, 0), identity_scheme(2, 1), finite_difference_scheme(1, 0)]
    )
    def test_quadratic_identity_scalar(self, rng, scheme):
        # for degree-2 G the third-order remainder vanishes identically:
        # D_eps G(u) - grad G(u) . D_eps u equals the second-order term exactly
        G = parse_polynomial_map("0.5*u1^2", 1)
        u = random_field(rng, K=24)
        eps = 0.11
        lhs = apply_D_eps(scheme, apply_pointwise(G, u), eps) - apply_bilinear(
            jacobian(G), u, apply_D_eps(scheme, u, eps)
        )
        rhs = chain_rule_defect(G, u, scheme, eps)
        assert np.max(np.abs(lhs.half - rhs.half)) < 1e-10

    def test_quadratic_identity_two_components(self, rng):
        G = parse_polynomial_map("u1*u2 + 0.3*u1^2; u2^2 - u1", 2)
        u = random_field(rng, K=16, n=2)
        s = identity_scheme(1, 0)
        eps = 0.09
        lhs = apply_D_eps(s, apply_pointwise(G, u), eps) - apply_bilinear(
            jacobian(G), u, apply_D_eps(s, u, eps)
        )
        rhs = chain_rule_defect(G, u, s, eps)
        assert np.max(np.abs(lhs.half - rhs.half)) < 1e-10

    def test_linear_flux_has_no_defect(self, rng):
        G = parse_polynomial_map("2*u1", 1)
        u = random_field(rng, K=10)
        d = chain_rule_defect(G, u, identity_scheme(1, 0), 0.1)
        assert np.max(np.abs(d.half)) < 1e-14


class TestQuadraticVariation:
    def test_constant_field(self):
        u = SpectralField.constant(4.0, K=8)
        assert np.all(quadratic_variation(u, 64) == 0.0)

    def test_monte_carlo_matches_exact_sum(self):
        # 200 stationary samples vs the exact expectation, 5 standard errors
        K, M, nu, nsamp = 512, 2048, 1.0, 200
        rng = derive_stream(41, 0, "qv")
        s = identity_scheme(1, 0)
        vals = np.empty(nsamp)
        for i in range(nsamp):
            psi = sample_stationary_pair(s, 0.1, nu, K, rng).psi
            vals[i] = quadratic_variation(psi, M)[0]
        exact = expected_qv(nu, K, M)
        se = np.std(vals, ddof=1) / np.sqrt(nsamp)
        assert abs(np.mean(vals) - exact) < 5.0 * se

    def test_expected_qv_approaches_circle_total(self):
        # pi/nu on a coarse grid relative to the band (full roughness seen)
        val = expected_qv(1.0, K=8192, M=2048)
        assert abs(val - np.pi) / np.pi < 0.03

    def test_expected_qv_small_when_grid_resolves_band(self):
        # sampling finer than the band sees a smooth function: QV shrinks
        assert expected_qv(1.0, K=64, M=4096) < 0.2


class TestNegativeSobolev:
    def test_exact_match_is_zero(self):
        e = SpectralField.constant(0.7, K=5)
        assert negative_sobolev_distance(e.half[None], 0.7, 0.75) < 1e-15

    def test_mean_mode_perturbation(self):
        delta, n = 0.3, 2
        half = np.zeros((n, n, 5), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                c = (1.0 if i == j else 0.0) + (delta if i == j else 0.0)
                half[i, j] = SpectralField.constant(c, K=4).half[0]
        got = negative_sobolev_distance(half, 1.0, 0.75)
        assert abs(got - delta * SQRT_2PI * np.sqrt(n)) < 1e-12

    def test_requires_alpha_above_half(self):
        e = SpectralField.constant(0.0, K=2)
        with pytest.raises(ValueError):
            negative_sobolev_distance(e.half[None], 0.0, 0.5)


class TestMeanStderr:
    def test_mean_needs_one_value_and_stderr_two(self):
        assert mean_stderr([]) == (None, None)
        assert mean_stderr(np.array([3.0])) == (3.0, None)
        x = [0.3, 0.5, 1.7]
        assert mean_stderr(x) == (float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(3)))


class TestRateFit:
    def test_exact_line(self):
        eps = np.array([0.1, 0.05, 0.025, 0.0125])
        slope, intercept, residual = rate_fit(eps, eps)
        assert abs(slope - 1.0) < 1e-12
        assert abs(intercept) < 1e-12
        assert residual < 1e-12

    def test_square_root_rate(self):
        eps = np.array([0.2, 0.1, 0.05])
        slope, _, _ = rate_fit(eps, 3.0 * np.sqrt(eps))
        assert abs(slope - 0.5) < 1e-12

    def test_noisy_square_root(self, rng):
        eps = np.array([0.4, 0.2, 0.1, 0.05, 0.025, 0.0125])
        errs = np.sqrt(eps) * (1.0 + 0.05 * rng.standard_normal(eps.size))
        slope, _, _ = rate_fit(eps, errs)
        assert 0.4 <= slope <= 0.6

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            rate_fit([0.1, 0.2], [1.0, 2.0])
        with pytest.raises(ValueError):
            rate_fit([0.1, 0.2, -0.3], [1.0, 2.0, 3.0])
