import numpy as np
import pytest

from burgerslab.estimators import quadratic_variation
from burgerslab.integrator import (
    BlowUpError,
    SimConfig,
    Stepper,
    initial_conditions,
    resolve_lambda,
    run_coupled,
    sample_steps,
    simulate,
)
from burgerslab.noise import derive_stream, sample_stationary_pair
from burgerslab.nonlin import (
    PolynomialMap,
    apply_bilinear,
    apply_pointwise,
    evaluate,
    jacobian,
    parse_polynomial_map,
)
from burgerslab.schemes import finite_difference_scheme, galerkin_scheme, identity_scheme
from burgerslab.spectral import (
    SQRT_2PI,
    SpectralField,
    coeffs_to_values,
    sup_norm,
    values_to_coeffs,
)
from conftest import random_field


def make_cfg(**kw):
    base = dict(
        nu=1.0,
        n=1,
        K=16,
        dt=1e-3,
        T=0.1,
        eps=0.125,
        scheme=identity_scheme(1, 0),
        F=PolynomialMap.zero(1),
        G=parse_polynomial_map("0.5*u1^2", 1),
        lambda_mode="closed_form",
        seed=7,
        sample_every=20,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_rejects_fractional_step_count(self):
        with pytest.raises(ValueError, match="integral"):
            make_cfg(T=0.0505)

    def test_embeds_small_v0(self):
        v0 = SpectralField.from_modes(K=2, entries={1: 0.5j})
        cfg = make_cfg(v0=v0)
        assert cfg.v0.K == cfg.K
        assert cfg.v0.mode(1)[0] == 0.5j

    def test_resolve_lambda_modes(self):
        assert resolve_lambda(make_cfg(lambda_mode="zero"))[0] == 0.0
        assert resolve_lambda(make_cfg(lambda_mode="explicit", lambda_value=0.3))[0] == 0.3
        assert abs(resolve_lambda(make_cfg(lambda_mode="closed_form"))[0] - 0.25) < 1e-12
        quad = resolve_lambda(make_cfg(lambda_mode="quadrature"))[0]
        assert abs(quad - 0.25) < 1e-8


class TestInitialConditions:
    def test_identity_scheme_matches_exactly(self):
        cfg = make_cfg()
        pair = sample_stationary_pair(
            cfg.scheme, cfg.eps, cfg.nu, cfg.K, derive_stream(1, 0, "ic")
        )
        u_eps0, u_bar0 = initial_conditions(cfg, pair)
        assert np.array_equal(u_eps0.coeffs, u_bar0.coeffs)

    def test_zero_profile_gives_pair_difference(self):
        cfg = make_cfg(scheme=finite_difference_scheme(1, 0), lambda_mode="quadrature")
        pair = sample_stationary_pair(
            cfg.scheme, cfg.eps, cfg.nu, cfg.K, derive_stream(1, 1, "ic")
        )
        u_eps0, u_bar0 = initial_conditions(cfg, pair)
        diff = u_eps0 - u_bar0
        want = pair.psi_tilde - pair.psi
        assert np.max(np.abs(diff.coeffs - want.coeffs)) < 1e-15


class TestStep:
    def test_pure_heat_decay(self, rng):
        # F = G = 0 and no noise: the semigroup factor is exact per mode
        cfg = make_cfg(G=PolynomialMap.zero(1), variant="limit_uncorrected", T=0.05)
        u = random_field(rng, cfg.K)
        stepper = Stepper(cfg, 0.0)
        c = u.coeffs.copy()
        for _ in range(cfg.n_steps):
            c = stepper.step_coeffs(c, 0.0)
        k = u.modes.astype(float)
        exact = u.coeffs * np.exp(-cfg.nu * k**2 * cfg.T)[None, :]
        assert np.max(np.abs(c - exact)) < 1e-12

    def test_constant_drift_grows_mean_mode(self):
        c_drift = 0.8
        cfg = make_cfg(
            F=parse_polynomial_map(f"{c_drift}", 1),
            G=PolynomialMap.zero(1),
            variant="limit_uncorrected",
        )
        stepper = Stepper(cfg, 0.0)
        c = SpectralField.zeros(cfg.K).coeffs
        c1 = stepper.step_coeffs(c, 0.0)
        assert abs(c1[0, cfg.K] - c_drift * SQRT_2PI * cfg.dt) < 1e-15
        c2 = stepper.step_coeffs(c1, 0.0)
        assert abs(c2[0, cfg.K] - 2 * c_drift * SQRT_2PI * cfg.dt) < 1e-15

    def test_linear_drift_matches_exact_exponential(self):
        # F(u) = -u, single mode: the iterate tracks exp(-(nu k^2 + 1) t)
        cfg = make_cfg(
            F=parse_polynomial_map("-u1", 1),
            G=PolynomialMap.zero(1),
            variant="limit_uncorrected",
            dt=1e-3,
            T=0.1,
        )
        k = 2
        u = SpectralField.from_modes(K=cfg.K, entries={k: 0.4 - 0.1j})
        stepper = Stepper(cfg, 0.0)
        c = u.coeffs.copy()
        for _ in range(100):
            c = stepper.step_coeffs(c, 0.0)
        exact = (0.4 - 0.1j) * np.exp(-(cfg.nu * k**2 + 1.0) * 0.1)
        assert abs(c[0, cfg.K + k] - exact) / abs(exact) < 1e-3

    def test_killed_modes_forced_to_zero(self, rng):
        # finite-difference symbols kill modes with eps*|k| >= pi outright
        cfg = make_cfg(scheme=finite_difference_scheme(1, 0), eps=0.5, variant="approximate",
                       lambda_mode="zero")
        u = random_field(rng, cfg.K)
        stepper = Stepper(cfg, 0.0)
        c = stepper.step_coeffs(u.coeffs, 0.0)
        killed = np.abs(u.modes) >= np.pi / cfg.eps
        assert np.all(c[:, killed] == 0.0)

    def test_blowup_detection(self):
        cfg = make_cfg(F=parse_polynomial_map("u1^3", 1), G=PolynomialMap.zero(1),
                       variant="limit_uncorrected", dt=0.5, T=50.0, sample_every=100)
        huge = SpectralField.constant(1e160, cfg.K)
        with pytest.raises(BlowUpError):
            simulate(cfg, 0.0, huge, derive_stream(0, 0, "w"))

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected"])
    def test_blowup_through_flux_transforms(self, rng, variant):
        # the state overflows inside the stacked transforms; it must surface
        # as BlowUpError, not as a reality-check ValueError
        cfg = make_cfg(F=parse_polynomial_map("u1^3", 1), variant=variant, dt=0.5, T=50.0,
                       sample_every=100)
        huge = random_field(rng, cfg.K) * 1e160
        with pytest.raises(BlowUpError):
            simulate(cfg, 0.25, huge, derive_stream(0, 0, "w"))


def separate_transforms_nonlinearity(stepper, coeffs, M=None):
    """Drift-plus-flux term with one transform per array, as a reference for
    the stacked transforms of Stepper.nonlinearity; M overrides the grid."""
    cfg, M = stepper.cfg, M or stepper.M
    grid = coeffs_to_values(coeffs, M)
    drift = values_to_coeffs(evaluate(stepper.drift, grid), cfg.K)
    if cfg.variant != "approximate":
        flux = values_to_coeffs(evaluate(cfg.G, grid), cfg.K)
        return drift + stepper.ik[None, :] * flux
    dgrid = coeffs_to_values(coeffs * stepper.d_mult[None, :], M)
    total = np.zeros((cfg.n, M))
    for i in range(cfg.n):
        for j in range(cfg.n):
            total[i] += stepper.jac_G[i][j](grid) * dgrid[j]
    return drift + values_to_coeffs(total, cfg.K)


class TestStackedNonlinearity:
    MAPS = {
        (1, False): ("0", "0.5*u1^2"),
        (1, True): ("-u1 + 0.3*u1^3", "0.5*u1^2"),
        (2, False): ("0; 0", "0.5*u1^2 + 0.5*u2^2; u1*u2"),
        (2, True): ("-u1; 0.2 - u2^2", "0.5*u1^2 + u2; 0.25*u2^2 + u1"),
    }

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("with_drift", [False, True])
    def test_matches_separate_transforms(self, rng, variant, n, with_drift):
        F, G = self.MAPS[(n, with_drift)]
        cfg = make_cfg(
            n=n,
            K=20,
            scheme=finite_difference_scheme(1, 0),
            F=parse_polynomial_map(F, n),
            G=parse_polynomial_map(G, n),
            lambda_mode="quadrature",
            variant=variant,
        )
        stepper = Stepper(cfg, 0.3)
        coeffs = random_field(rng, cfg.K, n=n, decay=1.5).coeffs
        got = stepper.nonlinearity(coeffs)
        ref = separate_transforms_nonlinearity(stepper, coeffs)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(got - ref)) < 1e-12


class TestAliasFreeNonlinearity:
    @pytest.mark.parametrize(
        "variant, F, G",
        [
            ("limit_uncorrected", "u1^4 - u1", "0"),
            ("limit_uncorrected", "0.5*u1^5", "0"),
            ("approximate", "0", "0.25*u1^4"),
            ("limit_corrected", "0", "0.25*u1^4"),
        ],
    )
    def test_matches_oversampled_reference(self, rng, variant, F, G):
        # the grid follows the degree of F and G; a fixed ratio of 2 (M = 99
        # at K = 20) aliases degree 4 and 5 at the 1e-3 level
        cfg = make_cfg(
            K=20,
            scheme=finite_difference_scheme(1, 0),
            F=parse_polynomial_map(F, 1),
            G=parse_polynomial_map(G, 1),
            lambda_mode="quadrature",
            variant=variant,
        )
        stepper = Stepper(cfg, 0.3)
        coeffs = random_field(rng, cfg.K, decay=1.0).coeffs
        got = stepper.nonlinearity(coeffs)
        ref = separate_transforms_nonlinearity(stepper, coeffs, M=8 * (2 * cfg.K + 1) + 1)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


class TestConservativeConsistency:
    def test_exact_derivative_chain_rule(self, rng):
        # for the true derivative, d/dx G(u) == grad G(u) . u_x on the band
        G = parse_polynomial_map("0.5*u1^2", 1)
        u = random_field(rng, K=24, decay=1.5)
        ik = 1j * u.modes.astype(complex)
        conservative = apply_pointwise(G, u).apply_multiplier(ik)
        nonconservative = apply_bilinear(jacobian(G), u, u.apply_multiplier(ik))
        assert np.max(np.abs(conservative.coeffs - nonconservative.coeffs)) < 1e-10


class TestRunCoupled:
    def test_zero_lambda_makes_limits_identical(self):
        cfg = make_cfg(lambda_mode="zero", T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25, 0.125], replicates=2)
        for rec in res.records:
            assert np.array_equal(rec.sup_err_corrected, rec.sup_err_uncorrected)
            assert np.array_equal(rec.halpha_err_corrected, rec.halpha_err_uncorrected)

    def test_no_flux_collapses_all_variants(self):
        # identity scheme and G = 0: discretized and limit dynamics coincide
        cfg = make_cfg(G=PolynomialMap.zero(1), F=parse_polynomial_map("-u1", 1),
                       T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25], replicates=2)
        for rec in res.records:
            assert np.all(rec.sup_err_corrected == 0.0)
            assert np.all(rec.sup_err_uncorrected == 0.0)

    def test_worker_count_does_not_change_results(self):
        cfg = make_cfg(T=0.02, sample_every=5, scheme=finite_difference_scheme(1, 0),
                       lambda_mode="quadrature")
        res1 = run_coupled(cfg, [0.25, 0.125], replicates=3, workers=1)
        res2 = run_coupled(cfg, [0.25, 0.125], replicates=3, workers=2)
        assert len(res1.records) == len(res2.records)
        for a, b in zip(res1.records, res2.records):
            assert a.eps == b.eps and a.replicate == b.replicate
            assert np.array_equal(a.sup_err_corrected, b.sup_err_corrected)
            assert np.array_equal(a.halpha_err_uncorrected, b.halpha_err_uncorrected)

    def test_seed_changes_results(self):
        cfg = make_cfg(T=0.02, sample_every=5)
        res1 = run_coupled(cfg, [0.25], replicates=1)
        cfg2 = make_cfg(T=0.02, sample_every=5, seed=8)
        res2 = run_coupled(cfg2, [0.25], replicates=1)
        assert not np.array_equal(
            res1.records[0].sup_err_uncorrected, res2.records[0].sup_err_uncorrected
        )

    def test_two_component_smoke(self):
        cfg = make_cfg(
            n=2,
            F=parse_polynomial_map("0; 0", 2),
            G=parse_polynomial_map("0.5*u1^2 + u2; 0.25*u2^2", 2),
            lambda_mode="quadrature",
            T=0.01,
            sample_every=5,
            K=12,
        )
        res = run_coupled(cfg, [0.25], replicates=1)
        rec = res.records[0]
        assert not rec.blown_up
        assert np.all(np.isfinite(rec.sup_err_corrected))
        assert rec.diagnostics["theta_eps_final"] > 0.0

    def test_mean_curves_and_summary_shapes(self):
        cfg = make_cfg(T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25, 0.125], replicates=3)
        curves = res.mean_curves(0.125)
        assert curves["t"].shape == curves["sup_err_corrected"].shape
        rows = res.summary()
        assert [r["eps"] for r in rows] == [0.25, 0.125]
        assert all(r["n_ok"] == 3 and r["n_blowup"] == 0 for r in rows)


class TestSolutionRoughness:
    @pytest.mark.slow
    def test_limit_solution_quadratic_variation(self):
        # The limit solution keeps the spatial roughness of its stationary
        # start: grid quadratic variation on a coarse grid sits near pi/nu.
        #
        # Finite resolution biases the measurement down: a band limit K and
        # grid size M cap it near pi(1 - 1/M) - 2M/(pi K).  The
        # variance-exact noise factor makes the per-mode stationary law
        # step-size independent, so moderate dt suffices; measurements are
        # averaged over the stationary stretch of each trajectory.
        cfg = make_cfg(
            K=768,
            dt=2e-4,
            T=0.42,
            sample_every=100,
            variant="limit_corrected",
            lambda_mode="closed_form",
        )
        M_qv = 64
        qvs = []
        for rep in range(16):
            pair = sample_stationary_pair(
                cfg.scheme, cfg.eps, cfg.nu, cfg.K, derive_stream(cfg.seed, rep, "ic")
            )
            _, u_bar0 = initial_conditions(cfg, pair)
            rng = derive_stream(cfg.seed, rep, "wiener")
            times, snaps = simulate(cfg, 0.25, u_bar0, rng)
            vals = [
                float(quadratic_variation(SpectralField(cfg.K, 1, c), M_qv)[0])
                for t, c in zip(times, snaps)
                if t >= 0.1 - 1e-12
            ]
            qvs.append(np.mean(vals))
        mean_qv = np.mean(qvs)
        assert abs(mean_qv - np.pi / cfg.nu) / (np.pi / cfg.nu) < 0.10, mean_qv


def test_sample_steps_includes_endpoints():
    cfg = make_cfg(T=0.1, dt=1e-3, sample_every=30)
    steps = sample_steps(cfg)
    assert steps[0] == 0
    assert steps[-1] == 100
