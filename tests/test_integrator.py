import json
from dataclasses import replace

import numpy as np
import pytest

from burgerslab.estimators import quadratic_variation
from burgerslab.integrator import (
    BlowUpError,
    EnsembleResult,
    SimConfig,
    Stepper,
    resolve_lambda,
    run_coupled,
    sample_steps,
    simulate,
    TrajectoryRecord,
)
from burgerslab.noise import derive_stream, sample_stationary_pair, wiener_increment_coeffs
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
    mirror,
    sobolev_norm,
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


class TestStep:
    # the stepper's state is the half spectrum: modes 0..K of the field

    def test_pure_heat_decay(self, rng):
        # F = G = 0 and no noise: the semigroup factor is exact per mode
        cfg = make_cfg(G=PolynomialMap.zero(1), variant="limit_uncorrected", T=0.05)
        u = random_field(rng, cfg.K)
        stepper = Stepper(cfg, 0.0)
        c = u.half.copy()
        for _ in range(cfg.n_steps):
            c = stepper.step_coeffs(c, 0.0)
        k = np.arange(cfg.K + 1, dtype=float)
        exact = u.half * np.exp(-cfg.nu * k**2 * cfg.T)[None, :]
        assert np.max(np.abs(c - exact)) < 1e-12

    def test_constant_drift_grows_mean_mode(self):
        c_drift = 0.8
        cfg = make_cfg(
            F=parse_polynomial_map(f"{c_drift}", 1),
            G=PolynomialMap.zero(1),
            variant="limit_uncorrected",
        )
        stepper = Stepper(cfg, 0.0)
        c = np.zeros((1, cfg.K + 1), dtype=np.complex128)
        c1 = stepper.step_coeffs(c, 0.0)
        assert abs(c1[0, 0] - c_drift * SQRT_2PI * cfg.dt) < 1e-15
        c2 = stepper.step_coeffs(c1, 0.0)
        assert abs(c2[0, 0] - 2 * c_drift * SQRT_2PI * cfg.dt) < 1e-15

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
        c = u.half.copy()
        for _ in range(100):
            c = stepper.step_coeffs(c, 0.0)
        exact = (0.4 - 0.1j) * np.exp(-(cfg.nu * k**2 + 1.0) * 0.1)
        assert abs(c[0, k] - exact) / abs(exact) < 1e-3

    def test_killed_modes_forced_to_zero(self, rng):
        # finite-difference symbols kill modes with eps*|k| >= pi outright
        cfg = make_cfg(scheme=finite_difference_scheme(1, 0), eps=0.5, variant="approximate",
                       lambda_mode="zero")
        u = random_field(rng, cfg.K)
        stepper = Stepper(cfg, 0.0)
        c = stepper.step_coeffs(u.half, 0.0)
        killed = np.arange(cfg.K + 1) >= np.pi / cfg.eps
        assert killed.any() and np.all(c[:, killed] == 0.0)

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


def separate_transforms_nonlinearity(stepper, half, M=None):
    """Drift-plus-flux term with one transform per array, as a reference for
    the stacked transforms of Stepper.nonlinearity; takes and returns modes
    0..K, M overrides the grid."""
    cfg, M = stepper.cfg, M or stepper.M
    grid = coeffs_to_values(half, M)
    drift = values_to_coeffs(evaluate(stepper.drift, grid), cfg.K)
    if cfg.variant != "approximate":
        flux = values_to_coeffs(evaluate(cfg.G, grid), cfg.K)
        return drift + stepper.ik[None, :] * flux
    dgrid = coeffs_to_values(half * stepper.d_mult[None, :], M)
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
        half = random_field(rng, cfg.K, n=n, decay=1.5).half
        got = stepper.nonlinearity(half)
        ref = separate_transforms_nonlinearity(stepper, half)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(got - ref)) < 1e-12


class TestStepperBuffers:
    """The stepper owns its scratch arrays; one stepper shared by two runs
    must step each of them as a stepper of its own would, and what a step
    returns must survive the later steps."""

    MAPS = [(n, F, G) for (n, _), (F, G) in TestStackedNonlinearity.MAPS.items()] + [
        (1, "-u1 + 0.3*u1^3", "0"),
        (2, "-u1; 0.2 - u2^2", "0; 0"),
    ]

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("n, F, G", MAPS)
    def test_shared_stepper_matches_fresh_ones(self, rng, variant, n, F, G):
        cfg = make_cfg(n=n, K=20, eps=0.25, scheme=finite_difference_scheme(1, 0),
                       F=parse_polynomial_map(F, n), G=parse_polynomial_map(G, n),
                       lambda_mode="quadrature", variant=variant)
        shared = Stepper(cfg, 0.3)
        fresh = [Stepper(cfg, 0.3), Stepper(cfg, 0.3)]
        states = [random_field(rng, cfg.K, n=n, decay=1.5).half.copy() for _ in range(2)]
        refs = [c.copy() for c in states]
        w = derive_stream(5, 0, "wiener")
        kept = []  # every array returned, with its bytes when it was returned
        for _ in range(4):
            for r in range(2):
                dW = wiener_increment_coeffs(cfg.K, n, cfg.dt, w)
                N = shared.nonlinearity(states[r])
                kept.append((N, N.tobytes()))
                states[r] = shared.step_coeffs(states[r], dW)
                refs[r] = fresh[r].step_coeffs(refs[r], dW)
                kept.append((states[r], states[r].tobytes()))
                assert states[r].tobytes() == refs[r].tobytes()
        assert all(arr.tobytes() == before for arr, before in kept)


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
        half = random_field(rng, cfg.K, decay=1.0).half
        got = stepper.nonlinearity(half)
        ref = separate_transforms_nonlinearity(stepper, half, M=8 * (2 * cfg.K + 1) + 1)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def two_sided_simulate(cfg, lam, u0, rng):
    """Reference for simulate: the exponential-Euler loop on two-sided
    (n, 2K+1) arrays, with mirrored Wiener increments, the per-mode factors
    of the Stepper mirrored onto modes -K..K, and transforms that read modes
    0..K of the state and mirror their result."""
    st = Stepper(cfg, lam)
    n, K, M = cfg.n, cfg.K, st.M
    even = lambda a: np.concatenate([a[:0:-1], a])
    decay, phi1_dt, noise_fac = even(st.decay), even(st.phi1_dt), even(st.noise_fac)
    d_mult, ik = mirror(st.d_mult[None, :])[0], mirror(st.ik[None, :])[0]
    to_values = lambda c: coeffs_to_values(c[:, K:], M)
    to_coeffs = lambda v: mirror(values_to_coeffs(v, K))

    def nonlinearity(c):
        if st.drift_zero and st.G_zero:
            return 0.0
        if st.G_zero:
            return to_coeffs(evaluate(st.drift, to_values(c)))
        if cfg.variant == "approximate":
            both = to_values(np.concatenate([c, c * d_mult[None, :]]))
            grid, dgrid = both[:n], both[n:]
            total = np.zeros((n, M)) if st.drift_zero else evaluate(st.drift, grid)
            for i in range(n):
                for j in range(n):
                    if st.jac_G[i][j].terms:
                        total[i] += st.jac_G[i][j](grid) * dgrid[j]
            return to_coeffs(total)
        grid = to_values(c)
        flux = evaluate(cfg.G, grid)
        if st.drift_zero:
            return ik[None, :] * to_coeffs(flux)
        both = to_coeffs(np.concatenate([evaluate(st.drift, grid), flux]))
        return both[:n] + ik[None, :] * both[n:]

    sub = cfg.noise_substeps
    c = u0.coeffs.copy()
    snaps = {0: c.copy()}
    for m in range(1, cfg.n_steps + 1):
        dW = mirror(wiener_increment_coeffs(K, n, cfg.dt / sub, rng))
        for _ in range(sub - 1):
            dW = dW + mirror(wiener_increment_coeffs(K, n, cfg.dt / sub, rng))
        c = decay[None, :] * c + phi1_dt[None, :] * nonlinearity(c) + noise_fac[None, :] * dW
        snaps[m] = c.copy()
    return [snaps[m] for m in sample_steps(cfg)]


class TestHalfSpectrumStepping:
    def cfg(self, variant, n, substeps, killed, with_drift=True):
        F, G = TestStackedNonlinearity.MAPS[(n, with_drift)]
        # eps = 0.25 kills the finite-difference modes 13..16 of K = 16
        scheme = finite_difference_scheme(1, 0) if killed else identity_scheme(1, 0)
        return make_cfg(n=n, scheme=scheme, eps=0.25, F=parse_polynomial_map(F, n),
                        G=parse_polynomial_map(G, n), lambda_mode="quadrature", variant=variant,
                        noise_substeps=substeps, T=0.03, sample_every=7)

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("killed", [False, True], ids=["identity", "killed-modes"])
    @pytest.mark.parametrize("with_drift", [False, True])
    def test_snapshots_bitwise_equal_to_two_sided_loop(self, rng, variant, n, substeps, killed, with_drift):
        cfg = self.cfg(variant, n, substeps, killed, with_drift)
        u0 = random_field(rng, cfg.K, n=n, decay=1.5)
        times, half = simulate(cfg, 0.3, u0, derive_stream(3, 1, "wiener"))
        ref = two_sided_simulate(cfg, 0.3, u0, derive_stream(3, 1, "wiener"))
        assert len(ref) == len(sample_steps(cfg))
        assert half.shape == (len(ref), n, cfg.K + 1)
        for got, want in zip(half, ref):
            assert np.array_equal(mirror(got), want)
        if variant == "approximate" and killed:
            assert np.all(half[-1][:, 13:] == 0.0)

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected"])
    def test_mean_mode_stays_exactly_real(self, rng, variant):
        cfg = self.cfg(variant, 2, 1, killed=True)
        stepper = Stepper(cfg, 0.3)
        half = random_field(rng, cfg.K, n=2, decay=1.5).half.copy()
        w = derive_stream(3, 2, "wiener")
        for _ in range(cfg.n_steps):
            half = stepper.step_coeffs(half, wiener_increment_coeffs(cfg.K, 2, cfg.dt, w))
            assert np.all(half[:, 0].imag == 0.0)
        assert np.all(half[:, 0].real != 0.0)


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
        assert rec.diagnostics["qv_limit_final"] > 0.0

    def test_mean_curves_and_summary_shapes(self):
        cfg = make_cfg(T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25, 0.125], replicates=3)
        curves = res.mean_curves(0.125)
        assert curves["t"].shape == curves["sup_err_corrected"].shape
        rows = res.summary()
        assert [r["eps"] for r in rows] == [0.25, 0.125]
        assert all(r["n_ok"] == 3 and r["n_blowup"] == 0 for r in rows)


    def test_recorded_errors_are_the_norms_of_the_differences(self):
        # the stacked evaluation gives, bit for bit, the one-field norms of
        # the difference to each limit run at every recorded step
        cfg = make_cfg(n=2, K=12, T=0.02, sample_every=5, scheme=finite_difference_scheme(1, 0),
                       F=parse_polynomial_map("-u1; -u2", 2),
                       G=parse_polynomial_map("0.5*u1^2 + 0.5*u2^2; u1*u2", 2),
                       lambda_mode="quadrature", v0=SpectralField.from_modes(12, {1: [0.5, 0.25j]}, n=2))
        lam, _ = resolve_lambda(cfg)
        eps = 0.25
        rec = run_coupled(cfg, [eps], replicates=1).records[0]
        draw_psi = sample_stationary_pair(cfg.scheme, eps, cfg.nu, cfg.K, derive_stream(cfg.seed, 0, "ic"), n=2)
        runs = {}
        for variant, eps_run, init in (
            ("approximate", eps, draw_psi.psi_tilde),
            ("limit_corrected", cfg.eps, draw_psi.psi),
            ("limit_uncorrected", cfg.eps, draw_psi.psi),
        ):
            run_cfg = replace(cfg, variant=variant, eps=eps_run)
            runs[variant] = simulate(run_cfg, lam, cfg.v0_field() + init, derive_stream(cfg.seed, 0, "wiener"))[1]
        for name, limit in (("corrected", "limit_corrected"), ("uncorrected", "limit_uncorrected")):
            diffs = [SpectralField(cfg.K, cfg.n, a - b) for a, b in zip(runs["approximate"], runs[limit])]
            sup = np.array([sup_norm(d) for d in diffs])
            ha = np.array([sobolev_norm(d, cfg.alpha) for d in diffs])
            assert getattr(rec, f"sup_err_{name}").tobytes() == sup.tobytes()
            assert getattr(rec, f"halpha_err_{name}").tobytes() == ha.tobytes()
        assert rec.sup_err_corrected[0] > 0.0  # the initial coupling is not exact here


class TestSummary:
    def _result(self, maxima):
        """One eps; maxima[r] is replicate r's sup error, None for a blow-up."""
        t = np.array([0.0, 1.0])
        records = []
        for r, m in enumerate(maxima):
            curve = np.array([0.0, np.nan if m is None else m])
            records.append(TrajectoryRecord(0.5, r, t, curve, 2.0 * curve, curve, curve,
                                            blown_up=m is None, blowup_time=0.5 if m is None else None))
        return EnsembleResult((0.5,), t, records, 0.25)

    def test_single_survivor_has_no_standard_error(self):
        (row,) = self._result([0.3, None]).summary()
        assert row["n_ok"] == 1 and row["n_blowup"] == 1
        assert row["mean_sup_corrected"] == 0.3 and row["mean_sup_uncorrected"] == 0.6
        assert row["se_sup_corrected"] is None and row["se_sup_uncorrected"] is None
        assert '"se_sup_corrected": null' in json.dumps(row)

    def test_two_survivors_have_a_standard_error(self):
        (row,) = self._result([0.3, 0.5, None]).summary()
        assert row["n_ok"] == 2
        assert row["se_sup_corrected"] == float(np.std([0.3, 0.5], ddof=1) / np.sqrt(2))


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
            u_bar0 = cfg.v0_field() + pair.psi
            rng = derive_stream(cfg.seed, rep, "wiener")
            times, half = simulate(cfg, 0.25, u_bar0, rng)
            vals = [
                float(quadratic_variation(SpectralField(cfg.K, 1, c), M_qv)[0])
                for t, c in zip(times, half)
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
