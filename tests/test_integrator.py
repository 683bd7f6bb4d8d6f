import concurrent.futures
import json
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from burgerslab.estimators import quadratic_variation
from burgerslab.integrator import (
    ERRORS,
    BlowUpError,
    EnsembleResult,
    SimConfig,
    Stepper,
    mode_table,
    resolve_lambda,
    run_coupled,
    sample_steps,
    simulate,
)
from burgerslab.correction import lambda_closed_form_for_scheme
from burgerslab.noise import (
    ModeGaussianDraw,
    derive_stream,
    discrete_sigmas,
    sample_stationary_pair,
    stationary_sigmas,
    wiener_increment_coeffs,
)
from burgerslab.nonlin import (
    PolynomialMap,
    apply_bilinear,
    apply_pointwise,
    evaluate,
    jacobian,
    parse_polynomial_map,
)
from burgerslab.schemes import (
    Scheme,
    atoms_one_sided,
    d_eps_multiplier,
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
    tabulated_symbol,
)
from burgerslab.spectral import (
    SQRT_2PI,
    SpectralField,
    coeffs_to_values,
    mirror,
    sobolev_norm,
    sup_norm,
    values_to_coeffs,
)
from conftest import random_field, reference_polynomial_value


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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("eps", np.inf),
            ("eps", np.nan),
            ("dt", np.inf),
            ("n", 1.0),
            ("K", 8.0),
            ("K", True),
            ("sample_every", 2.5),
            ("noise_substeps", 2.5),
            ("noise_substeps", True),
            ("noise_substeps", 0),
        ],
    )
    def test_rejects_non_finite_steps_and_non_integer_counts(self, name, value):
        # each would otherwise pass and end as NaN multipliers (reported as
        # blow-ups) or as a TypeError mid-run
        with pytest.raises(ValueError, match=f"^{name} must"):
            make_cfg(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = make_cfg(K=np.int64(16), n=np.int64(1), sample_every=np.int32(20), noise_substeps=np.int64(2))
        assert cfg.n_steps == 100

    def test_run_coupled_rejects_a_non_finite_eps_before_running(self, monkeypatch):
        monkeypatch.setattr("burgerslab.integrator.simulate", lambda *a, **k: pytest.fail("ran a simulation"))
        for eps in (np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="^eps must be positive and finite"):
                run_coupled(make_cfg(), [0.25, eps], 2)

    def test_rejects_a_scheme_that_is_not_a_scheme(self):
        # an object with what a run reads of a scheme was never validated
        s = identity_scheme(1, 0)
        duck = SimpleNamespace(name=s.name, f_at=s.f_at, h_at=s.h_at, mu=s.mu, q=s.q)
        for make in (lambda: make_cfg(scheme=duck), lambda: replace(make_cfg(), scheme=duck)):
            with pytest.raises(ValueError, match="^scheme must be a Scheme, got SimpleNamespace"):
                make()

    def test_fields_cannot_be_reassigned(self):
        cfg = make_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.sample_every = 0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sample_every": 0}, "^sample_every must be at least 1"),
            ({"eps": np.nan}, "^eps must be positive and finite"),
            ({"K": 0}, "^K must be at least 1"),
            ({"lambda_mode": "bogus"}, "^lambda_mode must be one of"),
            ({"lambda_mode": "explicit"}, "^explicit lambda_mode requires a finite lambda_value"),
            ({"lambda_mode": "explicit", "lambda_value": np.nan}, "^explicit lambda_mode requires a finite lambda_value"),
        ],
    )
    def test_construction_and_replace_check_alike(self, change, message):
        with pytest.raises(ValueError, match=message):
            make_cfg(**change)
        with pytest.raises(ValueError, match=message):
            replace(make_cfg(), **change)

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
        stepper = Stepper(mode_table(cfg), 0.0)
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
        stepper = Stepper(mode_table(cfg), 0.0)
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
        stepper = Stepper(mode_table(cfg), 0.0)
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
        stepper = Stepper(mode_table(cfg), 0.0)
        c = stepper.step_coeffs(u.half, 0.0)
        killed = np.arange(cfg.K + 1) >= np.pi / cfg.eps
        assert killed.any() and np.all(c[:, killed] == 0.0)

    def test_blowup_detection(self):
        cfg = make_cfg(F=parse_polynomial_map("u1^3", 1), G=PolynomialMap.zero(1),
                       variant="limit_uncorrected", dt=0.5, T=50.0, sample_every=100)
        huge = SpectralField.constant(1e160, cfg.K)
        with pytest.raises(BlowUpError):
            simulate(mode_table(cfg), 0.0, huge, derive_stream(0, 0, "w"))

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected"])
    def test_blowup_through_flux_transforms(self, rng, variant):
        # the state overflows inside the stacked transforms; it must surface
        # as BlowUpError, not as a reality-check ValueError
        cfg = make_cfg(F=parse_polynomial_map("u1^3", 1), variant=variant, dt=0.5, T=50.0,
                       sample_every=100)
        huge = random_field(rng, cfg.K) * 1e160
        with pytest.raises(BlowUpError):
            simulate(mode_table(cfg), 0.25, huge, derive_stream(0, 0, "w"))


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
        stepper = Stepper(mode_table(cfg), 0.3)
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
        table = mode_table(cfg)  # read-only, and shared as run_coupled shares it
        shared = Stepper(table, 0.3)
        fresh = [Stepper(table, 0.3), Stepper(table, 0.3)]
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


def reference_nonlinearity(st, half):
    """Stepper.nonlinearity by allocating arithmetic: a new array for every
    transform and product, and each Polynomial term by term
    (reference_polynomial_value); the stepper's buffered right-hand side
    must match it bit for bit."""
    cfg = st.cfg
    n, K, M = cfg.n, cfg.K, st.M

    def to_values(c):
        padded = np.zeros((c.shape[0], M // 2 + 1), dtype=np.complex128)
        np.multiply(c, M / SQRT_2PI, out=padded[:, : K + 1])
        return np.fft.irfft(padded, n=M, axis=1)

    def to_half(values):
        return np.fft.rfft(values, axis=1)[:, : K + 1] * (SQRT_2PI / M)

    def apply(P, grid):
        return np.array([reference_polynomial_value(p, grid) for p in P.components])

    if st.drift_zero and st.G_zero:
        return 0.0
    if st.G_zero:
        return to_half(apply(st.drift, to_values(half)))
    if cfg.variant == "approximate":
        both = to_values(np.concatenate([half, half * st.d_mult]))
        grid, dgrid = both[:n], both[n:]
        total = np.zeros((n, M)) if st.drift_zero else apply(st.drift, grid)
        for i, j, entry in st.jac_terms:
            total[i] += reference_polynomial_value(entry, grid) * dgrid[j]
        return to_half(total)
    grid = to_values(half)
    if st.drift_zero:
        return st.ik * to_half(apply(cfg.G, grid))
    both = to_half(np.concatenate([apply(st.drift, grid), apply(cfg.G, grid)]))
    return both[:n] + st.ik * both[n:]


def reference_step(st, half, dW):
    """Stepper.step_coeffs by allocating arithmetic, with the per-mode
    factors real (the stepper keeps them as complex128 with zero imaginary
    parts, which numpy would otherwise cast them to on every step)."""
    factors = (st.decay, st.phi1_dt, st.noise_fac)
    assert all(not np.any(a.imag) for a in factors)
    decay, phi1_dt, noise_fac = (a.real.copy() for a in factors)
    with np.errstate(over="ignore", invalid="ignore"):
        new = decay * half
        new += phi1_dt * reference_nonlinearity(st, half)
        new += noise_fac * dW
    return new if np.isfinite(new).all() else None


def reference_increment(K, n, dt, rng):
    """One Wiener increment as the plain complex expression of its draw."""
    draw = ModeGaussianDraw.sample(K, n, rng)
    c = np.empty((n, K + 1), dtype=np.complex128)
    c[:, 0] = np.sqrt(dt) * draw.z0
    c[:, 1:] = np.sqrt(dt) * (draw.zz[:, :, 0] + 1j * draw.zz[:, :, 1]) / np.sqrt(2.0)
    return c


class TestBufferedStepping:
    """The stepper's buffered right-hand side, in-place evaluation and
    owned transforms keep the allocating arithmetic op for op, so every
    step gives the same bytes; finite-difference symbols at eps = 0.25 kill
    modes 13..16 of K = 16.  Beside the stacked-nonlinearity maps, a cubic
    flux steps non-unit coefficients, products, a constant Jacobian entry
    and powers above 2."""

    MAPS = {**TestStackedNonlinearity.MAPS, (2, "cubic"): ("-u1; 0.2 - u2^2", "0.1*u1^3 + u1*u2; 0.5*u2^2 - u1")}

    def cfg(self, variant, n, with_drift, **kw):
        F, G = self.MAPS[(n, with_drift)]
        return make_cfg(n=n, scheme=finite_difference_scheme(1, 0), eps=0.25, F=parse_polynomial_map(F, n),
                        G=parse_polynomial_map(G, n), lambda_mode="quadrature", variant=variant, **kw)

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("n, with_drift", list(MAPS))
    def test_steps_bitwise_equal_to_the_allocating_arithmetic(self, rng, variant, n, with_drift):
        cfg = self.cfg(variant, n, with_drift)
        st = Stepper(mode_table(cfg), 0.3)
        if variant == "approximate":
            assert np.all(st.decay[13:] == 0.0) and np.all(st.decay[:13] != 0.0)
        got = want = random_field(rng, cfg.K, n=n, decay=1.5).half
        w = derive_stream(8, n, "wiener")
        for _ in range(20):
            dW = wiener_increment_coeffs(cfg.K, n, cfg.dt, w)
            assert np.asarray(st.nonlinearity(got)).tobytes() == np.asarray(reference_nonlinearity(st, want)).tobytes()
            got, want = st.step_coeffs(got, dW), reference_step(st, want, dW)
            assert got.tobytes() == want.tobytes()
        assert np.max(np.abs(got)) > 0.1

    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("n, with_drift", list(MAPS))
    def test_simulate_bitwise_equal_at_two_substeps(self, rng, variant, n, with_drift):
        cfg = self.cfg(variant, n, with_drift, noise_substeps=2, T=0.02, sample_every=1)
        u0 = random_field(rng, cfg.K, n=n, decay=1.5)
        times, got = simulate(mode_table(cfg), 0.3, u0, derive_stream(9, n, "wiener"))
        st, w, half = Stepper(mode_table(cfg), 0.3), derive_stream(9, n, "wiener"), u0.half
        want = [half]
        for _ in range(cfg.n_steps):
            dW = reference_increment(cfg.K, n, cfg.dt / 2, w)
            dW += reference_increment(cfg.K, n, cfg.dt / 2, w)
            half = reference_step(st, half, dW)
            want.append(half)
        assert got.shape == (cfg.n_steps + 1, n, cfg.K + 1)
        assert got.tobytes() == np.array(want).tobytes()


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
        stepper = Stepper(mode_table(cfg), 0.3)
        half = random_field(rng, cfg.K, decay=1.0).half
        got = stepper.nonlinearity(half)
        ref = separate_transforms_nonlinearity(stepper, half, M=8 * (2 * cfg.K + 1) + 1)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def two_sided_simulate(cfg, lam, u0, rng):
    """Reference for simulate: the exponential-Euler loop on two-sided
    (n, 2K+1) arrays, with mirrored Wiener increments, the per-mode factors
    of the Stepper mirrored onto modes -K..K, and transforms that read modes
    0..K of the state and mirror their result."""
    st = Stepper(mode_table(cfg), lam)
    n, K, M = cfg.n, cfg.K, st.M
    even = lambda a: np.concatenate([a[:0:-1], a])
    decay, phi1_dt, noise_fac = even(st.decay), even(st.phi1_dt), even(st.noise_fac)
    ik = mirror(st.ik[None, :])[0]
    # a limit run has no D_eps multiplier
    d_mult = None if st.d_mult is None else mirror(st.d_mult[None, :])[0]
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
        times, half = simulate(mode_table(cfg), 0.3, u0, derive_stream(3, 1, "wiener"))
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
        stepper = Stepper(mode_table(cfg), 0.3)
        half = random_field(rng, cfg.K, n=2, decay=1.5).half.copy()
        w = derive_stream(3, 2, "wiener")
        for _ in range(cfg.n_steps):
            half = stepper.step_coeffs(half, wiener_increment_coeffs(cfg.K, 2, cfg.dt, w))
            assert np.all(half[:, 0].imag == 0.0)
        assert np.all(half[:, 0].real != 0.0)


# -- per-mode factor tables ----------------------------------------------------


def _reference_phi1(z):
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _reference_ou_noise_factor(z):
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    pos = (z > 0.0) & np.isfinite(z)
    out[pos] = np.sqrt(-np.expm1(-2.0 * z[pos]) / (2.0 * z[pos]))
    out[np.isinf(z)] = 0.0
    return out


def reference_factors(cfg):
    """The per-mode factors as each Stepper computed them for itself before
    ModeTable, expression for expression: the table must match them bit for
    bit.  ``d_mult`` was computed for every variant, and is compared for the
    approximate one only."""
    K = cfg.K
    k = np.arange(K + 1, dtype=float)
    if cfg.variant == "approximate":
        fv = cfg.scheme.f_at(cfg.eps * np.abs(k))
        lam_k = np.where(np.isfinite(fv), cfg.nu * k**2 * np.where(np.isfinite(fv), fv, 0.0), np.inf)
        m = cfg.scheme.h_at(cfg.eps * np.abs(k))
    else:
        lam_k = cfg.nu * k**2
        m = np.ones_like(k)
    killed = ~np.isfinite(lam_k)
    z = np.where(killed, -np.inf, -lam_k * cfg.dt)
    return {
        "rates": lam_k,
        "killed": killed,
        "m": m,
        "decay": np.where(killed, 0.0, np.exp(np.where(killed, 0.0, z))).astype(np.complex128),
        "phi1_dt": np.where(killed, 0.0, cfg.dt * _reference_phi1(np.where(killed, 0.0, z))).astype(np.complex128),
        "noise_fac": (
            np.where(killed, 0.0, m) * _reference_ou_noise_factor(np.where(killed, np.inf, lam_k * cfg.dt))
        ).astype(np.complex128),
        "d_mult": d_eps_multiplier(cfg.scheme, cfg.eps, np.arange(K + 1)),
    }


def reference_discrete_sigmas(scheme, eps, nu, K):
    """discrete_sigmas as it evaluated the symbols itself before schemes.symbols_at."""
    k = np.arange(K + 1, dtype=float)
    fv = scheme.f_at(eps * k)
    hv = scheme.h_at(eps * k)
    finite = np.isfinite(fv)
    out = np.zeros(K + 1)
    out[finite] = hv[finite] / np.sqrt(2.0 * (1.0 + nu * k[finite] ** 2 * fv[finite]))
    return out


def _tabulated_scheme():
    """f and h tabulated on [0, 1]; f = +inf (and h = 0) beyond t = 1."""
    knots = [0.0, 0.25, 0.5, 0.75, 1.0]
    f = tabulated_symbol(knots, [1.0, 1.0, 1.1, 1.3, 1.6], np.inf)
    h = tabulated_symbol(knots, [1.0, 1.0, 0.9, 0.6, 0.2], 0.0)
    return Scheme("table", f, h, atoms_one_sided(1, 0), 0.9)


class TestModeTable:
    """Each family at K = 16 and an eps that kills modes (eps k >= pi, or
    eps k > 1 for the table) and one that kills none; the identity family
    kills none at any eps."""

    SCHEMES = {
        "identity": (identity_scheme(1, 0), (0.25, 0.1)),
        "finite_difference": (finite_difference_scheme(1, 0), (0.25, 0.1)),
        "galerkin": (galerkin_scheme(2, 1), (0.25, 0.1)),
        "table": (_tabulated_scheme(), (0.25, 0.05)),
    }

    @pytest.mark.parametrize("kills", [True, False], ids=["killing-eps", "no-kill-eps"])
    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_bitwise_equal_to_the_per_stepper_factors(self, name, variant, kills):
        scheme, (eps_kill, eps_none) = self.SCHEMES[name]
        cfg = make_cfg(scheme=scheme, eps=eps_kill if kills else eps_none, nu=0.7, variant=variant)
        table, want = mode_table(cfg), reference_factors(cfg)
        if variant == "approximate":
            assert want["killed"].any() == (kills and name != "identity")
        else:
            assert table.d_mult is None
            del want["d_mult"]
        for field, ref in want.items():
            got = getattr(table, field)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), field
            assert not got.flags.writeable, field
        sigma = discrete_sigmas(cfg.scheme, cfg.eps, cfg.nu, cfg.K)
        assert sigma.tobytes() == reference_discrete_sigmas(cfg.scheme, cfg.eps, cfg.nu, cfg.K).tobytes()
        init = sigma if variant == "approximate" else stationary_sigmas(cfg.K, cfg.nu)
        assert table.sigma.tobytes() == init.tobytes()

    def test_stepper_steps_on_the_table(self):
        cfg = make_cfg(scheme=finite_difference_scheme(1, 0), eps=0.25)
        table = mode_table(cfg)
        st = Stepper(table, 0.0)
        assert st.cfg is cfg
        assert all(getattr(st, name) is getattr(table, name) for name in ("decay", "phi1_dt", "noise_fac", "d_mult"))


def _negated(P):
    return PolynomialMap(P.n, tuple(p.scale(-1.0) for p in P.components))


class TestReflection:
    """x -> -x maps the problem to itself with the scheme (a, b) read as
    (b, a), G as -G and Lambda as -Lambda, and maps each half spectrum to its
    conjugate; so one step from the conjugate state and increment of the
    mirrored problem is the conjugate of the original step.  This is a
    symmetry of the equations, not a copy of the arithmetic."""

    FAMILIES = {"identity": identity_scheme, "finite_difference": finite_difference_scheme, "galerkin": galerkin_scheme}
    MAPS = [(1, "-u1 + 0.3*u1^3", "0.5*u1^2"), (2, *TestStackedNonlinearity.MAPS[(2, False)]),
            (2, *TestStackedNonlinearity.MAPS[(2, True)])]

    @staticmethod
    def step(scheme, F, G, variant, half, dW):
        """One step at K = 16, eps = 0.25 (killing modes 13..16 of the
        finite-difference and galerkin families), with the scheme's Lambda."""
        lam = lambda_closed_form_for_scheme(scheme, 1.0).value
        cfg = make_cfg(n=F.n, eps=0.25, scheme=scheme, F=F, G=G, lambda_mode="explicit", lambda_value=lam,
                       variant=variant)
        return Stepper(mode_table(cfg), lam).step_coeffs(half, dW)

    @pytest.mark.parametrize("n, F, G", MAPS)
    @pytest.mark.parametrize("variant", ["approximate", "limit_corrected", "limit_uncorrected"])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_mirrored_step_is_the_conjugate_step(self, family, variant, n, F, G):
        rng = np.random.default_rng(sum(map(ord, family + variant)) + n)
        F, G = parse_polynomial_map(F, n), parse_polynomial_map(G, n)
        make = self.FAMILIES[family]
        for a, b in ((1, 0), (2, 1), (1, 3)):
            half = random_field(rng, 16, n=n, decay=1.5).half
            dW = wiener_increment_coeffs(16, n, 1e-3, rng)
            original = self.step(make(a, b), F, G, variant, half, dW)
            mirrored = self.step(make(b, a), F, _negated(G), variant, np.conj(half), np.conj(dW))
            assert np.max(np.abs(mirrored - np.conj(original))) <= 1e-15 * np.max(np.abs(original)), (a, b)

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
        assert res.errors.shape == (2, 2, len(ERRORS), len(res.times)) and not res.blown_up.any()
        assert np.array_equal(res.errors[:, :, 0], res.errors[:, :, 1])  # sup
        assert np.array_equal(res.errors[:, :, 2], res.errors[:, :, 3])  # H^alpha

    def test_no_flux_collapses_all_variants(self):
        # identity scheme and G = 0: discretized and limit dynamics coincide
        cfg = make_cfg(G=PolynomialMap.zero(1), F=parse_polynomial_map("-u1", 1),
                       T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25], replicates=2)
        assert np.all(res.errors[:, :, :2] == 0.0)

    def test_worker_count_does_not_change_results(self):
        cfg = make_cfg(T=0.02, sample_every=5, scheme=finite_difference_scheme(1, 0),
                       lambda_mode="quadrature")
        res1 = run_coupled(cfg, [0.25, 0.125], replicates=3, workers=1)
        res2 = run_coupled(cfg, [0.25, 0.125], replicates=3, workers=2)
        assert res1.errors.shape == (3, 2, len(ERRORS), len(res1.times))
        assert res1.errors.tobytes() == res2.errors.tobytes()
        assert np.array_equal(res1.blown_up, res2.blown_up)
        assert [r["qv_limit_final"] for r in res1.replicates] == [r["qv_limit_final"] for r in res2.replicates]

    @pytest.mark.parametrize("workers, replicates, pools", [(64, 2, [2]), (8, 3, [3]), (2, 3, [2]), (4, 1, [])])
    def test_at_most_one_worker_per_replicate(self, monkeypatch, workers, replicates, pools):
        # a forked pool starts all its workers at the first task; this one
        # records the size it was asked for and runs the tasks in order here
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = make_cfg(T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25], replicates, workers=workers)
        assert made == pools
        assert res.errors.tobytes() == run_coupled(cfg, [0.25], replicates).errors.tobytes()

    def test_replicate_reports_record_steps_and_blowups(self, monkeypatch):
        cfg = make_cfg(T=0.02, sample_every=5)
        real = simulate

        def blow_up_at_eighth(table, *args):
            # every eps = 0.125 run blows up after 4 steps
            if table.cfg.variant == "approximate" and table.cfg.eps == 0.125:
                raise BlowUpError(4 * table.cfg.dt, 4)
            return real(table, *args)

        monkeypatch.setattr("burgerslab.integrator.simulate", blow_up_at_eighth)
        res = run_coupled(cfg, [0.25, 0.125], replicates=2)
        assert [r["replicate"] for r in res.replicates] == [0, 1]
        for report in res.replicates:
            assert report["wall_s"] > 0.0 and report["qv_limit_final"] > 0.0
            assert report["runs"] == [
                {"row": "limit_corrected", "eps": None, "steps": 20, "blowup_time": None},
                {"row": "limit_uncorrected", "eps": None, "steps": 20, "blowup_time": None},
                {"row": "approximate", "eps": 0.25, "steps": 20, "blowup_time": None},
                {"row": "approximate", "eps": 0.125, "steps": 4, "blowup_time": 4 * cfg.dt},
            ]
        assert res.blown_up.tolist() == [[False, True], [False, True]]
        assert [row["n_blowup"] for row in res.summary()] == [0, 2]
        assert np.all(np.isnan(res.errors[:, 1])) and np.all(np.isfinite(res.errors[:, 0]))
        assert res.blowup_fraction == 0.5

    def test_a_blown_up_limit_run_ends_the_replicate_report(self):
        cfg = make_cfg(F=parse_polynomial_map("u1^3", 1), G=PolynomialMap.zero(1), dt=0.5, T=50.0,
                       sample_every=100, lambda_mode="zero", v0=SpectralField.constant(1e60, 16))
        res = run_coupled(cfg, [0.25], replicates=2)
        assert res.blowup_fraction == 1.0 and res.blown_up.all()
        assert np.all(np.isnan(res.errors))
        for report in res.replicates:
            (row,) = report["runs"]
            assert row["row"] == "limit_corrected" and row["eps"] is None
            assert row["blowup_time"] == row["steps"] * cfg.dt < cfg.T
            assert report["qv_limit_final"] is None

    def test_a_blown_up_limit_run_flags_every_eps_of_its_replicate(self, monkeypatch):
        cfg = make_cfg(T=0.02, sample_every=5)
        real, limit_runs = simulate, []

        def blow_up_second_uncorrected(table, *args):
            # replicates run in order, so this is replicate 1's uncorrected limit
            if table.cfg.variant == "limit_uncorrected":
                limit_runs.append(table)
                if len(limit_runs) == 2:
                    raise BlowUpError(3 * table.cfg.dt, 3)
            return real(table, *args)

        monkeypatch.setattr("burgerslab.integrator.simulate", blow_up_second_uncorrected)
        res = run_coupled(cfg, [0.25, 0.125], replicates=2)
        assert res.blown_up.tolist() == [[False, False], [True, True]]
        assert np.all(np.isfinite(res.errors[0])) and np.all(np.isnan(res.errors[1]))
        assert [row["n_ok"] for row in res.summary()] == [1, 1]
        assert res.replicates[0]["qv_limit_final"] > 0.0 and res.replicates[1]["qv_limit_final"] is None
        assert [row["row"] for row in res.replicates[1]["runs"]] == ["limit_corrected", "limit_uncorrected"]
        assert res.replicates[1]["runs"][1]["steps"] == 3

    def test_seed_changes_results(self):
        cfg = make_cfg(T=0.02, sample_every=5)
        res1 = run_coupled(cfg, [0.25], replicates=1)
        cfg2 = make_cfg(T=0.02, sample_every=5, seed=8)
        res2 = run_coupled(cfg2, [0.25], replicates=1)
        assert not np.array_equal(res1.errors[0, 0, 1], res2.errors[0, 0, 1])

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
        assert not res.blown_up[0, 0]
        assert np.all(np.isfinite(res.errors[0, 0]))
        assert res.replicates[0]["qv_limit_final"] > 0.0

    def test_mean_curves_and_summary_shapes(self):
        cfg = make_cfg(T=0.02, sample_every=5)
        res = run_coupled(cfg, [0.25, 0.125], replicates=3)
        curves = res.mean_curves(0.125)
        assert list(curves) == ["t", *ERRORS]
        assert all(curves[name].shape == curves["t"].shape for name in ERRORS)
        rows = res.summary()
        assert [r["eps"] for r in rows] == [0.25, 0.125]
        assert all(r["n_ok"] == 3 and r["n_blowup"] == 0 for r in rows)

    def test_rejects_repeated_eps(self):
        cfg = make_cfg(T=0.02, sample_every=5)
        with pytest.raises(ValueError, match="distinct"):
            run_coupled(cfg, [0.25, 0.125, 0.25], replicates=2)

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_rejects_replicates_below_one_before_running(self, monkeypatch, replicates):
        monkeypatch.setattr("burgerslab.integrator.resolve_lambda", lambda *a, **k: pytest.fail("resolved Lambda"))
        monkeypatch.setattr("burgerslab.integrator.simulate", lambda *a, **k: pytest.fail("ran a simulation"))
        with pytest.raises(ValueError, match="^replicates must be at least 1"):
            run_coupled(make_cfg(T=0.02, sample_every=5), [0.25, 0.125], replicates)

    def test_recorded_errors_are_the_norms_of_the_differences(self):
        # the stacked evaluation gives, bit for bit, the one-field norms of
        # the difference to each limit run at every recorded step
        cfg = make_cfg(n=2, K=12, T=0.02, sample_every=5, scheme=finite_difference_scheme(1, 0),
                       F=parse_polynomial_map("-u1; -u2", 2),
                       G=parse_polynomial_map("0.5*u1^2 + 0.5*u2^2; u1*u2", 2),
                       lambda_mode="quadrature", v0=SpectralField.from_modes(12, {1: [0.5, 0.25j]}, n=2))
        lam, _ = resolve_lambda(cfg)
        eps = 0.25
        block = run_coupled(cfg, [eps], replicates=1).errors[0, 0]
        draw_psi = sample_stationary_pair(cfg.scheme, eps, cfg.nu, cfg.K, derive_stream(cfg.seed, 0, "ic"), n=2)
        runs = {}
        for variant, eps_run, init in (
            ("approximate", eps, draw_psi.psi_tilde),
            ("limit_corrected", cfg.eps, draw_psi.psi),
            ("limit_uncorrected", cfg.eps, draw_psi.psi),
        ):
            run_cfg = replace(cfg, variant=variant, eps=eps_run)
            runs[variant] = simulate(mode_table(run_cfg), lam, cfg.v0_field() + init, derive_stream(cfg.seed, 0, "wiener"))[1]
        for name, limit in (("corrected", "limit_corrected"), ("uncorrected", "limit_uncorrected")):
            diffs = [SpectralField(cfg.K, cfg.n, a - b) for a, b in zip(runs["approximate"], runs[limit])]
            sup = np.array([sup_norm(d) for d in diffs])
            ha = np.array([sobolev_norm(d, cfg.alpha) for d in diffs])
            assert block[ERRORS.index(f"sup_err_{name}")].tobytes() == sup.tobytes()
            assert block[ERRORS.index(f"halpha_err_{name}")].tobytes() == ha.tobytes()
        assert block[0, 0] > 0.0  # the initial coupling is not exact here


class TestSummary:
    def _result(self, maxima):
        """One eps; maxima[r] is replicate r's sup error, None for a blow-up."""
        t = np.array([0.0, 1.0])
        errors = np.full((len(maxima), 1, len(ERRORS), 2), np.nan)
        for r, m in enumerate(maxima):
            if m is not None:
                curve = np.array([0.0, m])
                errors[r, 0] = [curve, 2.0 * curve, curve, curve]
        blown_up = np.array([[m is None] for m in maxima])
        return EnsembleResult((0.5,), t, errors, blown_up, 0.25)

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

    def test_no_survivor_has_no_statistics(self):
        result = self._result([None, None])
        (row,) = result.summary()
        assert row == {"eps": 0.5, "n_ok": 0, "n_blowup": 2, "mean_sup_corrected": None, "se_sup_corrected": None,
                       "mean_sup_uncorrected": None, "se_sup_uncorrected": None}
        with pytest.raises(ValueError, match="no surviving replicates"):
            result.mean_curves(0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_block_statistics_are_the_per_pair_arithmetic(self, seed):
        # the statistics index the dense block; they equal, byte for byte,
        # the arithmetic over one error series per surviving (replicate,
        # eps) pair, taken in replicate order
        rng = np.random.default_rng(seed)
        R, E, S = rng.integers(1, 40), rng.integers(1, 5), rng.integers(2, 250)
        errors = rng.lognormal(size=(R, E, len(ERRORS), S))
        blown_up = rng.random((R, E)) < 0.3
        errors[blown_up] = np.nan
        eps_list = tuple(2.0 ** -(e + 2) for e in range(E))
        result = EnsembleResult(eps_list, np.arange(S) * 0.1, errors, blown_up, 0.25)
        rows = result.summary()
        for e, eps in enumerate(eps_list):
            pairs = [errors[r, e].copy() for r in range(R) if not blown_up[r, e]]
            assert rows[e]["n_ok"] == len(pairs) and rows[e]["n_blowup"] == R - len(pairs)
            if not pairs:
                continue
            curves = result.mean_curves(eps)
            for c, name in enumerate(ERRORS):
                assert curves[name].tobytes() == np.mean([p[c] for p in pairs], axis=0).tobytes()
            for c, name in enumerate(("corrected", "uncorrected")):
                maxima = np.array([float(np.max(p[c])) for p in pairs])
                assert rows[e][f"mean_sup_{name}"] == float(np.mean(maxima))
                if len(pairs) > 1:
                    assert rows[e][f"se_sup_{name}"] == float(np.std(maxima, ddof=1) / np.sqrt(len(pairs)))


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
            times, half = simulate(mode_table(cfg), 0.25, u_bar0, rng)
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
