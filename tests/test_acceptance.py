"""Acceptance gate: every promised behavior at its stated tolerance.

Each test prints one machine-greppable PASS line after its assertions.
The drift-correction experiment (criterion 5) and its step-halved twin
(criterion 8) share session fixtures, which run one worker per core;
together they take about five minutes on one core, everything else in
seconds to a minute.
"""


import os
from dataclasses import replace

import numpy as np
import pytest

from burgerslab.cli import main as cli_main
from burgerslab.correction import (
    lambda_closed_form,
    lambda_eps,
    lambda_eps_y,
    lambda_quadrature,
)
from burgerslab.estimators import (
    chain_rule_defect,
    expected_qv,
    negative_sobolev_distance,
    quadratic_variation,
    rate_fit,
    spatial_means,
    xi_eps,
    xi_eps_y,
)
from burgerslab.integrator import SimConfig, run_coupled
from burgerslab.noise import derive_stream, sample_stationary_pair
from burgerslab.nonlin import (
    PolynomialMap,
    apply_bilinear,
    apply_pointwise,
    jacobian,
    parse_polynomial_map,
)
from burgerslab.schemes import (
    apply_D_eps,
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
)
from burgerslab.spectral import band_project, sup_norm
from conftest import random_field

GAMMA, CHI, ALPHA = 1.0 / 3.0, 1.5, 0.75

OFFSET_GRID = [(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)]
NU_GRID = (0.25, 1.0, 4.0)


def announce(num, label, detail):
    print(f"\nACCEPTANCE {num} ({label}): PASS  [{detail}]")


# -- criterion 1: identity-scheme closed form ---------------------------------


def test_criterion_1_lambda_closed_forms():
    worst = 0.0
    for a, b in OFFSET_GRID:
        for nu in NU_GRID:
            got = lambda_quadrature(identity_scheme(a, b), nu, tol=1e-10).value
            want = (a - b) / (4.0 * nu * (a + b))
            worst = max(worst, abs(got - want))
    assert worst <= 1e-8, worst
    announce(1, "identity-scheme closed form", f"max abs deviation {worst:.2e} <= 1e-8")


# -- criterion 2: Galerkin and finite-difference closed forms -------------------


def test_criterion_2_galerkin_and_finite_difference():
    worst_gal = 0.0
    for a, b in OFFSET_GRID:
        for nu in NU_GRID:
            got = lambda_quadrature(galerkin_scheme(a, b), nu, tol=1e-8).value
            want = lambda_closed_form("galerkin", a, b, nu).value
            worst_gal = max(worst_gal, abs(got - want))
    assert worst_gal <= 1e-6, worst_gal

    worst_fd = 0.0
    for a, b in OFFSET_GRID:
        for nu in NU_GRID:
            got = lambda_quadrature(finite_difference_scheme(a, b), nu, tol=1e-8).value
            want = (a - b) / (4.0 * nu * (a + b))  # identical to the identity scheme
            worst_fd = max(worst_fd, abs(got - want))
    assert worst_fd <= 1e-6, worst_fd
    announce(
        2,
        "Galerkin + finite-difference closed forms",
        f"galerkin dev {worst_gal:.2e}, finite-difference dev {worst_fd:.2e} <= 1e-6",
    )


# -- criterion 3: quadratic variation -------------------------------------------


def test_criterion_3_quadratic_variation():
    # grid quadratic variation of the stationary field approaches the circle
    # total pi/nu when the band is much finer than the grid: 8192 modes
    # sampled on 2048 points (point evaluation is exact at any grid size)
    nu, K, M, nsamp = 1.0, 8192, 2048, 200
    exact = expected_qv(nu, K, M)
    rel = abs(exact - np.pi / nu) / (np.pi / nu)
    assert rel < 0.03, (exact, rel)

    scheme = identity_scheme(1, 0)
    rng = derive_stream(600, 0, "qv-acceptance")
    vals = np.empty(nsamp)
    for i in range(nsamp):
        psi = sample_stationary_pair(scheme, 0.1, nu, K, rng).psi
        vals[i] = quadratic_variation(psi, M)[0]
    se = np.std(vals, ddof=1) / np.sqrt(nsamp)
    dev = abs(np.mean(vals) - exact)
    assert dev < 5.0 * se, (np.mean(vals), exact, se)
    announce(
        3,
        "quadratic variation",
        f"exact sum {exact:.4f} within {rel:.2%} of pi; MC dev {dev:.3g} < 5se = {5 * se:.3g}",
    )


# -- criterion 4: second-chaos identity ------------------------------------------


def test_criterion_4a_per_atom_tensor_expectation():
    scheme = finite_difference_scheme(1, 0)
    eps, nu, nsamp = 0.01, 1.0, 1000
    K = int(np.ceil(eps**-CHI))
    rng = derive_stream(77, 0, "chaos-acceptance")
    live_atoms = [y for y, w in scheme.mu if w != 0.0 and y != 0.0]
    samples = {y: np.empty(nsamp) for y in live_atoms}
    for i in range(nsamp):
        psit = sample_stationary_pair(scheme, eps, nu, K, rng).psi_tilde
        band = band_project(psit, eps**-GAMMA, eps**-CHI)
        for y in live_atoms:
            samples[y][i] = spatial_means(xi_eps_y(band, y, eps))[0, 0]
    details = []
    for y in live_atoms:
        target = lambda_eps_y(scheme, eps, GAMMA, CHI, nu, y)
        se = np.std(samples[y], ddof=1) / np.sqrt(nsamp)
        dev = abs(np.mean(samples[y]) - target)
        assert dev < 5.0 * se, (y, np.mean(samples[y]), target, se)
        details.append(f"atom y={y:g}: dev {dev:.2e} < 5se = {5 * se:.2e}")
    announce(4, "second-chaos identity, per atom", "; ".join(details))


def test_criterion_4b_negative_sobolev_slope():
    scheme = finite_difference_scheme(1, 0)
    nu, nsamp = 1.0, 160
    eps_list = (0.04, 0.028284, 0.02, 0.014142, 0.01)
    means = []
    for i, eps in enumerate(eps_list):
        K = int(np.ceil(eps**-CHI))
        lam = lambda_eps(scheme, eps, GAMMA, CHI, nu)
        rng = derive_stream(78, i, "chaos-distance")
        vals = []
        for _ in range(nsamp):
            psit = sample_stationary_pair(scheme, eps, nu, K, rng).psi_tilde
            band = band_project(psit, eps**-GAMMA, eps**-CHI)
            vals.append(negative_sobolev_distance(xi_eps(band, scheme, eps), lam, ALPHA))
        means.append(float(np.mean(vals)))
    slope, _, _ = rate_fit(eps_list, means)
    assert 0.35 <= slope <= 0.65, (slope, means)
    announce(4, "second-chaos distance slope", f"log-log slope {slope:.3f} in [0.35, 0.65]")


# -- criterion 5: the drift-correction experiment ----------------------------------

EPS_LADDER = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
REPLICATES = 32
# the two fixtures run on every core; criterion 8b holds the results
# byte-identical across worker counts
FIXTURE_WORKERS = len(os.sched_getaffinity(0))


def correction_experiment_config(dt=2.5e-4, noise_substeps=2):
    # Burgers flux, zero drift, forward-difference derivative (Lambda = 1/4).
    # The band K = 1024 resolves the correction-carrying modes at the
    # smallest scale of the ladder (the mode sum through eps*K = 16 carries
    # ~96% of the correction constant); drawing each increment as a sum of
    # `noise_substeps` half-step draws lets the step-halved twin run follow
    # the identical Brownian path.
    return SimConfig(
        nu=1.0,
        n=1,
        K=1024,
        dt=dt,
        T=0.5,
        eps=EPS_LADDER[0],
        scheme=identity_scheme(1, 0),
        F=PolynomialMap.zero(1),
        G=parse_polynomial_map("0.5*u1^2", 1),
        lambda_mode="closed_form",
        seed=2026,
        sample_every=25,
        noise_substeps=noise_substeps,
        v0=None,
    )


@pytest.fixture(scope="session")
def correction_experiment():
    cfg = correction_experiment_config()
    return run_coupled(cfg, EPS_LADDER, REPLICATES, workers=FIXTURE_WORKERS)


@pytest.fixture(scope="session")
def correction_experiment_halved_dt():
    # same Brownian path (substep telescoping) and same sample times
    cfg = correction_experiment_config(dt=1.25e-4, noise_substeps=1)
    cfg = replace(cfg, sample_every=50)
    return run_coupled(cfg, EPS_LADDER, REPLICATES, workers=FIXTURE_WORKERS)


def test_criterion_5_main_correction_experiment(correction_experiment):
    rows = correction_experiment.summary()
    assert all(r["n_blowup"] == 0 for r in rows)
    corr = [r["mean_sup_corrected"] for r in rows]
    unc = [r["mean_sup_uncorrected"] for r in rows]

    # (a) corrected error decreases monotonically along the eps ladder
    assert all(c0 > c1 for c0, c1 in zip(corr, corr[1:])), corr
    # (b) at the two smallest eps the corrected error is < 0.5x uncorrected
    for i in (-2, -1):
        assert corr[i] < 0.5 * unc[i], (corr[i], unc[i])
    # (c) the uncorrected error plateaus: <= 20% decrease over the last rung
    assert unc[-1] >= 0.8 * unc[-2], (unc[-2], unc[-1])

    # identity-scheme coupling makes the matched runs agree exactly at t = 0,
    # and the ensemble-mean corrected error stays below the uncorrected one
    # over t in [0.1, T] at the two smallest eps
    for eps in EPS_LADDER[-2:]:
        curves = correction_experiment.mean_curves(eps)
        assert curves["sup_err_corrected"][0] == 0.0
        assert curves["sup_err_uncorrected"][0] == 0.0
        late = curves["t"] >= 0.1 - 1e-12
        assert np.all(
            curves["sup_err_corrected"][late] < curves["sup_err_uncorrected"][late]
        )

    announce(
        5,
        "drift-correction experiment",
        "corrected means "
        + " > ".join(f"{c:.4f}" for c in corr)
        + f"; ratios at smallest eps {corr[-2] / unc[-2]:.2f}, {corr[-1] / unc[-1]:.2f} < 0.5"
        + f"; uncorrected last rung {unc[-1] / unc[-2]:.2f} >= 0.8",
    )


# -- criterion 6: initial-coupling scaling ----------------------------------------


def test_criterion_6_coupling_sup_scaling():
    scheme = finite_difference_scheme(1, 0)
    K, nu, nsamp = 1024, 1.0, 200
    eps_list = [2.0**-j for j in range(3, 8)]
    means = []
    for i, eps in enumerate(eps_list):
        rng = derive_stream(500, i, "coupling-scaling")
        vals = [
            sup_norm(p.psi_tilde - p.psi)
            for p in (
                sample_stationary_pair(scheme, eps, nu, K, rng) for _ in range(nsamp)
            )
        ]
        means.append(float(np.mean(vals)))
    slope, _, _ = rate_fit(eps_list, means)
    assert 0.35 <= slope <= 0.65, (slope, means)
    announce(6, "coupled-pair sup scaling", f"log-log slope {slope:.3f} in [0.35, 0.65]")


# -- criterion 7: discrete chain rule ----------------------------------------------


def test_criterion_7_discrete_chain_rule():
    rng = np.random.default_rng(41)
    worst = 0.0
    cases = [
        (identity_scheme(1, 0), parse_polynomial_map("0.5*u1^2", 1), 1, 0.11),
        (identity_scheme(2, 1), parse_polynomial_map("0.5*u1^2 - u1", 1), 1, 0.07),
        (finite_difference_scheme(1, 0), parse_polynomial_map("u1*u2; 0.3*u2^2", 2), 2, 0.09),
    ]
    for scheme, G, n, eps in cases:
        u = random_field(rng, K=24, n=n)
        lhs = apply_D_eps(scheme, apply_pointwise(G, u), eps) - apply_bilinear(
            jacobian(G), u, apply_D_eps(scheme, u, eps)
        )
        rhs = chain_rule_defect(G, u, scheme, eps)
        worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    assert worst < 1e-10, worst
    announce(7, "discrete chain-rule identity", f"max abs defect mismatch {worst:.2e} < 1e-10")


# -- criterion 8: numerical hygiene -------------------------------------------------


def test_criterion_8a_step_halving_stability(
    correction_experiment, correction_experiment_halved_dt
):
    base = correction_experiment.summary()
    fine = correction_experiment_halved_dt.summary()
    worst = 0.0
    for rb, rf in zip(base, fine):
        for key in ("mean_sup_corrected", "mean_sup_uncorrected"):
            change = abs(rf[key] - rb[key]) / rb[key]
            worst = max(worst, change)
    assert worst < 0.10, worst
    announce(
        8,
        "step-halving stability",
        f"max relative change of the experiment statistics {worst:.2%} < 10%",
    )


def test_criterion_8b_bitwise_reproducibility(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(
        "[scheme]\nname = forward\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n\n"
        "[model]\nnu = 1\nn = 1\nK = 24\nF = 0\nG = 0.5*u1^2\n"
        "lambda_mode = closed_form\nv0 = sin:1\neps = 0.25,0.125\nreplicates = 4\n\n"
        "[time]\ndt = 5e-4\nT = 0.05\nsample_every = 20\n\n"
        "[output]\nprefix = hygiene\n"
    )
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert cli_main(["converge", "--config", str(config), "--out", str(out1), "--seed", "11"]) == 0
    assert (
        cli_main(
            ["converge", "--config", str(config), "--out", str(out8), "--seed", "11", "--workers", "8"]
        )
        == 0
    )
    names = [
        "hygiene_eps0.25.csv",
        "hygiene_eps0.125.csv",
        "hygiene_scaling.csv",
        "hygiene_summary.json",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
    announce(8, "bitwise reproducibility", "1-worker and 8-worker CSV bytes identical")
