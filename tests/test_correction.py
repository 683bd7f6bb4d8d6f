import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from burgerslab import correction
from burgerslab.correction import (
    DEFAULT_CHI,
    DEFAULT_GAMMA,
    LambdaResult,
    QuadratureError,
    chaos_band,
    corrected_drift,
    lambda_closed_form,
    lambda_closed_form_for_scheme,
    lambda_eps,
    lambda_eps_y,
    lambda_quadrature,
    sine_integral,
)
from burgerslab.nonlin import PolynomialMap, evaluate, parse_polynomial_map
from burgerslab.schemes import (
    Scheme,
    TabulatedSymbol,
    atoms_one_sided,
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
)
from burgerslab.spectral import SpectralField, band_project


def _kept_modes(K, n_lo, n_hi):
    """The modes k >= 1 that band_project keeps of a field with every mode 1."""
    ones = SpectralField(K, 1, np.ones((1, K + 1), dtype=np.complex128))
    return np.flatnonzero(band_project(ones, n_lo, n_hi).half[0])


class TestSineIntegral:
    def test_at_pi_against_quadrature(self):
        # series regime cross-checked by an independent quadrature oracle
        oracle, _ = quad(lambda x: np.sinc(x / np.pi), 0.0, np.pi, epsabs=1e-14)
        assert abs(sine_integral(np.pi) - oracle) < 1e-12

    # the identity family's tail takes pi/2 - Si at a multiple of 2 pi (8 pi
    # for |y| <= 0.8 pi, 20 pi at |y| = 2 pi), farther out as |y| grows:
    # sici is the oracle there
    TAIL_POINTS = (8 * np.pi, 20 * np.pi, 500.0, 5000.0)

    @pytest.mark.parametrize("t", [0.3, 2.0, 3.9, 4.1, 7.0, 12.5, 40.0, *TAIL_POINTS])
    def test_against_quadrature_both_regimes(self, t):
        if t in self.TAIL_POINTS:
            want = sici(t)[0]
            assert abs(sine_integral(t) - want) < 1e-14
            assert abs((np.pi / 2 - sine_integral(t)) - (np.pi / 2 - want)) < 1e-10 * abs(np.pi / 2 - want)
        else:
            oracle, _ = quad(
                lambda x: np.sinc(x / np.pi), 0.0, t, epsabs=1e-14, limit=300
            )
            assert abs(sine_integral(t) - oracle) < 1e-12

    @pytest.mark.parametrize("a, b", [(1, 0), (2, 1), (3, 2)])
    def test_galerkin_closed_form_within_the_quadrature_estimate(self, a, b):
        # the closed form takes Si at pi a and pi b; the quadrature takes none
        closed = lambda_closed_form("galerkin", a, b, 1.0)
        quadrature = lambda_quadrature(galerkin_scheme(a, b), 1.0)
        assert abs(closed.value - quadrature.value) <= closed.abs_error_estimate + quadrature.abs_error_estimate

    def test_odd(self):
        assert sine_integral(-2.0) == -sine_integral(2.0)

    def test_zero(self):
        assert sine_integral(0.0) == 0.0


class TestLambdaQuadrature:
    def test_identity_forward_difference(self):
        res = lambda_quadrature(identity_scheme(1, 0), nu=1.0, tol=1e-10)
        assert abs(res.value - 0.25) < 1e-10
        assert res.method == "quadrature"

    def test_symmetric_measure_vanishes(self):
        res = lambda_quadrature(identity_scheme(1, 1), nu=1.0, tol=1e-10)
        assert abs(res.value) < 1e-10

    def test_galerkin_matches_closed_form(self):
        s = galerkin_scheme(1, 0)
        res = lambda_quadrature(s, nu=1.0, tol=1e-8)
        oracle = lambda_closed_form_for_scheme(s, nu=1.0)
        assert abs(res.value - oracle.value) < 1e-6

    def test_unreachable_tolerance_raises_with_partial(self):
        with pytest.raises(QuadratureError) as exc:
            lambda_quadrature(identity_scheme(1, 0), nu=1.0, tol=1e-18)
        partial = exc.value.partial
        assert partial is not None
        assert abs(partial.value - 0.25) < 1e-8

    def test_panel_limit_raises_with_partial(self, monkeypatch):
        # one panel at most: refinement stops short, and the estimate says so
        monkeypatch.setattr(correction, "_LIMIT_TAIL", 1)
        with pytest.raises(QuadratureError) as exc:
            lambda_quadrature(identity_scheme(1, 0), nu=1.0, tol=1e-10)
        partial = exc.value.partial
        assert partial.abs_error_estimate > 1e-10
        assert abs(partial.value - 0.25) <= partial.abs_error_estimate

    def test_scaling_in_nu(self):
        s = galerkin_scheme(2, 1)
        vals = {nu: lambda_quadrature(s, nu=nu, tol=1e-10).value for nu in (0.5, 1.0, 2.0)}
        assert abs(vals[0.5] - 2.0 * vals[1.0]) < 1e-8
        assert abs(vals[2.0] - 0.5 * vals[1.0]) < 1e-8


class TestClosedForms:
    def test_identity_values(self):
        assert abs(lambda_closed_form("identity", 2, 1, 1.0).value - 1.0 / 12.0) < 1e-15
        assert abs(lambda_closed_form("identity", 1, 0, 1.0).value - 0.25) < 1e-15

    def test_galerkin_antisymmetric_diagonal(self):
        assert lambda_closed_form("galerkin", 2, 2, 1.0).value == 0.0

    def test_finite_difference_requires_integer_offsets(self):
        assert abs(lambda_closed_form("finite_difference", 3, 1, 1.0).value - 0.125) < 1e-15
        with pytest.raises(ValueError, match="integer"):
            lambda_closed_form("finite_difference", 0.5, 0.5, 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            lambda_closed_form("midpoint", 1, 0, 1.0)

    def test_degenerate_offsets(self):
        with pytest.raises(ValueError):
            lambda_closed_form("identity", 0, 0, 1.0)


@pytest.mark.parametrize(
    "make", [identity_scheme, finite_difference_scheme, galerkin_scheme]
)
class TestQuadratureVsClosedForm:
    def test_agreement_on_small_grid(self, make):
        for a, b in ((1, 0), (0, 1), (2, 1), (1, 2)):
            s = make(a, b)
            got = lambda_quadrature(s, nu=1.0, tol=1e-8).value
            want = lambda_closed_form_for_scheme(s, nu=1.0).value
            assert abs(got - want) <= 1e-8, (make.__name__, a, b)

    def test_antisymmetry_in_offsets(self, make):
        for a, b in ((1, 0), (2, 1), (3, 1)):
            plus = lambda_quadrature(make(a, b), nu=0.7, tol=1e-9).value
            minus = lambda_quadrature(make(b, a), nu=0.7, tol=1e-9).value
            assert abs(plus + minus) < 1e-8


CRITERION_1_OFFSETS = [(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)]
CRITERION_1_NUS = (0.25, 1.0, 4.0)


@pytest.mark.parametrize("make", [identity_scheme, finite_difference_scheme, galerkin_scheme])
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_error_estimate_bounds_the_error(make, tol):
    # the reported estimate is never below the distance from the closed form
    for a, b in CRITERION_1_OFFSETS:
        for nu in CRITERION_1_NUS:
            s = make(a, b)
            res = lambda_quadrature(s, nu, tol)
            err = abs(res.value - lambda_closed_form_for_scheme(s, nu).value)
            assert err <= 1e-12 and res.abs_error_estimate >= err, (a, b, nu, err, res.abs_error_estimate)


@pytest.mark.parametrize("a, b", [(1, 0), (3, 1)])
def test_table_of_the_finite_difference_symbol(a, b):
    # f = 4 sin^2(t/2)/t^2 tabulated at 2049 knots packed towards 0 (so the
    # table is flat enough there to be a valid f), +inf beyond pi, and h = 1
    # up to pi: every knot starts a panel.  Lambda moves from the
    # finite-difference closed form only through the table's interpolation,
    # by at most sup|f - f_table|/f_table times sum |w y| / (4 nu)
    knots = np.pi * np.linspace(0.0, 1.0, 2049) ** 2
    fd = lambda t: np.where(t == 0.0, 1.0, 4.0 * np.sin(t / 2.0) ** 2 / np.where(t == 0.0, 1.0, t) ** 2)
    f = TabulatedSymbol(knots, fd(knots), np.inf)
    h = TabulatedSymbol([0.0, np.pi], [1.0, 1.0], 0.0)
    s = Scheme("fd_table", f, h, atoms_one_sided(a, b), finite_difference_scheme().q)
    t = np.linspace(0.0, np.pi, 2_000_001)
    rel = np.max(np.abs(fd(t) - f(t)) / f(t))
    assert 0.0 < rel < 1e-6
    nu = 1.0
    res = lambda_quadrature(s, nu, tol=1e-10)
    closed = lambda_closed_form("finite_difference", a, b, nu).value
    bound = 1.01 * rel * sum(abs(w * y) for y, w in s.mu) / (4.0 * nu)
    assert abs(res.value - closed) <= bound + 1e-12
    assert res.abs_error_estimate <= 1e-10


class TestLambdaEps:
    def test_zero_atom_contributes_nothing(self):
        s = identity_scheme(1, 0)
        assert lambda_eps_y(s, 0.01, y=0.0) == 0.0

    def test_identity_mode_sum_converges(self):
        s = identity_scheme(1, 0)
        val = lambda_eps_y(s, 1e-3, nu=1.0, y=1.0)
        assert abs(val - 0.25) <= 0.02

    def test_galerkin_sum_truncates_automatically(self):
        # summand vanishes once eps*k >= pi, whatever chi says
        s = galerkin_scheme(1, 0)
        eps = 0.01
        tight = lambda_eps_y(s, eps, gamma=1 / 3, chi=1.2, nu=1.0, y=1.0)
        wide = lambda_eps_y(s, eps, gamma=1 / 3, chi=1.5, nu=1.0, y=1.0)
        # chi = 1.2 keeps modes up to 251 < pi/eps ~ 314, so they differ a bit;
        # extending chi beyond the h cutoff adds exactly nothing
        wider = lambda_eps_y(s, eps, gamma=1 / 3, chi=2.0, nu=1.0, y=1.0)
        assert wide != tight
        # added summands are exactly zero; only summation grouping may differ
        assert abs(wider - wide) < 1e-15

    @pytest.mark.parametrize(
        "scheme, eps", [(finite_difference_scheme(1, 0), 0.25), (identity_scheme(1, 0), 0.04)]
    )
    def test_sums_the_modes_the_chaos_study_keeps(self, scheme, eps):
        # eps^-chi is an integer here (8 and 125) and its mode is live, so a
        # sum that stopped below it would miss a mode the samples hold
        gamma, chi, nu = DEFAULT_GAMMA, DEFAULT_CHI, 0.7
        k = _kept_modes(int(np.ceil(eps**-chi)), eps**-gamma, eps**-chi).astype(float)
        assert k[-1] == eps**-chi
        t = eps * k
        f, h = scheme.f_at(t), scheme.h_at(t)
        assert np.isfinite(f).all()
        direct = np.sum((1.0 - np.cos(t)) * h**2 / (2.0 * np.pi * eps * (1.0 + nu * k**2 * f)))
        assert lambda_eps_y(scheme, eps, gamma, chi, nu, 1.0) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.9, 0.8, 0.7, 0.64, 0.62, 0.5, 0.25, 0.2, 0.125, 0.1, 0.07, 0.04, 0.01])
    def test_chaos_band_is_the_projection_band(self, eps):
        # k_lo - 1 and k_hi as thresholds keep what eps^-gamma and eps^-chi keep
        k_lo, k_hi = chaos_band(eps)
        K = int(np.ceil(eps**-DEFAULT_CHI))
        kept = _kept_modes(K, eps**-DEFAULT_GAMMA, eps**-DEFAULT_CHI)
        assert kept.tolist() == list(range(k_lo, k_hi + 1))
        assert _kept_modes(K, k_lo - 1, k_hi).tolist() == kept.tolist()
        # eps^-chi reaches 2 at eps = 2^(-2/3), and eps^-gamma stays below 2
        assert (k_lo > k_hi) == (eps > 2.0 ** (-2.0 / 3.0))

    def test_empty_range_warns_and_returns_zero(self):
        s = identity_scheme(1, 0)
        with pytest.warns(UserWarning, match="empty"):
            assert lambda_eps_y(s, 0.9, gamma=0.05, chi=0.1, nu=1.0, y=1.0) == 0.0

    def test_monotone_under_chi_extension(self):
        # nonnegative summands for the builtin families
        for s in (identity_scheme(1, 0), finite_difference_scheme(1, 0), galerkin_scheme(2, 1)):
            vals = [lambda_eps_y(s, 0.02, gamma=1 / 3, chi=chi, nu=1.0, y=1.0)
                    for chi in (1.1, 1.3, 1.5, 1.8)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_symmetric_measure_cancels_exactly(self):
        s = identity_scheme(1, 1)
        assert lambda_eps(s, 0.01, nu=1.0) == 0.0

    def test_matches_quadrature_limit(self):
        s = identity_scheme(1, 0)
        target = lambda_quadrature(s, nu=1.0, tol=1e-10).value
        assert abs(lambda_eps(s, 1e-3, nu=1.0) - target) <= 0.02

    def test_finite_difference_same_limit_as_identity(self):
        s = finite_difference_scheme(1, 0)
        assert abs(lambda_eps(s, 1e-3, nu=1.0) - 0.25) <= 0.02


class TestCorrectedDrift:
    def test_burgers_quarter(self):
        F = PolynomialMap.zero(1)
        G = parse_polynomial_map("0.5*u1^2", 1)
        Ft = corrected_drift(F, G, 0.25)
        assert np.allclose(evaluate(Ft, np.array([[3.0, -1.0]])), -0.25)

    def test_zero_lambda_returns_f_exactly(self):
        F = parse_polynomial_map("u1 - 2", 1)
        G = parse_polynomial_map("0.5*u1^2", 1)
        assert corrected_drift(F, G, 0.0) is F

    def test_linear_flux_unchanged(self):
        F = parse_polynomial_map("u1; -u2", 2)
        G = parse_polynomial_map("u1; u2", 2)
        Ft = corrected_drift(F, G, 5.0)
        assert all(a.terms == b.terms for a, b in zip(Ft.components, F.components))


def test_lambda_result_rejects_bad_values():
    with pytest.raises(ValueError):
        LambdaResult(np.inf, 0.0, "x", 1.0, "quadrature")
    with pytest.raises(ValueError):
        LambdaResult(0.1, -1.0, "x", 1.0, "quadrature")
