from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab.correction import lambda_closed_form_for_scheme, lambda_quadrature
from burgerslab.schemes import (
    InfiniteSymbolError,
    Scheme,
    SchemeValidationError,
    apply_D_eps,
    apply_Delta_eps,
    apply_hatD,
    apply_Q_eps,
    atoms_one_sided,
    derivative_symbol,
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
    load_scheme_file,
    parse_mu,
    scheme_from_mapping,
    shift_minus,
    tabulated_symbol,
    _h_indicator_pi,
    _h_one,
)
from burgerslab.spectral import (
    SpectralField,
    from_grid,
    project,
    sobolev_norm,
    to_grid,
)
from conftest import random_field


class TestValidation:
    def test_identity_scheme_passes(self):
        report = identity_scheme(1, 0).validate()
        assert report.ok, report.summary()

    @pytest.mark.parametrize("make", [finite_difference_scheme, galerkin_scheme])
    def test_builtins_pass(self, make):
        report = make(1, 0).validate()
        assert report.ok, report.summary()

    def test_mu_without_zero_mass_fails(self):
        with pytest.raises(SchemeValidationError) as err:
            replace(identity_scheme(1, 0), mu=((1.0, 1.0),))  # delta_1: total mass 1, not 0
        report = err.value.report
        assert not report.ok and not report["mu_total_mass_zero"].passed
        assert str(err.value) == f"scheme 'identity(a=1,b=0)' failed validation:\n{report.summary()}"

    def test_wrong_first_moment_fails(self):
        with pytest.raises(SchemeValidationError) as err:
            replace(identity_scheme(1, 0), mu=((2.0, 0.5), (-2.0, -0.5)))  # first moment 2
        report = err.value.report
        assert report["mu_total_mass_zero"].passed
        assert not report["mu_first_moment_one"].passed
        assert abs(report["mu_first_moment_one"].value - 2.0) < 1e-15

    def test_sloped_f_fails_derivative_check(self):
        with pytest.raises(SchemeValidationError) as err:
            replace(identity_scheme(1, 0), f=lambda t: 1.0 + np.asarray(t))
        assert not err.value.report["f_derivative_zero_at_zero"].passed

    def test_noise_on_killed_modes_fails(self):
        with pytest.raises(SchemeValidationError) as err:
            replace(galerkin_scheme(1, 0), h=lambda t: np.ones_like(np.asarray(t, dtype=float)))
        assert not err.value.report["h_vanishes_where_f_infinite"].passed

    def test_constructor_validates(self):
        # Scheme(...) itself, not only replace, refuses an inadmissible triple
        with pytest.raises(SchemeValidationError) as err:
            Scheme("half", _h_one, _h_one, atoms_one_sided(1, 0), 2.0)  # f = 1 < q
        assert [c.name for c in err.value.report.checks if not c.passed] == ["f_bounded_below_by_q"]

    def test_sampled_variation_recorded(self):
        report = finite_difference_scheme(1, 0).validate()
        bv = report["h2_over_f_sampled_variation"]
        assert bv.passed  # informational, never a failure
        assert bv.value > 0.5  # the indicator jump alone contributes ~pi^2/4 / ...


@st.composite
def _atoms(draw):
    """A one-sided measure (admissible) two times in three, else atoms with
    drawn weights (mostly not: mass 0 or first moment 1 fails)."""
    if draw(st.integers(0, 2)):
        return atoms_one_sided(draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([0.0, 1.0, 3.0])))
    locations = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    weights = st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0])
    return tuple(draw(st.lists(st.tuples(locations, weights), min_size=1, max_size=3)))


@st.composite
def _tables(draw, values, beyond):
    """A piecewise-linear symbol: flat near 0 at 1 (or at 0.5), then drawn
    ``values``, and one of ``beyond`` past the last knot."""
    start = draw(st.sampled_from([1.0, 1.0, 0.5]))
    rest = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
    knots = np.cumsum([0.0] + [draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(len(rest) + 1)])
    return tabulated_symbol(knots, [start, start] + rest, draw(st.sampled_from(beyond)))


_FAMILIES = (identity_scheme(), finite_difference_scheme(), galerkin_scheme())
_F_SYMBOLS = st.one_of(st.sampled_from([s.f for s in _FAMILIES]), _tables([0.0, 0.5, 1.0, 2.0], [1.0, np.inf]))
_H_SYMBOLS = st.one_of(st.sampled_from([_h_one, _h_indicator_pi]), _tables([0.0, 0.5, 1.0], [0.0, 1.0, np.inf]))


@st.composite
def _symbols(draw):
    """(f, h, q) of a builtin family half the time, else drawn freely."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(_FAMILIES))
        return family.f, family.h, family.q
    return draw(_F_SYMBOLS), draw(_H_SYMBOLS), draw(st.sampled_from([0.1, 0.25, 0.4, 1.0, -1.0, 0.0, 2.0]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_symbols(), _atoms())
def test_no_invalid_scheme_can_be_made(symbols, mu):
    # a drawn triple is made and admissible, or refused with the report
    # naming every check it failed
    f, h, q = symbols
    try:
        s = Scheme("drawn", f, h, mu, q)
    except SchemeValidationError as err:
        failed = [c.name for c in err.report.checks if not c.passed]
        assert failed and not err.report.ok
        assert all(f"[FAIL] {name}:" in str(err) for name in failed)
    else:
        assert s.validate().ok and all(c.passed for c in s.validation.checks)


class TestDerivedFacts:
    """A scheme stores only (name, f, h, mu, q); every other fact follows
    its fields, so a variant made with replace cannot keep a stale one."""

    def test_scheme_stores_only_its_triple_and_q(self):
        assert [f.name for f in fields(Scheme)] == ["name", "f", "h", "mu", "q"]

    def test_builtin_follows_mu(self):
        s = identity_scheme(1, 0)
        assert s.validate().ok
        t = replace(s, mu=atoms_one_sided(0, 1))
        assert t.builtin == ("identity", 0.0, 1.0)
        closed = lambda_closed_form_for_scheme(t, 1.0).value
        assert abs(closed - (-0.25)) < 1e-12
        assert abs(lambda_quadrature(t, 1.0).value - closed) < 1e-12

    def test_h_kind_and_support_follow_h(self):
        t = replace(identity_scheme(1, 0), h=_h_indicator_pi)
        assert t.h_kind == "indicator_pi" and t.h_support == np.pi
        fresh = scheme_from_mapping({"name": t.name, "f": "identity", "h": "indicator_pi", "mu": "(1,1);(0,-1)", "q": "1"})
        assert lambda_quadrature(t, 1.0).value == lambda_quadrature(fresh, 1.0).value

    def test_replace_validates_again(self):
        s = identity_scheme(1, 0)
        assert s.validation.ok
        with pytest.raises(SchemeValidationError) as err:
            replace(s, mu=((1.0, 1.0),))
        assert not err.value.report.ok

    @pytest.mark.parametrize("make, kinds", [
        (identity_scheme, ("identity", "one", None)),
        (finite_difference_scheme, ("finite_difference", "indicator_pi", np.pi)),
        (galerkin_scheme, ("galerkin", "indicator_pi", np.pi)),
    ])
    def test_family_facts(self, make, kinds):
        s = make(2, 1)
        assert (s.f_kind, s.h_kind, s.h_support) == kinds
        assert s.builtin == (kinds[0], 2.0, 1.0)
        own = replace(s, f=lambda t: np.ones_like(np.asarray(t, dtype=float)))
        assert own.f_kind == "callable" and own.builtin is None


class TestDerivativeSymbol:
    def test_zero_frequency(self):
        assert derivative_symbol(identity_scheme(1, 0), 0.0) == 0.0

    def test_unit_first_moment_small_kappa(self):
        kappa = 1e-3
        sym = derivative_symbol(identity_scheme(1, 0), kappa)
        assert abs(sym / (1j * kappa) - 1.0) <= kappa

    def test_centered_vanishes_at_pi(self):
        s = identity_scheme(1, 1)  # mu = (delta_1 - delta_{-1})/2
        assert abs(derivative_symbol(s, np.pi)) < 1e-15


class TestApplyDeps:
    def test_constant_field_annihilated(self):
        u = SpectralField.constant(4.0, K=5)
        v = apply_D_eps(identity_scheme(1, 0), u, 0.1)
        assert np.max(np.abs(v.coeffs)) < 1e-14

    def test_forward_difference_multiplier(self):
        s = identity_scheme(1, 0)
        u = SpectralField.from_modes(K=6, entries={3: 0.7 - 0.2j})
        eps = 0.05
        v = apply_D_eps(s, u, eps)
        expected = (np.exp(3j * eps) - 1.0) / eps * (0.7 - 0.2j)
        assert abs(v.mode(3)[0] - expected) < 1e-14

    def test_first_order_convergence_to_derivative(self):
        # smooth test field: sin(x); exact spectral derivative is the ik multiplier
        u = SpectralField.from_modes(K=4, entries={1: -1j * np.sqrt(np.pi / 2)})
        s = identity_scheme(1, 0)
        du = u.apply_multiplier(1j * u.modes.astype(complex))
        errs = [
            sobolev_norm(apply_D_eps(s, u, e) - du, 0.0) for e in (0.1, 0.05, 0.025)
        ]
        for e0, e1 in zip(errs, errs[1:]):
            assert 2.0 * 0.8 <= e0 / e1 <= 2.0 * 1.2

    def test_per_mode_symbol_error_bound(self):
        # |(1/eps) sum w e^{ik eps y} - ik| <= C eps k^2 with C = sum |w| y^2 / 2
        for s in (identity_scheme(1, 0), identity_scheme(2, 1), identity_scheme(1, 1)):
            C = 0.5 * sum(abs(w) * y * y for y, w in s.mu)
            ks = np.arange(1, 65, dtype=float)
            for eps in (0.1, 0.05, 0.01, 0.002):
                sym = derivative_symbol(s, eps * ks) / eps
                assert np.all(np.abs(sym - 1j * ks) <= C * eps * ks**2 + 1e-12)

    def test_integer_stencil_matches_grid_difference(self, rng):
        # on the matched grid eps = 2pi/M, D_eps is the literal stencil
        a, b, K = 2, 1, 21
        M = 2 * K + 1
        eps = 2.0 * np.pi / M
        u = random_field(rng, K)
        g = to_grid(u, M)[0]
        stencil = (np.roll(g, -a) - np.roll(g, b)) / ((a + b) * eps)
        v = to_grid(apply_D_eps(identity_scheme(a, b), u, eps), M)[0]
        assert np.max(np.abs(v - stencil)) < 1e-12


class TestApplyDeltaEps:
    def test_identity_scheme_exact_second_derivative(self, rng):
        u = random_field(rng, K=8)
        v = apply_Delta_eps(identity_scheme(1, 0), u, 0.3)
        k = u.modes.astype(float)
        assert np.max(np.abs(v.half - u.half * -(k**2))) < 1e-12

    def test_finite_difference_symbol(self):
        eps = 0.2
        k = 7  # eps*k = 1.4 in (0, pi)
        u = SpectralField.from_modes(K=8, entries={k: 1.0})
        v = apply_Delta_eps(finite_difference_scheme(1, 0), u, eps)
        expected = -((2.0 / eps) ** 2) * np.sin(eps * k / 2.0) ** 2
        assert abs(v.mode(k)[0] - expected) < 1e-12

    def test_mean_mode_untouched(self):
        u = SpectralField.constant(2.0, K=3)
        v = apply_Delta_eps(finite_difference_scheme(1, 0), u, 0.1)
        assert np.max(np.abs(v.coeffs)) < 1e-14

    def test_active_infinite_mode_raises(self):
        u = SpectralField.from_modes(K=40, entries={35: 1.0})
        with pytest.raises(InfiniteSymbolError):
            apply_Delta_eps(finite_difference_scheme(1, 0), u, 0.1)  # eps*k > pi

    def test_inactive_infinite_modes_ignored(self):
        u = SpectralField.from_modes(K=40, entries={2: 1.0})
        v = apply_Delta_eps(finite_difference_scheme(1, 0), u, 0.1)
        f = 4.0 * np.sin(0.1) ** 2 / 0.2**2
        assert abs(v.mode(2)[0] - (-4.0 * f)) < 1e-12


class TestApplyQeps:
    def test_identity_scheme_is_identity(self, rng):
        u = random_field(rng, K=9)
        v = apply_Q_eps(identity_scheme(1, 0), u, 0.4)
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_galerkin_cuts_high_modes(self):
        u = SpectralField.from_modes(K=20, entries={16: 1.0, 2: 1.0})
        v = apply_Q_eps(galerkin_scheme(1, 0), u, 0.25)  # cut at |k| >= 4pi ~ 12.6
        assert v.mode(16)[0] == 0.0
        assert v.mode(2)[0] == 1.0

    def test_indicator_filter_idempotent(self, rng):
        u = random_field(rng, K=30)
        s = galerkin_scheme(1, 0)
        once = apply_Q_eps(s, u, 0.2)
        twice = apply_Q_eps(s, once, 0.2)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestHatD:
    def test_constant_annihilated(self):
        u = SpectralField.constant(1.5, K=4)
        assert np.max(np.abs(apply_hatD(u, 0.7).coeffs)) < 1e-14

    def test_full_period_shift_vanishes(self):
        k = 5
        u = SpectralField.from_modes(K=6, entries={k: 1.0 + 0.5j})
        v = apply_hatD(u, 2.0 * np.pi / k)
        assert abs(v.mode(k)[0]) < 1e-13

    def test_small_delta_first_order_to_derivative(self, rng):
        u = random_field(rng, K=6, decay=2.0)
        du = u.apply_multiplier(1j * u.modes.astype(complex))
        errs = [sobolev_norm(apply_hatD(u, d) - du, 0.0) for d in (0.02, 0.01, 0.005)]
        for e0, e1 in zip(errs, errs[1:]):
            assert 1.6 <= e0 / e1 <= 2.4

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            apply_hatD(SpectralField.zeros(3), 0.0)

    def test_undivided_form_consistent(self, rng):
        u = random_field(rng, K=7)
        d = 0.31
        v = apply_hatD(u, d)
        w = shift_minus(u, d)
        assert np.max(np.abs(w.coeffs - d * v.coeffs)) < 1e-14


def test_multipliers_commute(rng):
    u = random_field(rng, K=16, n=2)
    s = finite_difference_scheme(1, 0)
    eps = 0.1
    ops = [
        lambda w: apply_D_eps(s, w, eps),
        lambda w: apply_Q_eps(s, w, eps),
        lambda w: apply_hatD(w, 0.37),
        lambda w: project(w, 6),
    ]
    for i, op1 in enumerate(ops):
        for op2 in ops[i + 1 :]:
            x = op1(op2(u))
            y = op2(op1(u))
            assert np.max(np.abs(x.coeffs - y.coeffs)) < 1e-12


def test_real_weights_preserve_reality(rng):
    u = random_field(rng, K=12)
    s = identity_scheme(2, 1)
    v = apply_D_eps(s, u, 0.07)
    to_grid(v, 51)  # raises if imaginary residue exceeds 1e-10


class TestSchemeFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scheme.txt"
        path.write_text(
            "# forward-difference derivative, spectral Laplacian cutoff\n"
            "name = demo\n"
            "f = galerkin\n"
            "h = indicator_pi\n"
            "mu = (1,1);(0,-1)\n"
            "q = 1\n"
        )
        s = load_scheme_file(path)
        assert s.name == "demo"
        assert s.builtin == ("galerkin", 1.0, 0.0)
        assert s.validate().ok

    def test_tabulated_symbol(self, tmp_path):
        table = tmp_path / "h.csv"
        table.write_text("extrapolate = 0\n0,1\n1,1\n2,0\n")
        path = tmp_path / "scheme.txt"
        path.write_text(
            f"name = tab\nf = identity\nh = table:{table}\nmu = (1,1);(0,-1)\nq = 1\n"
        )
        s = load_scheme_file(path)
        assert s.h_kind == "table"
        assert s.h_support == 2.0
        assert np.allclose(s.h_at([0.5, 1.5, 3.0]), [1.0, 0.5, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_symbol_reaching_zero_fails_without_warnings(self, tmp_path):
        # f = 0 from t = 2 on: the report fails on q and records the
        # informational h^2/f ratio, and numpy warns of nothing on the way
        table = tmp_path / "f.csv"
        table.write_text("extrapolate = 0\n0,1\n1,1\n2,0\n")
        path = tmp_path / "z.scheme"
        path.write_text(f"name = z\nf = table:{table}\nh = one\nmu = (1,1);(0,-1)\nq = 1\n")
        with pytest.raises(SchemeValidationError) as err:
            load_scheme_file(path)
        report = err.value.report
        assert [c.name for c in report.checks if not c.passed] == ["f_bounded_below_by_q"]
        assert report["h2_over_f_sampled_variation"].passed

    def test_table_requires_extrapolation(self, tmp_path):
        table = tmp_path / "h.csv"
        table.write_text("0,1\n1,0\n")
        path = tmp_path / "scheme.txt"
        path.write_text(
            f"name = bad\nf = identity\nh = table:{table}\nmu = (1,1);(0,-1)\nq = 1\n"
        )
        with pytest.raises(ValueError, match="extrapolate"):
            load_scheme_file(path)

    def test_duplicate_key_names_the_key_and_both_lines(self, tmp_path):
        # a repeated key is an error, not a silent override: a second mu line
        # would flip the sign of Lambda
        path = tmp_path / "twice.scheme"
        path.write_text("name = fd\nf = identity\nh = one\nmu = (1,1);(0,-1)\nq = 1\n\nmu = (0,1);(-1,-1)\n")
        with pytest.raises(ValueError, match=r"twice.scheme:7: duplicate key 'mu' \(first given on line 4\)"):
            load_scheme_file(path)

    def test_parse_mu(self):
        assert parse_mu("(1,1);(0,-1)") == ((1.0, 1.0), (0.0, -1.0))
        assert parse_mu("(0.5, 2.0)") == ((0.5, 2.0),)


def test_builtin_mu_shapes():
    assert atoms_one_sided(1, 0) == ((1.0, 1.0), (0.0, -1.0))
    assert atoms_one_sided(1, 1) == ((1.0, 0.5), (-1.0, -0.5))
    with pytest.raises(ValueError):
        atoms_one_sided(0, 0)
