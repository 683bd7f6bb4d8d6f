import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgerslab.nonlin import (
    Polynomial,
    PolynomialMap,
    alias_free_grid_size,
    apply_bilinear,
    apply_pointwise,
    bind_rows,
    evaluate,
    hessian,
    jacobian,
    laplacian,
    parse_polynomial,
    parse_polynomial_map,
    power_calls,
)
from burgerslab.schemes import apply_D_eps, identity_scheme
from burgerslab.spectral import (
    _RADIX_COST,
    SQRT_2PI,
    SpectralField,
    from_grid,
    odd_fft_size,
    to_grid,
)
from conftest import random_field, reference_polynomial_value


def burgers_flux():
    return parse_polynomial_map("0.5*u1^2", 1)


class TestEvaluate:
    def test_half_square(self):
        G = burgers_flux()
        assert evaluate(G, np.array([3.0]))[0] == 4.5

    def test_zero_map(self):
        assert np.all(evaluate(PolynomialMap.zero(2), np.array([1.0, 2.0])) == 0.0)

    def test_two_component_quadratic(self):
        G = parse_polynomial_map("u1*u2; u1^2", 2)
        out = evaluate(G, np.array([2.0, 5.0]))
        assert np.array_equal(out, [10.0, 4.0])

    def test_vectorized_over_grid(self):
        G = parse_polynomial_map("u1^2 - u2; 2*u2", 2)
        v = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
        out = evaluate(G, v)
        assert np.array_equal(out, [[1.0, 3.0, 10.0], [0.0, 2.0, -2.0]])

    @pytest.mark.parametrize(
        "text", ["0; -0.25", "0.5*u1^2; -u1 + 0.3*u1^3", "u1*u2^2 - 2; -u2", "3*u1^4*u2 + u1 - 1; u2"]
    )
    def test_bitwise_equal_to_term_sum(self, rng, text):
        # the sum from a zero start, each term coeff * v_j^e_j in order
        P = parse_polynomial_map(text, 2)
        for v in (rng.standard_normal((2, 33)), np.zeros((2, 5)), -np.zeros((2, 5)), rng.standard_normal(2)):
            for p in P.components:
                want = np.zeros(v.shape[1:])
                for expo, coeff in p.terms:
                    term = np.full_like(want, coeff)
                    for j, e in enumerate(expo):
                        if e:
                            term = term * v[j] ** e
                    want = want + term
                got = p(v)
                assert np.shape(got) == want.shape
                assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)


    @pytest.mark.parametrize(
        "text", ["0; -0.25", "0.5*u1^2; -u1 + 0.3*u1^3", "u1*u2^2 - 2; -u2", "3*u1^4*u2 + u1 - 1; u2"]
    )
    def test_out_rows_bitwise_equal_to_a_new_array(self, rng, text):
        P = parse_polynomial_map(text, 2)
        for v in (rng.standard_normal((2, 33)), np.zeros((2, 5)), -np.zeros((2, 5)), rng.standard_normal(2)):
            want = evaluate(P, v)
            buf = np.full((2,) + v.shape[1:], np.nan)
            got = evaluate(P, v, out=buf)
            assert got is buf
            assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)


_SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _polynomial(draw, n):
    """A Polynomial in n variables: coefficients including +-1.0, powers up
    to 4, possibly constant-only or zero."""
    coeff = st.one_of(
        st.sampled_from((1.0, -1.0, 0.5, -2.0)),
        st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: c != 0.0),
    )
    exponent = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.lists(st.tuples(exponent, coeff), max_size=4))
    if draw(st.booleans()):
        terms.append(((0,) * n, draw(coeff)))
    return Polynomial.from_terms(n, terms)


def _grid(draw, n, M):
    """An (n, M) grid holding signed zeros, infinities and nans among finite
    values."""
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(-1e3, 1e3, allow_nan=False))
    return np.array(draw(st.lists(value, min_size=n * M, max_size=n * M))).reshape(n, M)


@st.composite
def _polynomials_and_grids(draw):
    """A Polynomial in 1..3 variables and a grid for it (see ``_polynomial``
    and ``_grid``)."""
    n = draw(st.integers(1, 3))
    return _polynomial(draw, n), _grid(draw, n, draw(st.integers(1, 6)))


@settings(max_examples=400, deadline=None)
@given(_polynomials_and_grids())
def test_evaluation_in_place_is_bitwise_the_term_by_term_arithmetic(case):
    # a new array, a given out array and the reference agree byte for byte,
    # nan signs and signed zeros included
    p, grid = case
    with np.errstate(all="ignore"):
        want = reference_polynomial_value(p, grid)
        got = p(grid)
        buf = np.full(grid.shape[1:], 7.0)
        assert p(grid, out=buf) is buf
        assert got.tobytes() == want.tobytes() == buf.tobytes()
        point = grid[:, 0]
        values = evaluate(PolynomialMap(p.nvars, (p,) * p.nvars), point)
        scalar = reference_polynomial_value(p, point)
        assert isinstance(p(point), np.float64)
    # at a point the reference takes numpy's scalar operators, the evaluator
    # its ufuncs on a 0-d array; both round alike (the powers are the same
    # scalar v[j] ** e), so every value is equal, signed zeros and
    # infinities included, but a nan may come out with the other sign
    old = np.full(p.nvars, scalar)
    assert np.array_equal(values, old, equal_nan=True)
    assert np.array_equal(np.signbit(values[~np.isnan(old)]), np.signbit(old[~np.isnan(old)]))


@st.composite
def _maps_and_grid_sequences(draw):
    """A PolynomialMap of n polynomials in 1..3 variables and 2..4 grids of
    one (n, M) shape for it."""
    n, M = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    P = PolynomialMap(n, tuple(_polynomial(draw, n) for _ in range(n)))
    return P, [_grid(draw, n, M) for _ in range(draw(st.integers(2, 4)))]


@settings(max_examples=200, deadline=None)
@given(_maps_and_grid_sequences())
def test_a_bound_program_reads_its_grid_as_it_is_when_run(case):
    # bound once on one grid, one output and one scratch array, as the
    # stepper binds its right-hand side, the program is run after each
    # overwrite of the grid in place: every row must be, byte for byte, the
    # term-by-term arithmetic on the grid as it is then (a program that kept
    # a copy or a stale view of a row or a power would not be)
    P, grids = case
    grid = np.empty_like(grids[0])
    out, powers, scratch = np.full(grid.shape, 7.0), {}, np.empty(grid.shape[1:])
    calls = bind_rows(P, grid, out, powers, scratch)  # adds the powers it reads
    program = power_calls(grid, powers) + calls
    for values in grids:
        grid[...] = values
        with np.errstate(all="ignore"):
            for call in program:
                call()
            want = [reference_polynomial_value(p, values) for p in P.components]
        for row, expected in zip(out, want):
            assert row.tobytes() == expected.tobytes()


class TestJacobian:
    def test_burgers_gradient(self):
        jac = jacobian(burgers_flux())
        assert str(jac[0][0]) == "1*u1"

    def test_constant_map(self):
        F = parse_polynomial_map("2.5; -1", 2)
        jac = jacobian(F)
        assert all(not jac[i][j].terms for i in range(2) for j in range(2))

    def test_product_row(self):
        G = parse_polynomial_map("u1*u2; u1^2", 2)
        jac = jacobian(G)
        assert str(jac[0][0]) == "1*u2"
        assert str(jac[0][1]) == "1*u1"


class TestLaplacian:
    def test_burgers(self):
        lap = laplacian(burgers_flux())
        assert str(lap.components[0]) == "1"

    def test_linear_map(self):
        lap = laplacian(PolynomialMap.identity(3))
        assert lap.is_zero()

    def test_mixed_powers(self):
        G = parse_polynomial_map("u1^2 + u2^3; 0", 2)
        lap = laplacian(G)
        assert str(lap.components[0]) == "2 + 6*u2"

    def test_matches_trace_of_gradient_jacobians(self):
        G = parse_polynomial_map("u1^3*u2 - u2^2; u1*u2^3", 2)
        jac = jacobian(G)
        lap = laplacian(G)
        for i in range(2):
            trace = Polynomial.zero(2)
            for j in range(2):
                trace = trace + jac[i][j].diff(j)
            assert trace.terms == lap.components[i].terms

    def test_matches_central_differences(self, rng):
        G = parse_polynomial_map("u1^3*u2 - 0.5*u2^2; u1*u2^3 + u1", 2)
        lap = laplacian(G)
        h = 1e-4
        for _ in range(5):
            v = rng.uniform(-2, 2, size=2)
            num = np.zeros(2)
            for j in range(2):
                vp, vm = v.copy(), v.copy()
                vp[j] += h
                vm[j] -= h
                num += (evaluate(G, vp) - 2 * evaluate(G, v) + evaluate(G, vm)) / h**2
            exact = evaluate(lap, v)
            assert np.max(np.abs(num - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def _odd_smooth_costs(top):
    """Cost sum_p e_p w_p of every odd m < top (np.inf unless 11-smooth),
    by trial division over the whole range."""
    m = np.arange(top)
    rest = m.copy()
    cost = np.zeros(top)
    for p, w in _RADIX_COST.items():
        while True:
            hit = (rest % p == 0) & (rest > 0)
            if not hit.any():
                break
            rest[hit] //= p
            cost[hit] += w
    cost[(rest != 1) | (m % 2 == 0)] = np.inf
    return cost


class TestAliasFreeGridSize:
    @pytest.mark.parametrize(
        "K, degree, M",
        [(1024, 2, 3125), (128, 2, 405), (1000, 2, 3125), (20, 4, 105), (20, 5, 125)],
    )
    def test_known_sizes(self, K, degree, M):
        assert alias_free_grid_size(K, degree) == M

    def test_sup_norm_grid_at_K_1024(self):
        assert odd_fft_size(4 * (2 * 1024 + 1)) == 8505

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_pick_is_the_cheapest_odd_smooth_size_in_the_window(self, degree):
        # every band up to 4096: the pick is odd and 11-smooth, at least
        # Orszag's bound (d+1)K+1, at most ceil(1.1 bound) unless no smooth
        # size lies below that, and of least cost M * sum_p e_p w_p among the
        # candidates, ties to the smaller size
        cost = _odd_smooth_costs(2 * (degree + 1) * 4096)
        smooth = np.flatnonzero(np.isfinite(cost))
        for K in range(1, 4097):
            bound = (degree + 1) * K + 1
            M = alias_free_grid_size(K, degree)
            first = smooth[np.searchsorted(smooth, bound)]
            hi = max(first, -(-11 * bound // 10))
            cands = smooth[(smooth >= bound) & (smooth <= hi)]
            assert M % 2 == 1 and np.isfinite(cost[M])
            assert bound <= M <= hi
            weighted = cands * cost[cands]
            assert M == cands[np.argmin(weighted)], K

    @pytest.mark.parametrize("K", [0, 1, 7, 20, 128, 1000])
    def test_degree_below_one_keeps_the_transform_bound(self, K):
        assert alias_free_grid_size(K, 0) == alias_free_grid_size(K, 1) >= 2 * K + 1


class TestApplyPointwise:
    def test_identity_map(self, rng):
        u = random_field(rng, K=10)
        v = apply_pointwise(PolynomialMap.identity(1), u)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12

    def test_cosine_square_mode_content(self):
        # G(u) = u^2/2 of a pure cosine produces only modes {0, +-2}
        u = SpectralField.from_modes(K=4, entries={1: 1.0})
        v = apply_pointwise(burgers_flux(), u)
        alive = np.where(np.abs(v.coeffs[0]) > 1e-14)[0] - 4
        assert set(alive.tolist()) == {-2, 0, 2}
        # cos^2 identity: u = 2 c cos(x) with c = (2pi)^(-1/2) => u^2/2 = c^2(1 + cos 2x)
        assert abs(v.mode(0)[0] - SQRT_2PI / (2.0 * np.pi)) < 1e-14
        assert abs(v.mode(2)[0] - 0.5 * SQRT_2PI / (2.0 * np.pi)) < 1e-14

    def test_quadratic_against_coefficient_convolution(self, rng):
        # brute-force oracle: (u^2)_m = (2pi)^(-1/2) sum_k c_k c_{m-k}
        u = random_field(rng, K=16)
        v = apply_pointwise(parse_polynomial_map("u1^2", 1), u)
        conv = np.convolve(u.coeffs[0], u.coeffs[0])[16 : 16 + 33] / SQRT_2PI
        assert np.max(np.abs(v.coeffs[0] - conv)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_alias_free_padding_matches_exact_convolution(self, rng, d):
        u = random_field(rng, K=8)
        v = apply_pointwise(parse_polynomial_map(f"u1^{d}", 1), u)
        c = u.coeffs[0]
        conv = c.copy()
        for _ in range(d - 1):
            conv = np.convolve(conv, c)
        lo = conv.size // 2 - 8
        expected = conv[lo : lo + 17] / SQRT_2PI ** (d - 1)
        assert np.max(np.abs(v.coeffs[0] - expected)) < 1e-12


class TestBilinearAndHessian:
    def test_burgers_bilinear_is_pointwise_product(self, rng):
        # grad(u^2/2) . w  ==  u * w: compare the band-limited truncations
        u = random_field(rng, K=12)
        s = identity_scheme(1, 0)
        w = apply_D_eps(s, u, 0.05)
        out = apply_bilinear(jacobian(burgers_flux()), u, w)
        M = 51  # alias-free for a quadratic form at K = 12
        prod = to_grid(u, M) * to_grid(w, M)
        expected = from_grid(prod, 12)
        assert np.max(np.abs(out.coeffs - expected.coeffs)) < 1e-12

    def test_hessian_of_quadratic_is_constant(self):
        H = hessian(parse_polynomial_map("u1^2 + u1*u2; u2^2", 2))
        assert str(H[0][0][0]) == "2"
        assert str(H[0][0][1]) == "1"
        assert str(H[0][1][0]) == "1"
        assert str(H[1][1][1]) == "2"


class TestParsing:
    def test_basic_terms(self):
        p = parse_polynomial("0.5*u1^2", 1)
        assert p.terms == (((2,), 0.5),)

    def test_signs_and_constants(self):
        p = parse_polynomial("-2*u2^3 + u1 - 1.5", 2)
        assert ((0, 3), -2.0) in p.terms
        assert ((1, 0), 1.0) in p.terms
        assert ((0, 0), -1.5) in p.terms

    def test_scientific_notation(self):
        p = parse_polynomial("1e-3*u1 + 2E+2", 1)
        assert ((1,), 1e-3) in p.terms
        assert ((0,), 200.0) in p.terms

    def test_merges_repeated_terms(self):
        p = parse_polynomial("u1 + u1", 1)
        assert p.terms == (((1,), 2.0),)

    def test_zero_literal(self):
        assert parse_polynomial("0", 1).terms == ()

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_polynomial("u3", 2)

    def test_map_component_count(self):
        with pytest.raises(ValueError):
            parse_polynomial_map("u1; u2", 1)

    @pytest.mark.parametrize("text", ["nan*u1", "1e400*u1^2", "u1 - inf"])
    def test_rejects_non_finite_coefficients(self, text):
        # such a drift or flux would blow up every run it is used in
        with pytest.raises(ValueError, match="^polynomial coefficients must be finite"):
            parse_polynomial(text, 1)

    @pytest.mark.parametrize(
        "components",
        [
            (Polynomial.from_terms(2, [((1, 0), -1.0)]),),  # one polynomial for two components
            (Polynomial.from_terms(1, [((1,), -1.0)]), Polynomial.zero(1)),  # in one variable
            (Polynomial.zero(2), Polynomial.zero(2), Polynomial.zero(2)),
        ],
    )
    def test_map_takes_n_polynomials_in_n_variables(self, components):
        # evaluate writes one row per polynomial, and the stepper would read
        # a missing row from uninitialised scratch
        with pytest.raises(ValueError, match=r"^a map of R\^2 takes 2 polynomials in 2 variables"):
            PolynomialMap(2, components)

    @pytest.mark.parametrize(
        "text, n",
        [("u1*u2 - 0.25; u2^2", 2), ("-u1 - 2", 1), ("0.1234567*u1 + 1e-300", 1)],
    )
    def test_round_trip_through_str(self, text, n):
        G = parse_polynomial_map(text, n)
        assert parse_polynomial_map(str(G), n) == G

    def test_str_of_negative_terms(self):
        assert str(parse_polynomial_map("-u1 - 2", 1)) == "-2 - 1*u1"


@st.composite
def _polynomial_maps(draw):
    n = draw(st.integers(1, 3))
    # bounded so that the up to 5 terms of one exponent sum to a finite
    # coefficient: a map with a non-finite one cannot be made
    coeff = st.floats(min_value=-1e307, max_value=1e307)
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), coeff)
    comps = [Polynomial.from_terms(n, draw(st.lists(term, max_size=5))) for _ in range(n)]
    return PolynomialMap(n, tuple(comps))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_polynomial_maps())
def test_str_parses_back_to_the_same_map(P):
    assert parse_polynomial_map(str(P), P.n) == P
