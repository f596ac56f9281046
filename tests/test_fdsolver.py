import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from bs_oracle import bs_call
from itoarb import fdsolver, pricing
from itoarb.fdsolver import PdeGrid, evaluate, solve
from itoarb.pricing import CallSpec

SPEC = CallSpec(100.0, 1.0, 0.2, 0.0)


# ---------------------------------------------------------------- grid type


def test_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        PdeGrid(x_min=0.0)
    with pytest.raises(ValueError, match="finite"):
        PdeGrid(x_max=np.inf)
    # the grid holds sizes only: its nodes are laid for a call
    g = PdeGrid(n_x=65, n_t=64, x_min=50.0, x_max=200.0)
    x, t = g.nodes(SPEC)
    assert x.size == 65 and t.size == 65 and t[0] == 0.0 and t[-1] == SPEC.maturity
    np.testing.assert_allclose(np.diff(np.log(x)), np.log(x[1] / x[0]), rtol=1e-12)


def test_grid_strike_interior():
    with pytest.raises(ValueError, match="inside"):
        PdeGrid(x_min=110.0, x_max=300.0).nodes(SPEC)


def test_grid_resolution_floor():
    for sizes in ({"n_x": 32}, {"n_t": 63}):
        with pytest.raises(ValueError, match="64"):
            PdeGrid(**sizes)


def test_grid_strike_midcell():
    lx = np.log(PdeGrid(n_x=257, n_t=256).nodes(SPEC)[0])
    frac = (np.log(SPEC.strike) - lx[0]) / (lx[1] - lx[0])
    assert frac - np.floor(frac) == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------- classical


def test_classical_atm_value():
    g = PdeGrid(n_x=257, n_t=256)
    res = solve(SPEC, g)
    atm = float(evaluate(res, 0.0, 100.0))
    assert atm == pytest.approx(7.9656, abs=5e-3)
    assert atm == pytest.approx(bs_call(100.0, 100.0, 0.2, 1.0), abs=5e-3)


def test_terminal_slice_exact_and_lower_boundary_zero():
    res = solve(SPEC, PdeGrid(n_x=129, n_t=128))
    np.testing.assert_array_equal(
        res.surface[-1], np.maximum(res.x_nodes - SPEC.strike, 0.0)
    )
    np.testing.assert_array_equal(res.surface[:, 0], 0.0)


def test_positivity():
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    res = solve(spec, PdeGrid(n_x=257, n_t=256))
    assert res.surface.min() >= 0.0


def test_refinement_ratio_vs_richardson():
    # halving both steps shrinks the probe error by about 4x
    for rho, lo, hi in ((0.0, 3.0, 5.0), (0.02, 2.5, 5.0)):
        spec = CallSpec(100.0, 1.0, 0.2, rho)
        vals = {}
        for n in (128, 256, 512):
            g = PdeGrid(n_x=n + 1, n_t=n)
            vals[n] = float(evaluate(solve(spec, g), 0.0, 100.0))
        extrap = vals[512] + (vals[512] - vals[256]) / 3.0
        ratio = abs(vals[128] - extrap) / abs(vals[256] - extrap)
        assert lo < ratio < hi


def test_rho_lowers_prices_everywhere():
    # comparison principle for the source: larger rho, lower surface
    g = PdeGrid(n_x=257, n_t=256)
    surfs = []
    for rho in (0.0, 0.02, 0.04):
        spec = CallSpec(100.0, 1.0, 0.2, rho)
        surfs.append(solve(spec, g).surface)
    eps = 1e-9 * SPEC.strike
    assert np.all(surfs[1] <= surfs[0] + eps)
    assert np.all(surfs[2] <= surfs[1] + eps)


def test_solver_determinism():
    spec = CallSpec(100.0, 1.0, 0.2, 0.01)
    g = PdeGrid(n_x=129, n_t=128)
    a = solve(spec, g).surface
    b = solve(spec, g).surface
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- undiscounted


def test_zero_rate_identical_to_discounted():
    spec = CallSpec(100.0, 1.0, 0.2, 0.015)
    g = PdeGrid(n_x=129, n_t=128)
    np.testing.assert_array_equal(solve(spec, g).surface, solve(spec, g, 0.0).surface)


def test_undiscounted_classical_rate_oracle():
    spec = CallSpec(100.0, 1.0, 0.2, 0.0)
    st = spec.sigma * np.sqrt(spec.maturity)
    g = PdeGrid(n_x=257, n_t=256, x_min=spec.strike * np.exp(-0.35 - 4.2 * st),
                x_max=spec.strike * np.exp(0.35 + 3.2 * st))
    res = solve(spec, g, 0.05)
    got = float(evaluate(res, 0.0, 100.0))
    ref = float(bs_call(100.0, 100.0 * np.exp(0.05), 0.2, 1.0, rate=0.05))
    assert got == pytest.approx(ref, abs=0.01)


def test_undiscounted_terminal_payoff():
    spec = CallSpec(100.0, 1.0, 0.2, 0.0)
    res = solve(spec, PdeGrid(n_x=129, n_t=128), 0.05)
    k_eff = 100.0 * np.exp(0.05)
    np.testing.assert_array_equal(
        res.surface[-1], np.maximum(res.x_nodes - k_eff, 0.0)
    )


def test_change_of_variables_consistency():
    r = 0.05
    for rho in (0.0, 0.02):
        spec = CallSpec(100.0, 1.0, 0.2, rho)
        st = spec.sigma * np.sqrt(spec.maturity)
        g = PdeGrid(n_x=257, n_t=256, x_min=spec.strike * np.exp(-0.4 - 4.2 * st),
                    x_max=spec.strike * np.exp(0.4 + 3.2 * st))
        disc = solve(spec, g)
        undisc = solve(spec, g, r)
        for t in (0.25, 0.5, 0.75):
            s = np.linspace(85.0, 120.0, 15)
            psi = evaluate(undisc, t, s)
            mapped = np.exp(r * t) * np.asarray(evaluate(disc, t, np.exp(-r * t) * s))
            assert np.max(np.abs(psi - mapped)) < 1e-2


# ---------------------------------------------------------------- compare ladder

LADDER = [0.0, 0.01, 0.02, 0.04]  # the classical column and the default compare rhos
PROBES = np.array([0.95, 1.0, 1.05]) * SPEC.strike


def test_ladder_matches_separate_solves():
    # one march over the ladder against one solve per rho, as compare ran them
    spec = replace(SPEC, rho=0.02)
    g = PdeGrid(n_x=129, n_t=128)
    separate = [evaluate(solve(replace(spec, rho=r), g), 0.0, PROBES) for r in LADDER]
    np.testing.assert_array_equal(fdsolver._t0_prices(spec, g, LADDER, PROBES), separate)


def test_ladder_keeps_one_row_in_memory():
    # at the compare resolution one (n_t + 1) x n_x float64 surface is 2.1 MB;
    # the ladder keeps only the t = 0 row of its four columns
    g = PdeGrid(n_x=fdsolver.COMPARE_N_X, n_t=2 * fdsolver.COMPARE_N_T)
    half_surface = 0.5 * g.n_x * (g.n_t + 1) * 8
    tracemalloc.start()
    try:
        fdsolver._t0_prices(SPEC, g, LADDER, PROBES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < half_surface


def test_spill_is_the_solved_surface(tmp_path):
    # the rows written as the march yields them, read back in ascending t, are
    # solve's surface bit for bit, and the probe is evaluate's at (0, K)
    spec = replace(SPEC, rho=0.02)
    g = PdeGrid(n_x=65, n_t=64)
    result = solve(spec, g)
    with open(tmp_path / "spill", "w+b") as fh:
        x, t, atm, row = fdsolver.spill(spec, g, fh.fileno())
        assert fh.seek(0, 2) == result.surface.nbytes
        np.testing.assert_array_equal(np.array([row(i) for i in range(t.size)]), result.surface)
    np.testing.assert_array_equal(x, result.x_nodes)
    np.testing.assert_array_equal(t, result.t_nodes)
    assert atm == evaluate(result, 0.0, spec.strike)


def test_rho_change_second_order_in_time():
    # successive differences of the rho-change in n_t shrink 4x (a first-order
    # source step reads 2); n_x is fixed, so the space error cancels
    spec = CallSpec(100.0, 1.0, 0.2, 0.04)
    change = []
    for n_t in (128, 256, 512):
        g = PdeGrid(n_x=513, n_t=n_t)
        classical, arb = fdsolver._t0_prices(spec, g, [0.0, 0.04], PROBES)
        change.append(arb - classical)
    ratio = (change[0] - change[1]) / (change[1] - change[2])
    assert np.all((3.5 <= ratio) & (ratio <= 4.5)), ratio


# ---------------------------------------------------------------- spline


# the README call.json grid, and the route_compare grid at its seed-1 strike
@pytest.mark.parametrize("strike, n_x, n_t", [(100.0, 257, 256), (112.44, 513, 2048)])
def test_spline_is_scipy_cubic_spline(strike, n_x, n_t):
    # the not-a-knot spline on gttrf/gttrs equals CubicSpline bit for bit: on
    # the nodes, at both edges and between nodes, for one and four columns
    from scipy.interpolate import CubicSpline

    spec = replace(SPEC, strike=strike, rho=0.02)
    res = solve(spec, PdeGrid(n_x=n_x, n_t=n_t))
    lx = np.log(res.x_nodes)
    between = np.random.default_rng(3).uniform(lx[0], lx[-1], 400)
    q = np.concatenate([lx, [lx[0], lx[-1]], 0.5 * (lx[1:] + lx[:-1]), between])
    ladder = list(fdsolver._march(spec, *PdeGrid(n_x=n_x, n_t=128).nodes(spec), 0.0,
                                  LADDER))[-1]
    for columns in (res.surface[0][:, None], res.surface[[0, 1, n_t // 2, n_t - 1]].T, ladder):
        got = fdsolver._cubic_in_log_price(lx, columns, q)
        assert np.array_equal(got, CubicSpline(lx, columns, axis=0)(q).T)


# ---------------------------------------------------------------- factored step


def _pde_coefficients(rate, n_x=513):
    """The log spacing of ``n_x`` default nodes, ``a = sigma^2/2`` and the
    PDE's stencil coefficients, written out here as the oracle of the
    module's operator: interior ``(lo, di, up)`` and the zero-gamma top row
    ``(top_lo, top_di)``."""
    x = PdeGrid(n_x=n_x).nodes(SPEC)[0]
    dxi = np.log(x)[1] - np.log(x)[0]
    a = 0.5 * SPEC.sigma**2
    lo, up = a / dxi**2 - rate / (2 * dxi), a / dxi**2 + rate / (2 * dxi)
    di = -2 * a / dxi**2 - a / 4.0 - rate / 2.0
    return dxi, a, (lo, di, up), (-rate / dxi, rate / dxi - rate / 2.0)


@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_operator_product_matches_dense_matrix(rate):
    # the explicit half step's product against a dense L assembled from the
    # PDE coefficients: a zero first row (the pinned boundary value), the
    # interior stencil and the one-sided top row
    n = 129
    dxi, a, (lo, di, up), (top_lo, top_di) = _pde_coefficients(rate, n)
    dense = np.zeros((n, n))
    for i in range(1, n - 1):
        dense[i, i - 1:i + 2] = lo, di, up
    dense[-1, -2:] = top_lo, top_di
    v = np.random.default_rng(7).standard_normal((n, 3))
    got = fdsolver._times(fdsolver._operator(n, dxi, a, rate), v)
    assert np.array_equal(got[0], np.zeros(3))
    np.testing.assert_allclose(got, dense @ v, rtol=0.0, atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_factored_step_matches_solve_banded(rate):
    # the band matrix and solve_banded every step used to call, against the
    # gttrf factors of the module's operator, as the march builds them once
    # per step size
    g = PdeGrid(n_x=513, n_t=1024)
    t = g.nodes(SPEC)[1]
    dxi, a, (lo, di, up), (top_lo, top_di) = _pde_coefficients(rate, g.n_x)
    sub, main, sup = fdsolver._operator(g.n_x, dxi, a, rate)
    rhs = np.random.default_rng(5).standard_normal((g.n_x, 4))
    dt = t[1] - t[0]
    # the Crank-Nicolson step and the fully implicit Rannacher half step
    for th, dtl in ((fdsolver.THETA, dt), (1.0, dt / 2)):
        ab = np.zeros((3, g.n_x))
        ab[1, :] = 1.0
        ab[0, 2:] = -th * dtl * up
        ab[1, 1:-1] = 1.0 - th * dtl * di
        ab[1, -1] = 1.0 - th * dtl * top_di
        ab[2, :-2] = -th * dtl * lo
        ab[2, -2] = -th * dtl * top_lo
        step_solve = fdsolver._tridiagonal_solver(-th * dtl * sub, 1.0 - th * dtl * main,
                                                  -th * dtl * sup)
        got = step_solve(rhs)[0]
        assert np.array_equal(got, solve_banded((1, 1), ab, rhs))


def test_singular_step_matrix_raises():
    # a zero pivot is a LinAlgError, which is a ValueError (exit 3 in the CLI)
    d = np.ones(64)
    d[1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        fdsolver._tridiagonal_solver(np.zeros(63), d, np.zeros(63))
    assert issubclass(np.linalg.LinAlgError, ValueError)


# ---------------------------------------------------------------- properties


@settings(max_examples=8, deadline=None)
@given(strike=st.floats(50.0, 150.0), maturity=st.floats(0.25, 2.0),
       sigma=st.floats(0.05, 0.5), rhos=st.lists(st.floats(0.0, 0.4), min_size=2, max_size=4))
def test_fd_properties_on_fixed_grid(strike, maturity, sigma, rhos):
    spec = CallSpec(strike, maturity, sigma, max(rhos))
    g = PdeGrid(n_x=129, n_t=128)
    # at zero rate the undiscounted march is the discounted one
    np.testing.assert_array_equal(solve(spec, g, 0.0).surface, solve(spec, g).surface)
    # along an ascending rho ladder every row is non-negative and non-increasing in rho
    ladder = np.array(list(fdsolver._march(spec, *g.nodes(spec), 0.0, sorted(rhos))))
    assert ladder.min() >= 0.0
    assert np.all(np.diff(ladder, axis=2) <= 0.0)


# ---------------------------------------------------------------- robustness


def test_extreme_rho_prices_zero_without_overflow():
    # at rho 1e306 the source rate overflows to inf, an exact zero factor of
    # the source flow: the surface stays finite and non-negative, and the
    # price at t = 0 is 0
    for rho in (1e8, 1e306):
        spec = CallSpec(100.0, 1.0, 0.2, rho)
        res = solve(spec, PdeGrid(n_x=65, n_t=64))
        assert np.isfinite(res.surface).all()
        assert res.surface.min() >= 0.0
        np.testing.assert_array_equal(res.surface[0], 0.0)


def test_growing_flow_raises_its_own_error():
    # rho < 0 grows the price through the source flow until it overflows
    spec = CallSpec(100.0, 1.0, 0.2, -5.0)
    with pytest.raises(RuntimeError, match="non-finite or below the positivity floor"):
        solve(spec, PdeGrid(n_x=65, n_t=64))


def test_evaluate_guards():
    g = PdeGrid(n_x=129, n_t=128)
    res = solve(SPEC, g)
    with pytest.raises(ValueError, match="t outside"):
        evaluate(res, 2.0, 100.0)
    with pytest.raises(ValueError, match="x outside"):
        evaluate(res, 0.5, 1e9)
    # NaN fails the range checks instead of passing through them
    with pytest.raises(ValueError, match="t outside"):
        evaluate(res, np.nan, 100.0)
    for bad_x in (np.nan, -1.0, [100.0, np.nan]):
        with pytest.raises(ValueError, match="x outside"):
            evaluate(res, 0.5, bad_x)


def test_surface_immutable_input():
    g = PdeGrid(n_x=129, n_t=128)
    res = solve(SPEC, g)
    assert g == PdeGrid(n_x=129, n_t=128)  # input grid untouched
    for a in (res.x_nodes, res.t_nodes, res.surface):
        assert not a.flags.writeable


def test_comparison_inputs_checked():
    spec = CallSpec(100.0, 1.0, 0.1)
    rhos, moneyness, grid = fdsolver.comparison_inputs(spec, [0.04, 0.01])
    assert rhos == [0.01, 0.04] and grid.y_half == 0.6
    np.testing.assert_allclose(moneyness, [0.95, 1.0, 1.05])
    # inside the series grid (|log m| <= 0.6) but above the default FD domain,
    # which reaches log m = 0.25 + 3.2 sigma sqrt(T) = 0.57
    with pytest.raises(ValueError, match="both routes"):
        fdsolver.comparison_inputs(spec, probe_moneyness=[1.786])
    for bad in ([0.02], [0.0, 0.02], [0.02, 0.02]):
        with pytest.raises(ValueError, match="distinct positive"):
            fdsolver.comparison_inputs(spec, bad)


def test_comparison_report_builds_the_series_once(monkeypatch):
    # the classical series is u0 in closed form: only the corrections, at the
    # largest rho, need a build
    built = []
    original = pricing.solve_perturbation

    def counting(spec, grid):
        built.append(spec.rho)
        return original(spec, grid)

    monkeypatch.setattr(pricing, "solve_perturbation", counting)
    fdsolver.comparison_report(SPEC)
    assert built == [0.04]
