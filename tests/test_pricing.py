import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bs_oracle import bs_call
from itoarb import pricing
from itoarb.pricing import (
    CallSpec,
    TransformGrid,
    duhamel_integral,
    nonlinear_f,
    nonlinear_f_gradient,
    price_discounted,
    richardson_halving,
    solve_perturbation,
    source_coefficient,
    u0,
    u0_and_prime,
)

SPEC = CallSpec(strike=100.0, maturity=1.0, sigma=0.2, rho=0.0)

# first-order correction at (tau=0.02, y=0) for the strike-free constant
# 2/sigma^2 = 50: frozen from the direct quadrature's refinement ladder
# (0.5493261 at 48x161 through 0.5493265 at 512x1281)
U1_PROBE = 0.549326


def heat_kernel(tau, y, s, z):
    """Gaussian kernel of the canonical heat equation, variance ``2 (tau - s)``."""
    tau = np.asarray(tau, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(tau <= s):
        raise ValueError("heat kernel requires tau > s")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    dt = tau - s
    return np.exp(-((y - z) ** 2) / (4.0 * dt)) / (2.0 * np.sqrt(np.pi * dt))


def u0_by_quadrature(tau, y, n=200001, span_sds=14.0):
    """Trapezoid quadrature of the integral that defines ``u0``."""
    width = span_sds * np.sqrt(2.0 * tau)
    z = np.linspace(0.0, max(y + width, width), n)
    payoff = np.exp(z / 2) - np.exp(-z / 2)
    return float(np.trapezoid(heat_kernel(tau, y, 0.0, z) * payoff, z))


def u0_prime(tau, y):
    return u0_and_prime(tau, y)[1]


def u0_second(tau, y):
    # y-curvature of the closed form; the Gaussian terms recombine
    return u0(tau, y) / 4.0 + np.exp(-(y**2) / (4 * tau)) / (2 * np.sqrt(np.pi * tau))


@pytest.fixture(scope="module")
def sol_rho_002():
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    grid = TransformGrid(n_tau=24, n_y=65, y_half=0.45, n_time_quad=32, n_space_quad=121
    )
    return solve_perturbation(spec, grid)


# ---------------------------------------------------------------- heat kernel


def test_heat_kernel_point_value_and_symmetry():
    assert heat_kernel(1.0, 0.0, 0.0, 0.0) == pytest.approx(1 / (2 * np.sqrt(np.pi)))
    rng = np.random.default_rng(0)
    y, z = rng.normal(size=2)
    assert heat_kernel(0.7, y, 0.2, z) == pytest.approx(heat_kernel(0.7, z, 0.2, y))


def test_heat_kernel_domain_error():
    with pytest.raises(ValueError, match="tau > s"):
        heat_kernel(0.1, 0.0, 0.1, 0.0)


def test_heat_kernel_normalization():
    tau = 0.02
    z = np.linspace(-10 * np.sqrt(2 * tau), 10 * np.sqrt(2 * tau), 4001)
    total = np.trapezoid(heat_kernel(tau, 0.0, 0.0, z), z)
    assert abs(total - 1.0) < 1e-8


def test_heat_kernel_semigroup():
    tau, s, z0 = 0.02, 0.008, 0.1
    z = np.arange(-0.75, 0.75, 5e-4)
    for y in (-0.1, 0.0, 0.2):
        composed = np.trapezoid(
            heat_kernel(tau, y, s, z) * heat_kernel(s, z, 0.0, z0), z
        )
        assert abs(composed - heat_kernel(tau, y, 0.0, z0)) < 1e-6


# ---------------------------------------------------------------- u0


def test_u0_initial_condition():
    y = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(
        u0(0.0, y), np.maximum(np.exp(y / 2) - np.exp(-y / 2), 0.0)
    )


def test_u0_vanishes_far_otm():
    assert u0(0.05, -8.0) < 1e-12
    assert u0(0.05, -30.0) == pytest.approx(0.0, abs=1e-30)


def test_u0_closed_form_matches_quadrature():
    # the closed form must be validated against the defining integral
    for y in (-0.5, 0.0, 0.5):
        assert abs(float(u0(0.02, y)) - u0_by_quadrature(0.02, y)) < 1e-7


def test_u0_prime_matches_finite_differences():
    h = 1e-6
    for y in (-0.6, -0.1, 0.0, 0.4, 1.1):
        fd = (float(u0(0.02, y + h)) - float(u0(0.02, y - h))) / (2 * h)
        assert float(u0_prime(0.02, y)) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_u0_solves_heat_equation():
    tau, y, h = 0.03, 0.15, 1e-5
    lhs = (float(u0(tau + h, y)) - float(u0(tau - h, y))) / (2 * h)
    rhs = (float(u0(tau, y + h)) - 2 * float(u0(tau, y)) + float(u0(tau, y - h))) / h**2
    assert lhs == pytest.approx(rhs, rel=1e-4)


# ---------------------------------------------------------------- source term


def test_source_values():
    coeff = source_coefficient(SPEC)
    assert coeff == pytest.approx(50.0)
    assert source_coefficient(SPEC, pricing.SOURCE_STRIKE_SCALED) == pytest.approx(5000.0)
    assert nonlinear_f(0.0, 0.0, coeff) == 0.0
    assert nonlinear_f(1.0, 0.0, coeff) == pytest.approx(coeff * np.sqrt(5) / 2)
    assert nonlinear_f_gradient(0.0, 0.0, coeff) == (0.0, 0.0)


def test_source_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    coeff = 50.0
    h = 1e-7
    for _ in range(20):
        v1, v2 = rng.normal(size=2)
        g1, g2 = nonlinear_f_gradient(v1, v2, coeff)
        fd1 = (nonlinear_f(v1 + h, v2, coeff) - nonlinear_f(v1 - h, v2, coeff)) / (2 * h)
        fd2 = (nonlinear_f(v1, v2 + h, coeff) - nonlinear_f(v1, v2 - h, coeff)) / (2 * h)
        assert g1 == pytest.approx(fd1, rel=1e-6)
        assert g2 == pytest.approx(fd2, rel=1e-6)


def test_source_positive_definite_form():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(1000, 2))
    vals = nonlinear_f(v[:, 0], v[:, 1], 1.0)
    assert np.all(vals >= 0)
    assert np.all(vals[np.any(v != 0, axis=1)] > 0)


# ---------------------------------------------------------------- Duhamel


def test_duhamel_zero_source():
    out = duhamel_integral(lambda s, z: np.zeros_like(z), [0.01, 0.02], [0.0, 0.5])
    np.testing.assert_allclose(out, 0.0)


def test_duhamel_linear_stub_first_order():
    # for a source linear in (u0, u0') the kernel's semigroup property gives
    # the integral in closed form: tau * (a u0 + b u0')
    a, b = 0.7, 0.4
    tau = 0.02
    ys = np.array([-0.2, 0.0, 0.3])

    def src(s, z):
        v, vp = u0_and_prime(s, z)
        return a * v + b * vp

    got = duhamel_integral(src, [tau], ys, 96, 321)[0]
    expected = tau * (a * u0(tau, ys) + b * u0_prime(tau, ys))
    np.testing.assert_allclose(got, expected, rtol=1e-4)


def test_duhamel_linear_stub_second_order():
    # second application with constant partials (a, b): (tau^2/2) *
    # (a^2 u0 + 2ab u0' + b^2 u0'')
    a, b = 0.7, 0.4
    tau = 0.02
    ys = np.array([-0.2, 0.0, 0.3])

    def src(s, z):
        v, vp = u0_and_prime(s, z)
        first = s * (a * v + b * vp)
        first_prime = s * (a * vp + b * u0_second(s, z))
        return a * first + b * first_prime

    got = duhamel_integral(src, [tau], ys, 96, 321)[0]
    expected = 0.5 * tau**2 * (
        a**2 * u0(tau, ys) + 2 * a * b * u0_prime(tau, ys) + b**2 * u0_second(tau, ys)
    )
    np.testing.assert_allclose(got, expected, rtol=2e-4)


# the same closed-form stubs through semigroup steps (reference_stepped_duhamel
# below, which the fused build must match): 16 sqrt-spaced steps up to
# tau = 0.02 on a padded y grid, extrapolated over dy/2 and dy
STUB_TAUS = 0.02 * (np.arange(17) / 16) ** 2
STUB_YS = np.linspace(-2.5, 2.5, 401)
STUB_PROBES = [int(np.argmin(np.abs(STUB_YS - y))) for y in (-0.2, 0.0, 0.3)]


def halved(ys):
    """The nodes that halve the spacing of the uniform ``ys``, as the build lays them."""
    return ys[0] + 0.5 * (ys[1] - ys[0]) * np.arange(2 * ys.size - 1)


def stepped_top_row(src):
    fine, coarse = (reference_stepped_duhamel(src, STUB_TAUS, nodes, np.sqrt(0.02) / 96)
                    for nodes in (halved(STUB_YS), halved(STUB_YS)[::2]))
    return richardson_halving(fine, coarse)[-1, STUB_PROBES]


def test_stepped_linear_stub_first_order():
    a, b = 0.7, 0.4
    tau, ys = STUB_TAUS[-1], STUB_YS[STUB_PROBES]

    def src(s, z):
        v, vp = u0_and_prime(s, z)
        return a * v + b * vp

    expected = tau * (a * u0(tau, ys) + b * u0_prime(tau, ys))
    np.testing.assert_allclose(stepped_top_row(src), expected, rtol=1e-4)


def test_stepped_linear_stub_second_order():
    a, b = 0.7, 0.4
    tau, ys = STUB_TAUS[-1], STUB_YS[STUB_PROBES]

    def src(s, z):
        v, vp = u0_and_prime(s, z)
        first = s * (a * v + b * vp)
        first_prime = s * (a * vp + b * u0_second(s, z))
        return a * first + b * first_prime

    expected = 0.5 * tau**2 * (
        a**2 * u0(tau, ys) + 2 * a * b * u0_prime(tau, ys) + b**2 * u0_second(tau, ys)
    )
    np.testing.assert_allclose(stepped_top_row(src), expected, rtol=2e-4)


def test_u1_probe_value_and_doubling_stability():
    # stepped U1 at (tau_max, 0) on a grid and on its doubling (grid and
    # in-step quadrature together)
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    vals = []
    for n_tau, n_y, n_w in ((16, 33, 48), (32, 65, 96)):
        grid = TransformGrid(n_tau=n_tau, n_y=n_y, y_half=0.4,
                                      n_time_quad=n_w)
        vals.append(float(solve_perturbation(spec, grid).tables[0][-1, n_y // 2]))
    base, fine = vals
    assert base == pytest.approx(U1_PROBE, abs=2e-5)
    assert fine == pytest.approx(U1_PROBE, abs=2e-5)
    # stable to four significant digits under doubling
    assert abs(base - fine) / fine < 1e-4


def test_u1_is_rho_independent(sol_rho_002):
    spec_b = CallSpec(100.0, 1.0, 0.2, 0.11)
    grid = sol_rho_002.grid
    sol_b = solve_perturbation(spec_b, grid)
    np.testing.assert_array_equal(sol_rho_002.tables[0], sol_b.tables[0])
    np.testing.assert_array_equal(sol_rho_002.tables[1], sol_b.tables[1])


def test_u1_vanishes_at_small_tau(sol_rho_002):
    sol = sol_rho_002
    tau1 = sol.grid.nodes(sol.spec)[0][1]
    assert np.all(sol.tables[0][0] == 0.0)
    assert np.max(sol.tables[0][1]) < 100.0 * tau1  # no more than sup|f| * tau


def test_u1_nonnegative_u0_nonnegative(sol_rho_002):
    tau_axis, y_nodes = sol_rho_002.grid.nodes(sol_rho_002.spec)
    assert np.all(u0(tau_axis[:, None], y_nodes[None, :]) >= 0.0)
    assert np.all(sol_rho_002.tables[0] >= 0.0)


def test_u2_zero_when_u1_zero():
    # degenerate first-order table: the second-order integrand vanishes
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=16, n_space_quad=61
    )
    tau_axis = grid.nodes(spec)[0]
    y_ext = np.linspace(-2.5, 2.5, 401)
    zero_rows = np.zeros((2, y_ext.size))
    coeff = source_coefficient(spec)

    def src(s, z):
        # (U1, U1') is zero at both ends of every step, whatever the fraction
        grad = nonlinear_f_gradient(*u0_and_prime(s, z), coeff)
        return pricing._u2_source(*grad, 0.5, zero_rows, zero_rows)

    u2 = reference_stepped_duhamel(src, tau_axis, y_ext, pricing._step_dw(spec, grid))
    np.testing.assert_array_equal(u2, 0.0)


def test_u2_probe_doubling_stability():
    # the second-order correction is stable to three significant digits
    # under grid-and-quadrature doubling
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    vals = []
    for n_tau, n_y, n_w, n_xi in ((16, 33, 24, 81), (32, 65, 48, 161)):
        grid = TransformGrid(n_tau=n_tau, n_y=n_y, y_half=0.3,
            n_time_quad=n_w, n_space_quad=n_xi,
        )
        sol = solve_perturbation(spec, grid)
        vals.append(float(sol.correction_values(0.02, 0.0)[1]))
    # agreement to three significant digits
    assert abs(vals[0] - vals[1]) / abs(vals[1]) < 5e-3
    assert f"{vals[0]:.3g}" == f"{vals[1]:.3g}"


def test_quadrature_self_check():
    # the stepped U1 must agree with a direct quadrature at the top node
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=24, n_space_quad=81
    )
    sol = solve_perturbation(spec, grid)
    assert sol.diagnostics["u1_stepped_vs_direct_gap"] < 1e-4


def test_correction_homogeneity_in_constant():
    # U1 is linear and U2 quadratic in the source constant; the comparison
    # tooling relies on this to rescale between candidate constants
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=16, n_space_quad=61
    )
    ys = np.linspace(-2.5, 2.5, 401)
    # compared where the series keeps the tables; in the padded tails the
    # values underflow (~1e-167) and are not homogeneous to rounding
    keep = np.abs(ys) <= 0.3
    k = spec.strike
    free = source_coefficient(spec, pricing.SOURCE_STRIKE_FREE)
    scaled = source_coefficient(spec, pricing.SOURCE_STRIKE_SCALED)
    u1_a, u2_a = pricing.compute_corrections(spec, grid, ys, free)[1]
    u1_b, u2_b = pricing.compute_corrections(spec, grid, ys, scaled)[1]
    np.testing.assert_allclose(u1_b[:, keep], k * u1_a[:, keep], rtol=1e-12)
    np.testing.assert_allclose(u2_b[:, keep], k * k * u2_a[:, keep], rtol=1e-12)


# the per-table march the fused build replaced: U1 and U2 each stepped on
# their own, with the heat weights of every t computed one t at a time


def reference_heat_weights(t, dy):
    from scipy.special import ndtr

    sd = np.sqrt(2.0 * t)
    k = int(np.ceil(pricing.Z_HALF_WIDTH_SDS * sd / dy)) + 1
    a = np.arange(-k - 1, k + 2) * (dy / sd)
    f = a * ndtr(a) + np.exp(-0.5 * a * a) / pricing.SQRT2PI
    return (sd / dy) * (f[2:] - 2.0 * f[1:-1] + f[:-2])


def reference_heat_apply(values, t, dy):
    w = reference_heat_weights(t, dy)
    k = w.size // 2
    return np.convolve(values, w)[k : k + values.size]


def reference_stepped_duhamel(source_fn, tau_axis, ys, dw):
    dy = float(ys[1] - ys[0])
    out = np.zeros((tau_axis.size, ys.size))
    for i in range(1, tau_axis.size):
        h = tau_axis[i] - tau_axis[i - 1]
        m = int(np.ceil(np.sqrt(h) / dw))
        dwi = np.sqrt(h) / m
        w = (np.arange(m) + 0.5) * dwi
        vals = source_fn((tau_axis[i] - w * w)[:, None], ys[None, :])
        out[i] = reference_heat_apply(out[i - 1], h, dy)
        for wk, row in zip(w, vals):
            out[i] += 2.0 * dwi * wk * reference_heat_apply(row, wk * wk, dy)
    return out


def reference_u1(spec, grid, ys, coeff):
    tau_axis = grid.nodes(spec)[0]

    def remainder(s, z):
        v1, v2 = u0_and_prime(s, z)
        lin = v2 + 0.5 * v1
        with np.errstate(invalid="ignore"):
            rest = coeff * v1 * v1 / (np.sqrt(lin * lin + v1 * v1) + lin)
        return np.where(lin > 0.0, rest, 0.0)

    v1, v2 = u0_and_prime(tau_axis[:, None], ys[None, :])
    linear = tau_axis[:, None] * coeff * (v2 + 0.5 * v1)
    return linear + reference_stepped_duhamel(remainder, tau_axis, ys,
                                              pricing._step_dw(spec, grid))


def reference_u2(spec, grid, u1_table, ys, coeff):
    tau_axis = grid.nodes(spec)[0]
    tables = np.stack([u1_table, np.gradient(u1_table, ys, axis=1)])

    def src(s, z):
        s = s[:, 0]
        k = np.searchsorted(tau_axis, s)
        frac = ((s - tau_axis[k - 1]) / (tau_axis[k] - tau_axis[k - 1]))[:, None]
        u1, u1p = (1.0 - frac) * tables[:, k - 1] + frac * tables[:, k]
        v1, v2 = u0_and_prime(s[:, None], z)
        g1, g2 = nonlinear_f_gradient(v1, v2, coeff)
        return g1 * u1 + g2 * u1p

    return reference_stepped_duhamel(src, tau_axis, ys, pricing._step_dw(spec, grid))


README_SPEC = CallSpec(100.0, 1.0, 0.2, 0.02)
# (n_tau, n_y, y_half, n_time_quad, n_space_quad): the README default grid,
# the halved grid of the series_price benchmark workload and the compare grid
BUILD_GRIDS = {
    "readme": (48, 129, 0.8, 64, 161),
    "series-price": (24, 65, 0.8, 32, 81),
    "compare": (32, 97, 0.6, 48, 161),
}


def build_grid(name):
    n_tau, n_y, y_half, n_w, n_xi = BUILD_GRIDS[name]
    return TransformGrid(n_tau=n_tau, n_y=n_y, y_half=y_half, n_time_quad=n_w,
                         n_space_quad=n_xi)


@pytest.mark.parametrize("convention", [pricing.SOURCE_STRIKE_FREE, pricing.SOURCE_STRIKE_SCALED])
@pytest.mark.parametrize("grid_name", list(BUILD_GRIDS))
def test_fused_corrections_match_per_table_march(grid_name, convention):
    # the paired march does the reference's arithmetic in the reference's
    # order, so its dy/2 tables agree bit for bit with a march on the halved
    # nodes and its dy tables with a march on every other one of those
    grid = build_grid(grid_name)
    coeff = source_coefficient(README_SPEC, convention)
    y_ext = pricing._extended_y(README_SPEC, grid)
    half = halved(y_ext)
    tables = pricing.compute_corrections(README_SPEC, grid, y_ext, coeff)
    for (u1, u2), ys in zip(tables, (half, half[::2])):
        ref_u1 = reference_u1(README_SPEC, grid, ys, coeff)
        np.testing.assert_array_equal(u1, ref_u1)
        np.testing.assert_array_equal(u2, reference_u2(README_SPEC, grid, ref_u1, ys, coeff))


def test_coarse_nodes_are_every_other_fine_node(monkeypatch):
    # each spacing takes the centered difference of U1 on its own nodes: the
    # dy nodes are exactly every other dy/2 node, not the padded grid laid
    # again (which differs from them by rounding)
    grid = build_grid("series-price")
    y_ext = pricing._extended_y(README_SPEC, grid)
    half = halved(y_ext)
    assert not np.array_equal(half[::2], y_ext)
    nodes = []
    original = np.gradient

    def recording(values, *coords, **kwargs):
        nodes.append(coords[0])
        return original(values, *coords, **kwargs)

    monkeypatch.setattr(np, "gradient", recording)
    pricing.compute_corrections(README_SPEC, grid, y_ext, source_coefficient(README_SPEC))
    monkeypatch.undo()
    assert len(nodes) == 2 * grid.n_tau + 2
    for ys in nodes:
        assert ys.size in (half.size, y_ext.size)
        np.testing.assert_array_equal(ys, half if ys.size == half.size else half[::2])


def test_fused_corrections_evaluate_u0_once_per_node(monkeypatch):
    # u0 and u0' at each in-step node serve both sources and both spacings,
    # and the closed-form linear part of U1 reads them once on the (tau, y)
    # table: one series build evaluates u0 on the dy/2 nodes only, plus the
    # direct check's n_time_quad x n_space_quad points
    grid = build_grid("series-price")
    n_ext = pricing._extended_y(README_SPEC, grid).size
    tau_axis = grid.nodes(README_SPEC)[0]
    dw = pricing._step_dw(README_SPEC, grid)
    m = np.ceil(np.sqrt(np.diff(tau_axis)) / dw).astype(int)
    points = []
    original = pricing.u0_and_prime

    def counting(tau, y):
        points.append(np.broadcast(np.asarray(tau), np.asarray(y)).size)
        return original(tau, y)

    monkeypatch.setattr(pricing, "u0_and_prime", counting)
    solve_perturbation(README_SPEC, grid)
    direct = grid.n_time_quad * grid.n_space_quad
    assert sum(points) == (m.sum() + tau_axis.size) * (2 * n_ext - 1) + direct


@pytest.mark.parametrize("grid_name, limit_mib", [("series-price", 2.0), ("readme", 5.0)])
def test_series_build_heap_peak(grid_name, limit_mib):
    # the march holds one step's nodes and weights at a time (peaks 0.86 and
    # 2.69 MiB on these grids, 1.97 on the compare grid); evaluating the
    # sources of all steps at once holds about ten sum(m_i) x n arrays and
    # exceeds both limits
    import tracemalloc

    import scipy.special  # noqa: F401  (its import is not the build's memory)

    grid = build_grid(grid_name)
    tracemalloc.start()
    try:
        pricing.solve_with_refinement_check(README_SPEC, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


# the clip at 0 after the Richardson step removes at most this share of each
# table's maximum on calls and grids that the refinement check accepts.
# Measured over about 4,000 accepted draws of the strategy below, corners
# included: worst 7.2e-6 for U1 and 8.6e-3 for U2, both at sigma 0.1 and T
# 0.1-0.2 on 17-19 y nodes over y_half 0.7-0.8, where the kernel's width at
# maturity is under half a y spacing; on the README grid they read 6e-23
# and 5.6e-8 (U2 -7.7e-8 absolute), on the series_price grid 1.3e-21 and
# 4.5e-7
CLIP_SHARE = (1e-5, 1e-2)


@settings(max_examples=30, deadline=None)
@given(strike=st.floats(50.0, 150.0), maturity=st.floats(0.1, 2.0),
       sigma=st.floats(0.1, 0.5), rho=st.floats(0.005, 0.05),
       n_tau=st.integers(16, 32), n_y=st.integers(17, 65), y_half=st.floats(0.3, 0.8),
       n_time_quad=st.integers(8, 32), n_space_quad=st.integers(21, 81))
def test_series_clip_is_small_where_refinement_accepts(strike, maturity, sigma, rho, n_tau, n_y,
                                                       y_half, n_time_quad, n_space_quad):
    spec = CallSpec(strike, maturity, sigma, rho)
    grid = TransformGrid(n_tau, n_y, y_half, n_time_quad, n_space_quad)
    sol, check = pricing.solve_with_refinement_check(spec, grid)
    assume(check["converged"])
    y_ext = pricing._extended_y(spec, grid)
    lo = (y_ext.size - n_y) // 2
    pairs = pricing.compute_corrections(spec, grid, y_ext, source_coefficient(spec))
    tables = richardson_halving(*pairs)[:, :, lo : lo + n_y]
    np.testing.assert_array_equal(np.maximum(tables, 0.0), sol.tables)
    for table, share in zip(tables, CLIP_SHARE):
        assert -table.min() <= share * table.max()


def test_solution_is_its_tables():
    # the solution keeps the stacked (U1, U2) it is built from; the grid lays
    # the nodes, and at rho = 0 the tables are zeros
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=16, n_space_quad=61)
    sol = solve_perturbation(spec, grid)
    assert [f.name for f in dataclasses.fields(sol)] == ["spec", "grid", "tables", "diagnostics"]
    assert sol.tables.shape == (2, 17, 33) and not sol.tables.flags.writeable
    classical = solve_perturbation(dataclasses.replace(spec, rho=0.0), grid)
    assert classical.tables.shape == (2, 17, 33) and not classical.tables.any()


def test_one_point_read_holds_less_than_one_table():
    # correction_values indexes the stacked tables where they are: a one-point
    # read on the README grid allocates less than one 49 x 129 table (50,568
    # bytes), where stacking U1 and U2 on every read allocates two
    sol = solve_perturbation(README_SPEC, build_grid("readme"))
    sol.correction_values(0.02, 0.0)
    tracemalloc.start()
    try:
        sol.correction_values(0.02, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sol.tables[0].nbytes


def test_padded_grid_bound():
    # the README call at y_half 0.01 pads to 27,009 nodes and builds; at 1e-3
    # it would pad to 268,929 (about 420 MB of tables) and is refused first
    y_ext = pricing._extended_y(README_SPEC, TransformGrid(y_half=0.01))
    assert y_ext.size == 27009 <= pricing.MAX_PADDED_Y_NODES
    with pytest.raises(MemoryError, match=r"needs 2\.689e\+05 nodes"):
        pricing._extended_y(README_SPEC, TransformGrid(y_half=1e-3))


def test_correction_values_reject_off_grid():
    spec = CallSpec(100.0, 1.0, 0.2, 0.02)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=16, n_space_quad=61
    )
    sol = solve_perturbation(spec, grid)
    with pytest.raises(ValueError, match="coverage"):
        sol.correction_values(0.02, [0.3, 0.9, 5.0])
    with pytest.raises(ValueError, match="coverage"):
        sol.correction_values(0.01, np.nan)
    with pytest.raises(ValueError, match="tau grid"):
        sol.correction_values([-0.01, 0.01], 0.0)
    with pytest.raises(ValueError, match="tau grid"):
        sol.correction_values(2.0 * spec.tau_max, 0.0)
    # the grid's edges are on it
    u1, u2 = sol.correction_values([0.0, spec.tau_max], [-0.3, 0.3])
    np.testing.assert_array_equal(u1, [sol.tables[0][0, 0], sol.tables[0][-1, -1]])
    np.testing.assert_array_equal(u2, [sol.tables[1][0, 0], sol.tables[1][-1, -1]])
    # the series value is read through the same check, with or without rho
    classical = solve_perturbation(CallSpec(100.0, 1.0, 0.2, 0.0), grid)
    for s in (sol, classical):
        with pytest.raises(ValueError, match="coverage"):
            price_discounted(s, spec.strike * np.exp(0.9), 0.0)  # tau 0.02, y 0.9


# ---------------------------------------------------------------- prices


def test_price_classical_limit_exact():
    sol = solve_perturbation(SPEC)
    got = price_discounted(sol, 100.0, 0.0)
    assert got == pytest.approx(bs_call(100.0, 100.0, 0.2, 1.0), abs=1e-10)
    lattice_x = np.array([85.0, 95.0, 100.0, 110.0, 120.0])
    got = price_discounted(sol, lattice_x, np.zeros(5))
    np.testing.assert_allclose(got, bs_call(lattice_x, 100.0, 0.2, 1.0), rtol=1e-10)


def test_price_terminal_payoff_exact():
    sol = solve_perturbation(SPEC)
    x = np.array([50.0, 99.999, 100.0, 101.5, 180.0])
    got = price_discounted(sol, x, np.full(5, SPEC.maturity))
    np.testing.assert_array_equal(got, np.maximum(x - 100.0, 0.0))


def test_price_deep_otm_small():
    sol = solve_perturbation(SPEC)
    assert price_discounted(sol, 100 * np.exp(-0.79), 0.5) < 1e-3


def test_price_decreases_with_rho(sol_rho_002):
    # positive arbitrage measure lowers the call price (the source term has
    # a negative sign in the canonical variables)
    sol0 = solve_perturbation(SPEC)
    x = np.array([90.0, 100.0, 115.0])
    p0 = price_discounted(sol0, x, 0.0)
    p2 = price_discounted(sol_rho_002, x, 0.0)
    assert np.all(p2 < p0)


def test_price_guards():
    sol = solve_perturbation(SPEC)
    with pytest.raises(ValueError, match="coverage"):
        price_discounted(sol, 100 * np.exp(0.9), 0.0)
    with pytest.raises(ValueError, match="positive"):
        price_discounted(sol, -1.0, 0.0)
    with pytest.raises(ValueError, match="maturity"):
        price_discounted(sol, 100.0, 1.5)
    # a NaN point fails the range check it belongs to, not the grid coverage
    grid = TransformGrid()
    with pytest.raises(ValueError, match=r"t must lie in \[0, maturity\]"):
        pricing.check_points(SPEC, grid, 100.0, np.nan)
    with pytest.raises(ValueError, match="underlying price must be positive"):
        pricing.check_points(SPEC, grid, np.nan, 0.5)
    with pytest.raises(ValueError, match="underlying price must be positive"):
        price_discounted(sol, np.array([100.0, np.nan]), 0.0)


@pytest.mark.parametrize("field", ["rho", "maturity", "strike"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_call_spec_rejects_non_finite(field, value):
    args = dict(strike=100.0, maturity=1.0, sigma=0.2, rho=0.01)
    args[field] = value
    with pytest.raises(ValueError, match="finite"):
        CallSpec(**args)


def test_rho_warning():
    # the series build warns at |rho| T = 0.6, from a file of the package;
    # the spec alone does not (the finite-difference route takes any rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = CallSpec(100.0, 2.0, 0.2, rho=0.3)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=16,
                                  n_space_quad=61)
    with pytest.warns(UserWarning, match=r"\|rho\| \* T << 1; got 0.6") as caught:
        solve_perturbation(spec, grid)
    assert [Path(w.filename).name for w in caught] == ["test_pricing.py"]


# ---------------------------------------------------------------- grids


def test_transform_grid_validation():
    for sizes in ({"n_tau": 8}, {"n_y": 15}):
        with pytest.raises(ValueError, match="16 nodes"):
            TransformGrid(**sizes)
    for sizes in ({"n_time_quad": 7}, {"n_space_quad": 20}):
        with pytest.raises(ValueError, match="coarse"):
            TransformGrid(**sizes)
    for y_half in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="y_half"):
            TransformGrid(y_half=y_half)
    # the grid holds sizes only: its nodes are laid for a call, and end at
    # tau_max and at +-y_half exactly
    spec = CallSpec(100.0, 0.25, 0.2, 0.0)
    tau_axis, y = TransformGrid(n_tau=20, n_y=33, y_half=0.4).nodes(spec)
    assert tau_axis.size == 21 and tau_axis[0] == 0.0 and tau_axis[-1] == spec.tau_max
    assert np.all(np.diff(tau_axis) > 0)
    assert y.size == 33 and y[0] == -0.4 and y[-1] == 0.4


def test_solution_determinism():
    spec = CallSpec(100.0, 1.0, 0.2, 0.01)
    grid = TransformGrid(n_tau=16, n_y=33, y_half=0.3, n_time_quad=16, n_space_quad=61
    )
    a = solve_perturbation(spec, grid)
    b = solve_perturbation(spec, grid)
    np.testing.assert_array_equal(a.tables[0], b.tables[0])
    np.testing.assert_array_equal(a.tables[1], b.tables[1])


# ---------------------------------------------------------------- Black-Scholes oracle


def test_bss_deep_itm_loading_tends_to_sigma():
    # Phi ~ X far in the money, so the implied loading falls toward sigma
    spec = CallSpec(100.0, 1.0, 0.2, 0.0)
    eps = 1e-5
    vals = []
    for m in (3.0, 10.0, 1000.0):
        x = 100.0 * m
        phi = bs_call(x, 100.0, 0.2, 1.0)
        dphi = (bs_call(x * (1 + eps), 100.0, 0.2, 1.0)
                - bs_call(x * (1 - eps), 100.0, 0.2, 1.0)) / (2 * x * eps)
        vals.append(spec.sigma * x * dphi / phi)
    assert vals[0] > vals[1] > vals[2] > spec.sigma
    assert vals[2] == pytest.approx(spec.sigma, rel=2e-3)
