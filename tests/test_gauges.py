import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from itoarb import gauges
from itoarb.gauges import (
    CashflowIntensity,
    Gauge,
    PortfolioNominals,
    convolve,
    dirac,
    forward_rate,
    gauge_transform,
    portfolio_gauge,
    portfolio_short_rate,
    short_rate,
    term_structure_from_forward,
)


def flat_gauge(rate, times=None, offsets=None, deflator=None):
    times = np.linspace(0.0, 1.0, 5) if times is None else times
    offsets = np.linspace(0.0, 3.0, 61) if offsets is None else offsets
    p = np.exp(-rate * offsets)[None, :].repeat(times.size, axis=0)
    d = np.ones(times.size) if deflator is None else deflator
    return Gauge(times, offsets, d, p)


# ---------------------------------------------------------------- convolve


def test_dirac_is_identity():
    pi = CashflowIntensity(np.array([0.3, 1.0, 0.5, 0.0]), 0.25)
    out = convolve(pi, dirac(0.25))
    assert np.allclose(out.samples[: pi.samples.size], pi.samples, atol=1e-14)
    assert np.allclose(out.samples[pi.samples.size :], 0.0)


def test_zero_annihilates():
    pi = CashflowIntensity(np.zeros(8), 0.1)
    nu = CashflowIntensity(np.random.default_rng(0).uniform(size=5), 0.1)
    assert np.allclose(convolve(pi, nu).samples, 0.0)


def test_indicator_triangle_peak():
    # indicator of [0,1] against itself: the continuous convolution is the
    # triangle t -> t on [0, 1], so the value at t = 1 is 1
    dh = 1e-3
    ind = CashflowIntensity(np.ones(int(1 / dh) + 1), dh)
    out = convolve(ind, ind)
    k = int(round(1.0 / dh))
    assert abs(out.samples[k] - 1.0) < 2 * dh


def test_riemann_sum_oracle():
    # the discrete rule must equal the explicit Riemann sum
    rng = np.random.default_rng(3)
    pi = CashflowIntensity(rng.normal(size=6), 0.5)
    nu = CashflowIntensity(rng.normal(size=4), 0.5)
    out = convolve(pi, nu)
    for k in range(out.samples.size):
        s = sum(
            pi.samples[j] * nu.samples[k - j]
            for j in range(max(0, k - 3), min(k, 5) + 1)
        )
        assert out.samples[k] == pytest.approx(0.5 * s, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    a=arrays(np.float64, 5, elements=st.floats(-2, 2)),
    b=arrays(np.float64, 7, elements=st.floats(-2, 2)),
    c=arrays(np.float64, 3, elements=st.floats(-2, 2)),
)
def test_convolution_commutative_associative(a, b, c):
    pa = CashflowIntensity(a, 0.1)
    pb = CashflowIntensity(b, 0.1)
    pc = CashflowIntensity(c, 0.1)
    ab = convolve(pa, pb)
    ba = convolve(pb, pa)
    np.testing.assert_allclose(ab.samples, ba.samples, rtol=0, atol=1e-12)
    left = convolve(ab, pc)
    right = convolve(pa, convolve(pb, pc))
    np.testing.assert_allclose(left.samples, right.samples, rtol=1e-12, atol=1e-12)
    assert left.support_end == pytest.approx(
        pa.support_end + pb.support_end + pc.support_end
    )


def test_resampling_integer_ratio():
    coarse = CashflowIntensity(np.array([1.0, 1.0, 1.0]), 0.2)
    fine = CashflowIntensity(np.ones(11), 0.1)
    out = convolve(coarse, fine)
    assert out.dh == pytest.approx(0.1)
    assert out.support_end == pytest.approx(0.4 + 1.0)


def test_incompatible_grids_error():
    a = CashflowIntensity(np.ones(4), 0.3)
    b = CashflowIntensity(np.ones(4), 0.2)
    with pytest.raises(ValueError, match="grid-incompatible"):
        convolve(a, b)


def test_intensity_validation():
    with pytest.raises(ValueError):
        CashflowIntensity(np.array([1.0, np.inf]), 0.1)
    with pytest.raises(ValueError):
        CashflowIntensity(np.array([1.0]), -0.1)


# ---------------------------------------------------------------- transforms


def test_transform_dirac_keeps_gauge():
    g = flat_gauge(0.04)
    out = gauge_transform(g, dirac(0.05))
    np.testing.assert_allclose(out.deflator, g.deflator, atol=1e-14)
    np.testing.assert_allclose(out.term_structure, g.term_structure, atol=1e-14)


def test_transform_flat_term_structure():
    g = flat_gauge(0.0)
    pi = CashflowIntensity(np.exp(-np.arange(21) * 0.05), 0.05)
    out = gauge_transform(g, pi)
    total = np.trapezoid(pi.samples, dx=pi.dh)
    np.testing.assert_allclose(out.deflator, g.deflator * total, rtol=1e-12)
    np.testing.assert_allclose(out.term_structure, 1.0, atol=1e-12)


def test_transform_horizon_error():
    g = flat_gauge(0.02, offsets=np.linspace(0.0, 0.5, 11))
    pi = CashflowIntensity(np.ones(30), 0.05)  # support 1.45 > horizon
    with pytest.raises(ValueError, match="horizon"):
        gauge_transform(g, pi)


def test_transform_degenerate_error():
    g = flat_gauge(0.01)
    pi = CashflowIntensity(np.array([1.0, -1.0, -1.0]), 0.05)
    with pytest.raises(ValueError, match="degenerate transform"):
        gauge_transform(g, pi)


def composition_gap(dh):
    """Max-norm gap between transforming twice and transforming by the
    convolution, on a smooth synthetic gauge."""
    times = np.linspace(0.0, 1.0, 3)
    offsets = np.arange(0, 241) * dh
    f = 0.03 + 0.01 * np.sin(offsets)[None, :] + 0.005 * times[:, None]
    p = term_structure_from_forward(f, dh)
    g = Gauge(times, offsets, 1.0 + 0.1 * times, p)
    lags = np.arange(0, int(0.5 / dh) + 1) * dh
    pi = CashflowIntensity(np.exp(-lags), dh)
    nu = CashflowIntensity(1.0 + 0.5 * np.sin(3 * lags), dh)
    lhs = gauge_transform(gauge_transform(g, pi), nu)
    rhs = gauge_transform(g, convolve(pi, nu))
    n = min(lhs.offsets.size, rhs.offsets.size)
    return max(
        float(np.max(np.abs(lhs.deflator - rhs.deflator))),
        float(np.max(np.abs(lhs.term_structure[:, :n] - rhs.term_structure[:, :n]))),
    )


def test_transform_composition_first_order():
    g1 = composition_gap(0.025)
    g2 = composition_gap(0.0125)
    assert g1 < 0.06 and g2 < g1
    assert g1 / g2 == pytest.approx(2.0, rel=0.15)


# ---------------------------------------------------------------- rates


def test_forward_rate_flat():
    g = flat_gauge(0.0)
    assert np.allclose(forward_rate(g), 0.0, atol=1e-14)


def test_forward_rate_exponential():
    g = flat_gauge(0.07)
    np.testing.assert_allclose(forward_rate(g), 0.07, rtol=1e-9)


def test_forward_rate_round_trip():
    # differentiate a reconstructed term structure: interior error is O(du^2)
    du = 1e-3
    offsets = np.arange(0, 2001) * du
    times = np.array([0.0, 0.5])
    f_true = 0.02 + 0.03 * offsets**2 / (1 + offsets)
    f_surface = np.tile(f_true, (2, 1))
    p = term_structure_from_forward(f_surface, du)
    g = Gauge(times, offsets, np.ones(2), p)
    f_back = forward_rate(g)
    interior = slice(1, -1)
    assert np.max(np.abs(f_back[:, interior] - f_surface[:, interior])) < 1e-6


def test_short_rate_constant_and_zero():
    assert np.allclose(short_rate(forward_rate(flat_gauge(0.0))), 0.0, atol=1e-14)
    np.testing.assert_allclose(
        short_rate(forward_rate(flat_gauge(0.03))), 0.03, rtol=1e-9
    )


def test_short_rate_grid_refinement():
    # sloped forward curve: the edge estimate is c + m du / 2, converging to c
    c, m = 0.02, 0.05
    errs = []
    for du in (0.1, 0.05, 0.025):
        offsets = np.arange(0, int(2 / du) + 1) * du
        p = np.exp(-(c * offsets + 0.5 * m * offsets**2))[None, :]
        g = Gauge(np.array([0.0]), offsets, np.ones(1), p)
        errs.append(abs(short_rate(forward_rate(g))[0] - c))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] == pytest.approx(4.0, rel=0.1)
    assert errs[2] == pytest.approx(m * 0.025 / 2, rel=1e-6)


def test_short_rate_empty_axis_error():
    with pytest.raises(ValueError, match="maturity axis"):
        short_rate(np.empty((3, 0)))


# ---------------------------------------------------------------- portfolios


def test_portfolio_single_asset_identity():
    g = flat_gauge(0.05)
    out = portfolio_gauge(PortfolioNominals(np.array([2.0])), [g])
    np.testing.assert_allclose(out.deflator, 2.0 * g.deflator)
    np.testing.assert_allclose(out.term_structure, g.term_structure, rtol=1e-10)


def test_portfolio_identical_gauges():
    g = flat_gauge(0.03)
    x = PortfolioNominals(np.array([0.7, 2.5]))
    out = portfolio_gauge(x, [g, g])
    np.testing.assert_allclose(out.term_structure, g.term_structure, rtol=1e-10)
    np.testing.assert_allclose(out.deflator, 3.2 * g.deflator)


def test_portfolio_value_weighted_short_rate():
    g1 = flat_gauge(0.01)
    g2 = flat_gauge(0.03)
    x = PortfolioNominals(np.array([1.0, 1.0]))  # equal value: deflators are 1
    r = portfolio_short_rate(x, [g1, g2])
    np.testing.assert_allclose(r, 0.02, atol=1e-10)


def test_portfolio_short_rate_weighted_sum_oracle():
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 4)
    rates = [0.01, 0.025, 0.04]
    defl = [1.0 + rng.uniform(0.1, 1.0) * (1 + times) for _ in rates]
    gs = [flat_gauge(r, times=times, deflator=d) for r, d in zip(rates, defl)]
    x = PortfolioNominals(rng.uniform(0.5, 2.0, size=3))
    r = portfolio_short_rate(x, gs)
    d = np.stack([g.deflator for g in gs], axis=1)
    w = x.x * d / (d @ x.x)[:, None]
    expected = w @ np.asarray(rates)
    np.testing.assert_allclose(r, expected, atol=1e-10)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_portfolio_zero_rates():
    gs = [flat_gauge(0.0), flat_gauge(0.0)]
    r = portfolio_short_rate(PortfolioNominals(np.array([1.0, 3.0])), gs)
    assert np.allclose(r, 0.0, atol=1e-14)


def test_portfolio_short_rate_single_asset():
    g = flat_gauge(0.035)
    r = portfolio_short_rate(PortfolioNominals(np.array([4.0])), [g])
    np.testing.assert_allclose(r, short_rate(forward_rate(g)), atol=1e-14)


def test_portfolio_degenerate_error():
    g = flat_gauge(0.02)
    with pytest.raises(ValueError, match="degenerate portfolio"):
        portfolio_gauge(PortfolioNominals(np.array([1.0, -1.0])), [g, g])


def test_portfolio_grid_mismatch_error():
    g1 = flat_gauge(0.02)
    g2 = flat_gauge(0.02, offsets=np.linspace(0.0, 3.0, 31))
    with pytest.raises(ValueError, match="share"):
        portfolio_gauge(PortfolioNominals(np.array([1.0, 1.0])), [g1, g2])


# ---------------------------------------------------------------- gauge type


def test_gauge_invariants_enforced():
    times = np.array([0.0, 1.0])
    offsets = np.linspace(0.0, 1.0, 11)
    good = np.exp(-0.1 * offsets)[None, :].repeat(2, axis=0)
    with pytest.raises(ValueError, match="positive"):
        Gauge(times, offsets, np.ones(2), -good)
    bad_diag = good.copy()
    bad_diag[:, 0] = 1.001
    with pytest.raises(ValueError, match="equal one"):
        Gauge(times, offsets, np.ones(2), bad_diag)
    with pytest.raises(ValueError, match="uniform"):
        Gauge(times, offsets**2, np.ones(2), good)


def test_gauge_immutable():
    g = flat_gauge(0.02)
    with pytest.raises(ValueError):
        g.term_structure[0, 0] = 2.0


# ---------------------------------------------------------------- CSV


def test_csv_round_trips(tmp_path):
    g = flat_gauge(0.04, times=np.linspace(0, 1, 3), offsets=np.linspace(0, 2, 21))
    p = tmp_path / "ts.csv"
    gauges.write_term_structure_csv(p, g)
    back = gauges.read_term_structure_csv(p)
    np.testing.assert_allclose(back.term_structure, g.term_structure, rtol=1e-10)
    np.testing.assert_allclose(back.offsets, g.offsets, atol=1e-10)

    d = tmp_path / "deflator.csv"
    gauges.write_deflator_csv(d, g.times, g.deflator)
    t, v = gauges.read_deflator_csv(d)
    np.testing.assert_allclose(t, g.times)
    np.testing.assert_allclose(v, g.deflator)

    i = tmp_path / "intensity.csv"
    pi = CashflowIntensity(np.array([0.5, 1.5, 0.25]), 0.5)
    gauges.write_intensity_csv(i, pi)
    back_pi = gauges.read_intensity_csv(i)
    np.testing.assert_allclose(back_pi.samples, pi.samples)
    assert back_pi.dh == pytest.approx(pi.dh)

    gauges.write_intensity_csv(i, dirac(0.5))
    with pytest.raises(ValueError, match="dh"):
        gauges.read_intensity_csv(i)
    point = gauges.read_intensity_csv(i, dh=0.5)
    assert point.is_point_mass and point.samples[0] == pytest.approx(2.0)


def test_csv_readers_accept_crlf_files(tmp_path):
    # the interchange files once ended their lines in CRLF (csv module default)
    ts = tmp_path / "ts.csv"
    ts.write_bytes(b"t,s,value\r\n0,0,1\r\n0,0.5,0.98\r\n1,1,1\r\n1,1.5,0.97\r\n")
    g = gauges.read_term_structure_csv(ts)
    np.testing.assert_array_equal(g.times, [0.0, 1.0])
    np.testing.assert_array_equal(g.offsets, [0.0, 0.5])
    np.testing.assert_array_equal(g.term_structure, [[1.0, 0.98], [1.0, 0.97]])

    d = tmp_path / "deflator.csv"
    d.write_bytes(b"t,value\r\n0,1\r\n1,0.99\r\n")
    t, v = gauges.read_deflator_csv(d)
    np.testing.assert_array_equal(t, [0.0, 1.0])
    np.testing.assert_array_equal(v, [1.0, 0.99])

    i = tmp_path / "intensity.csv"
    i.write_bytes(b"h,value\r\n0,0.5\r\n0.5,1.5\r\n")
    pi = gauges.read_intensity_csv(i)
    np.testing.assert_array_equal(pi.samples, [0.5, 1.5])
    assert pi.dh == 0.5


def test_csv_writers_emit_lf_rows(tmp_path):
    g = flat_gauge(0.04, times=np.array([0.0, 0.5]), offsets=np.array([0.0, 0.25]))
    p = tmp_path / "ts.csv"
    gauges.write_term_structure_csv(p, g)
    assert p.read_bytes() == (b"t,s,value\n0,0,1\n0,0.25,0.990049833749\n"
                              b"0.5,0.5,1\n0.5,0.75,0.990049833749\n")
