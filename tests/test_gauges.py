import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from itoarb.gauges import (
    CashflowIntensity,
    Gauge,
    convolve,
    gauge_transform,
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
    out = convolve(pi, CashflowIntensity(np.array([1.0 / 0.25]), 0.25))  # unit point mass
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
    out = gauge_transform(g, CashflowIntensity(np.array([1.0 / 0.05]), 0.05))
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


# ---------------------------------------------------------------- term structure


@pytest.mark.parametrize("n", [2, 3, 17, 1001, 2001])
def test_term_structure_from_forward_is_scipy_trapezoid(n):
    # the one-line cumsum is scipy's cumulative_trapezoid, bit for bit
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(n)
    f = rng.normal(0.02, 0.05, (3, n))
    du = rng.uniform(0.001, 0.1)
    np.testing.assert_array_equal(
        term_structure_from_forward(f, du),
        np.exp(-cumulative_trapezoid(f, dx=du, axis=1, initial=0.0)),
    )


def test_term_structure_from_forward_matches_closed_form():
    # P = exp(-int_0^u f) for f = 0.02 + 0.03 v^2 / (1 + v); the trapezoid
    # rule is second order, so at du = 1e-3 the error is far below 1e-6
    du = 1e-3
    offsets = np.arange(0, 2001) * du
    f = np.tile(0.02 + 0.03 * offsets**2 / (1 + offsets), (2, 1))
    integral = 0.02 * offsets + 0.03 * (0.5 * offsets**2 - offsets + np.log1p(offsets))
    p = term_structure_from_forward(f, du)
    assert p.shape == f.shape and np.all(p[:, 0] == 1.0)
    np.testing.assert_allclose(p, np.tile(np.exp(-integral), (2, 1)), rtol=1e-6, atol=0)


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
