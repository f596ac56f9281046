import numpy as np
import pytest

from itoarb.gauges import Gauge, PortfolioNominals, forward_rate, short_rate
from itoarb.geometry import ItoCoefficients, kernel_basis
from itoarb.simulate import (
    _HEADER,
    EstimatorConfig,
    _gathered_means,
    _neighbor_indices,
    brownian_paths,
    empirical_rho,
    ensemble_to_csv,
    instantaneous_return,
    load_ensemble,
    nelson_derivatives,
    save_ensemble,
    self_financing_residual,
    simulate,
)


def flat_gauge_on(times, rate):
    offsets = np.linspace(0.0, 2.0, 41)
    p = np.exp(-rate * offsets)[None, :].repeat(times.size, axis=0)
    return Gauge(times, offsets, np.ones(times.size), p)


def model(alpha, sigma, r=None):
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if r is None:
        r = np.zeros_like(alpha)
    return ItoCoefficients(alpha, sigma, r)


# ---------------------------------------------------------------- simulation


def test_deterministic_growth_exact():
    m = model([0.07], np.array([[0.0]]))
    ens = simulate(m, 16, 0.01, 1.0, seed=1)
    t = ens.times
    expected = np.exp(0.07 * t)
    np.testing.assert_allclose(ens.states[:, :, 0], np.tile(expected, (16, 1)), rtol=1e-12)
    # the driving noise is stored regardless; sigma = 0 just decouples it
    assert np.any(ens.noise[:, -1, :] != 0.0)


def test_seed_determinism_and_sensitivity():
    m = model([0.05, 0.02], np.array([[0.2, 0.0], [0.05, 0.15]]))
    a = simulate(m, 300, 0.01, 0.5, seed=42)
    b = simulate(m, 300, 0.01, 0.5, seed=42)
    c = simulate(m, 300, 0.01, 0.5, seed=43)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.noise, b.noise)
    assert not np.array_equal(a.states, c.states)


def test_block_splitting_is_path_stable():
    # the first 4096 paths are one stream: a larger run reproduces them
    m = model([0.05], np.array([[0.2]]))
    small = simulate(m, 100, 0.01, 0.2, seed=9)
    large = simulate(m, 4096 + 50, 0.01, 0.2, seed=9)
    np.testing.assert_array_equal(large.states[:100], small.states)


def test_log_mean_matches_clt():
    alpha, sigma = 0.08, 0.25
    m = model([alpha], np.array([[sigma]]))
    ens = simulate(m, 20000, 0.005, 1.0, seed=5)
    t_idx = 200  # t = 1.0
    logs = np.log(ens.states[:, t_idx, 0])
    target = (alpha - 0.5 * sigma**2) * 1.0
    se = sigma * 1.0 / np.sqrt(ens.n_paths)
    assert abs(logs.mean() - target) < 3 * se


def test_states_positive_and_frozen():
    m = model([0.0, 0.0], np.array([[0.3], [0.2]]))
    ens = simulate(m, 50, 0.01, 0.3, seed=2)
    assert np.all(ens.states > 0)
    assert np.all(ens.noise[:, 0, :] == 0.0)
    with pytest.raises(ValueError):
        ens.states[0, 0, 0] = 2.0


def test_schedule_and_validation():
    coeffs = [model([0.1 * (i % 2)], np.array([[0.1]])) for i in range(10)]
    ens = simulate(coeffs, 8, 0.1, 1.0, seed=3)
    assert ens.states.shape == (8, 11, 1)
    with pytest.raises(ValueError, match="schedule"):
        simulate(coeffs[:4], 8, 0.1, 1.0, seed=3)
    with pytest.raises(ValueError, match="integer number"):
        simulate(coeffs[0], 8, 0.3, 1.0, seed=3)


def test_brownian_paths_reject_partial_step():
    # 1.0 / 0.3 is not a whole number of steps: no silent truncation to 0.9
    with pytest.raises(ValueError, match="integer number"):
        brownian_paths(4, 0.3, 1.0, seed=1)
    assert brownian_paths(4, 0.25, 1.0, seed=1).shape == (4, 5, 1)


# ---------------------------------------------------------------- estimators


def test_estimator_config_guards():
    with pytest.raises(ValueError, match="neighbors"):
        EstimatorConfig(lag=0.01, neighbors=4, t_min=0.1)
    cfg = EstimatorConfig(lag=0.005, neighbors=8, t_min=0.1)
    with pytest.raises(ValueError, match="one time step"):
        cfg.window(dt=0.01, n_times=101, t_indices=[50])
    with pytest.raises(ValueError, match="t_min"):
        EstimatorConfig(lag=0.05, neighbors=8, t_min=0.05).window(0.01, 101, [50])
    for bad in (np.nan, np.inf, 0.0, -0.01):
        with pytest.raises(ValueError, match="finite and positive"):
            EstimatorConfig(lag=bad, neighbors=8, t_min=0.1)
        with pytest.raises(ValueError, match="finite and positive"):
            EstimatorConfig(lag=0.05, neighbors=8, t_min=bad)


def test_estimator_window():
    cfg = EstimatorConfig(lag=0.05, neighbors=8, t_min=0.1)
    steps, m = cfg.window(0.01, 101, [10, 50, 95])
    assert m == 5 and steps.dtype.kind == "i"
    np.testing.assert_array_equal(steps, [10, 50, 95])
    with pytest.raises(ValueError, match="whole number"):
        EstimatorConfig(lag=0.012, neighbors=8, t_min=0.05).window(0.005, 201, [100])
    with pytest.raises(ValueError, match="estimation time 0.09 below t_min"):
        cfg.window(0.01, 101, [50, 9])
    with pytest.raises(ValueError, match="leaves the simulated horizon"):
        cfg.window(0.01, 101, [50, 96])
    # the first offending step names the failure
    with pytest.raises(ValueError, match="leaves the simulated horizon"):
        cfg.window(0.01, 101, [96, 9])


def test_estimator_config_defaults():
    m = model([0.05], np.array([[0.2]]))
    ens = simulate(m, 3000, 0.01, 0.5, seed=1)
    cfg = EstimatorConfig.for_ensemble(ens.dt, ens.n_paths)
    assert cfg.lag == pytest.approx(0.05)
    assert cfg.neighbors == 15
    assert cfg.t_min == pytest.approx(0.1)
    assert cfg.window(ens.dt, ens.states.shape[1], [10, 45])[1] == 5


def test_partial_step_lag_rejected_by_every_estimator():
    # lag = 2.4 steps: quotients over a 2-step window divided by the lag
    # would read a planted rho of 0.02 as 0.0174, with a tiny SE
    sigma = np.array([[0.2], [0.1]])
    m = ItoCoefficients((sigma @ [0.3]).ravel(), sigma, np.zeros(2))
    ens = simulate(m, 64, 0.005, 1.0, seed=8)
    cfg = EstimatorConfig(lag=0.012, neighbors=8, t_min=0.05)
    gauges = [flat_gauge_on(ens.times, 0.0)] * 2
    calls = [
        lambda: empirical_rho(ens, m, cfg, [100]),
        lambda: nelson_derivatives(ens.states[:, :, 0], ens.states, ens.dt, cfg, [100]),
        lambda: instantaneous_return(ens, PortfolioNominals(np.ones(2)), gauges, cfg, [100]),
        lambda: self_financing_residual(np.ones((ens.states.shape[1], 2)), ens, cfg, [100]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="whole number of time steps"):
            call()


def test_insufficient_neighbors_error():
    w = brownian_paths(16, 0.01, 1.0, seed=1)
    cfg = EstimatorConfig(lag=0.05, neighbors=64, t_min=0.1)
    with pytest.raises(ValueError, match="insufficient neighbors: requested 64"):
        nelson_derivatives(w[:, :, 0], w, 0.01, cfg, [50])


def test_deterministic_functional_recovers_time_derivative():
    # Q(t) = g(t) with no noise: forward/backward quotients straddle g'
    dt = 0.01
    m = model([0.06], np.array([[0.0]]))
    ens = simulate(m, 16, dt, 1.0, seed=0)
    g_vals = np.log(ens.states[:, :, 0]) ** 2  # g(t) = (0.06 t)^2
    cfg = EstimatorConfig(lag=5 * dt, neighbors=8, t_min=10 * dt)
    est = nelson_derivatives(g_vals, ens.states, dt, cfg, [50])
    t = 0.5
    g_prime = 2 * 0.06**2 * t
    assert est.forward[0].mean() == pytest.approx(g_prime, abs=0.06**2 * cfg.lag * 1.1)
    assert est.backward[0].mean() == pytest.approx(g_prime, abs=0.06**2 * cfg.lag * 1.1)
    # the mean derivative is second-order accurate for smooth functions
    assert est.mean[0].mean() == pytest.approx(g_prime, rel=1e-3)


def brownian_bin_check(w, est, t, n_bins=10):
    """Compare state-binned estimates against the known conditional laws."""
    m = w.size
    edges = np.quantile(w, np.linspace(0, 1, n_bins + 1))
    edges[0] -= 1.0
    edges[-1] += 1.0
    which = np.digitize(w, edges) - 1
    rows = []
    for b in range(n_bins):
        sel = which == b
        rows.append((w[sel].mean(), sel))
    return rows


def test_brownian_derivatives_state_binned():
    dt = 1e-3
    h = 5 * dt
    w = brownian_paths(20000, dt, 1.0, seed=11)
    cfg = EstimatorConfig(lag=h, neighbors=100, t_min=10 * dt)
    i = 500  # t = 0.5
    est = nelson_derivatives(w[:, :, 0], w, dt, cfg, [i])
    t = 0.5
    wt = w[:, i, 0]
    quotient_sd = np.sqrt(1.0 / h)  # var of the raw difference quotients
    for w_bin, sel in brownian_bin_check(wt, est, t):
        n_b = sel.sum()
        se = quotient_sd / np.sqrt(n_b)
        assert abs(est.forward[0][sel].mean() - 0.0) < 5 * se
        assert abs(est.backward[0][sel].mean() - w_bin / t) < 5 * se
        assert abs(est.mean[0][sel].mean() - w_bin / (2 * t)) < 5 * se


def test_gbm_mean_derivative_matches_analytic():
    alpha, sigma = 0.1, 0.3
    dt = 1e-3
    m = model([alpha], np.array([[sigma]]))
    ens = simulate(m, 20000, dt, 1.0, seed=21)
    cfg = EstimatorConfig(lag=5 * dt, neighbors=100, t_min=10 * dt)
    i = 500
    t = 0.5
    est = nelson_derivatives(np.log(ens.states[:, :, 0]), ens.states, dt, cfg, [i])
    wt = ens.noise[:, i, 0]
    target = alpha - 0.5 * sigma**2 + sigma * wt / (2 * t)
    quotient_sd = sigma * np.sqrt(1.0 / (2 * cfg.lag))
    edges = np.quantile(wt, np.linspace(0, 1, 11))
    edges[0] -= 1.0
    edges[-1] += 1.0
    which = np.digitize(wt, edges) - 1
    for b in range(10):
        sel = which == b
        se = quotient_sd / np.sqrt(sel.sum())
        assert abs(est.mean[0][sel].mean() - target[sel].mean()) < 5 * se


# ---------------------------------------------------------------- returns


def test_instantaneous_return_deterministic_growth():
    dt = 0.01
    mu = 0.07
    m = model([mu], np.array([[0.0]]))
    ens = simulate(m, 16, dt, 1.0, seed=0)
    gauges = [flat_gauge_on(ens.times, 0.0)]
    cfg = EstimatorConfig(lag=5 * dt, neighbors=8, t_min=10 * dt)
    times, mean, se = instantaneous_return(
        ens, PortfolioNominals(np.array([1.0])), gauges, cfg, [40, 60]
    )
    np.testing.assert_allclose(mean, mu, rtol=1e-9)


def test_instantaneous_return_flat_asset_rate_only():
    dt = 0.01
    m = model([0.0], np.array([[0.0]]))
    ens = simulate(m, 16, dt, 1.0, seed=0)  # D identically 1
    gauges = [flat_gauge_on(ens.times, 0.04)]
    cfg = EstimatorConfig(lag=5 * dt, neighbors=8, t_min=10 * dt)
    _, mean, _ = instantaneous_return(
        ens, PortfolioNominals(np.array([2.0])), gauges, cfg, [50]
    )
    np.testing.assert_allclose(mean, 0.04, rtol=1e-9)


def test_instantaneous_return_portfolio_invariant_under_zc():
    # aligned-volatility no-arbitrage model: the return is the same for all
    # portfolios up to estimator noise
    dt = 0.005
    row = 0.15
    sigma = np.array([[row], [row]])
    r = np.array([0.01, 0.03])
    lam = 0.4
    diag = np.array([row**2, row**2])
    alpha = (sigma @ [lam]) - r + 0.5 * diag
    m = ItoCoefficients(alpha, sigma, r)
    ens = simulate(m, 4000, dt, 1.0, seed=33)
    gauges = [flat_gauge_on(ens.times, ri) for ri in r]
    cfg = EstimatorConfig(lag=5 * dt, neighbors=64, t_min=10 * dt)
    idx = [100, 140]
    _, mean_a, se_a = instantaneous_return(
        ens, PortfolioNominals(np.array([1.0, 1.0])), gauges, cfg, idx
    )
    _, mean_b, se_b = instantaneous_return(
        ens, PortfolioNominals(np.array([3.0, 0.5])), gauges, cfg, idx
    )
    assert np.all(np.abs(mean_a - mean_b) < 3 * (se_a + se_b))


# ---------------------------------------------------------------- empirical rho


def test_empirical_rho_zc_model_is_zero():
    sigma = np.array([[0.2], [0.1]])
    alpha = (sigma @ [0.3]).ravel()
    m = ItoCoefficients(alpha, sigma, np.zeros(2))
    ens = simulate(m, 2000, 0.005, 1.0, seed=7)
    cfg = EstimatorConfig(lag=0.025, neighbors=32, t_min=0.05)
    est = empirical_rho(ens, m, cfg, [80, 120, 160])
    # the kernel projection annihilates the driving noise exactly, so the
    # estimate collapses onto the planted value
    assert np.max(np.abs(est.estimate)) < 1e-9
    assert est.B == 1


def test_empirical_rho_planted_value():
    sigma = np.array([[0.2], [0.1]])
    basis = kernel_basis(sigma)
    planted = 0.02
    alpha = (sigma @ [0.3]).ravel() + planted * basis.J[:, 0]
    m = ItoCoefficients(alpha, sigma, np.zeros(2))
    ens = simulate(m, 2000, 0.005, 1.0, seed=8)
    cfg = EstimatorConfig(lag=0.025, neighbors=32, t_min=0.05)
    est = empirical_rho(ens, m, cfg, [100, 150])
    assert np.allclose(est.estimate, planted, atol=max(3 * est.se.max(), 1e-9))


def test_empirical_rho_se_shrinks_with_paths():
    # direction-varying volatility keeps genuine noise in the projected
    # responses (a constant direction is annihilated exactly), so the
    # standard error must scale like 1/sqrt(M)
    dt = 0.005
    n_steps = 200
    times = np.arange(n_steps) * dt
    schedule = [
        ItoCoefficients(
            np.array([0.05, 0.04]),
            np.array([[0.2], [0.1 + 0.05 * np.sin(2 * np.pi * t)]]),
            np.zeros(2),
            t=t,
        )
        for t in times
    ]
    i_bucket = 100
    model_at_bucket = schedule[i_bucket]
    ses = []
    for m_paths, seed in ((2000, 5), (4000, 5)):
        ens = simulate(schedule, m_paths, dt, 1.0, seed=seed)
        cfg = EstimatorConfig(lag=5 * dt, neighbors=32, t_min=10 * dt)
        est = empirical_rho(ens, model_at_bucket, cfg, [i_bucket])
        ses.append(float(est.se[0, 0]))
    ratio = ses[0] / ses[1]
    assert np.sqrt(2) * 0.8 < ratio < np.sqrt(2) * 1.2


def test_empirical_rho_single_asset_empty():
    m = model([0.1], np.array([[0.2]]))
    ens = simulate(m, 500, 0.005, 0.5, seed=9)
    cfg = EstimatorConfig(lag=0.025, neighbors=16, t_min=0.05)
    est = empirical_rho(ens, m, cfg, [60])
    assert est.B == 0
    assert est.estimate.shape == (1, 0)


# ---------------------------------------------------------------- self-financing


def test_self_financing_constant_strategy():
    m = model([0.05, 0.01], np.array([[0.2, 0.0], [0.1, 0.1]]))
    ens = simulate(m, 2000, 0.005, 1.0, seed=12)
    x = np.broadcast_to(np.array([1.0, 2.0]), (ens.states.shape[1], 2))
    cfg = EstimatorConfig(lag=0.025, neighbors=32, t_min=0.05)
    rep = self_financing_residual(x, ens, cfg, [100, 150])
    assert np.all(np.abs(rep.residual) <= np.maximum(3 * rep.residual_se, 1e-10))


def test_self_financing_unfinanced_drift_flagged():
    # deterministic smooth strategy on a deterministic asset: the residual
    # is the unfinanced inflow xdot * D
    dt = 0.01
    mu = 0.06
    m = model([mu], np.array([[0.0]]))
    ens = simulate(m, 16, dt, 1.0, seed=0)
    t_grid = ens.times
    x = (1.0 + 0.5 * np.sin(t_grid))[:, None]
    cfg = EstimatorConfig(lag=5 * dt, neighbors=8, t_min=10 * dt)
    rep = self_financing_residual(x, ens, cfg, [50])
    t = 0.5
    expected = 0.5 * np.cos(t) * np.exp(mu * t)
    assert rep.residual[0] == pytest.approx(expected, rel=1e-3)
    assert abs(rep.residual[0]) > 10 * max(rep.residual_se[0], 1e-12)


def test_self_financing_rebalanced_strategy():
    rng = np.random.default_rng(99)
    dt = 0.005
    m = model([0.04, 0.02], np.array([[0.18, 0.0], [0.05, 0.12]]))
    ens = simulate(m, 3000, dt, 1.0, seed=13)
    n_times = ens.states.shape[1]
    x = np.empty((ens.n_paths, n_times, 2))
    x[:, :, :] = np.array([1.0, 1.0])
    for t_r, target in ((60, np.array([0.3, 0.7])), (130, np.array([0.8, 0.2]))):
        wealth = np.einsum("mn,mn->m", x[:, t_r, :], ens.states[:, t_r, :])
        new_x = wealth[:, None] * target[None, :] / ens.states[:, t_r, :]
        x[:, t_r:, :] = new_x[:, None, :]
    cfg = EstimatorConfig(lag=5 * dt, neighbors=48, t_min=10 * dt)
    rep = self_financing_residual(x, ens, cfg, [40, 100, 170])
    assert np.all(np.abs(rep.residual) <= 3 * rep.residual_se + 1e-6)


# ---------------------------------------------------------------- persistence


def test_ensemble_round_trip(tmp_path):
    m = model([0.05, 0.01], np.array([[0.2, 0.0], [0.1, 0.1]]))
    ens = simulate(m, 37, 0.01, 0.25, seed=4)
    f = tmp_path / "paths.gate"
    save_ensemble(ens, f)
    back = load_ensemble(f)
    np.testing.assert_array_equal(back.states, ens.states)
    np.testing.assert_array_equal(back.noise, ens.noise)
    assert back.dt == ens.dt and back.seed == ens.seed
    with open(f, "rb") as fh:
        assert fh.read(4) == b"GATE"


def test_ensemble_bad_magic(tmp_path):
    f = tmp_path / "junk.gate"
    f.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_ensemble(f)


@pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + bytes(8), lambda b: b[:20]],
                         ids=["truncated", "padded", "header-cut"])
def test_ensemble_wrong_size_rejected(tmp_path, edit):
    ens = simulate(model([0.05], np.array([[0.2]])), 5, 0.1, 0.3, seed=6)
    f = tmp_path / "paths.gate"
    save_ensemble(ens, f)
    f.write_bytes(edit(f.read_bytes()))
    with pytest.raises(ValueError, match=r"\d+ bytes"):
        load_ensemble(f)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.01])
def test_ensemble_bad_header_dt_rejected(tmp_path, dt):
    ens = simulate(model([0.05], np.array([[0.2]])), 5, 0.1, 0.3, seed=6)
    f = tmp_path / "paths.gate"
    save_ensemble(ens, f)
    raw = bytearray(f.read_bytes())
    fields = list(_HEADER.unpack_from(raw))
    fields[6] = dt  # magic, version, M, N, K, steps, dt, seed
    _HEADER.pack_into(raw, 0, *fields)
    f.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        load_ensemble(f)


def test_ensemble_csv_export(tmp_path):
    m = model([0.05], np.array([[0.2]]))
    ens = simulate(m, 5, 0.1, 0.3, seed=6)
    f = tmp_path / "paths.csv"
    ensemble_to_csv(ens, f, max_paths=3)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "path,t,S_1,W_1"
    assert len(lines) == 1 + 3 * 4
    # path 2 at t = 0.1: integer path index, then %.12g cells
    assert lines[1 + 2 * 4 + 1] == (f"2,0.1,{ens.states[2, 1, 0]:.12g},"
                                    f"{ens.noise[2, 1, 0]:.12g}")


# ---------------------------------------------------------------- reference


def per_step_reference(ens, m, cfg, steps, x, gauges, x_paths):
    """The four estimators as per-report-time loops, in the arithmetic they
    had before they read one gathered window; returns their outputs in the
    order nelson (forward, backward, mean, se), instantaneous return (mean,
    se), empirical rho (estimate, se), self-financing (residual, se,
    covariation term)."""
    lag, k = cfg.lag, int(round(cfg.lag / ens.dt))
    out = {name: [] for name in ("nf", "nb", "nm", "nse", "ir", "irse",
                                 "rho", "rhose", "sf", "sfse", "cov")}
    logs = np.log(ens.states)
    wealth_x = np.einsum("mtn,n->mt", ens.states, x.x)
    log_w = np.log(np.abs(wealth_x))
    rates = np.stack([short_rate(forward_rate(g)) for g in gauges], axis=1)
    basis = kernel_basis(m.sigma)
    ito = 0.5 * np.einsum("nk,nk->n", m.sigma, m.sigma)
    wealth = np.einsum("mtn,mtn->mt", x_paths, ens.states)
    cov = np.zeros((ens.n_paths, ens.states.shape[1]))
    cov[:, 1:] = np.cumsum(np.einsum("mtn,mtn->mt", np.diff(x_paths, axis=1),
                                     np.diff(ens.states, axis=1)), axis=1)
    for i in steps:
        t = i * ens.dt
        # nelson_derivatives of the first log price
        fq = (logs[:, i + k, 0] - logs[:, i, 0]) / lag
        bq = (logs[:, i, 0] - logs[:, i - k, 0]) / lag
        idx = _neighbor_indices(ens.states[:, i, :], cfg.neighbors)
        d_f, d_b = _gathered_means(idx, fq), _gathered_means(idx, bq)
        raw = 0.5 * (fq + bq)
        out["nf"].append(d_f)
        out["nb"].append(d_b)
        out["nm"].append(0.5 * (d_f + d_b))
        out["nse"].append(raw.std(ddof=1) / np.sqrt(raw.size))
        # instantaneous_return
        g_row = int(np.argmin(np.abs(gauges[0].times - t)))
        w = ens.states[:, i, :] * x.x / wealth_x[:, i][:, None]
        vals = (log_w[:, i + k] - log_w[:, i - k]) / (2 * lag) + w @ rates[g_row]
        out["ir"].append(vals.mean())
        out["irse"].append(vals.std(ddof=1) / np.sqrt(vals.size))
        # empirical_rho
        fq = (logs[:, i + k] - logs[:, i]) / lag
        bq = (logs[:, i] - logs[:, i - k]) / lag
        w_corr = ens.noise[:, i, :] / (2.0 * t)
        raw_hat = 0.5 * (fq + bq) + ito[None, :] - w_corr @ m.sigma.T
        raw_proj = (raw_hat + m.r[None, :]) @ basis.J
        out["rho"].append(raw_proj.mean(axis=0))
        out["rhose"].append(raw_proj.std(axis=0, ddof=1) / np.sqrt(raw_proj.shape[0]))
        # self_financing_residual
        wealth_q = (wealth[:, i + k] - wealth[:, i - k]) / (2 * lag)
        hedge_q = np.einsum("mn,mn->m", x_paths[:, i, :],
                            ens.states[:, i + k, :] - ens.states[:, i - k, :]) / (2 * lag)
        responses = wealth_q - hedge_q
        out["sf"].append(responses.mean())
        out["sfse"].append(responses.std(ddof=1) / np.sqrt(responses.size))
        out["cov"].append(0.5 * ((cov[:, i] - cov[:, i - k]) / lag).mean())
    return {name: np.asarray(v) for name, v in out.items()}


@pytest.mark.parametrize("sigma", [[[0.2], [0.1]], [[0.2], [0.1], [0.15]]],
                         ids=["two-assets-B1", "three-assets-B2"])
def test_estimators_match_per_step_reference(sigma):
    sigma = np.array(sigma)
    n = sigma.shape[0]
    m = ItoCoefficients(np.linspace(0.03, 0.06, n), sigma, np.linspace(0.0, 0.02, n))
    dt = 0.01
    ens = simulate(m, 9000, dt, 0.5, seed=17)
    cfg = EstimatorConfig(lag=3 * dt, neighbors=45, t_min=10 * dt)
    steps = [10, 20, 33, 47]
    x = PortfolioNominals(np.linspace(1.0, 2.0, n))
    gauges = [flat_gauge_on(ens.times, r) for r in m.r]
    # a path-dependent strategy: holdings follow the lagged price
    x_paths = np.concatenate([ens.states[:, :1], ens.states[:, :-1]], axis=1)
    ref = per_step_reference(ens, m, cfg, steps, x, gauges, x_paths)

    nel = nelson_derivatives(np.log(ens.states[:, :, 0]), ens.states, dt, cfg, steps)
    _, ir, ir_se = instantaneous_return(ens, x, gauges, cfg, steps)
    rho = empirical_rho(ens, m, cfg, steps)
    sf = self_financing_residual(x_paths, ens, cfg, steps)
    assert rho.B == n - 1
    for name, got in [("nf", nel.forward), ("nb", nel.backward), ("nm", nel.mean),
                      ("nse", nel.se), ("ir", ir), ("irse", ir_se),
                      ("rho", rho.estimate), ("rhose", rho.se), ("sf", sf.residual),
                      ("sfse", sf.residual_se), ("cov", sf.covariation_term)]:
        np.testing.assert_array_equal(got, ref[name], err_msg=name)
