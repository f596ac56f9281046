import numpy as np
import pytest

from itoarb.gauges import Gauge, PortfolioNominals
from itoarb.geometry import ItoCoefficients, kernel_basis
from itoarb.simulate import (
    EstimatorConfig,
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
        cfg.validate_against(dt=0.01)
    with pytest.raises(ValueError, match="t_min"):
        EstimatorConfig(lag=0.05, neighbors=8, t_min=0.05).validate_against(dt=0.01)


def test_estimator_config_defaults():
    m = model([0.05], np.array([[0.2]]))
    ens = simulate(m, 3000, 0.01, 0.5, seed=1)
    cfg = EstimatorConfig.for_ensemble(ens)
    assert cfg.lag == pytest.approx(0.05)
    assert cfg.neighbors == 15
    assert cfg.t_min == pytest.approx(0.1)
    cfg.validate_against(ens.dt)


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


def test_ensemble_csv_export(tmp_path):
    m = model([0.05], np.array([[0.2]]))
    ens = simulate(m, 5, 0.1, 0.3, seed=6)
    f = tmp_path / "paths.csv"
    ensemble_to_csv(ens, f, max_paths=3)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "path,t,S_1,W_1"
    assert len(lines) == 1 + 3 * 4
