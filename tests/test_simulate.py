import os
import sys
import tracemalloc

import numpy as np
import pytest

from itoarb.geometry import ItoCoefficients, kernel_basis
from itoarb.simulate import (
    _HEADER,
    _window,
    _window_means,
    brownian_paths,
    empirical_rho,
    estimation_steps,
    ensemble_to_csv,
    load_ensemble,
    nelson_derivatives,
    simulate,
    stream_ensemble,
)


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


def sequential_reference(seed, m_paths, dt, n_steps, k, sigma=None, drift=None):
    """Noise (and states, given per-step ``sigma`` and ``drift``) built block by
    block in one thread from the spawned 4096-path streams."""
    children = np.random.SeedSequence(seed).spawn(-(-m_paths // 4096))
    z = np.concatenate([
        np.random.default_rng(child).standard_normal((min(4096, m_paths - 4096 * c), n_steps, k))
        for c, child in enumerate(children)
    ])
    dw = z * np.sqrt(dt)
    noise = np.concatenate([np.zeros((m_paths, 1, k)), np.cumsum(dw, axis=1)], axis=1)
    if sigma is None:
        return noise, None
    logs = np.cumsum(drift[None] + np.einsum("mtk,tnk->mtn", dw, sigma), axis=1)
    states = np.concatenate([np.ones((m_paths, 1, logs.shape[2])), np.exp(logs)], axis=1)
    return noise, states


@pytest.mark.parametrize("m_paths", [2 * 4096 + 50, 300])
def test_block_pool_matches_sequential_streams(m_paths, monkeypatch):
    dt, n_steps, seed = 0.05, 20, 17
    const = model([0.05, -0.02], np.array([[0.2, 0.05], [0.1, 0.3]]))
    schedule = [model([0.01 * i, -0.02], np.array([[0.2, 0.01 * i], [0.1, 0.3]]))
                for i in range(n_steps)]
    expected = []
    for m in (const, schedule):
        ms = [m] * n_steps if isinstance(m, ItoCoefficients) else m
        sigma = np.stack([c.sigma for c in ms])
        drift = (np.stack([c.alpha for c in ms])
                 - 0.5 * np.einsum("tnk,tnk->tn", sigma, sigma)) * dt
        expected.append(sequential_reference(seed, m_paths, dt, n_steps, 2, sigma, drift))
    expected_bm = sequential_reference(seed, m_paths, dt, n_steps, 3)[0]
    # the thread count follows the usable CPUs and must not change a bit, also
    # with more threads than cores switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            for m, (noise, states) in zip((const, schedule), expected):
                ens = simulate(m, m_paths, dt, n_steps * dt, seed=seed)
                np.testing.assert_array_equal(ens.noise, noise)
                np.testing.assert_array_equal(ens.states, states)
            np.testing.assert_array_equal(brownian_paths(m_paths, dt, n_steps * dt, seed, k=3),
                                          expected_bm)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 4])
def test_stream_matches_sequential_streams(cpus, tmp_path, monkeypatch):
    # the file holds the header, then the states and noise of the one-thread
    # reference, whatever the thread count, and load_ensemble reads its rows
    # back; the estimate each sub-block projects is empirical_rho's on the
    # in-memory ensemble, bit for bit
    m_paths, dt, n_steps, seed = 2 * 4096 + 50, 0.05, 20, 17
    b1 = model([0.05, -0.02], np.array([[0.2], [0.1]]), r=[0.01, 0.0])
    b2 = model([0.05, -0.02, 0.03], np.array([[0.2], [0.1], [0.3]]))
    schedule = [model([0.01 * i, -0.02], np.array([[0.2, 0.01 * i], [0.1, 0.3]]))
                for i in range(n_steps)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    steps = np.array([10, 14])
    for m, lag_steps in ((b1, 3), (b2, 3), (schedule, None)):
        ms = [m] * n_steps if isinstance(m, ItoCoefficients) else m
        sigma = np.stack([c.sigma for c in ms])
        drift = (np.stack([c.alpha for c in ms])
                 - 0.5 * np.einsum("tnk,tnk->tn", sigma, sigma)) * dt
        n, k = sigma.shape[1:]
        noise, states = sequential_reference(seed, m_paths, dt, n_steps, k, sigma, drift)
        f = tmp_path / "paths.gate"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads' writes interleave as often as they can
        try:
            est = stream_ensemble(m, m_paths, dt, n_steps * dt, seed, f, lag_steps, steps)
        finally:
            sys.setswitchinterval(interval)
        header = _HEADER.pack(b"GATE", 1, m_paths, n, k, n_steps, dt, seed)
        payload = states.astype("<f8").tobytes() + noise.astype("<f8").tobytes()
        assert f.read_bytes() == header + payload
        if lag_steps is not None:
            ref = empirical_rho(simulate(m, m_paths, dt, n_steps * dt, seed), m, lag_steps,
                                steps)
            assert est.B == ref.B == n - 1
            for got, want in ((est.times, ref.times), (est.estimate, ref.estimate),
                              (est.se, ref.se)):
                np.testing.assert_array_equal(got, want)
        else:
            assert est is None
        head = load_ensemble(f)
        np.testing.assert_array_equal(head.states[:600], states[:600])
        np.testing.assert_array_equal(head.noise[:600], noise[:600])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["paths.gate"]


@pytest.mark.parametrize("sigma", [[[0.2], [0.1]], [[0.2, 0.0], [0.1, 0.1], [0.0, 0.3]]],
                         ids=["one-driver", "two-drivers"])
def test_stream_lone_path_sub_block(sigma, tmp_path):
    # 513 paths end in a sub-block of one path, whose products numpy would
    # round otherwise than those of the 512 before it
    m = model([0.05, -0.02, 0.03][:len(sigma)], np.array(sigma))
    dt, steps = 0.05, [10, 14]
    est = stream_ensemble(m, 513, dt, 1.0, 8, tmp_path / "paths.gate", 3, steps)
    ref = empirical_rho(simulate(m, 513, dt, 1.0, 8), m, 3, steps)
    np.testing.assert_array_equal(est.estimate, ref.estimate)
    np.testing.assert_array_equal(est.se, ref.se)


def test_stream_rejects_schedule_with_report_steps(tmp_path):
    # projecting a per-step schedule needs a basis per step: refused before
    # any file is opened
    schedule = [model([0.05, 0.0], np.array([[0.2], [0.1]])) for _ in range(20)]
    with pytest.raises(ValueError, match="constant model"):
        stream_ensemble(schedule, 64, 0.05, 1.0, 3, tmp_path / "paths.gate", 3, [12])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("m_paths", [64, 10**13])
@pytest.mark.parametrize("lag_steps, step, named", [
    (3, 2, "below t_min"),  # its lag window would read node -1, the last node
    (1, 0, "below t_min"),
    (3, 18, "leaves the simulated horizon"),  # 20 steps: node 21 is off the grid
], ids=["step-2-lag-3", "step-0-lag-1", "step-18-lag-3"])
def test_stream_checks_window_first(tmp_path, m_paths, lag_steps, step, named):
    # the window of empirical_rho, checked before anything is allocated (10**13
    # paths of quotients would fail to allocate) or any file is opened
    m = model([0.05, 0.05], np.array([[0.2], [0.1]]))
    with pytest.raises(ValueError, match=named):
        stream_ensemble(m, m_paths, 0.05, 1.0, 3, tmp_path / "paths.gate", lag_steps, [step])
    assert not any(tmp_path.iterdir())


def test_stream_estimate_keeps_no_rows(tmp_path, monkeypatch):
    # each sub-block projects its own paths, so a streamed estimate holds B = 1
    # number per path and report step, not the three state rows and one noise
    # row per report step that an estimate from kept rows reads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = model([0.05, 0.05], np.array([[0.2], [0.1]]))
    m_paths, dt, steps = 3 * 4096, 0.01, np.arange(10, 24, 2)
    rows_bytes = 8 * m_paths * steps.size * (3 * 2 + 1)  # (before, now, after) x N, noise x K
    stream_ensemble(m, 8, dt, 0.3, 4, tmp_path / "warm.gate", 5, steps)  # first-call imports
    tracemalloc.start()
    try:
        est = stream_ensemble(m, m_paths, dt, 0.3, 4, tmp_path / "paths.gate", 5, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows_bytes, (peak, rows_bytes)
    assert est.estimate.shape == (7, 1)


def test_brownian_paths_reject_partial_step():
    # 1.0 / 0.3 is not a whole number of steps: no silent truncation to 0.9
    with pytest.raises(ValueError, match="integer number"):
        brownian_paths(4, 0.3, 1.0, seed=1)
    assert brownian_paths(4, 0.25, 1.0, seed=1).shape == (4, 5, 1)


# ---------------------------------------------------------------- estimators


def test_estimator_config_guards():
    # neighbors is a count of at least 8; the earliest estimation step,
    # MIN_STEP = 10, is counted in steps, so no dt is small enough to let a
    # report at step 3 through
    w = brownian_paths(64, 0.01, 1.0, seed=2)
    for bad in (4, 8.5):
        with pytest.raises(ValueError, match="neighbors must be"):
            nelson_derivatives(w[:, :, 0], w, 0.01, 5, bad, [50])
    with pytest.raises(ValueError, match="estimation time 3e-14 below t_min 1e-13"):
        estimation_steps(1e-14, 101, 1, [3e-14])


def test_estimator_window():
    steps = _window(0.01, 101, 5, [10, 50, 95])
    assert steps.dtype.kind == "i"
    np.testing.assert_array_equal(steps, [10, 50, 95])
    with pytest.raises(ValueError, match="estimation time 0.09 below t_min 0.1"):
        _window(0.01, 101, 5, [50, 9])
    with pytest.raises(ValueError, match="leaves the simulated horizon"):
        _window(0.01, 101, 5, [50, 96])
    # the first offending step names the failure, by its given time if any
    with pytest.raises(ValueError, match="window of estimation time 0.96 leaves the simulated"):
        _window(0.01, 101, 5, [96, 9])
    with pytest.raises(ValueError, match="estimation time 0.087 below t_min"):
        _window(0.01, 101, 5, [9, 96], times=[0.087, 0.958])


def test_bad_lag_steps_rejected_by_every_estimator(tmp_path):
    # the lag counts grid steps: a lag of 0, -1 or 2.4 steps is a ValueError
    # in every estimator, never an IndexError, a TypeError or a biased estimate
    sigma = np.array([[0.2], [0.1]])
    m = ItoCoefficients((sigma @ [0.3]).ravel(), sigma, np.zeros(2))
    ens = simulate(m, 64, 0.005, 1.0, seed=8)
    for lag_steps in (0, -1, 2.4):
        calls = [
            lambda: empirical_rho(ens, m, lag_steps, [100]),
            lambda: nelson_derivatives(ens.states[:, :, 0], ens.states, ens.dt, lag_steps, 8,
                                       [100]),
            lambda: estimation_steps(ens.dt, 201, lag_steps, [0.5]),
            lambda: stream_ensemble(m, 64, ens.dt, 1.0, 8, tmp_path / "paths.gate", lag_steps,
                                    [100]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="lag_steps must be"):
                call()
    assert not any(tmp_path.iterdir())


def test_insufficient_neighbors_error():
    w = brownian_paths(16, 0.01, 1.0, seed=1)
    with pytest.raises(ValueError, match="insufficient neighbors: requested 64"):
        nelson_derivatives(w[:, :, 0], w, 0.01, 5, 64, [50])


def test_vector_state_rejected():
    # the estimator conditions on one scalar state; a second asset would be ignored
    w = brownian_paths(64, 0.01, 1.0, seed=2, k=2)
    with pytest.raises(ValueError, match="dimension 2"):
        nelson_derivatives(w[:, :, 0], w, 0.01, 5, 8, [50])


@pytest.mark.parametrize("k", [8, 250, 2000])
def test_window_means_are_kd_tree_neighbourhood_means(k):
    # on tie-free states the sorted window is the k-nearest-neighbour set
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(k)
    x = rng.standard_normal(2000)
    r = rng.standard_normal(2000)
    responses = (r, r + 1e3, x**2)
    if k < x.size:
        idx = cKDTree(x[:, None]).query(x[:, None], k=k)[1].reshape(x.size, k)
    else:  # every path's neighbourhood is the whole ensemble (and the tree query is slow)
        idx = np.broadcast_to(np.arange(x.size), (x.size, k))
    for got, resp in zip(_window_means(x, responses, k), responses):
        np.testing.assert_allclose(got, resp[idx].mean(axis=1), rtol=0,
                                   atol=1e-12 * resp.std())


@pytest.mark.parametrize("decimals", [0, 1, 2])
def test_tied_windows_are_nearest_neighbour_sets(decimals):
    # with ties the window is one of several valid k-nearest sets: it holds
    # its own path and reaches no farther than the k-th smallest distance
    k, m = 8, 500
    x = np.round(np.random.default_rng(decimals).standard_normal(m), decimals)
    member = _window_means(x, np.eye(m), k) > 0.5 / k  # member[p, i]: p in window(i)
    for i in range(m):
        window = np.flatnonzero(member[:, i])
        dist = np.abs(x - x[i])
        assert window.size == k and i in window
        assert abs(dist[window].max() - np.sort(dist)[k - 1]) <= 1e-12


def test_deterministic_functional_recovers_time_derivative():
    # Q(t) = g(t) with no noise: forward/backward quotients straddle g'
    dt = 0.01
    m = model([0.06], np.array([[0.0]]))
    ens = simulate(m, 16, dt, 1.0, seed=0)
    g_vals = np.log(ens.states[:, :, 0]) ** 2  # g(t) = (0.06 t)^2
    lag = 5 * dt
    est = nelson_derivatives(g_vals, ens.states, dt, 5, 8, [50])
    t = 0.5
    g_prime = 2 * 0.06**2 * t
    assert est.forward[0].mean() == pytest.approx(g_prime, abs=0.06**2 * lag * 1.1)
    assert est.backward[0].mean() == pytest.approx(g_prime, abs=0.06**2 * lag * 1.1)
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
    i = 500  # t = 0.5
    est = nelson_derivatives(w[:, :, 0], w, dt, 5, 100, [i])
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
    i = 500
    t = 0.5
    est = nelson_derivatives(np.log(ens.states[:, :, 0]), ens.states, dt, 5, 100, [i])
    wt = ens.noise[:, i, 0]
    target = alpha - 0.5 * sigma**2 + sigma * wt / (2 * t)
    quotient_sd = sigma * np.sqrt(1.0 / (2 * 5 * dt))
    edges = np.quantile(wt, np.linspace(0, 1, 11))
    edges[0] -= 1.0
    edges[-1] += 1.0
    which = np.digitize(wt, edges) - 1
    for b in range(10):
        sel = which == b
        se = quotient_sd / np.sqrt(sel.sum())
        assert abs(est.mean[0][sel].mean() - target[sel].mean()) < 5 * se


# ---------------------------------------------------------------- empirical rho


def test_empirical_rho_zc_model_is_zero():
    sigma = np.array([[0.2], [0.1]])
    alpha = (sigma @ [0.3]).ravel()
    m = ItoCoefficients(alpha, sigma, np.zeros(2))
    ens = simulate(m, 2000, 0.005, 1.0, seed=7)
    est = empirical_rho(ens, m, 5, [80, 120, 160])
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
    est = empirical_rho(ens, m, 5, [100, 150])
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
        est = empirical_rho(ens, model_at_bucket, 5, [i_bucket])
        ses.append(float(est.se[0, 0]))
    ratio = ses[0] / ses[1]
    assert np.sqrt(2) * 0.8 < ratio < np.sqrt(2) * 1.2


def test_empirical_rho_single_asset_empty():
    m = model([0.1], np.array([[0.2]]))
    ens = simulate(m, 500, 0.005, 0.5, seed=9)
    est = empirical_rho(ens, m, 5, [60])
    assert est.B == 0
    assert est.estimate.shape == (1, 0)


# ---------------------------------------------------------------- persistence


def test_ensemble_round_trip(tmp_path):
    m = model([0.05, 0.01], np.array([[0.2, 0.0], [0.1, 0.1]]))
    ens = simulate(m, 37, 0.01, 0.25, seed=4)
    f = tmp_path / "paths.gate"
    stream_ensemble(m, 37, 0.01, 0.25, 4, f)
    back = load_ensemble(f)
    np.testing.assert_array_equal(back.states, ens.states)
    np.testing.assert_array_equal(back.noise, ens.noise)
    assert back.dt == ens.dt and back.seed == ens.seed
    with open(f, "rb") as fh:
        assert fh.read(4) == b"GATE"


def test_ensemble_written_without_copies(tmp_path):
    # three RNG blocks streamed to disk in 512-path sub-blocks: at most one
    # sub-block per block is in memory at a time, never the 39.7 MB ensemble
    m = model([0.05, 0.01], np.array([[0.2, 0.0], [0.1, 0.1]]))
    f = tmp_path / "paths.gate"
    tracemalloc.start()
    try:
        stream_ensemble(m, 3 * 4096, 0.01, 1.0, 4, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ens = simulate(m, 3 * 4096, 0.01, 1.0, seed=4)
    payload = ens.states.nbytes + ens.noise.nbytes
    assert peak < 0.25 * payload
    # the layout: header, then states and noise as little-endian float64 in C order
    header = _HEADER.pack(b"GATE", 1, 3 * 4096, 2, 2, 100, 0.01, 4)
    reference = header + ens.states.astype("<f8").tobytes() + ens.noise.astype("<f8").tobytes()
    assert f.read_bytes() == reference
    back = load_ensemble(f)
    np.testing.assert_array_equal(back.states, ens.states)
    np.testing.assert_array_equal(back.noise, ens.noise)


def test_ensemble_bad_magic(tmp_path):
    f = tmp_path / "junk.gate"
    stream_ensemble(model([0.05], np.array([[0.2]])), 5, 0.1, 0.3, 6, f)
    f.write_bytes(b"NOPE" + f.read_bytes()[4:])
    with pytest.raises(ValueError, match="magic"):
        load_ensemble(f)


@pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + bytes(8), lambda b: b[:20]],
                         ids=["truncated", "padded", "header-cut"])
def test_ensemble_wrong_size_rejected(tmp_path, edit):
    f = tmp_path / "paths.gate"
    stream_ensemble(model([0.05], np.array([[0.2]])), 5, 0.1, 0.3, 6, f)
    f.write_bytes(edit(f.read_bytes()))
    with pytest.raises(ValueError, match=r"\d+ bytes"):
        load_ensemble(f)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.01])
def test_ensemble_bad_header_dt_rejected(tmp_path, dt):
    f = tmp_path / "paths.gate"
    stream_ensemble(model([0.05], np.array([[0.2]])), 5, 0.1, 0.3, 6, f)
    raw = bytearray(f.read_bytes())
    fields = list(_HEADER.unpack_from(raw))
    fields[6] = dt  # magic, version, M, N, K, steps, dt, seed
    _HEADER.pack_into(raw, 0, *fields)
    f.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        load_ensemble(f)


def test_ensemble_header_bit_flips_rejected(tmp_path):
    # every single-bit flip of magic, version, M, N, K and steps (bytes 0-31)
    # breaks the magic, the version or the size the header promises; dt and
    # seed are left out, because a flipped mantissa bit can leave them valid
    f = tmp_path / "paths.gate"
    stream_ensemble(model([0.05, 0.01], np.array([[0.2, 0.0], [0.1, 0.1]])), 5, 0.1, 0.3, 6, f)
    good = f.read_bytes()
    assert _HEADER.size == 32 + 16
    for bit in range(32 * 8):
        raw = bytearray(good)
        raw[bit // 8] ^= 1 << (bit % 8)
        f.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_ensemble(f)


def test_ensemble_csv_export(tmp_path):
    m = model([0.05], np.array([[0.2]]))
    stream_ensemble(m, 5, 0.1, 0.3, 6, tmp_path / "paths.gate")
    ens = load_ensemble(tmp_path / "paths.gate")
    f = tmp_path / "paths.csv"
    ensemble_to_csv(ens, f, max_paths=3)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "path,t,S_1,W_1"
    assert len(lines) == 1 + 3 * 4
    # path 2 at t = 0.1: integer path index, then %.12g cells
    assert lines[1 + 2 * 4 + 1] == (f"2,0.1,{ens.states[2, 1, 0]:.12g},"
                                    f"{ens.noise[2, 1, 0]:.12g}")


# ---------------------------------------------------------------- reference


def per_step_reference(ens, m, k, neighbors, steps):
    """The two estimators as per-report-time loops, in the arithmetic they
    had before they read one gathered window; returns their outputs in the
    order nelson (forward, backward, mean, se), empirical rho (estimate,
    se)."""
    lag = k * ens.dt
    out = {name: [] for name in ("nf", "nb", "nm", "nse", "rho", "rhose")}
    logs = np.log(ens.states)
    basis = kernel_basis(m.sigma)
    ito = 0.5 * np.einsum("nk,nk->n", m.sigma, m.sigma)
    for i in steps:
        t = i * ens.dt
        # nelson_derivatives of the first log price
        fq = (logs[:, i + k, 0] - logs[:, i, 0]) / lag
        bq = (logs[:, i, 0] - logs[:, i - k, 0]) / lag
        d_f, d_b = _window_means(ens.states[:, i, 0], (fq, bq), neighbors)
        raw = 0.5 * (fq + bq)
        out["nf"].append(d_f)
        out["nb"].append(d_b)
        out["nm"].append(0.5 * (d_f + d_b))
        out["nse"].append(raw.std(ddof=1) / np.sqrt(raw.size))
        # empirical_rho
        fq = (logs[:, i + k] - logs[:, i]) / lag
        bq = (logs[:, i] - logs[:, i - k]) / lag
        w_corr = ens.noise[:, i, :] / (2.0 * t)
        raw_hat = 0.5 * (fq + bq) + ito[None, :] - w_corr @ m.sigma.T
        raw_proj = (raw_hat + m.r[None, :]) @ basis.J
        out["rho"].append(raw_proj.mean(axis=0))
        out["rhose"].append(raw_proj.std(axis=0, ddof=1) / np.sqrt(raw_proj.shape[0]))
    return {name: np.asarray(v) for name, v in out.items()}


@pytest.mark.parametrize("sigma", [[[0.2], [0.1]], [[0.2], [0.1], [0.15]]],
                         ids=["two-assets-B1", "three-assets-B2"])
def test_estimators_match_per_step_reference(sigma):
    sigma = np.array(sigma)
    n = sigma.shape[0]
    m = ItoCoefficients(np.linspace(0.03, 0.06, n), sigma, np.linspace(0.0, 0.02, n))
    dt = 0.01
    ens = simulate(m, 9000, dt, 0.5, seed=17)
    steps = [10, 20, 33, 47]
    ref = per_step_reference(ens, m, 3, 45, steps)

    nel = nelson_derivatives(np.log(ens.states[:, :, 0]), ens.states[:, :, :1], dt, 3, 45, steps)
    rho = empirical_rho(ens, m, 3, steps)
    assert rho.B == n - 1
    for name, got in [("nf", nel.forward), ("nb", nel.backward), ("nm", nel.mean),
                      ("nse", nel.se), ("rho", rho.estimate), ("rhose", rho.se)]:
        np.testing.assert_array_equal(got, ref[name], err_msg=name)
