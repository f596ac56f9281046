"""Monte Carlo engine and ensemble estimators of stochastic derivatives.

Paths follow the log-Euler scheme for
``dS = S (alpha dt + sigma dW)``; forward, backward and mean stochastic
derivatives of path functionals are estimated by nearest-neighbour
regression on the present state (valid for Markov functionals of the
simulated state).  The estimators built on top of them, the portfolio
instantaneous return, the empirical arbitrage measure and the
self-financing residual, report ensemble means and need no regression: the
mean of a conditional expectation is the mean of the raw difference
quotients (tower property).

Every estimator checks its lag window with :meth:`EstimatorConfig.window`
and reads the nodes ``i - lag``, ``i``, ``i + lag`` of all report steps ``i``
at once, time-major (:func:`_lagged`).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .gauges import Gauge, PortfolioNominals, forward_rate, short_rate
from .geometry import ItoCoefficients, kernel_basis
from .tables import write_csv

__all__ = [
    "PathEnsemble",
    "EstimatorConfig",
    "NelsonEstimates",
    "step_count",
    "simulate",
    "brownian_paths",
    "estimation_steps",
    "nelson_derivatives",
    "instantaneous_return",
    "empirical_rho",
    "RhoEstimate",
    "self_financing_residual",
    "SelfFinancingReport",
    "save_ensemble",
    "load_ensemble",
    "ensemble_to_csv",
]

MAGIC = b"GATE"
FORMAT_VERSION = 1
_CHUNK = 4096  # paths per RNG stream (see _normal_chunks)


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated asset states and their driving noise.

    ``states`` has shape (M, n_steps + 1, N) and stays strictly positive by
    construction of the log scheme; ``noise`` is the Brownian state with
    shape (M, n_steps + 1, K) and zero initial value.
    """

    states: np.ndarray
    noise: np.ndarray
    dt: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen(self.states))
        object.__setattr__(self, "noise", _frozen(self.noise))
        if self.states.ndim != 3 or self.noise.ndim != 3:
            raise ValueError("states and noise must be (M, n_times, dim) arrays")
        if self.states.shape[:2] != self.noise.shape[:2]:
            raise ValueError("states and noise must share (M, n_times)")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_assets(self) -> int:
        return self.states.shape[2]

    @property
    def n_drivers(self) -> int:
        return self.noise.shape[2]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[1]) * self.dt


@dataclass(frozen=True)
class EstimatorConfig:
    """Controls for the conditional-expectation estimators.

    ``lag`` is the difference-quotient horizon (>= dt; default 5 dt trades
    O(lag) bias against variance), ``neighbors`` the regression neighbourhood
    of :func:`nelson_derivatives` (>= 8), and ``t_min`` the earliest
    admissible estimation time (>= 10 dt; the 1/(2t) noise correction is
    applied analytically, never estimated).
    """

    lag: float
    neighbors: int
    t_min: float

    def __post_init__(self):
        if self.neighbors < 8:
            raise ValueError("need at least 8 neighbors")
        if not (0 < self.lag < np.inf and 0 < self.t_min < np.inf):
            raise ValueError("lag and t_min must be finite and positive")

    @classmethod
    def for_ensemble(cls, dt: float, n_paths: int, lag_steps: int = 5) -> "EstimatorConfig":
        return cls(
            lag=lag_steps * dt,
            neighbors=max(8, n_paths // 200),
            t_min=10 * dt,
        )

    def window(self, dt: float, n_times: int, t_indices) -> tuple[np.ndarray, int]:
        """Checked lag window on a grid of ``n_times`` nodes ``dt`` apart.

        Returns the estimation steps as ints and the lag in steps.  Raises
        ``ValueError`` unless the lag is a whole number (>= 1) of steps,
        ``t_min`` is at least 10 steps, and every step lies at or after
        ``t_min`` with its window ``[i - lag, i + lag]`` on the grid.
        """
        if self.lag < dt - 1e-12:
            raise ValueError("lag must be at least one time step")
        m = int(round(self.lag / dt))
        if abs(m * dt - self.lag) > 1e-9 * max(self.lag, 1.0):
            raise ValueError("lag must be a whole number of time steps")
        if self.t_min < 10 * dt - 1e-12:
            raise ValueError("t_min must be at least 10 time steps")
        steps = np.atleast_1d(np.asarray(t_indices, dtype=int))
        early = steps * dt < self.t_min - 1e-12
        bad = early | (steps - m < 0) | (steps + m >= n_times)
        if bad.any():
            j = int(np.argmax(bad))  # the first offending step decides the message
            if early[j]:
                raise ValueError(f"estimation time {steps[j] * dt} below t_min {self.t_min}")
            raise ValueError("lag window leaves the simulated horizon")
        return steps, m


def _normal_chunks(seed: int, m_paths: int, n_steps: int, k: int):
    """Yield (lo, hi, increments) blocks of standard normals, (hi-lo, n_steps, K).

    Splitting rule: the master ``SeedSequence(seed)`` spawns one child stream
    per block of 4096 consecutive paths, so path blocks are independent,
    reproducible for a given seed, and generation can run block-parallel.
    """
    n_chunks = (m_paths + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for c, child in enumerate(children):
        lo = c * _CHUNK
        hi = min(lo + _CHUNK, m_paths)
        rng = np.random.default_rng(child)
        yield lo, hi, rng.standard_normal((hi - lo, n_steps, k))


def _schedule_arrays(model, n_steps: int):
    """Per-step (alpha, sigma, r) arrays from a constant model or a sequence."""
    if isinstance(model, ItoCoefficients):
        alpha = np.broadcast_to(model.alpha, (n_steps,) + model.alpha.shape)
        sigma = np.broadcast_to(model.sigma, (n_steps,) + model.sigma.shape)
        rates = np.broadcast_to(model.r, (n_steps,) + model.r.shape)
        return alpha, sigma, rates
    models = list(model)
    if len(models) != n_steps:
        raise ValueError(f"schedule must supply {n_steps} coefficient sets")
    alpha = np.stack([m.alpha for m in models])
    sigma = np.stack([m.sigma for m in models])
    rates = np.stack([m.r for m in models])
    return alpha, sigma, rates


def step_count(dt: float, horizon: float) -> int:
    """Number of ``dt`` steps in ``horizon``; ``ValueError`` unless whole and positive."""
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError("horizon must be an integer number of steps")
    return n_steps


def simulate(
    model,
    m_paths: int,
    dt: float,
    horizon: float,
    seed: int,
    s0=None,
) -> PathEnsemble:
    """Log-Euler ensemble: ``S_{t+dt} = S_t exp((alpha - diag(sigma sigma^T)/2) dt
    + sigma dW)``.  Bitwise reproducible for a given seed.

    ``model`` is a constant :class:`~itoarb.geometry.ItoCoefficients` or a
    per-step sequence of them sampled on the time grid.
    """
    n_steps = step_count(dt, horizon)
    alpha, sigma, _ = _schedule_arrays(model, n_steps)
    n, k = sigma.shape[1], sigma.shape[2]
    if s0 is None:
        s0 = np.ones(n)
    s0 = np.asarray(s0, dtype=float)

    states = np.empty((m_paths, n_steps + 1, n))
    noise = np.empty((m_paths, n_steps + 1, k))
    ito = 0.5 * np.einsum("tnk,tnk->tn", sigma, sigma)  # diag(sigma sigma^T)/2
    drift = (alpha - ito) * dt
    for lo, hi, z in _normal_chunks(seed, m_paths, n_steps, k):
        dw = z * np.sqrt(dt)
        noise[lo:hi, 0] = 0.0
        np.cumsum(dw, axis=1, out=noise[lo:hi, 1:])
        dlog = drift[None, :, :] + np.einsum("mtk,tnk->mtn", dw, sigma)
        logs = np.cumsum(dlog, axis=1)
        states[lo:hi, 0] = s0
        states[lo:hi, 1:] = s0[None, None, :] * np.exp(logs)
    return PathEnsemble(states, noise, dt, seed)


def brownian_paths(m_paths: int, dt: float, horizon: float, seed: int, k: int = 1) -> np.ndarray:
    """Plain Brownian paths, (M, n_steps + 1, K), same splitting rule as
    :func:`simulate`."""
    n_steps = step_count(dt, horizon)
    noise = np.empty((m_paths, n_steps + 1, k))
    for lo, hi, z in _normal_chunks(seed, m_paths, n_steps, k):
        noise[lo:hi, 0] = 0.0
        np.cumsum(z * np.sqrt(dt), axis=1, out=noise[lo:hi, 1:])
    return noise


@dataclass(frozen=True)
class NelsonEstimates:
    """Per-time conditional derivative estimates evaluated at each path's state.

    ``forward[i]``, ``backward[i]`` and ``mean[i]`` are length-M arrays for
    estimation time ``times[i]``; ``se`` is the standard error of the
    ensemble mean computed from the raw (unsmoothed) difference quotients,
    since neighbour averaging does not reduce the sampling error of the
    mean.
    """

    times: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    mean: np.ndarray
    se: np.ndarray


def _neighbor_indices(state: np.ndarray, k: int) -> np.ndarray:
    """k-nearest-neighbour indices on the standardized state, (M, k)."""
    if state.ndim == 1:
        state = state[:, None]
    m = state.shape[0]
    if k > m:
        raise ValueError(f"insufficient neighbors: requested {k} of {m} paths")
    scale = state.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    scaled = state / scale
    tree = cKDTree(scaled)
    _, idx = tree.query(scaled, k=k)
    return np.atleast_2d(idx)


def _gathered_means(idx: np.ndarray, responses: np.ndarray, block: int = 16384) -> np.ndarray:
    """Neighbourhood means of a response vector, gathering in blocks to keep
    the (M, k) index expansion memory-bounded."""
    out = np.empty(idx.shape[0])
    for lo in range(0, idx.shape[0], block):
        hi = min(lo + block, idx.shape[0])
        out[lo:hi] = responses[idx[lo:hi]].mean(axis=1)
    return out


def _rows(a: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Nodes ``steps`` of the time axis (axis 1) of ``a``, moved to
    ``(n_steps, M, ...)`` and contiguous, so that reductions over paths run
    along contiguous rows."""
    return np.ascontiguousarray(np.moveaxis(a, 1, 0)[steps])


def _lagged(a: np.ndarray, steps: np.ndarray, m: int):
    """The lag window of each step: :func:`_rows` at ``i - m``, ``i``, ``i + m``."""
    return _rows(a, steps - m), _rows(a, steps), _rows(a, steps + m)


def nelson_derivatives(
    values: np.ndarray,
    state: np.ndarray,
    dt: float,
    cfg: EstimatorConfig,
    t_indices,
) -> NelsonEstimates:
    """Forward, backward and mean stochastic derivatives of a path functional.

    ``values`` is (M, n_times); ``state`` is (M, n_times, d) and must carry
    the Markov state the functional depends on; conditioning is k-nearest-
    neighbour regression on the present state.  Estimation steps must pass
    :meth:`EstimatorConfig.window`.
    """
    values = np.asarray(values, dtype=float)
    state = np.asarray(state, dtype=float)
    if values.ndim != 2 or state.ndim != 3 or state.shape[:2] != values.shape:
        raise ValueError("values must be (M, n_times) and state (M, n_times, d)")
    steps, m = cfg.window(dt, values.shape[1], t_indices)
    before, now, after = _lagged(values, steps, m)
    fq = (after - now) / cfg.lag
    bq = (now - before) / cfg.lag
    raw = 0.5 * (fq + bq)
    forward, backward = np.empty_like(fq), np.empty_like(bq)
    for j, s_now in enumerate(_rows(state, steps)):
        idx = _neighbor_indices(s_now, cfg.neighbors)
        forward[j] = _gathered_means(idx, fq[j])
        backward[j] = _gathered_means(idx, bq[j])
    return NelsonEstimates(
        times=steps * dt,
        forward=forward,
        backward=backward,
        mean=0.5 * (forward + backward),
        se=raw.std(axis=1, ddof=1) / np.sqrt(raw.shape[1]),
    )


def instantaneous_return(
    ens: PathEnsemble,
    x: PortfolioNominals,
    gauges,
    cfg: EstimatorConfig,
    t_indices,
):
    """Expected instantaneous growth of the synthetic-bond portfolio.

    Averages the symmetric difference quotient of ``log(x . S_t)`` over the
    ensemble and adds the portfolio short rate; the gauges supply the term
    structures (their deflator components are superseded by the simulated
    paths), with per-path value weights.  The ensemble mean of Nelson's mean
    derivative is the mean of these raw quotients (tower property), so no
    neighbour regression is needed.  Returns (times, mean, se).
    """
    if len(gauges) != ens.n_assets:
        raise ValueError("one gauge per simulated asset required")
    steps, m = cfg.window(ens.dt, ens.states.shape[1], t_indices)
    wealth = np.einsum("mtn,n->mt", ens.states, x.x)
    if np.any(np.abs(wealth) <= 0.0):
        raise ValueError("portfolio deflator vanishes along some path")
    log_before, _, log_after = _lagged(np.log(np.abs(wealth)), steps, m)
    rates = np.stack([short_rate(forward_rate(g)) for g in gauges], axis=1)  # (n_gauge_times, N)
    times = steps * ens.dt
    rate_rows = rates[_gauge_rows_for_times(gauges[0], times)]  # (n_steps, N)
    w = _rows(ens.states, steps) * x.x / _rows(wealth, steps)[:, :, None]
    vals = (log_after - log_before) / (2 * cfg.lag) + (w @ rate_rows[:, :, None])[:, :, 0]
    return times, vals.mean(axis=1), vals.std(axis=1, ddof=1) / np.sqrt(vals.shape[1])


def _gauge_rows_for_times(g: Gauge, times: np.ndarray) -> np.ndarray:
    rows = np.argmin(np.abs(g.times[None, :] - times[:, None]), axis=1)
    off = np.abs(g.times[rows] - times) > 1e-9 + 1e-6 * np.maximum(times, 1.0)
    if off.any():
        raise ValueError(f"gauge time grid does not cover t={times[np.argmax(off)]}")
    return rows


@dataclass(frozen=True)
class RhoEstimate:
    """Empirical arbitrage measure per time bucket, with standard errors."""

    times: np.ndarray
    estimate: np.ndarray  # (n_times, B)
    se: np.ndarray        # (n_times, B)
    B: int


def estimation_steps(dt: float, n_times: int, cfg: EstimatorConfig, times) -> np.ndarray:
    """Distinct grid steps nearest ``times`` (``n_times`` nodes ``dt`` apart), checked by
    :meth:`EstimatorConfig.window`; a time outside ``[0, horizon]`` raises ``ValueError``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    horizon = (n_times - 1) * dt
    outside = ~((times >= 0) & (times <= horizon))  # nan too; before the int cast
    if outside.any():
        raise ValueError(f"report time {times[outside][0]} outside [0, horizon {horizon:g}]")
    steps = np.unique(np.round(times / dt).astype(int))
    return cfg.window(dt, n_times, steps)[0]


def empirical_rho(
    ens: PathEnsemble,
    model: ItoCoefficients,
    cfg: EstimatorConfig,
    t_indices,
) -> RhoEstimate:
    """Estimate the arbitrage measure from simulated paths.

    Per path and asset, the symmetric difference quotient of the log price
    plus the correction ``+ diag(sigma sigma^T)/2 - sigma W_t/(2t)`` (the
    latter exact, from the stored noise) recovers drift plus rate; it is
    projected onto the kernel basis, and the estimate per time bucket is the
    plain mean of these projected quotients, with standard errors from their
    dispersion.  No conditional regression is needed: Nelson's mean
    derivative is a conditional expectation given the present state, and its
    ensemble average equals the average of the raw quotients (tower
    property), so ``cfg.neighbors`` is not used.  With B = 0 the estimate is
    empty.
    """
    steps, m = cfg.window(ens.dt, ens.states.shape[1], t_indices)
    times = steps * ens.dt
    basis = kernel_basis(model.sigma)
    if basis.B == 0:
        empty = np.zeros((steps.size, 0))
        return RhoEstimate(times, empty, empty.copy(), 0)
    ito = 0.5 * np.einsum("nk,nk->n", model.sigma, model.sigma)
    before, now, after = (np.log(a) for a in _lagged(ens.states, steps, m))
    fq = (after - now) / cfg.lag
    bq = (now - before) / cfg.lag
    raw_mean = 0.5 * (fq + bq)  # (n_steps, M, N)
    w_corr = _rows(ens.noise, steps) / (2.0 * times)[:, None, None]  # exact, never estimated
    raw_hat = raw_mean + ito - w_corr @ model.sigma.T
    raw_proj = (raw_hat + model.r) @ basis.J
    se = raw_proj.std(axis=1, ddof=1) / np.sqrt(raw_proj.shape[1])
    return RhoEstimate(times, raw_proj.mean(axis=1), se, basis.B)


@dataclass(frozen=True)
class SelfFinancingReport:
    """Residual of the self-financing identity per time bucket.

    ``residual`` estimates ``D(x . S) - x . DS`` (mean derivatives); for a
    self-financing continuous strategy it vanishes.  The backward derivative
    of the discrete covariation between strategy and prices is estimated and
    reported separately in ``covariation_term`` (it is zero for
    continuous-path strategies but the estimator computes it regardless).
    """

    times: np.ndarray
    residual: np.ndarray
    residual_se: np.ndarray
    covariation_term: np.ndarray


def self_financing_residual(
    x_paths: np.ndarray,
    ens: PathEnsemble,
    cfg: EstimatorConfig,
    t_indices,
) -> SelfFinancingReport:
    """Check a sampled strategy against the self-financing identity.

    ``x_paths`` is (M, n_times, N) or (n_times, N) for deterministic
    strategies, sampled on the ensemble grid.  The residual is estimated from
    the combined pathwise response (wealth quotient minus the hedge quotient
    at the current holdings): conditional expectation is linear, so this is
    the same quantity as the difference of the separately smoothed
    derivatives, but free of cross-neighbourhood bias for path-dependent
    strategies.  Its ensemble mean is the mean of the raw responses (tower
    property), so no neighbour regression is needed.
    """
    x_paths = np.asarray(x_paths, dtype=float)
    if x_paths.ndim == 2:
        x_paths = np.broadcast_to(x_paths, (ens.n_paths,) + x_paths.shape)
    if x_paths.shape != ens.states.shape:
        raise ValueError("strategy grid does not match the ensemble grid")
    steps, m = cfg.window(ens.dt, ens.states.shape[1], t_indices)
    d = ens.states
    wealth = np.einsum("mtn,mtn->mt", x_paths, d)
    # running discrete covariation sum_j sum_steps dx_j dD_j
    cov = np.zeros((ens.n_paths, d.shape[1]))
    cov[:, 1:] = np.cumsum(
        np.einsum("mtn,mtn->mt", np.diff(x_paths, axis=1), np.diff(d, axis=1)), axis=1
    )
    wealth_before, _, wealth_after = _lagged(wealth, steps, m)
    d_before, _, d_after = _lagged(d, steps, m)
    cov_before, cov_now, _ = _lagged(cov, steps, m)
    wealth_q = (wealth_after - wealth_before) / (2 * cfg.lag)
    hedge_q = np.einsum("smn,smn->sm", _rows(x_paths, steps), d_after - d_before) / (2 * cfg.lag)
    responses = wealth_q - hedge_q  # (n_steps, M)
    se = responses.std(axis=1, ddof=1) / np.sqrt(responses.shape[1])
    cov_term = 0.5 * ((cov_now - cov_before) / cfg.lag).mean(axis=1)
    return SelfFinancingReport(steps * ens.dt, responses.mean(axis=1), se, cov_term)


# ---------------------------------------------------------------------------
# persistence

_HEADER = struct.Struct("<4sIQIIQdQ")  # magic, version, M, N, K, steps, dt, seed


def save_ensemble(ens: PathEnsemble, path) -> None:
    """Flat binary layout: header then states then noise, little-endian
    float64 in C order."""
    n_steps = ens.states.shape[1] - 1
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        ens.n_paths,
        ens.n_assets,
        ens.n_drivers,
        n_steps,
        ens.dt,
        ens.seed & 0xFFFFFFFFFFFFFFFF,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ens.states.astype("<f8").tobytes(order="C"))
        fh.write(ens.noise.astype("<f8").tobytes(order="C"))


def load_ensemble(path) -> PathEnsemble:
    """Read a :func:`save_ensemble` file; raises ``ValueError`` on a bad
    magic or version, or a size other than header plus payload."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"not an ensemble file: {size} bytes, shorter than the header")
        magic, version, m, n, k, steps, dt, seed = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError("not an ensemble file (bad magic)")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported ensemble format version {version}")
        n_states = m * (steps + 1) * n
        n_noise = m * (steps + 1) * k
        expected = _HEADER.size + 8 * (n_states + n_noise)
        if size != expected:
            raise ValueError(f"ensemble file has {size} bytes, its header promises {expected} "
                             "(truncated or padded)")
        states = np.frombuffer(fh.read(n_states * 8), dtype="<f8").reshape(
            m, steps + 1, n
        )
        noise = np.frombuffer(fh.read(n_noise * 8), dtype="<f8").reshape(
            m, steps + 1, k
        )
    return PathEnsemble(states, noise, float(dt), int(seed))


def ensemble_to_csv(ens: PathEnsemble, path, max_paths: int | None = None) -> None:
    """Long-format CSV export for small runs: path, t, S_1..S_N, W_1..W_K."""
    m = ens.n_paths if max_paths is None else min(max_paths, ens.n_paths)
    times = ens.times
    header = (["path", "t"] + [f"S_{j + 1}" for j in range(ens.n_assets)]
              + [f"W_{j + 1}" for j in range(ens.n_drivers)])
    write_csv(path, header, (np.column_stack([np.full(times.size, p), times, ens.states[p],
                                              ens.noise[p]]) for p in range(m)))
