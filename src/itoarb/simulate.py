"""Monte Carlo engine and ensemble estimators of stochastic derivatives.

Paths follow the log-Euler scheme for
``dS = S (alpha dt + sigma dW)``; forward, backward and mean stochastic
derivatives of path functionals are estimated by nearest-neighbour
regression on a scalar present state (valid for Markov functionals of that
state).  The empirical arbitrage measure built on top of them reports
ensemble means and needs no regression: the mean of a conditional
expectation is the mean of the raw difference quotients (tower property).

Every estimator checks its lag window with :meth:`EstimatorConfig.window`
and reads the nodes ``i - lag``, ``i``, ``i + lag`` of all report steps ``i``
at once, time-major (:func:`_lagged`).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import ItoCoefficients, kernel_basis
from .tables import write_long_csv

__all__ = [
    "PathEnsemble",
    "EstimatorConfig",
    "NelsonEstimates",
    "step_count",
    "simulate",
    "brownian_paths",
    "estimation_steps",
    "nelson_derivatives",
    "empirical_rho",
    "RhoEstimate",
    "save_ensemble",
    "load_ensemble",
    "ensemble_to_csv",
]

MAGIC = b"GATE"
FORMAT_VERSION = 1
_CHUNK = 4096  # paths per RNG stream and per parallel block (see _brownian_blocks)


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
    O(lag) bias against variance), ``neighbors`` the number of paths nearest
    in state that :func:`nelson_derivatives` averages (8 to M), and ``t_min``
    the earliest admissible estimation time (>= 10 dt; the 1/(2t) noise
    correction is applied analytically, never estimated).
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

    def window(self, dt: float, n_times: int, t_indices, times=None) -> tuple[np.ndarray, int]:
        """Checked lag window on a grid of ``n_times`` nodes ``dt`` apart.

        Returns the estimation steps as ints and the lag in steps.  Raises
        ``ValueError`` unless the lag is a whole number (>= 1) of steps,
        ``t_min`` is at least 10 steps, and every step lies at or after
        ``t_min`` with its window ``[i - lag, i + lag]`` on the grid.  The
        message names a step by its entry of ``times`` (default: its grid time).
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
            t = steps[j] * dt if times is None else times[j]
            if early[j]:
                raise ValueError(f"estimation time {t} below t_min {self.t_min}")
            raise ValueError(f"lag window of estimation time {t} leaves the simulated horizon")
        return steps, m


def _brownian_blocks(noise: np.ndarray, dt: float, seed: int, fill=None) -> None:
    """Fill ``noise``, (M, n_steps + 1, K), with Brownian paths block-parallel.

    Splitting rule: the master ``SeedSequence(seed)`` spawns one child stream
    per block of 4096 consecutive paths.  After writing its rows of ``noise``,
    a block passes its increments ``dW``, (hi - lo, n_steps, K), to
    ``fill(lo, hi, dW)``, which may overwrite them.  Blocks run on one thread
    per usable CPU (numpy releases the GIL while it fills, multiplies and
    sums) and each writes only its own rows, so the result does not depend on
    the number of threads.
    """
    from concurrent.futures import ThreadPoolExecutor

    m_paths, n_steps, k = noise.shape[0], noise.shape[1] - 1, noise.shape[2]
    n_blocks = (m_paths + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_blocks)

    def run(c: int) -> None:
        lo = c * _CHUNK
        hi = min(lo + _CHUNK, m_paths)
        dw = np.random.default_rng(children[c]).standard_normal((hi - lo, n_steps, k))
        dw *= np.sqrt(dt)
        noise[lo:hi, 0] = 0.0
        np.cumsum(dw, axis=1, out=noise[lo:hi, 1:])
        if fill is not None:
            fill(lo, hi, dw)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max(1, min(n_blocks, cpus or 1))) as pool:
        list(pool.map(run, range(n_blocks)))  # re-raises a block's exception


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


def simulate(model, m_paths: int, dt: float, horizon: float, seed: int) -> PathEnsemble:
    """Log-Euler ensemble: ``S_{t+dt} = S_t exp((alpha - diag(sigma sigma^T)/2) dt
    + sigma dW)`` from ``S_0 = 1`` in every asset.  Bitwise reproducible for a
    given seed, whatever the number of CPUs: each 4096-path block has its own
    RNG stream and is built in place in the output arrays, one thread per
    usable CPU.

    ``model`` is a constant :class:`~itoarb.geometry.ItoCoefficients` or a
    per-step sequence of them sampled on the time grid.
    """
    n_steps = step_count(dt, horizon)
    alpha, sigma, _ = _schedule_arrays(model, n_steps)
    n, k = sigma.shape[1], sigma.shape[2]
    states = np.empty((m_paths, n_steps + 1, n))
    noise = np.empty((m_paths, n_steps + 1, k))
    ito = 0.5 * np.einsum("tnk,tnk->tn", sigma, sigma)  # diag(sigma sigma^T)/2
    drift = (alpha - ito) * dt

    def fill(lo: int, hi: int, dw: np.ndarray) -> None:
        logs = states[lo:hi, 1:]
        np.einsum("mtk,tnk->mtn", dw, sigma, out=logs)
        logs += drift
        np.cumsum(logs, axis=1, out=logs)
        np.exp(logs, out=logs)
        states[lo:hi, 0] = 1.0

    _brownian_blocks(noise, dt, seed, fill)
    return PathEnsemble(states, noise, dt, seed)


def brownian_paths(m_paths: int, dt: float, horizon: float, seed: int, k: int = 1) -> np.ndarray:
    """Plain Brownian paths, (M, n_steps + 1, K), with the block streams and
    threads of :func:`simulate`."""
    noise = np.empty((m_paths, step_count(dt, horizon) + 1, k))
    _brownian_blocks(noise, dt, seed)
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


def _window_means(x: np.ndarray, responses, k: int) -> np.ndarray:
    """Means of each response over the ``k`` paths nearest each path's scalar
    state ``x``, (len(responses), M).

    In sorted order the ``k`` nearest neighbours of a point are the window
    ``[s, s + k)``, which moves right while the entering point is nearer than
    the leaving one (``x[s] + x[s + k] < 2 x``) and is clipped to hold the
    point itself.  Window sums are differences of prefix sums of the centred
    response, so their rounding does not grow with its mean.
    """
    m = x.size
    if k > m:
        raise ValueError(f"insufficient neighbors: requested {k} of {m} paths")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    i = np.arange(m)
    s = np.clip(np.searchsorted(xs[:-k] + xs[k:], 2.0 * xs), np.maximum(i - k + 1, 0),
                np.minimum(i, m - k))
    out = np.empty((len(responses), m))
    for row, r in zip(out, responses):
        centre = r.mean()
        csum = np.concatenate(([0.0], np.cumsum(r[order] - centre)))
        row[order] = (csum[s + k] - csum[s]) / k + centre
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

    ``values`` is (M, n_times); ``state`` is (M, n_times, 1) and must carry
    the scalar Markov state the functional depends on; conditioning is
    k-nearest-neighbour regression on the present state
    (:func:`_window_means`).  Estimation steps must pass
    :meth:`EstimatorConfig.window`; a state with ``d > 1`` raises ``ValueError``.
    """
    values = np.asarray(values, dtype=float)
    state = np.asarray(state, dtype=float)
    if values.ndim != 2 or state.ndim != 3 or state.shape[:2] != values.shape:
        raise ValueError("values must be (M, n_times) and state (M, n_times, d)")
    steps, m = cfg.window(dt, values.shape[1], t_indices)
    if state.shape[2] != 1:
        raise ValueError(f"state must be scalar, (M, n_times, 1); got dimension {state.shape[2]}")
    before, now, after = _lagged(values, steps, m)
    fq = (after - now) / cfg.lag
    bq = (now - before) / cfg.lag
    raw = 0.5 * (fq + bq)
    forward, backward = np.empty_like(fq), np.empty_like(bq)
    for j, x in enumerate(_rows(state[:, :, 0], steps)):
        forward[j], backward[j] = _window_means(x, (fq[j], bq[j]), cfg.neighbors)
    return NelsonEstimates(
        times=steps * dt,
        forward=forward,
        backward=backward,
        mean=0.5 * (forward + backward),
        se=raw.std(axis=1, ddof=1) / np.sqrt(raw.shape[1]),
    )


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
    steps = np.round(times / dt).astype(int)
    return np.unique(cfg.window(dt, n_times, steps, times)[0])


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
        fh.write(np.ascontiguousarray(ens.states, dtype="<f8").data)
        fh.write(np.ascontiguousarray(ens.noise, dtype="<f8").data)


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
    header = (["path", "t"] + [f"S_{j + 1}" for j in range(ens.n_assets)]
              + [f"W_{j + 1}" for j in range(ens.n_drivers)])
    write_long_csv(path, header, range(m), ens.times,
                   (np.hstack([ens.states[p], ens.noise[p]]) for p in range(m)))
