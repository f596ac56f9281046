"""Monte Carlo engine and ensemble estimators of stochastic derivatives.

Paths follow the log-Euler scheme for ``dS = S (alpha dt + sigma dW)``.  One
generator builds them (:func:`_blocks`) a sub-block of paths at a time and
hands each sub-block to a sink that keeps what it needs of it, so no function
holds a whole ensemble.  Forward, backward and mean stochastic derivatives of
path functionals are estimated by nearest-neighbour regression on a scalar
present state (valid for Markov functionals of that state).  The empirical
arbitrage measure reports ensemble means and needs no regression: the mean of
a conditional expectation is the mean of the raw difference quotients (tower
property).

Every estimator takes its lag in whole steps, ``lag_steps``, and divides its
difference quotients by ``lag_steps * dt``.  Where the nodes ``i -
lag_steps``, ``i``, ``i + lag_steps`` of the report steps ``i`` are read, all
at once and time-major (:func:`_lagged`), the steps and the lag are first
checked with one rule on integers (:func:`_window`).

Two sinks read the generator.  :func:`stream_ensemble` writes the ensemble to
disk, if given a file, and each sub-block projects its own paths' quotients
for the arbitrage measure (:func:`_rho_quotients`), so only ``B`` numbers per
path and report step stay in memory.  :func:`lagged_rows` keeps the state and
noise rows of those nodes, which :func:`nelson_derivatives` reads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import ItoCoefficients, kernel_basis
from .tables import pwrite_all, replacing, usable_cpus, write_long_csv

__all__ = [
    "PathEnsemble",
    "NelsonEstimates",
    "step_count",
    "estimation_steps",
    "lagged_rows",
    "nelson_derivatives",
    "RhoEstimate",
    "stream_ensemble",
    "load_ensemble",
    "ensemble_to_csv",
]

MAGIC = b"GATE"
FORMAT_VERSION = 1
_CHUNK = 4096  # paths per RNG stream and per parallel block (see _blocks)
_SUB = 512  # paths per draw and per built sub-block of a block, at most
_SUB_BYTES = 2**22  # scratch of a sub-block, at most, unless one path needs more


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


# the largest integer every float holds exactly: a size or step count past it
# is refused before it becomes an array dimension
MAX_COUNT = 2**53
MIN_STEP = 10  # earliest estimation step: the noise correction W_t/(2t) is singular at t = 0


def _check_count(value, name: str, least: int) -> None:
    """``ValueError`` unless ``value`` is an integer of at least ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _window(dt: float, n_times: int, lag_steps: int, t_indices, times=None) -> np.ndarray:
    """The checked estimation steps, as ints, on a grid of ``n_times`` nodes ``dt`` apart.

    Raises ``ValueError`` unless ``lag_steps`` is an integer of at least 1,
    and every step is at least ``MIN_STEP`` with its window ``[i - lag_steps,
    i + lag_steps]`` on the grid.  The message names a step by its entry of
    ``times`` (default: its grid time), as a ``%.12g`` cell.
    """
    _check_count(lag_steps, "lag_steps", 1)
    steps = np.atleast_1d(np.asarray(t_indices, dtype=int))
    early = steps < MIN_STEP
    bad = early | (steps - lag_steps < 0) | (steps + lag_steps >= n_times)
    if bad.any():
        j = int(np.argmax(bad))  # the first offending step decides the message
        t = steps[j] * dt if times is None else times[j]
        if early[j]:
            raise ValueError(f"estimation time {t:.12g} below t_min {MIN_STEP * dt:.12g}")
        raise ValueError(f"lag window of estimation time {t:.12g} leaves the simulated horizon")
    return steps


def _blocks(m_paths: int, n_steps: int, dt: float, seed: int, sigma: np.ndarray,
            drift: np.ndarray, sink) -> None:
    """Build ``m_paths`` paths block-parallel, a sub-block at a time.

    Splitting rule: the master ``SeedSequence(seed)`` spawns one child stream
    per block of 4096 consecutive paths, and a block draws its stream in
    sub-blocks (the same numbers as one draw) of ``_SUB`` paths, or of fewer
    where their draws, noise and states would take more than ``_SUB_BYTES``,
    so a long horizon does not raise the memory a block holds.  Each
    sub-block ``[lo, hi)`` gets its Brownian rows ``noise``, (hi - lo,
    n_steps + 1, K), drawn alike whatever the model, and, from ``sigma`` and
    ``drift`` per step (:func:`_coefficients`), its log-Euler ``states``,
    (hi - lo, n_steps + 1, N), from ``S_0 = 1``.  They are built in scratch
    rows of the block and passed to ``sink(lo, hi, noise, states)``, which
    must copy what it keeps.  Blocks run on one thread per usable CPU (numpy
    releases the GIL while it fills, multiplies and sums) and each touches
    only its own paths, so the result does not depend on the number of
    threads.  Once a block raises, every block stops before its next
    sub-block, and the exception is re-raised.
    """
    from concurrent.futures import ThreadPoolExecutor
    from threading import Event

    failed = Event()  # set by a block that raised: the others stop before their next sub-block
    n_blocks = (m_paths + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    n, k = sigma.shape[1:]
    sub = max(1, min(_SUB, _SUB_BYTES // (8 * (n_steps * k + (n_steps + 1) * (k + n)))))

    def run(c: int) -> None:
        start = c * _CHUNK
        stop = min(start + _CHUNK, m_paths)
        rng = np.random.default_rng(children[c])
        size = min(sub, stop - start)
        scratch = (np.empty((size, n_steps, k)), np.empty((size, n_steps + 1, k)),
                   np.empty((size, n_steps + 1, n)))
        for lo in range(start, stop, sub):
            if failed.is_set():
                return
            hi = min(lo + sub, stop)
            dw, noise, states = (a[:hi - lo] for a in scratch)
            rng.standard_normal(out=dw)
            dw *= np.sqrt(dt)
            noise[:, 0] = 0.0
            np.cumsum(dw, axis=1, out=noise[:, 1:])
            logs = states[:, 1:]
            np.einsum("mtk,tnk->mtn", dw, sigma, out=logs)
            logs += drift
            np.cumsum(logs, axis=1, out=logs)
            np.exp(logs, out=logs)
            states[:, 0] = 1.0
            sink(lo, hi, noise, states)

    def guarded(c: int) -> None:
        try:
            run(c)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max(1, min(n_blocks, usable_cpus()))) as pool:
        list(pool.map(guarded, range(n_blocks)))  # re-raises a block's exception


def _coefficients(model, n_steps: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-step ``sigma``, (n_steps, N, K), and log-Euler drift
    ``(alpha - diag(sigma sigma^T)/2) dt``, (n_steps, N), from a constant
    model or a per-step sequence of them."""
    if isinstance(model, ItoCoefficients):
        alpha = np.broadcast_to(model.alpha, (n_steps,) + model.alpha.shape)
        sigma = np.broadcast_to(model.sigma, (n_steps,) + model.sigma.shape)
    else:
        models = list(model)
        if len(models) != n_steps:
            raise ValueError(f"schedule must supply {n_steps} coefficient sets")
        alpha = np.stack([m.alpha for m in models])
        sigma = np.stack([m.sigma for m in models])
    ito = 0.5 * np.einsum("tnk,tnk->tn", sigma, sigma)  # diag(sigma sigma^T)/2
    return sigma, (alpha - ito) * dt


def step_count(dt: float, horizon: float) -> int:
    """Number of ``dt`` steps in ``horizon``; ``ValueError`` unless whole and
    positive.  More than ``MAX_COUNT`` steps (an inf count included) raise
    ``MemoryError`` before anything is built."""
    ratio = horizon / dt
    if not ratio <= MAX_COUNT:  # so written that an inf or NaN count fails
        raise MemoryError(f"horizon / dt = {ratio:.4g} steps, more than the {MAX_COUNT} a "
                          "path may take")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError("horizon must be an integer number of steps")
    return n_steps


@dataclass(frozen=True)
class NelsonEstimates:
    """Per-time conditional derivative estimates evaluated at each path's state.

    ``forward[i]``, ``backward[i]`` and ``mean[i]`` are length-M arrays for
    the ``i``-th report step; ``se`` is the standard error of the ensemble
    mean computed from the raw (unsmoothed) difference quotients, since
    neighbour averaging does not reduce the sampling error of the mean.
    """

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
    ``steps.shape + (M, ...)`` and contiguous, so that reductions over paths
    run along contiguous rows."""
    return np.ascontiguousarray(np.moveaxis(a, 1, 0)[steps])


def _lagged(a: np.ndarray, steps: np.ndarray, m: int) -> np.ndarray:
    """The lag window of each step: :func:`_rows` at ``i - m``, ``i``, ``i + m``,
    (3, len(steps), M, ...)."""
    return _rows(a, np.stack([steps - m, steps, steps + m]))


def _quotients(before, now, after, lag: float):
    """Forward and backward difference quotients of a :func:`_lagged` window, and their mean."""
    fq = (after - now) / lag
    bq = (now - before) / lag
    return fq, bq, 0.5 * (fq + bq)


def lagged_rows(model, m_paths: int, dt: float, horizon: float, seed: int, lag_steps: int,
                t_indices) -> tuple[np.ndarray, np.ndarray]:
    """The states and the noise of :func:`stream_ensemble`'s ensemble at the
    nodes ``i - lag_steps``, ``i`` and ``i + lag_steps`` of each report step
    ``i`` of ``t_indices``, (3, n_times, M, N) and (3, n_times, M, K),
    time-major as :func:`_lagged` gives them.

    The window is checked (:func:`_window`) before anything is allocated.
    Each sub-block copies its rows and is dropped, so no more of the ensemble
    than these rows is kept.
    """
    n_steps = step_count(dt, horizon)
    steps = _window(dt, n_steps + 1, lag_steps, t_indices)
    sigma, drift = _coefficients(model, n_steps, dt)
    rows = tuple(np.empty((3, steps.size, m_paths, d)) for d in sigma.shape[1:])

    def sink(lo: int, hi: int, noise: np.ndarray, states: np.ndarray) -> None:
        for kept, a in zip(rows, (states, noise)):
            kept[:, :, lo:hi] = _lagged(a, steps, lag_steps)

    _blocks(m_paths, n_steps, dt, seed, sigma, drift, sink)
    return rows


def nelson_derivatives(values: np.ndarray, state: np.ndarray, dt: float, lag_steps: int,
                       neighbors: int) -> NelsonEstimates:
    """Forward, backward and mean stochastic derivatives of a path functional.

    ``values`` holds the functional at the nodes ``i - lag_steps``, ``i`` and
    ``i + lag_steps`` of each report step ``i``, (3, n_times, M), and
    ``state`` the present state at ``i``, (n_times, M, 1), time-major as
    :func:`lagged_rows` gives them.  The state must carry the scalar Markov
    state the functional depends on; conditioning is regression on the
    ``neighbors`` (8 to M) paths nearest in present state
    (:func:`_window_means`).  The quotients divide by ``lag_steps * dt``; a
    state with ``d > 1`` raises ``ValueError``.
    """
    values = np.asarray(values, dtype=float)
    state = np.asarray(state, dtype=float)
    if values.ndim != 3 or len(values) != 3 or state.ndim != 3 \
            or state.shape[:2] != values.shape[1:]:
        raise ValueError("values must be (3, n_times, M) and state (n_times, M, d)")
    _check_count(lag_steps, "lag_steps", 1)
    _check_count(neighbors, "neighbors", 8)
    if state.shape[2] != 1:
        raise ValueError(f"state must be scalar, (n_times, M, 1); got dimension {state.shape[2]}")
    fq, bq, raw = _quotients(*values, lag_steps * dt)
    forward, backward = np.empty_like(fq), np.empty_like(bq)
    for j, x in enumerate(state[:, :, 0]):
        forward[j], backward[j] = _window_means(x, (fq[j], bq[j]), neighbors)
    return NelsonEstimates(
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


def estimation_steps(dt: float, n_times: int, lag_steps: int, times) -> np.ndarray:
    """Distinct grid steps nearest ``times`` (``n_times`` nodes ``dt`` apart), checked by
    the window rule (:func:`_window`); a time outside ``[0, horizon]`` raises ``ValueError``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    horizon = (n_times - 1) * dt
    outside = ~((times >= 0) & (times <= horizon))  # nan too; before the int cast
    if outside.any():
        raise ValueError(f"report time {times[outside][0]} outside [0, horizon {horizon:g}]")
    steps = np.round(times / dt).astype(int)
    return np.unique(_window(dt, n_times, lag_steps, steps, times))


def _rho_quotients(model: ItoCoefficients, lag: float, times: np.ndarray):
    """The per-path estimator of the arbitrage measure at report ``times``.

    Returns the kernel dimension ``B`` and ``project(before, now, after,
    noise)``, which maps the rows of any set of paths (the states at steps
    ``i - m``, ``i`` and ``i + m`` of each report step ``i``, ``lag = m dt``,
    and the noise at ``i``, time-major as :func:`_lagged` and :func:`_rows`
    give them) to their projected quotients, (n_times, paths, B).  The kernel
    basis and the Ito term are computed once, here.

    Per path and asset, the symmetric difference quotient of the log price
    plus the correction ``+ diag(sigma sigma^T)/2 - sigma W_t/(2t)`` (the
    latter exact, from the stored noise) recovers drift plus rate; it is
    projected onto the kernel basis.  No conditional regression is needed:
    Nelson's mean derivative is a conditional expectation given the present
    state, and its ensemble average equals the average of the raw quotients
    (tower property), so no neighbours are averaged and each path is
    projected on its own.
    """
    basis = kernel_basis(model.sigma)
    ito = 0.5 * np.einsum("nk,nk->n", model.sigma, model.sigma)
    two_t = (2.0 * times)[:, None, None]

    def project(before, now, after, noise):
        if now.shape[1] == 1:
            # numpy multiplies a lone path by dot products, which round otherwise
            # than the matrix kernels that any larger set of paths gets
            rows = (np.repeat(a, 2, axis=1) for a in (before, now, after, noise))
            return project(*rows)[:, :1]
        *_, raw = _quotients(np.log(before), np.log(now), np.log(after), lag)
        w_corr = noise / two_t  # exact, never estimated
        raw_hat = raw + ito - w_corr @ model.sigma.T
        return (raw_hat + model.r) @ basis.J

    return basis.B, project


def _rho_estimate(quotients: np.ndarray, times: np.ndarray) -> RhoEstimate:
    """Per report time, the plain mean of the projected quotients,
    (n_times, M, B), with standard errors from their dispersion; with B = 0
    the estimate is empty."""
    se = quotients.std(axis=1, ddof=1) / np.sqrt(quotients.shape[1])
    return RhoEstimate(times, quotients.mean(axis=1), se, quotients.shape[2])


# ---------------------------------------------------------------------------
# persistence

_HEADER = struct.Struct("<4sIQIIQdQ")  # magic, version, M, N, K, steps, dt, seed


def _sections(m_paths: int, n: int, k: int, n_steps: int) -> tuple[int, int, int]:
    """The ensemble file layout: byte offsets of the states, (M, n_steps + 1,
    N), and of the noise, (M, n_steps + 1, K), both little-endian float64 in
    C order after the header, and the file size."""
    noise_at = _HEADER.size + 8 * m_paths * (n_steps + 1) * n
    return _HEADER.size, noise_at, noise_at + 8 * m_paths * (n_steps + 1) * k


def stream_ensemble(model, m_paths: int, dt: float, horizon: float, seed: int, path,
                    lag_steps: int | None = None, t_indices=()) -> RhoEstimate | None:
    """Simulate the log-Euler ensemble ``S_{t+dt} = S_t exp((alpha -
    diag(sigma sigma^T)/2) dt + sigma dW)``, ``S_0 = 1`` (:func:`_blocks`), of
    a constant :class:`~itoarb.geometry.ItoCoefficients` ``model`` or a
    per-step sequence of them; write it to ``path`` unless that is None; and
    with ``lag_steps`` return the estimate of the arbitrage measure at the
    steps ``t_indices`` (else None).

    The window is checked (:func:`_window`, and an estimate needs a constant
    model) before anything is allocated or opened.  Each sub-block of paths
    writes its rows of the states and the noise sections
    (:func:`_sections`) as it is built and projects its paths' quotients
    (:func:`_rho_quotients`), which alone are kept, (len(t_indices), M, B);
    more than ``MAX_COUNT`` of them raise ``MemoryError`` first.  The file is
    written as ``path.partial`` and renamed to ``path`` on success; on any
    failure it is removed (:func:`~itoarb.tables.replacing`).
    """
    n_steps = step_count(dt, horizon)
    project = None
    if lag_steps is not None:
        if not isinstance(model, ItoCoefficients):
            raise ValueError("an estimate needs a constant model; it does not project "
                             "a per-step schedule")
        steps = _window(dt, n_steps + 1, lag_steps, t_indices)
        b, project = _rho_quotients(model, lag_steps * dt, steps * dt)
        if steps.size * m_paths * b > MAX_COUNT:
            raise MemoryError(f"{steps.size} report times x {m_paths} paths x {b} kernel "
                              f"directions of quotients, more than the {MAX_COUNT} an array "
                              "may hold")
        quotients = np.empty((steps.size, m_paths, b))
    sigma, drift = _coefficients(model, n_steps, dt)
    n, k = sigma.shape[1:]
    states_at, noise_at, _ = _sections(m_paths, n, k, n_steps)
    fd = None

    def sink(lo: int, hi: int, noise: np.ndarray, states: np.ndarray) -> None:
        if fd is not None:
            for a, at in ((states, states_at), (noise, noise_at)):
                pwrite_all(fd, a.astype("<f8", copy=False), at + lo * a[0].nbytes)
        if project is not None:
            quotients[:, lo:hi] = project(*_lagged(states, steps, lag_steps), _rows(noise, steps))

    if path is None:
        _blocks(m_paths, n_steps, dt, seed, sigma, drift, sink)
    else:
        with replacing(path) as fh:
            fd = fh.fileno()
            pwrite_all(fd, _HEADER.pack(MAGIC, FORMAT_VERSION, m_paths, n, k, n_steps, dt,
                                        seed & 0xFFFFFFFFFFFFFFFF), 0)
            _blocks(m_paths, n_steps, dt, seed, sigma, drift, sink)
    return None if project is None else _rho_estimate(quotients, steps * dt)


def load_ensemble(path) -> PathEnsemble:
    """Map a :func:`stream_ensemble` file read-only, so only the pages read
    are loaded (the writer renames a new file over it, never truncates it);
    raises ``ValueError`` on a bad magic or version, or a size other than
    header plus payload."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"not an ensemble file: {size} bytes, shorter than the header")
        magic, version, m, n, k, steps, dt, seed = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError("not an ensemble file (bad magic)")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported ensemble format version {version}")
        _, noise_at, expected = _sections(m, n, k, steps)
        if size != expected:
            raise ValueError(f"ensemble file has {size} bytes, its header promises {expected} "
                             "(truncated or padded)")
        data = np.memmap(fh, dtype=np.uint8, mode="r")
    states = data[_HEADER.size:noise_at].view("<f8").reshape(m, steps + 1, n)
    noise = data[noise_at:].view("<f8").reshape(m, steps + 1, k)
    return PathEnsemble(states, noise, float(dt), int(seed))


def ensemble_to_csv(ens: PathEnsemble, path, max_paths: int | None = None) -> None:
    """Long-format CSV export for small runs: path, t, S_1..S_N, W_1..W_K."""
    m = ens.n_paths if max_paths is None else min(max_paths, ens.n_paths)
    header = (["path", "t"] + [f"S_{j + 1}" for j in range(ens.n_assets)]
              + [f"W_{j + 1}" for j in range(ens.n_drivers)])
    write_long_csv(path, header, range(m), ens.times,
                   lambda p: np.hstack([ens.states[p], ens.noise[p]]))
