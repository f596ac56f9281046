"""Deflators, term structures and their algebra.

A financial instrument is modelled as a *gauge*: a deflator time series
``D_t`` together with a term structure ``P(t, t+u)`` of synthetic zero-bond
prices, stored on a rectangular (valuation time) x (maturity offset) grid.
Deterministic cashflow profiles ("intensities") act on gauges by a transform
that is closed under convolution; portfolios of gauges aggregate through
deflator-weighted forward-rate averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import read_csv, write_csv

__all__ = [
    "CashflowIntensity",
    "Gauge",
    "PortfolioNominals",
    "dirac",
    "convolve",
    "gauge_transform",
    "forward_rate",
    "short_rate",
    "term_structure_from_forward",
    "portfolio_gauge",
    "portfolio_short_rate",
    "read_deflator_csv",
    "write_deflator_csv",
    "read_term_structure_csv",
    "write_term_structure_csv",
    "read_intensity_csv",
    "write_intensity_csv",
]

_RATIO_TOL = 1e-9


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CashflowIntensity:
    """Deterministic cashflow profile sampled on a uniform lag grid.

    ``samples[i]`` is the intensity at lag ``i * dh``; samples are zero beyond
    ``support_end``.  A single-sample intensity is interpreted as a point mass
    at lag zero with total mass ``samples[0] * dh``; the unit point mass
    (see :func:`dirac`) is then an exact identity for :func:`convolve`.
    """

    samples: np.ndarray
    dh: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(self.samples))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("intensity samples must be a non-empty 1-D array")
        if not np.isfinite(self.samples).all():
            raise ValueError("intensity samples must be finite")
        if not (self.dh > 0 and np.isfinite(self.dh)):
            raise ValueError("grid spacing dh must be positive and finite")

    @property
    def support_end(self) -> float:
        return (self.samples.size - 1) * self.dh

    @property
    def is_point_mass(self) -> bool:
        return self.samples.size == 1

    @property
    def lags(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dh


def dirac(dh: float) -> CashflowIntensity:
    """Unit point mass at lag zero on a grid of spacing ``dh``."""
    return CashflowIntensity(np.array([1.0 / dh]), dh)


def _resample(intensity: CashflowIntensity, dh: float) -> CashflowIntensity:
    """Linearly resample onto a finer grid whose spacing divides ``intensity.dh``."""
    if abs(intensity.dh - dh) <= _RATIO_TOL * dh:
        return intensity
    ratio = intensity.dh / dh
    m = round(ratio)
    if m < 1 or abs(ratio - m) > _RATIO_TOL * ratio:
        raise ValueError(
            f"grid-incompatible intensities: spacing ratio {ratio!r} is not an integer"
        )
    if intensity.is_point_mass:
        # preserve total mass of the point representation
        return CashflowIntensity(intensity.samples * m, dh)
    lags = np.arange(round(intensity.support_end / dh) + 1) * dh
    vals = np.interp(lags, intensity.lags, intensity.samples)
    return CashflowIntensity(vals, dh)


def convolve(pi: CashflowIntensity, nu: CashflowIntensity) -> CashflowIntensity:
    """Convolution ``(pi * nu)_t = int_0^t pi_h nu_{t-h} dh`` on the shared grid.

    Mismatched spacings are linearly resampled to the finer one; spacings whose
    ratio is not an integer raise a grid-incompatibility error.  The discrete
    rule is the Riemann sum ``dh * sum_j pi_j nu_{k-j}``, so the support end of
    the result is the sum of the support ends.
    """
    dh = min(pi.dh, nu.dh)
    pi = _resample(pi, dh)
    nu = _resample(nu, dh)
    return CashflowIntensity(np.convolve(pi.samples, nu.samples) * dh, dh)


@dataclass(frozen=True)
class Gauge:
    """Deflator path plus term-structure surface for one instrument.

    ``term_structure[i, j]`` is the price ``P(t_i, t_i + u_j)`` in units of the
    time-``t_i`` deflator; offsets ``u_j`` are uniform starting at zero, so the
    first column is identically one.
    """

    times: np.ndarray
    offsets: np.ndarray
    deflator: np.ndarray
    term_structure: np.ndarray

    def __post_init__(self):
        for name in ("times", "offsets", "deflator", "term_structure"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        t, u, d, p = self.times, self.offsets, self.deflator, self.term_structure
        if t.ndim != 1 or u.ndim != 1 or d.shape != t.shape:
            raise ValueError("times, offsets and deflator must be consistent 1-D arrays")
        if p.shape != (t.size, u.size):
            raise ValueError(f"term structure shape {p.shape} != {(t.size, u.size)}")
        if u.size < 2:
            raise ValueError("need at least two maturity offsets")
        du = np.diff(u)
        if u[0] != 0.0 or not np.allclose(du, du[0], rtol=1e-9, atol=0.0):
            raise ValueError("offsets must be uniform and start at zero")
        if np.any(p <= 0.0):
            raise ValueError("term structure must be strictly positive")
        if np.max(np.abs(p[:, 0] - 1.0)) > 1e-12:
            raise ValueError("P(t, t) must equal one")

    @property
    def du(self) -> float:
        return float(self.offsets[1] - self.offsets[0])

    @property
    def horizon(self) -> float:
        return float(self.offsets[-1])


@dataclass(frozen=True)
class PortfolioNominals:
    """Vector of nominal holdings; the weighted deflator must stay nonzero."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        if self.x.ndim != 1 or self.x.size == 0 or not np.isfinite(self.x).all():
            raise ValueError("nominals must be a finite non-empty vector")


def _intensity_quadrature(pi: CashflowIntensity, values: np.ndarray) -> np.ndarray:
    """``int pi_h f(h) dh`` with ``values[..., j] = f(h_j)`` on pi's lag grid.

    Trapezoidal rule; a point-mass intensity contributes ``mass * f(0)``.
    """
    if pi.is_point_mass:
        return pi.samples[0] * pi.dh * values[..., 0]
    return np.trapezoid(pi.samples * values, dx=pi.dh, axis=-1)


def gauge_transform(g: Gauge, pi: CashflowIntensity) -> Gauge:
    """Reweight a gauge by a cashflow intensity.

    ``D^pi_t = D_t int pi_h P(t, t+h) dh`` and
    ``P^pi(t, s) = int pi_h P(t, s+h) dh / int pi_h P(t, t+h) dh``.
    The output offset grid is trimmed by the intensity's support end; if the
    term-structure horizon cannot cover it, a horizon error is raised.
    """
    keep = g.offsets <= g.horizon - pi.support_end + 1e-12 * max(g.horizon, 1.0)
    n_out = int(np.count_nonzero(keep))
    if n_out < 2:
        raise ValueError(
            f"term-structure horizon {g.horizon} too short for intensity support "
            f"{pi.support_end}"
        )
    u_out = g.offsets[:n_out]
    # P(t, u + h) for every output offset u and intensity lag h
    query = u_out[:, None] + pi.lags[None, :]
    vals = np.empty((g.times.size, n_out, pi.samples.size))
    for i in range(g.times.size):
        vals[i] = np.interp(query, g.offsets, g.term_structure[i])
    numer = _intensity_quadrature(pi, vals)
    denom = numer[:, 0]
    if np.any(denom <= 0.0):
        raise ValueError("degenerate transform: denominator integral is not positive")
    p_out = numer / denom[:, None]
    p_out[:, 0] = 1.0
    return Gauge(g.times, u_out, g.deflator * denom, p_out)


def forward_rate(g: Gauge) -> np.ndarray:
    """Instantaneous forward surface ``f(t, t+u) = -d log P / du``.

    Central differences interiorly, one-sided at the offset edges.  The
    surface reproduces ``P = exp(-int f)`` to second order interiorly.
    """
    if np.any(g.term_structure <= 0.0):
        raise ValueError("term structure must be positive")
    logp = np.log(g.term_structure)
    f = np.empty_like(logp)
    du = g.du
    f[:, 1:-1] = -(logp[:, 2:] - logp[:, :-2]) / (2 * du)
    f[:, 0] = -(logp[:, 1] - logp[:, 0]) / du
    f[:, -1] = -(logp[:, -1] - logp[:, -2]) / du
    return f


def short_rate(f: np.ndarray) -> np.ndarray:
    """Short-rate series from a forward surface.

    Returns the forward rate at the shortest offset, which the edge rule of
    :func:`forward_rate` derives from the first off-diagonal maturity node;
    the contract is convergence to the true limit under offset refinement.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[1] == 0:
        raise ValueError("forward surface must be 2-D with a non-empty maturity axis")
    return f[:, 0]


def term_structure_from_forward(f: np.ndarray, du: float) -> np.ndarray:
    """Rebuild ``P = exp(-int_0^u f dv)`` by cumulative trapezoid."""
    from scipy.integrate import cumulative_trapezoid

    integral = cumulative_trapezoid(f, dx=du, axis=1, initial=0.0)
    return np.exp(-integral)


def _check_shared_grids(gauges) -> Gauge:
    first = gauges[0]
    for g in gauges[1:]:
        if g.times.shape != first.times.shape or not np.allclose(
            g.times, first.times, rtol=0, atol=1e-12
        ):
            raise ValueError("gauges must share the valuation-time grid")
        if g.offsets.shape != first.offsets.shape or not np.allclose(
            g.offsets, first.offsets, rtol=0, atol=1e-12
        ):
            raise ValueError("gauges must share the maturity-offset grid")
    return first


def _portfolio_weights(x: PortfolioNominals, gauges) -> tuple[np.ndarray, np.ndarray]:
    d = np.stack([g.deflator for g in gauges], axis=1)  # (n_t, N)
    dx = d @ x.x
    scale = np.abs(d * x.x).sum(axis=1)
    if np.any(np.abs(dx) <= 1e-12 * np.maximum(scale, 1e-300)):
        raise ValueError("degenerate portfolio: weighted deflator vanishes at some time")
    return dx, (x.x * d) / dx[:, None]


def portfolio_gauge(x: PortfolioNominals, gauges) -> Gauge:
    """Aggregate gauges into a portfolio gauge.

    The deflator is the exact linear combination; the forward surface is the
    deflator-weighted average of the constituents' surfaces and the term
    structure is rebuilt from it.
    """
    if len(gauges) != x.x.size:
        raise ValueError("one gauge per nominal required")
    g0 = _check_shared_grids(gauges)
    dx, w = _portfolio_weights(x, gauges)
    f = np.stack([forward_rate(g) for g in gauges], axis=0)  # (N, n_t, n_u)
    fx = np.einsum("tn,ntu->tu", w, f)
    px = term_structure_from_forward(fx, g0.du)
    return Gauge(g0.times, g0.offsets, dx, px)


def portfolio_short_rate(x: PortfolioNominals, gauges) -> np.ndarray:
    """Portfolio short rate: the value-weighted average of constituent rates."""
    if len(gauges) != x.x.size:
        raise ValueError("one gauge per nominal required")
    _check_shared_grids(gauges)
    _, w = _portfolio_weights(x, gauges)
    rates = np.stack([short_rate(forward_rate(g)) for g in gauges], axis=1)  # (n_t, N)
    return (w * rates).sum(axis=1)


# ---------------------------------------------------------------------------
# CSV interchange


def write_deflator_csv(path, times, values) -> None:
    write_csv(path, ["t", "value"], [np.column_stack([times, values])])


def read_deflator_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = read_csv(path)
    return data[:, 0], data[:, 1]


def write_term_structure_csv(path, gauge: Gauge) -> None:
    """Rows (t, s, value) with absolute maturity ``s = t + offset``."""
    write_csv(path, ["t", "s", "value"],
              (np.column_stack([np.full(gauge.offsets.size, t), t + gauge.offsets, row])
               for t, row in zip(gauge.times, gauge.term_structure)))


def read_term_structure_csv(path, deflator=None) -> Gauge:
    """Rebuild a gauge from (t, s, value) rows; offsets must form a shared grid."""
    data = read_csv(path)
    times = np.unique(data[:, 0])
    n_t = times.size
    if data.shape[0] % n_t:
        raise ValueError("term-structure rows do not form a rectangular grid")
    n_u = data.shape[0] // n_t
    p = np.empty((n_t, n_u))
    offsets = None
    for i, t in enumerate(times):
        rows = data[np.isclose(data[:, 0], t)]
        order = np.argsort(rows[:, 1])
        rows = rows[order]
        u = rows[:, 1] - t
        if offsets is None:
            offsets = u
        elif not np.allclose(u, offsets, rtol=0, atol=1e-9):
            raise ValueError("maturity offsets differ across valuation times")
        p[i] = rows[:, 2]
    if deflator is None:
        deflator = np.ones(n_t)
    return Gauge(times, offsets, deflator, p)


def write_intensity_csv(path, intensity: CashflowIntensity) -> None:
    write_csv(path, ["h", "value"], [np.column_stack([intensity.lags, intensity.samples])])


def read_intensity_csv(path, dh: float | None = None) -> CashflowIntensity:
    """Load an intensity; single-row (point mass) files need ``dh`` passed in."""
    data = read_csv(path)
    h = data[:, 0]
    if h.size > 1:
        spacing = h[1] - h[0]
        if not np.allclose(np.diff(h), spacing, rtol=1e-9, atol=0):
            raise ValueError("intensity lag grid must be uniform")
        dh = float(spacing)
    elif dh is None:
        raise ValueError("single-row intensity file: grid spacing dh must be given")
    return CashflowIntensity(data[:, 1], float(dh))
