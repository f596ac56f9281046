"""Deflators, term structures and their algebra.

A financial instrument is modelled as a *gauge*: a deflator time series
``D_t`` together with a term structure ``P(t, t+u)`` of synthetic zero-bond
prices, stored on a rectangular (valuation time) x (maturity offset) grid.
Deterministic cashflow profiles ("intensities") act on gauges by a transform
that is closed under convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CashflowIntensity",
    "Gauge",
    "convolve",
    "gauge_transform",
    "term_structure_from_forward",
]

_RATIO_TOL = 1e-9


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CashflowIntensity:
    """Deterministic cashflow profile sampled on a uniform lag grid.

    ``samples[i]`` is the intensity at lag ``i * dh``; samples are zero beyond
    ``support_end``.  A single-sample intensity is interpreted as a point mass
    at lag zero with total mass ``samples[0] * dh``; the unit point mass
    ``samples = [1 / dh]`` is then an exact identity for :func:`convolve`.
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


def term_structure_from_forward(f: np.ndarray, du: float) -> np.ndarray:
    """Rebuild ``P = exp(-int_0^u f dv)`` by cumulative trapezoid along the
    offset axis (bit for bit ``scipy.integrate.cumulative_trapezoid``)."""
    f = np.asarray(f, dtype=float)
    integral = np.cumsum(du * (f[:, 1:] + f[:, :-1]) / 2.0, axis=1)
    return np.exp(-np.concatenate([np.zeros((f.shape[0], 1)), integral], axis=1))
