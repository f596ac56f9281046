"""Perturbation-series pricing of a European call under drift misalignment.

In discounted coordinates the call price solves

    dPhi/dt + (sigma^2/2) X^2 d2Phi/dx2 = rho * sqrt(Phi^2 + (X dPhi/dx)^2),

with terminal payoff ``(X - K)+`` where ``K`` strikes the discounted value.
The change of variables ``x = K e^y``, ``t = T - 2 tau / sigma^2``,
``Phi = K e^{y/2 - tau/4} u`` reduces this to a canonical heat equation with
a nonlinear source,

    du/dtau = d2u/dy2 - rho * f(u, u'),    f >= 0,

which is solved to second order by Duhamel iteration:
``u = u0 - rho U1 + rho^2 U2``.  Note the sign: the source enters the
canonical equation with a *negative* multiple of ``rho``, so a positive
arbitrage measure lowers the call price relative to Black-Scholes (the
finite-difference route confirms this, see :mod:`itoarb.fdsolver`).

The dimensional constant in ``f`` is ``2 / sigma^2``.  The alternative
``2 K / sigma^2`` (``SOURCE_STRIKE_SCALED``) is retained as a candidate so
the comparison tooling can adjudicate between the two against the
finite-difference oracle; only the strike-free constant reproduces the
oracle at third order in ``rho``.

The grid is its config section: :class:`TransformGrid` holds the
``pricing_grid`` sizes, and :meth:`TransformGrid.nodes` lays the tables'
tau axis ``[0, tau_max (k / n_tau)^2]`` and uniform y nodes over
``[-y_half, y_half]`` for a call.  U1 and U2 are built by one march of
semigroup steps over that tau axis (:func:`compute_corrections`): each step
carries the previous rows forward with the heat kernel, applied as a
convolution with exact Gaussian-times-hat weights, and adds the in-step
integral of each source, evaluated only on the nodes of the padded y grid.
The march advances the tables at spacing ``dy/2`` and ``dy`` together: a
step evaluates ``u0`` and both sources once, on the ``dy/2`` nodes, whose
every other node is a ``dy`` node, and the pair is Richardson-combined.  A
padded y grid of more than ``MAX_PADDED_Y_NODES`` nodes raises
``MemoryError`` before anything is built.  ``n_time_quad`` sets the in-step
quadrature spacing; with ``n_space_quad`` it also sizes the direct
full-history quadrature (:func:`duhamel_integral`) that checks the stepped
U1 at one node.

The series has one build and one reader.  ``solve_perturbation(spec, grid)``
builds U1/U2 with the strike-free constant exactly when ``spec.rho != 0``
and records the stepped-vs-direct U1 gap in its diagnostics;
:func:`compute_corrections` takes the constant as a number.  A
:class:`PerturbationSolution` is the stacked ``(U1, U2)`` tables on
``grid.nodes(spec)``; ``correction_values`` reads them at points on the
grid and raises ``ValueError`` off it, and :func:`price_discounted`, the one
price reader, assembles ``u0 - rho U1 + rho^2 U2`` from it with ``u0`` in
closed form.  :func:`check_points` holds the checks that
:func:`price_discounted` applies to ``(x, t)``, for callers that vet points
before building.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "CallSpec",
    "TransformGrid",
    "PerturbationSolution",
    "SOURCE_STRIKE_FREE",
    "SOURCE_STRIKE_SCALED",
    "source_coefficient",
    "u0",
    "nonlinear_f",
    "nonlinear_f_gradient",
    "duhamel_integral",
    "richardson_halving",
    "compute_corrections",
    "solve_perturbation",
    "solve_with_refinement_check",
    "canonical_variables",
    "check_points",
    "price_discounted",
]

SQRT2PI = np.sqrt(2.0 * np.pi)

SOURCE_STRIKE_FREE = "strike-free"      # 2 / sigma^2 (adopted)
SOURCE_STRIKE_SCALED = "strike-scaled"  # 2 K / sigma^2 (rejected candidate)
REFINEMENT_THRESHOLD = 1e-4  # relative ATM change allowed on halving the grid
# heat kernels and the direct quadrature's z-integration are truncated at this
# many kernel standard deviations: the Gaussian tails beyond are below 1e-22
Z_HALF_WIDTH_SDS = 10.0
# bound on the padded series y grid.  A build's time grows about as the square
# and its memory linearly in the padded node count: on the README call one
# solve_perturbation takes 3.5 s and a 38 MiB heap peak at 5,507 nodes and
# 67 s and 186 MiB at 27,009 (y_half 0.01), so at the bound about 100 s and
# 230 MiB (extrapolated); y_half 1e-3 (268,929 nodes) is refused
MAX_PADDED_Y_NODES = 2**15
MIN_N_TAU, MIN_N_Y, MIN_N_TIME_QUAD, MIN_N_SPACE_QUAD = 16, 16, 8, 21  # TransformGrid floors


@dataclass(frozen=True)
class CallSpec:
    """European call parameters on the discounted underlying."""

    strike: float
    maturity: float
    sigma: float
    rho: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.strike, self.maturity, self.sigma, self.rho])):
            raise ValueError("call parameters must be finite")
        if not (self.strike > 0 and self.maturity > 0 and self.sigma > 0):
            raise ValueError("strike, maturity and sigma must be positive")
        if not np.isfinite(float(self.sigma) * float(self.sigma) * float(self.maturity) / 2):
            raise ValueError("sigma^2 * maturity / 2 overflows: sigma or maturity is too large")

    @property
    def tau_max(self) -> float:
        return 0.5 * self.sigma**2 * self.maturity


def source_coefficient(spec: CallSpec, convention: str = SOURCE_STRIKE_FREE) -> float:
    if convention == SOURCE_STRIKE_FREE:
        return 2.0 / spec.sigma**2
    if convention == SOURCE_STRIKE_SCALED:
        return 2.0 * spec.strike / spec.sigma**2
    raise ValueError(f"unknown source convention {convention!r}")


@dataclass(frozen=True)
class TransformGrid:
    """The ``pricing_grid`` sizes of the series grid in the heat-equation
    variables (tau, y) and of its quadratures.

    :meth:`nodes` lays the grid for a call: ``n_tau`` square-root-spaced tau
    nodes over ``(0, sigma^2 T / 2]`` and ``n_y`` uniform y nodes over
    ``[-y_half, y_half]``; the build pads the y grid by the heat kernel's
    reach of ``Z_HALF_WIDTH_SDS`` standard deviations.  ``n_time_quad`` sets
    the in-step w spacing of the stepped build to ``sqrt(tau_max) /
    n_time_quad``; with ``n_space_quad`` it also sizes the direct quadrature
    that checks the stepped U1.
    """

    n_tau: int = 48
    n_y: int = 129
    y_half: float = 0.8
    n_time_quad: int = 64
    n_space_quad: int = 161

    def __post_init__(self):
        if self.n_tau < MIN_N_TAU or self.n_y < MIN_N_Y:
            raise ValueError("need at least 16 nodes per axis")
        if not 0 < self.y_half < np.inf:
            raise ValueError("y_half must be positive and finite")
        if self.n_time_quad < MIN_N_TIME_QUAD or self.n_space_quad < MIN_N_SPACE_QUAD:
            raise ValueError("quadrature rules too coarse")

    def nodes(self, spec: CallSpec) -> tuple[np.ndarray, np.ndarray]:
        """The tau axis ``[0, tau_max (k / n_tau)^2 for k = 1..n_tau]`` (dense
        near expiry) and the y nodes ``linspace(-y_half, y_half, n_y)`` of the
        tables for ``spec``."""
        taus = spec.tau_max * (np.arange(1, self.n_tau + 1) / self.n_tau) ** 2
        return np.concatenate([[0.0], taus]), np.linspace(-self.y_half, self.y_half, self.n_y)


def u0_and_prime(tau, y):
    """Heat-equation solution for the call payoff and its y-derivative.

    Closed form: ``u0 = e^{y/2+tau/4} N(d+) - e^{-y/2+tau/4} N(d-)`` with
    ``d+- = (y +- tau) / sqrt(2 tau)``; the Gaussian-density terms of the
    derivative cancel, leaving ``u0' = (e^{y/2+tau/4} N(d+) +
    e^{-y/2+tau/4} N(d-)) / 2``.  At ``tau = 0`` both reduce to the initial
    data ``max(e^{y/2} - e^{-y/2}, 0)`` and its derivative, which replace the
    closed form only where ``tau <= 0``; ``tau`` and ``y`` broadcast as given.
    """
    from scipy.special import ndtr

    tau = np.asarray(tau, dtype=float)
    y = np.asarray(y, dtype=float)
    zero = tau <= 0.0
    t = np.where(zero, 1.0, tau) if zero.any() else tau
    rt = np.sqrt(2.0 * t)
    a = np.exp(y / 2 + t / 4) * ndtr((y + t) / rt)
    b = np.exp(-y / 2 + t / 4) * ndtr((y - t) / rt)
    u, up = a - b, 0.5 * (a + b)
    if zero.any():
        ep, em = np.exp(y / 2), np.exp(-y / 2)
        u = np.where(zero, np.maximum(ep - em, 0.0), u)
        up = np.where(zero, np.where(y > 0, 0.5 * (ep + em), 0.0), up)
    return u, up


def u0(tau, y):
    return u0_and_prime(tau, y)[0]


def nonlinear_f(v1, v2, coefficient: float):
    """Source magnitude ``coefficient * sqrt(5/4 v1^2 + v1 v2 + v2^2)``.

    The quadratic form is positive definite, so f >= 0 with equality only at
    the origin.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    q = 1.25 * v1 * v1 + v1 * v2 + v2 * v2
    return coefficient * np.sqrt(np.maximum(q, 0.0))


def nonlinear_f_gradient(v1, v2, coefficient: float):
    """Partials of :func:`nonlinear_f`; zero at the origin, where f is not
    differentiable (the integrand weight vanishes there with f)."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    q = 1.25 * v1 * v1 + v1 * v2 + v2 * v2
    root = np.sqrt(np.maximum(q, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = coefficient * (2.5 * v1 + v2) / (2.0 * root)
        g2 = coefficient * (v1 + 2.0 * v2) / (2.0 * root)
    ok = root > 0.0
    return np.where(ok, g1, 0.0), np.where(ok, g2, 0.0)


def duhamel_integral(
    source_fn,
    taus,
    ys,
    n_time_quad: int = 64,
    n_space_quad: int = 161,
) -> np.ndarray:
    """Space-time quadrature of ``int_0^tau ds int dz G(tau,y;s,z) src(s,z)``.

    The substitution ``s = tau - w^2`` removes the kernel's square-root
    singularity at ``s -> tau``; the midpoint rule on a uniform w grid avoids
    evaluating at either endpoint (the kernel degenerates at ``w = 0`` and
    the source may be kinked at ``s = 0``).  In the standardized variable
    ``z = y + sqrt(2) w xi`` the kernel becomes the standard normal density,
    integrated by a Gaussian-weighted trapezoid rule truncated at
    ``Z_HALF_WIDTH_SDS`` standard deviations.

    ``source_fn(s, z)`` must broadcast over same-shaped arrays.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    xi = np.linspace(-Z_HALF_WIDTH_SDS, Z_HALF_WIDTH_SDS, n_space_quad)
    cxi = np.exp(-0.5 * xi * xi) / SQRT2PI * (xi[1] - xi[0])
    cxi[0] *= 0.5
    cxi[-1] *= 0.5
    out = np.empty((taus.size, ys.size))
    for i, tau in enumerate(taus):
        dw = np.sqrt(tau) / n_time_quad
        w = (np.arange(n_time_quad) + 0.5) * dw
        s = tau - w * w
        z = ys[:, None, None] + np.sqrt(2.0) * w[None, :, None] * xi[None, None, :]
        vals = source_fn(np.broadcast_to(s[None, :, None], z.shape), z)
        out[i] = 2.0 * dw * np.einsum("ywx,x,w->y", vals, cxi, w)
    return out


def _heat_weights(t: np.ndarray, dy: float) -> list[np.ndarray]:
    """Exact weights of the heat kernels of variance ``2 t``, one array per
    entry of ``t``, acting on the piecewise-linear interpolant of values at
    spacing ``dy``.

    ``w_m = int G(t, m dy - z) hat(z / dy) dz`` with the unit hat function;
    writing the hat as three ramps gives ``w_m = (sd/dy) (F(a_m + d) -
    2 F(a_m) + F(a_m - d))`` with ``a_m = m dy / sd``, ``d = dy / sd`` and
    ``F(a) = a N(a) + n(a)``.  Taps beyond ``Z_HALF_WIDTH_SDS`` kernel
    standard deviations are dropped.
    """
    from scipy.special import ndtr

    sd = np.sqrt(2.0 * t)
    k = np.ceil(Z_HALF_WIDTH_SDS * sd / dy).astype(int) + 1
    reach = int(k.max())
    a = np.arange(-reach - 1, reach + 2) * (dy / sd)[:, None]
    f = a * ndtr(a) + np.exp(-0.5 * a * a) / SQRT2PI
    w = (sd / dy)[:, None] * (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2])
    return [row[reach - kj : reach + kj + 1] for row, kj in zip(w, k)]


def _heat_apply(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``G * values`` at the nodes for the weights of ``G``, zero off the grid."""
    k = weights.size // 2
    return np.convolve(values, weights)[k : k + values.size]


def _steps(taus: np.ndarray, dw: float):
    """Per step ``i >= 1`` over ``taus``: ``i``, the in-step times ``s =
    tau_i - w^2`` (a column), their midpoint factors ``2 dw_i w`` and the
    times ``[h_i, *w^2]`` of the step's heat kernels."""
    for i in range(1, taus.size):
        h = taus[i] - taus[i - 1]
        m = int(np.ceil(np.sqrt(h) / dw))
        dwi = np.sqrt(h) / m
        w = (np.arange(m) + 0.5) * dwi
        yield i, (taus[i] - w * w)[:, None], 2.0 * dwi * w, np.concatenate([[h], w * w])


def _advance(prev: np.ndarray, src: np.ndarray, factors: np.ndarray, weights) -> np.ndarray:
    """One step ``G(h) prev + sum_k 2 dw w_k G(w_k^2) src_k``, summed in ``k`` order."""
    out = _heat_apply(prev, weights[0])
    for c, row, wk in zip(factors, src, weights[1:]):
        out += c * _heat_apply(row, wk)
    return out


def richardson_halving(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Cancel the second-order error of tables built at spacing ``dy/2``
    (``fine``) and ``dy`` (``coarse``, on every other fine node) at the
    coarse nodes: ``(4 U_{dy/2} - U_dy) / 3``.  The last axis of both runs
    over the nodes."""
    return (4.0 * fine[..., ::2] - coarse) / 3.0


def _step_dw(spec: CallSpec, grid: TransformGrid) -> float:
    """In-step w spacing: the spacing of :func:`duhamel_integral`'s
    full-history rule at the top node."""
    return float(np.sqrt(spec.tau_max) / grid.n_time_quad)


def _extended_y(spec: CallSpec, grid: TransformGrid) -> np.ndarray:
    """Pad the y nodes by the kernel's reach over the whole tau range, so that
    the zero values assumed beyond the padded grid cannot reach them.  A
    padded grid of more than ``MAX_PADDED_Y_NODES`` nodes raises
    ``MemoryError`` before anything is built."""
    y = grid.nodes(spec)[1]
    dy = y[1] - y[0]
    with np.errstate(over="ignore"):  # an inf count fails the check below
        n_pad = np.ceil(Z_HALF_WIDTH_SDS * np.sqrt(2.0 * spec.tau_max) * 1.05 / dy)
        size = y.size + 2.0 * n_pad
    if not size <= MAX_PADDED_Y_NODES:  # so written that an inf or NaN count fails
        raise MemoryError(f"the series y grid, padded by the heat kernel's reach over tau_max "
                          f"{spec.tau_max:.4g} at dy {dy:.4g}, needs {size:.4g} nodes, more "
                          f"than the {MAX_PADDED_Y_NODES} a build may take")
    return y[0] + dy * np.arange(-int(n_pad), y.size + int(n_pad))


def _u2_source(g1, g2, frac, lo: np.ndarray, hi: np.ndarray):
    """U2 source ``grad f . (U1, U1')`` for the partials ``(g1, g2)`` of f at
    ``(u0, u0')``, with ``(U1, U1')`` mixed by ``frac`` from the stacked
    ``(2, n)`` rows ``lo``, ``hi``."""
    u1, u1p = (1.0 - frac) * lo[:, None, :] + frac * hi[:, None, :]
    return g1 * u1 + g2 * u1p


def compute_corrections(spec: CallSpec, grid: TransformGrid, ys: np.ndarray,
                        coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order corrections ``(U1, U2)``, stacked, on the tau
    axis of ``grid.nodes(spec)`` for the source constant ``coeff``
    (:func:`source_coefficient`); independent of rho.  One march returns them
    at two spacings, ``(fine, coarse)``: ``fine`` on the nodes ``ys[0] + k
    dy/2`` that halve the spacing ``dy`` of the uniform ``ys``, ``coarse`` on
    every other one of those, which are ``ys`` up to rounding.

    ``U1 = int int G f(u0, u0')`` with ``f = C sqrt(lin^2 + u0^2)`` and
    ``lin = u0' + u0/2``.  The part ``C lin`` is linear in ``(u0, u0')``,
    which solve the heat equation, so its Duhamel integral is ``tau C
    lin(tau, y)`` in closed form.  It carries the jump of ``u0'`` at the
    payoff kink; only the remainder ``f - C lin = C u0^2 / (f/C + lin) >=
    0``, which is continuously differentiable there, is stepped.  The source
    of U2 is ``grad f(u0, u0') . (U1, U1')`` (:func:`_u2_source`).  Each step
    evaluates ``u0``, ``u0'``, the remainder and ``grad f`` once, on the fine
    nodes, and each spacing advances its own U1, then U2, whose source reads
    U1 and its centered y-difference linear in tau between the step's rows.
    """
    taus = grid.nodes(spec)[0]
    fine = ys[0] + 0.5 * (ys[1] - ys[0]) * np.arange(2 * len(ys) - 1)
    v1, v2 = u0_and_prime(taus[:, None], fine[None, :])
    linear = taus[:, None] * coeff * (v2 + 0.5 * v1)
    spacings = [(k, fine[::k]) for k in (1, 2)]  # node stride and nodes
    tables, state = [], []  # per spacing: (U1, U2), and the stepped part of U1 with the last U1 row
    for k, y in spacings:
        out = np.zeros((2, taus.size, y.size))
        out[0] = linear[:, ::k]
        tables.append(out)
        state.append((np.zeros(y.size), np.stack([out[0, 0], np.gradient(out[0, 0], y)])))
    for i, s, factors, t in _steps(taus, _step_dw(spec, grid)):
        v1, v2 = u0_and_prime(s, fine[None, :])
        lin = v2 + 0.5 * v1
        with np.errstate(invalid="ignore"):
            rest = np.where(lin > 0.0, coeff * v1 * v1 / (np.sqrt(lin * lin + v1 * v1) + lin), 0.0)
        g1, g2 = nonlinear_f_gradient(v1, v2, coeff)
        frac = (s - taus[i - 1]) / (taus[i] - taus[i - 1])
        for j, ((k, y), out) in enumerate(zip(spacings, tables)):
            stepped, lo = state[j]
            weights = _heat_weights(t, float(y[1] - y[0]))
            stepped = _advance(stepped, rest[:, ::k], factors, weights)
            out[0, i] += stepped
            hi = np.stack([out[0, i], np.gradient(out[0, i], y)])
            out[1, i] = _advance(out[1, i - 1], _u2_source(g1[:, ::k], g2[:, ::k], frac, lo, hi),
                                 factors, weights)
            state[j] = stepped, hi
    return tables[0], tables[1]


def _check_coverage(spec: CallSpec, grid: TransformGrid, tau, y) -> None:
    """Raise ``ValueError`` unless every ``(tau, y)`` lies on the grid for
    ``spec``, ``[0, tau_max] x [-y_half, y_half]`` (NaN never does)."""
    ylo, yhi = -grid.y_half, grid.y_half
    if not np.all((ylo <= y) & (y <= yhi)):
        raise ValueError(f"log-moneyness outside grid coverage [{ylo:.4g}, {yhi:.4g}]")
    if not np.all((0.0 <= tau) & (tau <= spec.tau_max * (1 + 1e-9))):
        raise ValueError("time to maturity beyond the solved tau grid")


@dataclass(frozen=True)
class PerturbationSolution:
    """The series tables: ``tables[0]`` is U1 and ``tables[1]`` U2 on the
    ``(n_tau + 1, n_y)`` nodes of ``grid.nodes(spec)``, the tau = 0 row
    included; all zeros at ``rho = 0``."""

    spec: CallSpec
    grid: TransformGrid
    tables: np.ndarray      # (2, n_tau + 1, n_y)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        tables = np.ascontiguousarray(self.tables, dtype=float)
        tables.flags.writeable = False
        object.__setattr__(self, "tables", tables)

    def correction_values(self, tau, y) -> np.ndarray:
        """``(U1, U2)`` at ``(tau, y)``, stacked on a leading axis: bilinear
        in the tables (linear in tau between nodes, uniform in y).  Raises
        ``ValueError`` for a point off the grid."""
        tau = np.asarray(tau, dtype=float)
        y = np.asarray(y, dtype=float)
        _check_coverage(self.spec, self.grid, tau, y)
        ta, yn = self.grid.nodes(self.spec)
        i = np.clip(np.searchsorted(ta, tau) - 1, 0, ta.size - 2)
        ft = np.clip((tau - ta[i]) / (ta[i + 1] - ta[i]), 0.0, 1.0)
        g = (y - yn[0]) / (yn[1] - yn[0])
        j = np.clip(g.astype(int), 0, yn.size - 2)
        fy = np.clip(g - j, 0.0, 1.0)
        table = self.tables
        lo = (1.0 - fy) * table[:, i, j] + fy * table[:, i, j + 1]
        hi = (1.0 - fy) * table[:, i + 1, j] + fy * table[:, i + 1, j + 1]
        return (1.0 - ft) * lo + ft * hi


def solve_perturbation(spec: CallSpec,
                       grid: TransformGrid = TransformGrid()) -> PerturbationSolution:
    """Build the series tables.

    U1 and U2 are built exactly when ``rho != 0`` (otherwise they do not
    contribute and stay zero), with the strike-free source constant, by one
    :func:`compute_corrections` march on the padded y grid at spacing
    ``dy/2`` and ``dy``; :func:`richardson_halving` combines the pair at the
    ``dy`` nodes, which are cut to the grid.  The stepped U1 at the top tau
    node nearest ``y = 0`` is checked against a direct
    :func:`duhamel_integral` sized by ``n_time_quad`` x ``n_space_quad``; the
    relative gap is recorded in ``diagnostics``.  Tables that are not finite
    (``u0`` overflows on a wide y grid) raise ``RuntimeError``.  A ``|rho| *
    T`` above 0.5 warns that the series is out of its range.
    """
    if abs(spec.rho) * spec.maturity > 0.5:
        warnings.warn("perturbation series is reliable only for |rho| * T << 1; "
                      f"got {abs(spec.rho) * spec.maturity:.3g}", stacklevel=2)
    taus, ys = grid.nodes(spec)
    n_y = ys.size
    want = bool(spec.rho != 0.0)
    tables = np.zeros((2, taus.size, n_y))
    diag = {
        "source_convention": SOURCE_STRIKE_FREE,
        "series": "u0 - rho*U1 + rho^2*U2",
        "corrections_computed": want,
        "n_time_quad": grid.n_time_quad,
        "n_space_quad": grid.n_space_quad,
        "z_half_width_sds": Z_HALF_WIDTH_SDS,
    }
    if want:
        coeff = source_coefficient(spec)
        y_ext = _extended_y(spec, grid)
        lo = (y_ext.size - n_y) // 2
        # U1 and U2 are >= 0 exactly: their sources f and grad f . (U1, U1')
        # are >= 0 (u0, u0', u0'' >= 0) under a positive kernel.  Where they
        # are ~0 (left of the kink in the first rows, far tails) the
        # extrapolation can undershoot; clipping there only reduces the error.
        with np.errstate(over="ignore", invalid="ignore"):  # judged by the check below
            tables = richardson_halving(*compute_corrections(spec, grid, y_ext, coeff))
        tables = tables[:, :, lo : lo + n_y]
        if not np.isfinite(tables).all():
            raise RuntimeError(f"U1/U2 tables are not finite on a y grid padded to {y_ext[-1]:.4g}")
        tables = np.maximum(tables, 0.0)
        j = int(np.argmin(np.abs(ys)))
        direct = duhamel_integral(
            lambda s, z: nonlinear_f(*u0_and_prime(s, z), coeff), [taus[-1]], [ys[j]],
            grid.n_time_quad, grid.n_space_quad,
        )[0, 0]
        gap = abs(tables[0, -1, j] - direct) / max(abs(direct), 1e-300)
        diag["u1_stepped_vs_direct_gap"] = float(gap)
    return PerturbationSolution(spec, grid, tables, diag)


def solve_with_refinement_check(
    spec: CallSpec, grid: TransformGrid
) -> tuple[PerturbationSolution, dict]:
    """Build the series on ``grid`` and again at half resolution (node and
    quadrature sizes halved, not below the grid floors and ``MIN_N_Y + 1`` y
    nodes, same ``y_half``); it converges when the at-the-money price at
    ``t = 0`` changes by less than ``REFINEMENT_THRESHOLD`` relative.  Returns
    the solution on ``grid`` and the check."""
    coarse_grid = replace(
        grid,
        n_tau=max(grid.n_tau // 2, MIN_N_TAU),
        n_y=max((grid.n_y - 1) // 2 + 1, MIN_N_Y + 1),
        n_time_quad=max(grid.n_time_quad // 2, MIN_N_TIME_QUAD),
        n_space_quad=max((grid.n_space_quad - 1) // 2 + 1, MIN_N_SPACE_QUAD),
    )
    # one call site, so that the default warning filter shows a |rho| * T warning once
    sol, coarse_sol = (solve_perturbation(spec, g) for g in (grid, coarse_grid))
    base, coarse = (float(price_discounted(s, spec.strike, 0.0)) for s in (sol, coarse_sol))
    rel_change = abs(base - coarse) / max(abs(base), 1e-300)
    return sol, {
        "probe_price": base,
        "probe_price_half_resolution": coarse,
        "relative_change_on_doubling": rel_change,
        "threshold": REFINEMENT_THRESHOLD,
        "converged": rel_change < REFINEMENT_THRESHOLD,
    }


def canonical_variables(spec: CallSpec, x, t):
    """``(tau, y, K e^{y/2 - tau/4})`` at discounted price ``x`` and time
    ``t``, with ``tau = sigma^2 (T - t) / 2`` and ``y = log(x / K)``; the
    price is the last factor times ``u(tau, y)``."""
    tau = 0.5 * spec.sigma**2 * (spec.maturity - np.asarray(t, dtype=float))
    y = np.log(np.asarray(x, dtype=float) / spec.strike)
    return tau, y, spec.strike * np.exp(y / 2 - tau / 4)


def check_points(spec: CallSpec, grid: TransformGrid, x, t):
    """Broadcast discounted prices ``x`` and times ``t`` and raise
    ``ValueError`` unless a solution on ``grid`` can price every point:
    ``t`` in ``[0, T]``, ``x > 0`` and, before expiry, ``(tau, y)`` on the
    grid.  Returns the broadcast ``x``, ``t`` and the mask of points before
    expiry (the rest are priced as the payoff)."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    if not np.all((0 <= t) & (t <= spec.maturity)):  # so written that NaN fails
        raise ValueError("t must lie in [0, maturity]")
    if not np.all(x > 0):
        raise ValueError("underlying price must be positive")
    live = ~np.isclose(t, spec.maturity, rtol=0.0, atol=1e-14)
    tau, y, _ = canonical_variables(spec, x[live], t[live])
    _check_coverage(spec, grid, tau, y)
    return x, t, live


def price_discounted(sol: PerturbationSolution, x, t):
    """Discounted call price ``Phi(t, X_t)``.

    At ``t = T`` the payoff is returned exactly.  Prices are evaluated as
    ``K e^{y/2 - tau/4} u(tau, y)`` with ``y = log(X/K)`` and the series
    ``u = u0 - rho U1 + rho^2 U2``: ``u0`` in closed form, so the classical
    limit is exact up to floating point, and only the corrections read from
    the tables.  Points that :func:`check_points` rejects raise
    ``ValueError``, and a price that is not finite (``u0`` overflows at a
    huge ``tau``) raises ``RuntimeError``.
    """
    spec = sol.spec
    x, t, live = check_points(spec, sol.grid, x, t)
    out = np.empty(x.shape)
    out[~live] = np.maximum(x[~live] - spec.strike, 0.0)
    if np.any(live):
        tau, y, prefactor = canonical_variables(spec, x[live], t[live])
        u1, u2 = sol.correction_values(tau, y)
        rho = spec.rho
        out[live] = prefactor * (u0(tau, y) - rho * u1 + rho * rho * u2)
    if not np.isfinite(out).all():
        raise RuntimeError(f"{np.count_nonzero(~np.isfinite(out))} of {out.size} series prices "
                           "are not finite")
    return out if out.ndim else float(out)
