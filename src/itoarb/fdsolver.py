"""Finite-difference oracle for the nonlinear pricing equation.

Solves, backward from the terminal payoff,

    dPhi/dt + (sigma^2/2) X^2 d2Phi/dx2 = rho * sqrt(Phi^2 + (X dPhi/dx)^2)

on a log-uniform grid, independently of the perturbation machinery.
:class:`PdeGrid` holds the ``pde_grid`` sizes; :meth:`PdeGrid.nodes` lays
the price nodes, strike midway between two of them, and the ``n_t + 1``
time nodes for a call, and :func:`solve` returns a :class:`PdeSolution`.  The
smooth form of the source is used everywhere (it is algebraically identical
to ``rho Phi sqrt(1 + (X Phi_x / Phi)^2)`` for positive prices and extends it
continuously through zero).

Scheme: in log price ``xi`` the diffusion operator is ``a (d_xixi - d_xi)``
with ``a = sigma^2/2``; the substitution ``Phi = e^{(xi - log K)/2} V``
symmetrizes it to ``a (d_xixi - 1/4)``, which a three-point stencil
discretizes without convection dispersion.  Each step is the Strang split
``D(dt/2) S(dt) D(dt/2)``, second order in time: ``D`` is theta-weighted
diffusion by one tridiagonal operator ``L`` (:func:`_operator`), applied as a
product in the explicit part and factored once per step size in the implicit
part (Rannacher start), and ``S`` the exact flow ``V exp(-h g)`` of the source
rate ``g = source / V``, a factor in ``[0, 1]`` for ``rho >= 0``.  A nonzero
rate (the undiscounted price) adds convection and discounting to ``L``.  One
march steps a column per ``rho`` and streams its rows from maturity to ``t = 0``:
:func:`solve` stores every row of its one column, :func:`spill` writes each
row to a file as it comes out and holds two, and :func:`comparison_report`
(the only user of :mod:`itoarb.pricing` beyond ``CallSpec``) keeps the
``t = 0`` row of one march over ``[0, *rhos]`` per time resolution, the finer
one in a forked child (:func:`~itoarb.tables.forked`).

Prices between nodes are read with the not-a-knot cubic spline in log price
(bit for bit ``scipy.interpolate.CubicSpline``).  The implicit diffusion
steps and the spline's slope system are both tridiagonal and share one
solver, LAPACK's ``gttrf`` factorisation and ``gttrs`` solve, so the module
loads ``scipy.linalg`` and no other scipy subpackage.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from . import pricing
from .pricing import CallSpec
from .tables import forked, pwrite_all

__all__ = ["PdeGrid", "PdeSolution", "solve", "spill", "evaluate",
           "comparison_inputs", "comparison_report"]

THETA = 0.5  # Crank-Nicolson weight of the implicit diffusion
RANNACHER_STEPS = 2  # leading steps taken as two fully implicit half steps
COMPARE_N_X, COMPARE_N_T = 513, 256  # FD reference grid of comparison_report
MIN_N_X, MIN_N_T = 64, 64  # floors of the PdeGrid sizes, which the config schema reads too
DEFAULT_SPAN = 0.25  # log-moneyness each side of the strike in the default domain
# observed orders log(e[i+1]/e[i]) / log(rho[i+1]/rho[i]) that comparison_report
# reads as third order: on a doubling ladder, halving ratios in [5.5, 10.5]
ORDER_WINDOW = (float(np.log2(5.5)), float(np.log2(10.5)))
# log of the smallest normal and of the largest float: a grid node must lie between
_LOG_TINY, _LOG_MAX = float(np.log(np.finfo(float).tiny)), float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class PdeGrid:
    """The ``pde_grid`` sizes: ``n_x`` log-uniform price nodes over ``[x_min,
    x_max]`` and ``n_t`` uniform time steps over ``[0, T]``.

    :meth:`nodes` lays the grid for a call.  A bound left ``None`` takes the
    default domain: ``DEFAULT_SPAN`` of log-moneyness each side of the
    strike plus diffusion margins (4.2 / 3.2 standard deviations below /
    above).  Boundary policy is fixed: the price is pinned to zero at the
    lower edge and the second x-derivative is zero at the upper edge (the
    arbitrage source still acts there, so no growth asymptotic is assumed).
    """

    n_x: int = 257
    n_t: int = 256
    x_min: float | None = None
    x_max: float | None = None

    def __post_init__(self):
        if self.n_x < MIN_N_X or self.n_t < MIN_N_T:
            raise ValueError(f"resolution below {MIN_N_X} x {MIN_N_T}")
        if not all(b is None or 0 < b < np.inf for b in (self.x_min, self.x_max)):
            raise ValueError("x_min and x_max must be positive and finite")

    def nodes(self, spec: CallSpec) -> tuple[np.ndarray, np.ndarray]:
        """The price nodes, with the strike midway between two of them, and
        the time nodes ``linspace(0, T, n_t + 1)`` for ``spec``.  A strike
        outside ``(x_min, x_max)``, or a default bound whose ``exp`` leaves
        the normal float range, raises ``ValueError``."""
        st = spec.sigma * np.sqrt(spec.maturity)
        lk = np.log(spec.strike)
        lo = lk - DEFAULT_SPAN - 4.2 * st if self.x_min is None else np.log(self.x_min)
        hi = lk + DEFAULT_SPAN + 3.2 * st if self.x_max is None else np.log(self.x_max)
        if not lo < lk < hi:
            raise ValueError("strike must lie strictly inside (x_min, x_max)")
        dxi = (hi - lo) / (self.n_x - 1)
        # shift so the strike sits midway between two nodes: the leading
        # kink-quantization error of the payoff vanishes there
        frac = (lk - lo) / dxi
        lo += (frac - np.floor(frac) - 0.5) * dxi
        xi = lo + dxi * np.arange(self.n_x)
        if ((self.x_min is None and xi[0] < _LOG_TINY)
                or (self.x_max is None and xi[-1] > _LOG_MAX)):
            raise ValueError(f"sigma * sqrt(maturity) = {st:.4g} puts the default x domain "
                             "outside the float range; give pde_grid x_min and x_max")
        return np.exp(xi), np.linspace(0.0, spec.maturity, self.n_t + 1)


@dataclass(frozen=True)
class PdeSolution:
    """A solved surface: ``surface[i, j]`` is the price at ``(t_nodes[i],
    x_nodes[j])``."""

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    surface: np.ndarray

    def __post_init__(self):
        for a in (self.x_nodes, self.t_nodes, self.surface):
            a.flags.writeable = False


def _tridiagonal_solver(dl, d, du):
    """The ``gttrs`` solve, bound to the ``gttrf`` factors, of the tridiagonal
    matrix with sub-, main and super-diagonals ``dl``, ``d``, ``du``:
    ``solve(rhs)[0]`` is the solution, one column per column of ``rhs``.  The
    one linear solver of the march and the spline.  A singular matrix raises
    ``LinAlgError``."""
    from scipy.linalg import get_lapack_funcs

    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)
    *factors, info = gttrf(dl, d, du)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal matrix is singular (gttrf info {info})")
    return partial(gttrs, *factors)


def _operator(n: int, dxi: float, a: float, r: float):
    """The symmetrized ``L[V] = a V'' + r V' - (a/4 + r/2) V`` on ``n`` log
    nodes ``dxi`` apart, as its diagonals ``(sub, main, sup)``: ``sub[i] =
    L[i + 1, i]`` and ``sup[i] = L[i, i + 1]``.  The first row is zero (the
    boundary value is pinned).  The top row has zero gamma, so convection and
    discounting survive: ``r V' - (r/2) V`` with a one-sided ``V'``."""
    sub = np.full(n - 1, a / dxi**2 - r / (2 * dxi))
    main = np.full(n, -2 * a / dxi**2 + (-a / 4.0 - r / 2.0))
    sup = np.full(n - 1, a / dxi**2 + r / (2 * dxi))
    main[0] = sup[0] = 0.0
    sub[-1], main[-1] = -r / dxi, r / dxi - r / 2.0
    return sub, main, sup


def _times(op, v: np.ndarray) -> np.ndarray:
    """``L v`` for the diagonals ``op`` of :func:`_operator`, one column per column of ``v``."""
    sub, main, sup = op
    out = main[:, None] * v
    out[1:] += sub[:, None] * v[:-1]
    out[:-1] += sup[:, None] * v[1:]
    return out


def _march(spec: CallSpec, x: np.ndarray, t: np.ndarray, rate: float, rhos):
    """Backward Strang-split march on the symmetrized unknown, one column per ``rho``.

    Solves ``Psi_t + r s Psi_s + a s^2 Psi_ss - r Psi = rho * smooth-source``
    (``rate = 0`` gives the discounted equation) on the nodes ``x``, ``t`` of
    :meth:`PdeGrid.nodes` from the payoff struck at ``K e^{rT}`` and yields
    the ``(n_x, n_rho)`` price rows from ``t = T`` down to ``t = 0``, payoff
    first.  Columns never mix, so the block equals one-column marches.  A
    payoff strike outside the nodes raises ``ValueError``.  A non-finite row
    (``rho < 0`` can overflow the source flow) raises, and so does a row below
    the positivity floor, which Crank-Nicolson can still undershoot.
    """
    strike = spec.strike * np.exp(rate * spec.maturity)  # exactly K at rate 0
    if rate and not x[0] < strike < x[-1]:
        raise ValueError(f"payoff strike K e^(rT) = {strike:.6g} must lie strictly inside "
                         "(x_min, x_max)")
    xi = np.log(x)
    lk = np.log(spec.strike)
    dxi = xi[1] - xi[0]
    half = np.exp(0.5 * (xi - lk))[:, None]
    rho = np.asarray(rhos, dtype=float)
    op = _operator(x.size, dxi, 0.5 * spec.sigma**2, rate)

    def source_rate(v):  # 0 where V <= 0
        phi = half * v
        phix = np.empty_like(phi)
        phix[1:-1] = (phi[2:] - phi[:-2]) / (2 * dxi)
        phix[0] = (phi[1] - phi[0]) / dxi
        phix[-1] = (phi[-1] - phi[-2]) / dxi
        # X Phi_x = dPhi/dxi on the log grid
        return np.where(phi > 0.0, rho * np.hypot(phi, phix) / phi, 0.0)

    def source_flow(v, h):
        """``V exp(-h g)``, ``g`` at the exponential midpoint (at ``V`` where it underflows)."""
        g = source_rate(v)
        mid = v * np.exp(-0.5 * h * g)
        return v * np.exp(-h * np.where(mid == 0.0, g, source_rate(mid)))

    @cache
    def factors(th, dtl):
        sub, main, sup = (-th * dtl * d for d in op)  # I - th dtl L
        return _tridiagonal_solver(sub, 1.0 + main, sup)

    def diffuse(v, th, dtl):
        rhs = v + (1.0 - th) * dtl * _times(op, v)
        rhs[0] = 0.0
        return factors(th, dtl)(rhs)[0]

    def strang_step(v, th, dtl):  # D(dtl/2) S(dtl) D(dtl/2)
        return diffuse(source_flow(diffuse(v, th, dtl / 2), dtl), th, dtl / 2)

    n_t, dt = t.size - 1, t[1] - t[0]
    # the payoff is zero at x[0], below the strike, as the boundary asks
    payoff = np.maximum(x - strike, 0.0)[:, None]
    yield np.broadcast_to(payoff, (x.size, rho.size))
    v = payoff / half
    floor = -1e-10 * spec.strike
    for i in range(n_t - 1, -1, -1):
        # x/0 at V <= 0 is discarded, an inf rate is a 0 factor, an overflow fails the check below
        with np.errstate(all="ignore"):
            if n_t - 1 - i < RANNACHER_STEPS:  # two fully implicit half steps at the payoff kink
                v = strang_step(strang_step(v, 1.0, dt / 2), 1.0, dt / 2)
            else:
                v = strang_step(v, THETA, dt)
        row = half * v
        if not (np.isfinite(row).all() and row.min() >= floor):
            raise RuntimeError(f"price row at t = {t[i]:.6g} is non-finite or below the "
                               f"positivity floor {floor:.3e}: min {row.min():.3e}")
        yield row


def solve(spec: CallSpec, grid: PdeGrid, rate: float = 0.0) -> PdeSolution:
    """Price surface of the one-column :func:`_march` at ``spec.rho`` on
    ``grid.nodes(spec)``: the discounted price at ``rate = 0``, else the
    undiscounted one, whose payoff is ``(s - K e^{rT})+`` because the strike
    applies to the discounted value."""
    x, t = grid.nodes(spec)
    surf = np.empty((t.size, x.size))
    for i, row in enumerate(_march(spec, x, t, rate, [spec.rho])):
        surf[-1 - i] = row[:, 0]
    return PdeSolution(x, t, surf)


def spill(spec: CallSpec, grid: PdeGrid,
          fd: int) -> tuple[np.ndarray, np.ndarray, float, Callable[[int], np.ndarray]]:
    """The discounted surface of :func:`solve`, kept in the file ``fd`` instead
    of memory: each row of the one-column :func:`_march` is written there as
    raw float64 as it comes out (``t = T`` first), so two rows are held.

    Returns the nodes ``x`` and ``t``, the price at the at-the-money probe
    ``(t, x) = (0, K)`` (bit for bit ``evaluate(solve(spec, grid), 0.0, K)``)
    and ``row``: ``row(i)`` reads the prices at ``t[i]`` back with ``os.pread``.
    The march has ended, or raised, when this returns."""
    x, t = grid.nodes(spec)
    size = 8 * x.size
    for k, row in enumerate(_march(spec, x, t, 0.0, [spec.rho])):
        pwrite_all(fd, row[:, 0], k * size)
    atm = float(_cubic_in_log_price(np.log(x), row, np.log([spec.strike]))[0, 0])
    return x, t, atm, lambda i: np.frombuffer(os.pread(fd, size, (t.size - 1 - i) * size))


def _cubic_in_log_price(lx: np.ndarray, columns: np.ndarray, q) -> np.ndarray:
    """Price columns ``(n_x, m)`` on log nodes ``lx`` at log prices ``q``: ``(m, q.size)``.

    The not-a-knot cubic spline, bit for bit as ``scipy.interpolate.CubicSpline``
    computes it: the same slope system (tridiagonal, the not-a-knot end rows
    included) solved by :func:`_tridiagonal_solver`, and the Hermite cubic of
    the interval ``[lx[i], lx[i + 1])`` that holds ``q`` (the last one at the
    top node) summed in ``PPoly``'s order.  ``PdeGrid`` guarantees at least 64
    increasing nodes and the march finite columns.
    """
    h = np.diff(lx)
    slope = np.diff(columns, axis=0) / h[:, None]
    d0, d1 = lx[2] - lx[0], lx[-1] - lx[-3]
    rhs = np.empty_like(columns)
    rhs[1:-1] = 3 * (h[1:, None] * slope[:-1] + h[:-1, None] * slope[1:])
    rhs[0] = ((h[0] + 2 * d0) * h[1] * slope[0] + h[0]**2 * slope[1]) / d0
    rhs[-1] = (h[-1]**2 * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
    diagonal = np.concatenate([[h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]])
    dydx = _tridiagonal_solver(np.append(h[1:], d1), diagonal, np.append(d0, h[:-1]))(rhs)[0]
    i = np.clip(np.searchsorted(lx, q, side="right") - 1, 0, lx.size - 2)
    h_i, slope_i, s_i = h[i, None], slope[i], dydx[i]
    t = (s_i + dydx[i + 1] - 2 * slope_i) / h_i
    c3, c2 = t / h_i, (slope_i - s_i) / h_i - t
    dq = (q - lx[i])[:, None]
    dq2 = dq * dq
    return (columns[i] + s_i * dq + c2 * dq2 + c3 * (dq2 * dq)).T


def _t0_prices(spec: CallSpec, grid: PdeGrid, rhos, x) -> np.ndarray:
    """Discounted prices at ``t = 0`` and ``x``, one row per ``rho``, from one
    :func:`_march` of which only the last row is kept."""
    nodes, t = grid.nodes(spec)
    for row in _march(spec, nodes, t, 0.0, rhos):
        pass
    return _cubic_in_log_price(np.log(nodes), row, np.log(x))


def evaluate(result: PdeSolution, t: float, x):
    """A solved surface at one time ``t`` and prices ``x``: the two time rows
    that bracket ``t``, each read with the cubic in log price of
    :func:`_cubic_in_log_price`, mixed linearly in time.  A ``t`` or an ``x``
    outside the solved range, NaN included, raises ``ValueError``."""
    x = np.asarray(x, dtype=float)
    tn = result.t_nodes
    if not tn[0] - 1e-12 <= t <= tn[-1] + 1e-12:  # so written that NaN fails
        raise ValueError("t outside solved range")
    if not np.all((result.x_nodes[0] <= x) & (x <= result.x_nodes[-1])):
        raise ValueError("x outside solved range")
    i = int(np.clip(np.searchsorted(tn, t) - 1, 0, tn.size - 2))
    w = np.clip((t - tn[i]) / (tn[i + 1] - tn[i]), 0.0, 1.0)
    lo_row, hi_row = _cubic_in_log_price(np.log(result.x_nodes), result.surface[i:i + 2].T,
                                         np.log(x).ravel())
    out = ((1.0 - w) * lo_row + w * hi_row).reshape(x.shape)
    return out if out.ndim else float(out)


def comparison_inputs(spec: CallSpec, rhos=(0.01, 0.02, 0.04), probe_moneyness=(0.95, 1.0, 1.05)):
    """Checked inputs of :func:`comparison_report`: ascending rhos, probe
    moneyness and the series reference grid (32 x 97, ``y_half`` 0.6).
    Raises ``ValueError`` unless the rhos are at least two, distinct and
    positive, and every probe lies inside the series grid and the default
    finite-difference domain of ``COMPARE_N_X`` nodes."""
    rhos = sorted(float(r) for r in rhos)
    if len(set(rhos)) != len(rhos) or len(rhos) < 2 or rhos[0] <= 0:
        raise ValueError("need at least two distinct positive rho values to form ratios")
    grid = pricing.TransformGrid(n_tau=32, n_y=97, y_half=0.6, n_time_quad=48, n_space_quad=161)
    moneyness = np.asarray(probe_moneyness, dtype=float)
    probes = moneyness * spec.strike
    lx = np.log(PdeGrid(n_x=COMPARE_N_X).nodes(spec)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        y, q = np.log(probes / spec.strike), np.log(probes)
    if not np.all((np.abs(y) <= grid.y_half) & (lx[0] <= q) & (q <= lx[-1])):
        raise ValueError(f"probe_moneyness must lie inside the grids of both routes: |log m| <= "
                         f"{grid.y_half:g} and m K in [{np.exp(lx[0]):.4g}, "
                         f"{np.exp(lx[-1]):.4g}]")
    return rhos, moneyness, grid


def comparison_report(spec0: CallSpec, **inputs) -> dict:
    """Cross-validate the series against the finite-difference oracle.

    ``inputs`` are the ``rhos`` and ``probe_moneyness`` of
    :func:`comparison_inputs`.  For each ``rho`` the change from the
    classical price is computed on both routes; the finite-difference change
    is Richardson extrapolated to second order in time (``COMPARE_N_T`` and
    twice that many steps).  Each time resolution is one :func:`_march` over
    ``[0, *rhos]``, of which only the ``t = 0`` row is kept; the finer one runs
    in a :func:`~itoarb.tables.forked` child while this process marches the
    coarser one and builds the series.
    The residual table is produced for both source constants so the
    printed-constant ambiguity is adjudicated by the data: the adopted
    constant must show third-order decay (every observed order between
    successive rhos inside ``ORDER_WINDOW``; a halving ratio near 8 on a
    doubling ladder), the rejected one does not.
    """
    rhos, moneyness, grid = comparison_inputs(spec0, **inputs)
    probes = moneyness * spec0.strike
    n_x, n_t = COMPARE_N_X, COMPARE_N_T
    ladder = [0.0, *rhos]
    with forked(_t0_prices, spec0, PdeGrid(n_x=n_x, n_t=2 * n_t), ladder, probes) as fine_result:
        coarse = _t0_prices(spec0, PdeGrid(n_x=n_x, n_t=n_t), ladder, probes)
        # one quadrature build suffices: the corrections are exactly homogeneous
        # in the source constant (U1 linear, U2 quadratic), so each candidate is
        # the strike-free build rescaled by the ratio of the constants
        sol = pricing.solve_perturbation(replace(spec0, rho=max(rhos)), grid)
        fine = fine_result()
    taus, ys, pref = pricing.canonical_variables(spec0, probes, np.zeros(probes.size))
    u1_free, u2_free = sol.correction_values(taus, ys)
    # change from the classical price (column 0), second-order Richardson in time
    fd = dict(zip(rhos, (4.0 * (fine[1:] - fine[0]) - (coarse[1:] - coarse[0])) / 3.0))

    table = {}
    for convention in (pricing.SOURCE_STRIKE_FREE, pricing.SOURCE_STRIKE_SCALED):
        c = pricing.source_coefficient(spec0, convention) / pricing.source_coefficient(spec0)
        u1, u2 = c * u1_free, c * c * u2_free
        errors = [float(np.max(np.abs(pref * (-rho * u1 + rho * rho * u2) - fd[rho])))
                  for rho in rhos]
        # err[i+1]/err[i], the halving ratio on a doubling ladder (theoretical
        # 8 for a third-order remainder), and the order it shows on any ladder
        halving = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
        orders = [float(np.log(r) / np.log(rhos[i + 1] / rhos[i])) for i, r in enumerate(halving)]
        table[convention] = {
            "rhos": rhos,
            "max_abs_error": errors,
            "halving_ratios": halving,
            "observed_orders": orders,
            "third_order": all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders),
        }
    # direct agreement of the two routes in the classical limit, where the
    # series is the closed form u0
    classical_series = pref * pricing.u0(taus, ys)
    classical_gap = float(np.max(np.abs(classical_series - fine[0])))

    return {
        "series_sign_note": (
            "canonical-variable source is -(2 rho / sigma^2) sqrt(...); the "
            "series is assembled as u0 - rho U1 + rho^2 U2"
        ),
        "candidates": table,
        "adopted_constant": pricing.SOURCE_STRIKE_FREE,
        "adjudication_ok": bool(
            table[pricing.SOURCE_STRIKE_FREE]["third_order"]
            and not table[pricing.SOURCE_STRIKE_SCALED]["third_order"]
        ),
        "classical_max_abs_gap": classical_gap,
        "fd_reference": {"n_x": n_x, "n_t": [n_t, 2 * n_t], "richardson": "order-2 in time"},
        "probe_moneyness": list(moneyness),
    }
