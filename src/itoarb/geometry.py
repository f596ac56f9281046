"""Arbitrage geometry for Ito market models.

Given per-asset drift ``alpha``, volatility loadings ``sigma`` and short
rates ``r``, the obstruction to arbitrage-freeness reduces to whether
``alpha + r`` lies in the range of ``sigma``.  This module provides the
orthogonal projections onto that range and its complement, an orthonormal
basis ``J`` of the complement with a deterministic orientation, the scalar
measure ``rho = J^T (alpha + r)`` and the cross-asset spread diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ItoCoefficients",
    "KernelBasis",
    "diag_of",
    "range_projections",
    "kernel_basis",
    "rho",
    "zc_residual",
    "norm",
    "curvature_spread",
]

# singular values below RANK_TOL * s_max count as zero
RANK_TOL = 1e-12


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ItoCoefficients:
    """Market coefficients at one time point: drift, volatility and rates."""

    alpha: np.ndarray  # (N,) drift per unit time
    sigma: np.ndarray  # (N, K) volatility loadings per sqrt(time)
    r: np.ndarray      # (N,) short rates per unit time
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen(self.alpha))
        object.__setattr__(self, "sigma", _frozen(np.atleast_2d(self.sigma)))
        object.__setattr__(self, "r", _frozen(self.r))
        n, k = self.sigma.shape
        if n < 1 or k < 1:
            raise ValueError("need N >= 1 assets and K >= 1 drivers")
        if self.alpha.shape != (n,) or self.r.shape != (n,):
            raise ValueError("alpha and r must be vectors of length N")
        for a in (self.alpha, self.sigma, self.r):
            if not np.isfinite(a).all():
                raise ValueError("coefficients must be finite")

    @property
    def n_assets(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_drivers(self) -> int:
        return self.sigma.shape[1]


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of the orthogonal complement of Range(sigma)."""

    J: np.ndarray  # (N, B) with orthonormal columns
    B: int

    def __post_init__(self):
        object.__setattr__(self, "J", _frozen(self.J))
        if self.J.ndim != 2 or self.J.shape[1] != self.B:
            raise ValueError("J must be (N, B)")
        if self.B and np.max(np.abs(self.J.T @ self.J - np.eye(self.B))) > 1e-10:
            raise ValueError("columns of J must be orthonormal")


def diag_of(a: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Diagonal vector of a square matrix, ``sum_j (A b_j . b_j) b_j``.

    With ``basis=None`` the standard basis is used and the result is simply
    the main diagonal.  Passing an orthogonal matrix evaluates the sum over
    its columns; the coordinates then transform like a vector,
    ``diag_of(A, U) = U @ diag_of(U.T A U)``.  The vector itself is not
    invariant under arbitrary orthogonal changes of basis, so callers must
    pick the basis that suits their decomposition (for volatility matrices,
    one adapted to the range and its complement).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if basis is None:
        return a.diagonal().copy()
    b = np.asarray(basis, dtype=float)
    if b.shape != a.shape:
        raise ValueError("basis must be a square matrix matching A")
    coords = np.einsum("ij,ik,kj->j", b, a, b)  # (A b_j . b_j)
    return b @ coords


def _orthonormal_range(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SVD split of R^N into an orthonormal range basis and its complement."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    u, s, _ = np.linalg.svd(sigma, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank], u[:, rank:]


def range_projections(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projections onto Range(sigma) and its complement.

    Always well defined; a zero matrix gives ``P_range = 0``.  The pair is
    complementary (``P_range + P_perp = I``), idempotent and symmetric.
    """
    ur, uk = _orthonormal_range(sigma)
    p_range = ur @ ur.T
    n = p_range.shape[0]
    return p_range, np.eye(n) - p_range


def kernel_basis(sigma: np.ndarray) -> KernelBasis:
    """Orthonormal basis of ``ker(sigma^T)``, i.e. of Range(sigma)'s complement.

    Dimension ``B = N - rank(sigma)`` with the numerical rank cut at
    ``RANK_TOL`` times the largest singular value.  Orientation is made
    deterministic by flipping each column so its first non-negligible entry
    is positive; the sign of ``rho`` is defined relative to this convention.
    """
    _, uk = _orthonormal_range(sigma)
    j = uk.copy()
    for col in range(j.shape[1]):
        v = j[:, col]
        nz = np.nonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0]
        if nz.size and v[nz[0]] < 0:
            j[:, col] = -v
    return KernelBasis(j, j.shape[1])


def rho(c: ItoCoefficients) -> np.ndarray:
    """Arbitrage measure ``J^T (alpha + r)``; the zero vector iff no arbitrage."""
    basis = kernel_basis(c.sigma)
    return basis.J.T @ (c.alpha + c.r)


def zc_residual(c: ItoCoefficients) -> float:
    """Distance of ``alpha + r`` from Range(sigma): ``||P_perp (alpha + r)||_2``.

    Coincides with ``||rho(c)||_2``; zero exactly when the no-arbitrage
    condition ``alpha + r in Range(sigma)`` holds.
    """
    _, p_perp = range_projections(c.sigma)
    return norm(p_perp @ (c.alpha + c.r))


def norm(v: np.ndarray) -> float:
    """``||v||_2``, scaled by the largest ``|v|`` only where the plain norm overflows."""
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(v)
        if np.isfinite(plain) or not np.isfinite(v).all():
            return float(plain)
        top = np.abs(v).max()
        return float(top * np.linalg.norm(v / top))


def curvature_spread(
    c: ItoCoefficients, w: np.ndarray, t: float, t_min: float = 1e-6
) -> np.ndarray:
    """Cross-asset spread of the mean log-price drift plus short rate.

    For driver state ``W_t = w`` the drift of each log price is
    ``alpha - diag(sigma sigma^T)/2 + sigma w / (2 t)``; the curvature
    vanishes exactly when the per-asset values of drift plus rate agree, so
    the returned vector (values minus their cross-asset mean) is the
    pointwise arbitrage diagnostic.  The ``w / (2 t)`` factor is singular at
    ``t = 0``; times below ``t_min`` are rejected.
    """
    if not t > t_min:
        raise ValueError(f"t={t} must exceed t_min={t_min} (singular 1/(2t) factor)")
    w = np.asarray(w, dtype=float)
    if w.shape != (c.n_drivers,):
        raise ValueError(f"driver state must have shape ({c.n_drivers},)")
    drift = c.alpha - 0.5 * diag_of(c.sigma @ c.sigma.T) + c.sigma @ (w / (2.0 * t))
    v = drift + c.r
    return v - v.mean()

