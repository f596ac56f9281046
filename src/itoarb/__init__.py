"""Arbitrage quantification and nonlinear option pricing for Ito market models.

Modules:

- :mod:`itoarb.gauges`: deflators, term structures and cashflow transforms;
- :mod:`itoarb.geometry`: range projections, kernel basis, the arbitrage
  measure and the cross-asset spread diagnostic;
- :mod:`itoarb.pricing`: perturbation-series solution of the nonlinear
  pricing equation for a European call;
- :mod:`itoarb.fdsolver`: independent finite-difference oracle for the same
  equation;
- :mod:`itoarb.simulate`: Monte Carlo engine and stochastic-derivative
  estimators;
- :mod:`itoarb.cli`: config-driven batch commands.
"""

from .gauges import CashflowIntensity, Gauge, convolve, gauge_transform
from .geometry import ItoCoefficients, KernelBasis, kernel_basis, rho, zc_residual
from .pricing import CallSpec, TransformGrid, PerturbationSolution, solve_perturbation
from .fdsolver import PdeGrid, solve, solve_undiscounted
from .simulate import PathEnsemble, EstimatorConfig
from .simulate import simulate as simulate_paths  # top-level alias: the bare
# name would shadow the itoarb.simulate submodule attribute

__version__ = "0.1.0"

__all__ = [
    "CashflowIntensity",
    "Gauge",
    "convolve",
    "gauge_transform",
    "ItoCoefficients",
    "KernelBasis",
    "kernel_basis",
    "rho",
    "zc_residual",
    "CallSpec",
    "TransformGrid",
    "PerturbationSolution",
    "solve_perturbation",
    "PdeGrid",
    "solve",
    "solve_undiscounted",
    "PathEnsemble",
    "EstimatorConfig",
    "simulate_paths",
    "__version__",
]
