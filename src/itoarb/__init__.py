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

__version__ = "0.1.0"
