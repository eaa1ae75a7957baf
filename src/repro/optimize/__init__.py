"""Convex-minimization substrate.

The paper's mechanism needs a (non-private) inner solver for
``argmin_{theta in Theta} l(theta; Dhat)`` at every round, plus projections
onto the convex parameter set ``Theta``. This package provides:

- :mod:`repro.optimize.projections` — parameter domains (L2 ball, box,
  simplex) with exact Euclidean projections.
- :mod:`repro.optimize.gradient_descent` — projected (sub)gradient descent
  with iterate averaging, the solver for general losses and domains.
- :mod:`repro.optimize.lockstep` — the same iteration for many GLM losses
  over L2 balls at once, one margin matrix per step for every column's
  value and gradient.
- :mod:`repro.optimize.frank_wolfe` — projection-free Frank–Wolfe over
  norm balls.
- :mod:`repro.optimize.exact` — closed-form minimizers for the quadratic
  cases used by the test-suite as ground truth.
- :mod:`repro.optimize.minimize` — the dispatcher `minimize_loss`.

Solver choice does not affect privacy: the inner minimization only touches
the *public* hypothesis histogram (or is wrapped in an explicitly private
oracle in :mod:`repro.erm`).
"""

from repro.optimize.projections import Box, Domain, L2Ball, Simplex
from repro.optimize.gradient_descent import projected_gradient_descent
from repro.optimize.lockstep import lockstep_minimize
from repro.optimize.frank_wolfe import frank_wolfe
from repro.optimize.exact import minimize_quadratic_over_ball
from repro.optimize.minimize import MinimizeResult, minimize_loss

__all__ = [
    "Domain",
    "L2Ball",
    "Box",
    "Simplex",
    "projected_gradient_descent",
    "lockstep_minimize",
    "frank_wolfe",
    "minimize_quadratic_over_ball",
    "minimize_loss",
    "MinimizeResult",
]
