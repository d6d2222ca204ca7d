"""Numerical laboratory for rate-type and weakly nonlocal heat conduction.

Submodules:
  tensors      symmetric 3x3 tensors, definiteness tests, cubic roots
  models       parameter sets, constitutive rate laws, limit reductions
  energetics   free energies, entropy productions, dissipation audits
  consistency  thermodynamic admissibility checkers and their witnesses
  modal        interval spectra, Routh-Hurwitz verdicts, mode classification
  pde1d        implicit 1-D simulation with per-step entropy audits
  cli          config-driven command-line front end
"""

__version__ = "0.1.0"

from .models import (  # noqa: F401
    MCV,
    GN2,
    GN3,
    Burgers,
    CoefficientFn,
    Fourier,
    GKLinear,
    GKNonlinear,
    Jeffreys,
    MaterialConstants,
    Quintanilla,
    ThermalState,
    burgers_from_mixture,
    flux_rate,
    reduce_limit,
)
from .tensors import SymTensor3, solve_poly  # noqa: F401
