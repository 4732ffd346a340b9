"""Spectral toolkit for the linear dynamics of stably stratified shear flows
near the Couette profile: moving-frame multipliers, ghost weights, one fused
Neumann resolvent, per-wavenumber time evolution with its observables, and
inviscid-damping fits.
"""

from .evolution import (
    EnergyReport,
    StepUnstable,
    coercivity_constants,
    couette_rhs,
    evolve,
    full_rhs,
    pointwise_energy,
)
from .multipliers import FrameSymbols, eval_bl
from .observables import fit_power_law
from .shear import (
    GridResolutionError,
    ShearProfile,
    build_profile,
    sample_spectrum,
    sobolev_norm,
)
from .spectral_ops import FrequencyGrid, NonConvergence, ProfileSpectrum, solve_vorticity
from .weights import WeightSet, c_beta_constant, eval_w

__version__ = "0.1.0"
