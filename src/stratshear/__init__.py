"""Spectral toolkit for the linear dynamics of stably stratified shear flows
near the Couette profile: moving-frame multipliers, ghost weights, Neumann
resolvents, per-wavenumber time evolution, and inviscid-damping observables.
"""

from .evolution import (
    EnergyReport,
    RawState,
    StepUnstable,
    coercivity_constants,
    couette_rhs,
    evolve,
    full_rhs,
    pointwise_energy,
)
from .multipliers import bl_bound_report, eval_bl, eval_p, eval_p_prime
from .observables import (
    ObservableSeries,
    fit_power_law,
    reconstruct_vorticity,
    series_norms,
    velocity_components,
)
from .shear import (
    GridResolutionError,
    ProfileSpectrum,
    ShearProfile,
    build_profile,
    sample_spectrum,
    sobolev_norm,
)
from .spectral_ops import (
    FrequencyGrid,
    NonConvergence,
    SpectralField,
    apply_B_eps,
    apply_Bt,
    apply_T_eps,
    apply_inv_delta_t,
    apply_inv_laplace_L,
    solve_TB,
    solve_TL,
)
from .weights import WeightSet, c_beta_constant, check_exchange, eval_m1, eval_w

__version__ = "0.1.0"
