import numpy as np
import pytest

from stratshear.multipliers import FrameSymbols, eval_bl, eval_p
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    FrequencyGrid,
    SpectralField,
    apply_profile_convolution,
    apply_T_eps,
)


@pytest.fixture(scope="session")
def grid256():
    return FrequencyGrid(k=1, eta_max=16.0, n=256)


@pytest.fixture(scope="session")
def bump_spectrum(grid256):
    # sigma * deta = 0.25 and eta_max * sigma = 32: resolution preconditions hold
    profile = build_profile("perturbed", a=0.05, sigma=2.0, y0=0.4, s=0.0)
    return profile, sample_spectrum(profile, grid256)


@pytest.fixture(scope="session")
def couette_spectrum(grid256):
    return sample_spectrum(build_profile("couette"), grid256)


def frame(grid, t, beta=0.0):
    """The ``FrameSymbols`` of time t on a grid."""
    return FrameSymbols(t, grid.k, grid.etas, beta)


def gaussian_field(grid, center=0.0, alpha=1.0, phase=0.0):
    vals = np.exp(-alpha * (grid.etas - center) ** 2) * np.exp(1j * phase * grid.etas)
    return SpectralField(grid, vals)


def operator_matrix(apply_fn, grid):
    """Dense matrix of a linear operator, column by column from unit vectors."""
    n = grid.n
    mat = np.empty((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        mat[:, j] = apply_fn(SpectralField(grid, e)).values
    return mat


def dense_resolvent(t, spec, beta):
    """Dense T_L, B and the multiplier BL, a reference for ``solve_vorticity``.

    T_L = inv(I - A) with A the matrix of ``apply_T_eps``, and
    B = beta diag(BL) (G1 diag(D) T_L + diag(D) (T_L - I)) with G1 the g-1
    convolution matrix and D = -i (eta - k t)/p.
    """
    grid = spec.grid
    eye = np.eye(grid.n, dtype=complex)
    t_l = np.linalg.inv(eye - operator_matrix(lambda f: apply_T_eps(frame(grid, t), spec, f),
                                              grid))
    g1 = apply_profile_convolution(spec, "g1", eye)
    dmul = (-1j * (grid.etas - grid.k * t) / eval_p(t, grid.k, grid.etas))[:, None]
    bl = eval_bl(t, grid.k, grid.etas, beta)
    b = beta * bl[:, None] * (g1 @ (dmul * t_l) + dmul * (t_l - eye))
    return t_l, b, bl


def dense_vorticity(t, spec, beta, theta):
    """Omega = solve(I - B, BL Theta) and u = T_L Omega by dense linear algebra."""
    t_l, b, bl = dense_resolvent(t, spec, beta)
    omega = np.linalg.solve(np.eye(spec.grid.n) - b, bl * theta)
    return omega, t_l @ omega
