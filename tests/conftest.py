import numpy as np
import pytest

from lemmas import bl_reference, eval_p
from stratshear.multipliers import FrameSymbols
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import FrequencyGrid, ProfileSpectrum


@pytest.fixture(scope="session")
def grid256():
    return FrequencyGrid(k=1, eta_max=16.0, n=256)


@pytest.fixture(scope="session")
def bump_spectrum(grid256):
    # sigma * deta = 0.25 and eta_max * sigma = 32: resolution preconditions hold
    profile = build_profile("perturbed", a=0.05, sigma=2.0, y0=0.4, s=0.0)
    return profile, sample_spectrum(profile, grid256)


@pytest.fixture(scope="session")
def bump_spectrum512():
    # the bump of bump_spectrum on twice the points: from DIRECT_CONVOLUTION_N
    # up, apply_profile_convolution sums over the kernels directly
    grid = FrequencyGrid(k=1, eta_max=16.0, n=512)
    return sample_spectrum(build_profile("perturbed", a=0.05, sigma=2.0, y0=0.4, s=0.0), grid)


@pytest.fixture(scope="session")
def couette_spectrum(grid256):
    # zero kernels, built by hand: sample_spectrum gives None for Couette,
    # and the operators must reduce to Couette on these too
    z = np.zeros(2 * grid256.n - 1, dtype=complex)
    return ProfileSpectrum(grid256, z, z.copy(), z.copy())


def frame(grid, t, beta=0.0):
    """The ``FrameSymbols`` of time t on a grid."""
    return FrameSymbols(t, grid.k, grid.etas, beta)


def gaussian_field(grid, center=0.0, alpha=1.0, phase=0.0):
    return np.exp(-alpha * (grid.etas - center) ** 2) * np.exp(1j * phase * grid.etas)


def l2(grid, values):
    """sqrt of the trapezoid integral of |values|^2 over the grid."""
    return float(np.sqrt(grid.integrate(np.abs(values) ** 2)))


def kernel_matrix(spec, name):
    """Dense matrix deta/(2 pi) kern[i - j + N - 1] of one profile kernel
    ("g1", "g2" or "b"), built from the sampled kernel itself, so that it is a
    reference for ``apply_profile_convolution`` on every grid size."""
    kern = {"g1": spec.kern_g1, "g2": spec.kern_g2, "b": spec.kern_b}[name]
    n = spec.grid.n
    idx = np.arange(n)
    return spec.grid.deta / (2.0 * np.pi) * kern[idx[:, None] - idx[None, :] + n - 1]


def dense_t_eps(t, spec):
    """Dense T_eps = G2 diag(-d^2/p) + B diag(i d/p), d = eta - k t.

    G2 and B are the g^2-1 and b convolution matrices from ``kernel_matrix``;
    d and p are built here and from ``eval_p``, so the reference shares
    neither the solver's sweep, its convolutions nor ``FrameSymbols``.
    """
    grid = spec.grid
    d = grid.etas - grid.k * t
    p = eval_p(t, grid.k, grid.etas)
    return (kernel_matrix(spec, "g2") * (-(d * d) / p)
            + kernel_matrix(spec, "b") * (1j * d / p))


def dense_resolvent(t, spec, beta):
    """Dense T_L, B and the multiplier BL, a reference for ``solve_vorticity``.

    T_L = inv(I - T_eps) with T_eps from ``dense_t_eps``, and
    B = beta diag(BL) (G1 diag(D) T_L + diag(D) (T_L - I)) with G1 the g-1
    convolution matrix and D = -i (eta - k t)/p.  BL is ``bl_reference``,
    so the reference shares no symbol with the solver.
    """
    grid = spec.grid
    eye = np.eye(grid.n, dtype=complex)
    t_l = np.linalg.inv(eye - dense_t_eps(t, spec))
    g1 = kernel_matrix(spec, "g1")
    dmul = (-1j * (grid.etas - grid.k * t) / eval_p(t, grid.k, grid.etas))[:, None]
    bl = bl_reference(t, grid.k, grid.etas, beta)
    b = beta * bl[:, None] * (g1 @ (dmul * t_l) + dmul * (t_l - eye))
    return t_l, b, bl


def dense_vorticity(t, spec, beta, theta):
    """Omega = solve(I - B, BL Theta) and u = T_L Omega by dense linear algebra."""
    t_l, b, bl = dense_resolvent(t, spec, beta)
    omega = np.linalg.solve(np.eye(spec.grid.n) - b, bl * theta)
    return omega, t_l @ omega
