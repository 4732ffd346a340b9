"""Discrete moving-frame operators on a truncated Y-frequency line.

The continuous frequency line is cut to [-eta_max, eta_max] and sampled on a
uniform midpoint grid (no point sits at eta = 0 or at the ends, so the grid
is exactly symmetric for even N).  Operators that multiply by a Y-profile
become discrete linear convolutions against the profile transform, weighted
by deta/(2 pi); fields are extended by zero beyond the grid, so convolutions
are linear, not circular, and cost O(N^2) as a dense Toeplitz matvec.

The two resolvents, T_L = (I - T_eps)^{-1} of the sheared Laplacian and
T_B = (I - B_eps)^{-1} of the vorticity correction (which contains T_L), are
computed together by one fixed-point (Neumann) iteration with update-based
stopping; non-contraction raises ``NonConvergence``, which signals a profile
outside the perturbative regime or an under-resolved grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FrequencyGrid",
    "NonConvergence",
    "SolveStats",
    "SpectralField",
    "apply_T_eps",
    "apply_profile_convolution",
    "solve_vorticity",
]


class NonConvergence(RuntimeError):
    """Neumann iteration failed to contract below tolerance."""

    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid of N Y-frequencies at fixed x-wavenumber k."""

    k: int
    eta_max: float
    n: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k == 0:
            raise ValueError("k must be a nonzero integer")
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError("N must be an even positive integer")
        if self.eta_max <= 0:
            raise ValueError("eta_max must be positive")

    @property
    def deta(self) -> float:
        return 2.0 * self.eta_max / self.n

    @cached_property
    def etas(self) -> np.ndarray:
        e = (np.arange(self.n) - (self.n - 1) / 2.0) * self.deta
        e.flags.writeable = False
        return e

    def integrate(self, density):
        """Trapezoid quadrature of a sampled density over the grid."""
        return np.trapezoid(density, self.etas)


@dataclass
class SpectralField:
    """Complex values over a frequency grid; entries must stay finite."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectral field contains non-finite entries")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.values.copy())

    def l2(self) -> float:
        """sqrt of the trapezoid integral of |values|^2."""
        return float(np.sqrt(self.grid.integrate(np.abs(self.values) ** 2)))


def _same_grid(spec, u: SpectralField):
    if spec.grid is not u.grid and spec.grid != u.grid:
        raise ValueError("profile spectrum and field live on different grids")


def _conv_matrix(spec, name):
    """Dense Toeplitz matrix of the deta/(2 pi)-weighted linear convolution."""
    mat = spec._conv_cache.get(name)
    if mat is None:
        kern = {"g1": spec.kern_g1, "g2": spec.kern_g2, "b": spec.kern_b}[name]
        n = spec.grid.n
        idx = np.arange(n)
        scale = spec.grid.deta / (2.0 * math.pi)
        mat = scale * kern[idx[:, None] - idx[None, :] + n - 1]
        spec._conv_cache[name] = mat
    return mat


def apply_profile_convolution(spec, name, values):
    """Convolve raw values with one of the profile kernels ("g1", "g2", "b")."""
    return _conv_matrix(spec, name) @ values


def _t_eps_values(sym, spec, values):
    part_g = apply_profile_convolution(spec, "g2", sym.t_eps_g2 * values)
    part_b = apply_profile_convolution(spec, "b", sym.t_eps_b * values)
    return part_g + part_b


def apply_T_eps(sym, spec, u: SpectralField) -> SpectralField:
    """Perturbative part of the sheared Laplacian, (I - T_eps) Delta_L form.

    In frequency space this is convolution of the g^2-1 transform against
    -(eta-kt)^2/p times the field, plus convolution of the b transform against
    i (eta-kt)/p times the field; both inner multipliers are bounded by 1 and
    are read from ``sym``, the ``FrameSymbols`` of t on the field's grid
    (T_eps does not depend on its beta).
    """
    _same_grid(spec, u)
    return SpectralField(u.grid, _t_eps_values(sym, spec, u.values))


@dataclass
class SolveStats:
    """Worst-case diagnostics accumulated over Neumann solves."""

    solves: int = 0
    iterations_max: int = 0
    residual_max: float = 0.0
    ratio_max: float = 0.0

    def update(self, iterations, residual, ratio):
        self.solves += 1
        self.iterations_max = max(self.iterations_max, iterations)
        self.residual_max = max(self.residual_max, residual)
        self.ratio_max = max(self.ratio_max, ratio)


def _neumann_solve(sweep, x0, tol, max_iter, what, stats=None):
    """Fixed point of an affine sweep x <- sweep(x), started at x0.

    The update delta_n = ||x_{n+1} - x_n|| equals ||K (x_n - x_{n-1})|| for
    the linear part K of the sweep, so once the iteration contracts,
    delta_n <= tol ||x0|| implies the residual ||x - sweep(x)|| <= ratio *
    tol * ||x0|| < tol ||x0||.
    """
    fnorm = float(np.linalg.norm(x0))
    if fnorm == 0.0:
        return x0
    x = x0
    prev_delta = None
    ratio_max = 0.0
    grew = 0
    for it in range(1, max_iter + 1):
        x_next = sweep(x)
        delta = float(np.linalg.norm(x_next - x))
        x = x_next
        if delta <= tol * fnorm:
            if stats is not None:
                stats.update(it, delta / fnorm, ratio_max)
            return x
        if prev_delta is not None and prev_delta > 0.0:
            ratio = delta / prev_delta
            ratio_max = max(ratio_max, ratio)
            grew = grew + 1 if ratio >= 1.0 else 0
            if grew >= 3:
                raise NonConvergence(
                    f"{what}: update norm grew for 3 straight iterations "
                    f"(ratio {ratio:.3g}); perturbation outside the contractive regime",
                    iterations=it, residual=delta / fnorm,
                )
        prev_delta = delta
    raise NonConvergence(
        f"{what}: residual {prev_delta / fnorm:.3g} above tol {tol:.3g} "
        f"after {max_iter} iterations",
        iterations=max_iter, residual=prev_delta / fnorm,
    )


def solve_vorticity(sym, spec, theta, tol=1e-10, max_iter=50, stats=None):
    """Vorticity Omega = Bt Theta and u = T_L Omega from raw Theta values.

    ``sym`` is the ``FrameSymbols`` of (t, k, eta, beta) on Theta's grid and
    ``spec`` the profile spectrum, None for Couette.  Omega = BL Theta +
    B_eps Omega and u = T_L Omega are one fixed point in (Omega, c) with
    c = u - Omega = T_eps u.  Each Gauss-Seidel sweep costs three matvecs:

        c     <- T_eps (Omega + c),
        Omega <- BL Theta + beta BL (G1 (D (Omega + c)) + D c),   D = -i (eta - k t)/p,

    with G1 the g-1 convolution and D the symbol of (d_Y - t d_X) Delta_L^{-1}.
    The iteration stores (Omega - BL Theta, Omega + c), so at beta = 0, where
    Omega = BL Theta and the second line is skipped, its iterates and update
    norms are exactly those of the plain T_L iteration u <- BL Theta + T_eps u.
    For Couette both results are BL Theta; zero kernels give the same after
    one sweep whose update is zero.  ``NonConvergence`` names k and t.
    Returns (Omega, u).
    """
    src = sym.bl * theta
    if spec is None:
        return src, src
    n = src.size
    beta = sym.beta
    dmul = sym.resolvent_d
    coef = beta * sym.bl

    def sweep(x):
        corr, u = x[:n], x[n:]
        c = _t_eps_values(sym, spec, u)
        if beta != 0.0:
            corr = coef * (apply_profile_convolution(spec, "g1", dmul * ((src + corr) + c))
                           + dmul * c)
        return np.concatenate([corr, (src + corr) + c])

    x = _neumann_solve(sweep, np.concatenate([np.zeros_like(src), src]), tol, max_iter,
                       f"solve_vorticity at k = {sym.k}, t = {sym.t:.6g}", stats)
    return src + x[:n], x[n:]
