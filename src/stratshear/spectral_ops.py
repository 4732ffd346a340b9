"""Discrete moving-frame operators on a truncated Y-frequency line.

The continuous frequency line is cut to [-eta_max, eta_max] and sampled on a
uniform midpoint grid (no point sits at eta = 0 or at the ends, so the grid
is exactly symmetric for even N).  Operators that multiply by a Y-profile
become discrete linear convolutions against the profile transform, weighted
by deta/(2 pi); fields are extended by zero beyond the grid, so convolutions
are linear, not circular, and cost O(N^2): a dense Toeplitz matvec on small
grids, a direct sum over the (2N-1)-point kernel from DIRECT_CONVOLUTION_N up,
where the N x N matrices would cost more memory than they save time.  A
``ProfileSpectrum`` builds its weighted operators when it is made.

The two resolvents, T_L = (I - T_eps)^{-1} of the sheared Laplacian and
T_B = (I - B_eps)^{-1} of the vorticity correction (which contains T_L), are
computed together by one fixed-point (Neumann) iteration, whose sweep and
update-based stopping rule ``solve_vorticity`` holds; non-contraction raises
``NonConvergence``, which signals a profile outside the perturbative regime
or an under-resolved grid, and ``SolveStats`` collects the solves' sweeps,
updates and contraction ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "FrequencyGrid",
    "NonConvergence",
    "ProfileSpectrum",
    "SolveStats",
    "apply_profile_convolution",
    "solve_vorticity",
]


class NonConvergence(RuntimeError):
    """Neumann iteration failed to contract below tolerance."""


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

    @cached_property
    def _steps(self) -> np.ndarray:
        d = np.diff(self.etas)
        d.flags.writeable = False
        return d

    def integrate(self, density):
        """Trapezoid quadrature of a sampled density over the grid, along its
        last axis: the arithmetic of ``np.trapezoid(density, self.etas)``,
        with the grid's steps computed once."""
        return (self._steps * (density[..., 1:] + density[..., :-1]) / 2.0).sum(axis=-1)


# grid size from which a profile convolution sums directly over its
# (2N-1)-point kernel instead of multiplying by the dense N x N Toeplitz
# matrix: the smallest N of a sweep over N in {256, 384, 448, 512, 768, 1024}
# at which a perturbed evolve, at beta = 0 and at beta = 1, took no longer
# with the direct sum (median wall time of fresh processes on 2 cores)
DIRECT_CONVOLUTION_N = 512


@dataclass
class ProfileSpectrum:
    """Profile transforms sampled for one frequency grid, built by
    ``shear.sample_spectrum`` for a perturbed profile (Couette has none).

    ``kern_g1``, ``kern_g2`` and ``kern_b`` hold the transforms of g-1, g^2-1
    and b on the (2N-1)-point difference lattice that the linear convolution
    needs (Hermitian-symmetric since the profiles are real); any other kernel
    shape raises ``ValueError``.  A spectrum is complete once it is built:
    ``operators`` maps each name ("g1", "g2", "b") to the deta/(2 pi)-weighted
    kernel, as its dense Toeplitz matrix below DIRECT_CONVOLUTION_N (entry
    (i, j) is the kernel at i - j + N - 1, copied from a sliding-window view,
    so the build holds no index arrays) and as the kernel itself from there
    up.  The lattice and the operators depend on N and eta_max only (read
    from ``grid``), not on k, so one sampled spectrum serves every
    wavenumber of a run as it is.
    """

    grid: FrequencyGrid
    kern_g1: np.ndarray
    kern_g2: np.ndarray
    kern_b: np.ndarray
    operators: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n
        self.operators = {}
        for name, kern in (("g1", self.kern_g1), ("g2", self.kern_g2), ("b", self.kern_b)):
            if np.shape(kern) != (2 * n - 1,):
                raise ValueError(f"kern_{name}: expected shape (2N-1,) = ({2 * n - 1},) "
                                 f"for N = {n}, got {np.shape(kern)}")
            op = self.grid.deta / (2.0 * math.pi) * kern
            if n < DIRECT_CONVOLUTION_N:
                op = sliding_window_view(op[::-1], n)[::-1].copy()
            self.operators[name] = op


def apply_profile_convolution(spec, name, values):
    """Convolve raw values with one of the profile kernels ("g1", "g2", "b").

    Entry i is the sum over j of the weighted kernel at i - j + N - 1 times
    values[j]: a dense matvec below DIRECT_CONVOLUTION_N and ``np.convolve``
    over the kernel from there up, which forms the same products and sums
    them in another order.  ``values`` is one field of N values.
    """
    op = spec.operators[name]
    if op.ndim == 1:
        return np.convolve(op, values, mode="valid")
    return op @ values


def _t_eps_values(sym, spec, values):
    """Perturbative part T_eps of the sheared Laplacian, (I - T_eps) Delta_L form.

    Convolution of the g^2-1 transform against -(eta-kt)^2/p times the values
    plus convolution of the b transform against i (eta-kt)/p times them, which
    is minus that against the resolvent's D = -i (eta-kt)/p; both inner
    multipliers are bounded by 1 and are read from the frame ``sym``.
    """
    part_g = apply_profile_convolution(spec, "g2", sym.t_eps_g2 * values)
    part_b = apply_profile_convolution(spec, "b", sym.resolvent_d * values)
    return part_g - part_b


@dataclass
class SolveStats:
    """Worst-case diagnostics accumulated over Neumann solves; the CLI
    writes its fields as they are to each run's ``solver`` block."""

    solves: int = 0
    iterations_max: int = 0
    residual_max: float = 0.0
    contraction_ratio_max: float = 0.0

    def update(self, iterations, residual, ratio):
        self.solves += 1
        self.iterations_max = max(self.iterations_max, iterations)
        self.residual_max = max(self.residual_max, residual)
        self.contraction_ratio_max = max(self.contraction_ratio_max, ratio)


def solve_vorticity(sym, spec, theta, tol=1e-10, max_iter=50, stats=None):
    """Vorticity Omega = Bt Theta and u = T_L Omega from raw Theta values.

    ``sym`` is the ``FrameSymbols`` of (t, k, eta, beta) on Theta's grid and
    ``spec`` the profile spectrum, None for Couette.  Omega = BL Theta +
    B_eps Omega and u = T_L Omega are one fixed point in (Omega, c) with
    c = u - Omega = T_eps u.  Each Gauss-Seidel sweep costs three matvecs:

        c     <- T_eps (Omega + c),
        Omega <- BL Theta + beta BL (G1 (D (Omega + c)) + D c),   D = -i (eta - k t)/p,

    with G1 the g-1 convolution and D the symbol of (d_Y - t d_X) Delta_L^{-1}.
    The iteration stores x = (Omega - BL Theta, Omega + c), from x0 =
    (0, BL Theta), so at beta = 0, where Omega = BL Theta and the second line
    is skipped, its iterates and update norms are exactly those of the plain
    T_L iteration u <- BL Theta + T_eps u.  For Couette both results are
    BL Theta; zero kernels give the same after one sweep whose update is zero.

    The sweep is affine, so the update delta_n = ||x_{n+1} - x_n|| equals
    ||K (x_n - x_{n-1})|| for its linear part K; once the iteration contracts,
    stopping at delta_n <= tol ||x0|| bounds the residual ||x - sweep(x)|| by
    ratio * tol * ||x0|| < tol ||x0||.  ``stats``, if given, takes the solve's
    sweeps, relative update and worst contraction ratio.  ``NonConvergence``
    names k and t when the update grows for 3 straight sweeps or max_iter
    sweeps miss the tolerance; a max_iter below 1 or a tol outside (0, 1)
    raises ``ValueError`` before any sweep.
    Returns (Omega, u).
    """
    src = sym.bl * theta
    if spec is None:
        return src, src
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    n = src.size
    beta = sym.beta
    dmul = sym.resolvent_d
    coef = beta * sym.bl
    x = np.concatenate([np.zeros_like(src), src])
    fnorm = float(np.linalg.norm(x))
    if fnorm == 0.0:
        return src + x[:n], x[n:]
    prev_delta = None
    ratio_max = 0.0
    grew = 0
    for it in range(1, max_iter + 1):
        corr, u = x[:n], x[n:]
        c = _t_eps_values(sym, spec, u)
        if beta != 0.0:
            corr = coef * (apply_profile_convolution(spec, "g1", dmul * ((src + corr) + c))
                           + dmul * c)
        x_next = np.concatenate([corr, (src + corr) + c])
        delta = float(np.linalg.norm(x_next - x))
        x = x_next
        if delta <= tol * fnorm:
            if stats is not None:
                stats.update(it, delta / fnorm, ratio_max)
            return src + x[:n], x[n:]
        if prev_delta is not None and prev_delta > 0.0:
            ratio = delta / prev_delta
            ratio_max = max(ratio_max, ratio)
            grew = grew + 1 if ratio >= 1.0 else 0
            if grew >= 3:
                raise NonConvergence(
                    f"solve_vorticity at k = {sym.k}, t = {sym.t:.6g}: update norm grew "
                    f"for 3 straight iterations (ratio {ratio:.3g}); perturbation "
                    "outside the contractive regime"
                )
        prev_delta = delta
    raise NonConvergence(
        f"solve_vorticity at k = {sym.k}, t = {sym.t:.6g}: residual {prev_delta / fnorm:.3g} "
        f"above tol {tol:.3g} after {max_iter} iterations"
    )
