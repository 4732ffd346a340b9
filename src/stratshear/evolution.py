"""Per-wavenumber time evolution and the energy functionals.

The state advanced in time is the raw pair (Theta, Q): the corrected
vorticity and the scaled density at one x-wavenumber k, as functions of the
Y-frequency eta.  For the linear profile the right-hand side is a pointwise
2x2 system per eta,

    dTheta/dt = -i k R Q - i k beta * invLap * BL * Theta,
    dQ/dt     = -i k BL * Theta / p,           invLap = -1/p,

so the beta term carries the sign +i k beta BL / p.  For perturbed profiles
the inverse Laplacian and the vorticity correction are realized through the
one fixed point ``solve_vorticity``, and the Theta coupling splits the
profile factor (b - beta g) into a convolution part (b - beta (g-1)) and the
constant -beta.

The energies are one quadratic form in Z1 = minv p^{-1/4} Theta and
Z2 = minv p^{1/4} i sqrt(R) Q, with minv = 1 unless a weight set is given;
the mixed term makes it coercive exactly when R > 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .multipliers import eval_bl
from .spectral_ops import (
    FrequencyGrid,
    SolveStats,
    SpectralField,
    apply_profile_convolution,
    solve_vorticity,
)
from .weights import WeightSet

__all__ = [
    "EnergyReport",
    "RawState",
    "StepUnstable",
    "coercivity_constants",
    "couette_rhs",
    "dt_is_stable",
    "evolve",
    "full_rhs",
    "pointwise_energy",
    "rk4_integrate",
]

ENERGY_MASK_SHARE = 1e-8  # minimum share of the initial energy a cell must carry
BLOWUP_FACTOR = 1e6


class StepUnstable(RuntimeError):
    """A field norm exceeded a large multiple of its initial value."""


@dataclass
class RawState:
    """Corrected vorticity and scaled density at one wavenumber and time."""

    theta: SpectralField
    q: SpectralField
    t: float

    def __post_init__(self):
        if self.theta.grid != self.q.grid:
            raise ValueError("theta and q must share a grid")

    @property
    def grid(self) -> FrequencyGrid:
        return self.theta.grid


def coercivity_constants(R):
    """Lower/upper energy sandwich constants (1 -+ 1/(2 sqrt(R)))/2.

    The lower constant is positive iff R > 1/4 (the stability threshold);
    it vanishes at R = 1/4 and is negative below.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    half = 0.5 / math.sqrt(R)
    return 0.5 * (1.0 - half), 0.5 * (1.0 + half)


def dt_is_stable(dt, k, R, beta):
    """RK4 stability margin: 0 < dt and dt |k| max(R, 1 + beta) <= 0.1."""
    return dt > 0 and dt * abs(k) * max(R, 1.0 + beta) <= 0.1 + 1e-12


def couette_rhs(t, theta, q, k, etas, beta, R):
    """Raw-array right-hand side for the linear profile; pointwise in eta."""
    d = etas - k * t
    p = k * k + d * d
    bl = eval_bl(t, k, etas, beta)
    dtheta = -1j * k * R * q + 1j * k * beta * bl * theta / p
    dq = -1j * k * bl * theta / p
    return dtheta, dq


def full_rhs(t, theta, q, spec, beta, R, tol=1e-10, max_iter=50, stats=None):
    """Raw-array right-hand side for a perturbed profile.

    Realizes phi = invDelta_t(Bt Theta) = -T_L(Bt Theta)/p through
    ``solve_vorticity``, then couples it back with the split profile factor.
    """
    grid = spec.grid
    k = grid.k
    _, u = solve_vorticity(t, grid, spec, beta, theta, tol, max_iter, stats)
    phi = -u / grid.p(t)
    if spec.trivial:
        coupling = np.zeros_like(phi)
    else:
        coupling = (apply_profile_convolution(spec, "b", phi)
                    - beta * apply_profile_convolution(spec, "g1", phi))
    dtheta = -1j * k * R * q + 1j * k * (coupling - beta * phi)
    dq = 1j * k * phi
    return dtheta, dq


def rk4_integrate(rhs, theta0, q0, t0, t_end, dt, callback=None):
    """Classical 4th-order one-step integration of (theta, q) arrays.

    ``rhs(t, theta, q) -> (dtheta, dq)``.  The callback, if given, is invoked
    as callback(step_index, t, theta, q) after every step including step 0.
    """
    theta = np.array(theta0, dtype=complex)
    q = np.array(q0, dtype=complex)
    n_steps = int(round((t_end - t0) / dt))
    if callback is not None:
        callback(0, t0, theta, q)
    for i in range(n_steps):
        t = t0 + i * dt
        k1t, k1q = rhs(t, theta, q)
        k2t, k2q = rhs(t + 0.5 * dt, theta + 0.5 * dt * k1t, q + 0.5 * dt * k1q)
        k3t, k3q = rhs(t + 0.5 * dt, theta + 0.5 * dt * k2t, q + 0.5 * dt * k2q)
        k4t, k4q = rhs(t + dt, theta + dt * k3t, q + dt * k3q)
        theta = theta + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        if callback is not None:
            callback(i + 1, t0 + (i + 1) * dt, theta, q)
    return theta, q


def pointwise_energy(state: RawState, R, weights: Optional[WeightSet] = None, s=0.0):
    """Per-eta energy density and the coercive density |Z1|^2 + |Z2|^2.

    Density: <(k, eta)>^{2s} (|Z1|^2 + |Z2|^2 + Re(p' p^{-1/2} Z1 conj(Z2)) / (2 k sqrt(R))) / 2
    with the symmetrized variables scaled by the inverse energy weight when
    ``weights`` is given.
    """
    grid = state.grid
    k = grid.k
    p = grid.p(state.t)
    pp = -2.0 * k * grid.shift(state.t)
    minv = 1.0 if weights is None else weights.energy_weight_inv(state.t, k, grid.etas)
    z1 = minv * p**-0.25 * state.theta.values
    z2 = minv * p**0.25 * 1j * math.sqrt(R) * state.q.values
    mixed = (pp / np.sqrt(p)) * (z1 * np.conj(z2)).real / (2.0 * k * math.sqrt(R))
    quad = np.abs(z1) ** 2 + np.abs(z2) ** 2
    sob = (1.0 + k * k + grid.etas**2) ** s
    return 0.5 * sob * (quad + mixed), quad


@dataclass
class EnergyReport:
    """Recorded time series of the energies and observables of one evolution.

    ``energy`` integrates the pointwise functional; ``energy_lower`` and
    ``energy_upper`` are its coercivity envelopes; ``energy_weighted`` is the
    damped functional (NaN when no weight set was supplied).  The norms of
    the density Q, the velocity (vx, vy) and the growing functional
    ||Omega|| + ||sqrt(p) Q|| are taken on the frequency side,
    sqrt(trapezoid |field|^2 d eta), a constant factor sqrt(2 pi) above the
    physical-space L^2 norms.  The ratio fields track E(t; eta)/E(0; eta)
    over time for every cell carrying at least ENERGY_MASK_SHARE of the
    initial energy.
    """

    times: np.ndarray
    energy: np.ndarray
    energy_lower: np.ndarray
    energy_upper: np.ndarray
    energy_weighted: np.ndarray
    q_norm: np.ndarray
    vx_norm: np.ndarray
    vy_norm: np.ndarray
    growth_norm: np.ndarray
    ratio_max_per_eta: np.ndarray
    ratio_min_per_eta: np.ndarray

    @property
    def ratio_max(self) -> float:
        return float(np.nanmax(self.ratio_max_per_eta))

    @property
    def ratio_min(self) -> float:
        return float(np.nanmin(self.ratio_min_per_eta))


def evolve(initial: RawState, *, beta, R, t_max, dt, spec=None,
           weights: Optional[WeightSet] = None, s=0.0, record_every=10,
           tol=1e-10, max_iter=50, stats: Optional[SolveStats] = None):
    """Advance a raw state to t_max, recording energies and observables.

    Uses the pointwise right-hand side when ``spec`` is None and the
    resolvent-based one otherwise.  Records every ``record_every`` steps
    (first and last steps always included); each record solves for the
    vorticity once and reads the velocity from it: vx = i (eta - k t) u / p,
    vy = -i k u / p with u = T_L Omega, and vx picks up the shear-rate
    factor g = 1 + (g-1) for a perturbed profile.  Raises ``StepUnstable``
    if a field norm exceeds BLOWUP_FACTOR times its initial value, and
    ``ValueError`` when dt fails ``dt_is_stable``.

    Returns (EnergyReport, final RawState).
    """
    grid = initial.grid
    k = grid.k
    if not dt_is_stable(dt, k, R, beta):
        raise ValueError(
            f"dt = {dt} violates the stability margin "
            f"0 < dt * |k| * max(R, 1 + beta) <= 0.1 for k = {k}, R = {R}, beta = {beta}"
        )
    if spec is not None:
        rhs = lambda t, th, qq: full_rhs(t, th, qq, spec, beta, R, tol, max_iter, stats)
    else:
        rhs = lambda t, th, qq: couette_rhs(t, th, qq, k, grid.etas, beta, R)

    n_steps = int(round(t_max / dt))
    e0_eta, _ = pointwise_energy(initial, R)
    cell_share = e0_eta * grid.deta
    total0 = float(np.sum(cell_share))
    mask = cell_share >= ENERGY_MASK_SHARE * total0 if total0 > 0 else np.zeros(grid.n, bool)

    amp0 = max(np.max(np.abs(initial.theta.values)), np.max(np.abs(initial.q.values)))
    lo_const, hi_const = coercivity_constants(R) if R > 0 else (0.0, 0.0)

    times, e_series, lo_series, hi_series, es_series = [], [], [], [], []
    qn, vxn, vyn, gn = [], [], [], []
    ratio_max = np.full(grid.n, np.nan)
    ratio_min = np.full(grid.n, np.nan)
    ratio_max[mask] = -np.inf
    ratio_min[mask] = np.inf

    def record(step, t, theta, q):
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(q))):
            raise StepUnstable(f"non-finite field at t = {t:.6g}")
        if amp0 > 0:
            amp = max(np.max(np.abs(theta)), np.max(np.abs(q)))
            if amp > BLOWUP_FACTOR * amp0:
                raise StepUnstable(
                    f"field amplitude grew by more than {BLOWUP_FACTOR:.0e} at t = {t:.6g}"
                )
        if step % record_every != 0 and step != n_steps:
            return
        state = RawState(SpectralField(grid, theta), SpectralField(grid, q), t)
        e_eta, quad = pointwise_energy(state, R)
        times.append(t)
        e_series.append(float(grid.integrate(e_eta)))
        lo_series.append(lo_const * float(grid.integrate(quad)))
        hi_series.append(hi_const * float(grid.integrate(quad)))
        if weights is not None:
            es_series.append(float(grid.integrate(pointwise_energy(state, R, weights, s)[0])))
        else:
            es_series.append(math.nan)
        if np.any(mask):
            ratio = e_eta[mask] / e0_eta[mask]
            ratio_max[mask] = np.maximum(ratio_max[mask], ratio)
            ratio_min[mask] = np.minimum(ratio_min[mask], ratio)

        omega, u = solve_vorticity(t, grid, spec, beta, theta, tol, max_iter, stats)
        d = grid.shift(t)
        p = grid.p(t)
        vx = 1j * d * u / p
        vy = -1j * k * u / p
        if spec is not None and not spec.trivial:
            vx = vx + apply_profile_convolution(spec, "g1", vx)
        qn.append(state.q.l2())
        vxn.append(SpectralField(grid, vx).l2())
        vyn.append(SpectralField(grid, vy).l2())
        gn.append(SpectralField(grid, omega).l2() + SpectralField(grid, np.sqrt(p) * q).l2())

    t_end = initial.t + n_steps * dt
    theta, q = rk4_integrate(rhs, initial.theta.values, initial.q.values, initial.t,
                             t_end, dt, callback=record)

    report = EnergyReport(
        times=np.asarray(times),
        energy=np.asarray(e_series),
        energy_lower=np.asarray(lo_series),
        energy_upper=np.asarray(hi_series),
        energy_weighted=np.asarray(es_series),
        q_norm=np.asarray(qn),
        vx_norm=np.asarray(vxn),
        vy_norm=np.asarray(vyn),
        growth_norm=np.asarray(gn),
        ratio_max_per_eta=ratio_max,
        ratio_min_per_eta=ratio_min,
    )
    return report, RawState(SpectralField(grid, theta), SpectralField(grid, q), t_end)
