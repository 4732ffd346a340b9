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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .multipliers import FrameSymbols
from .spectral_ops import (
    FrequencyGrid,
    SolveStats,
    apply_profile_convolution,
    solve_vorticity,
)
from .weights import WeightSet

__all__ = [
    "EnergyReport",
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
    """A field turned non-finite or grew past a large multiple of its
    initial amplitude."""


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


def couette_rhs(sym, theta, q, R):
    """Raw-array right-hand side for the linear profile; pointwise in eta.

    ``sym`` is the ``FrameSymbols`` of (t, k, eta, beta) on the fields' grid.
    """
    dtheta = -1j * sym.k * R * q + sym.couette_theta * theta
    dq = sym.couette_q * theta
    return dtheta, dq


def full_rhs(sym, theta, q, spec, R, tol=1e-10, max_iter=50, stats=None):
    """Raw-array right-hand side for a perturbed profile.

    Realizes phi = invDelta_t(Bt Theta) = -T_L(Bt Theta)/p through
    ``solve_vorticity`` on the frame ``sym``, then couples it back with the
    split profile factor; at beta = 0 the g-1 part of the coupling drops out
    and is not computed.
    """
    k, beta = sym.k, sym.beta
    _, u = solve_vorticity(sym, spec, theta, tol, max_iter, stats)
    phi = -u / sym.p
    coupling = apply_profile_convolution(spec, "b", phi)
    if beta != 0.0:
        coupling = coupling - beta * apply_profile_convolution(spec, "g1", phi)
    dtheta = -1j * k * R * q + 1j * k * (coupling - beta * phi)
    dq = 1j * k * phi
    return dtheta, dq


def rk4_integrate(rhs, theta0, q0, t0, t_end, dt, callback=None):
    """Classical 4th-order one-step integration of (theta, q) arrays.

    ``rhs(t, theta, q) -> (dtheta, dq)``.  The callback, if given, is invoked
    as callback(step_index, t, theta, q) after every step including step 0.
    Step i evaluates the rhs at only three times: t_i = t0 + i dt, t_i + dt/2
    (stages 2 and 3) and t_{i+1}, the same float as the next step's stage 1
    and the callback's time, so a per-t cache of the rhs serves all three.
    """
    theta = np.array(theta0, dtype=complex)
    q = np.array(q0, dtype=complex)
    n_steps = int(round((t_end - t0) / dt))
    if callback is not None:
        callback(0, t0, theta, q)
    for i in range(n_steps):
        t = t0 + i * dt
        t_half = t + 0.5 * dt
        t_next = t0 + (i + 1) * dt
        k1t, k1q = rhs(t, theta, q)
        k2t, k2q = rhs(t_half, theta + 0.5 * dt * k1t, q + 0.5 * dt * k1q)
        k3t, k3q = rhs(t_half, theta + 0.5 * dt * k2t, q + 0.5 * dt * k2q)
        k4t, k4q = rhs(t_next, theta + dt * k3t, q + dt * k3q)
        theta = theta + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        if callback is not None:
            callback(i + 1, t_next, theta, q)
    return theta, q


def _amplitude(theta, q):
    """max(|theta|, |q|) over the grid; NaN or inf when either field is
    non-finite (np.maximum propagates NaN, unlike Python's max)."""
    return np.maximum(np.abs(theta).max(), np.abs(q).max())


def pointwise_energy(sym, theta, q, R):
    """Per-eta energy density and the coercive density |Z1|^2 + |Z2|^2.

    Density: (|Z1|^2 + |Z2|^2 + Re(p' p^{-1/2} Z1 conj(Z2)) / (2 k sqrt(R))) / 2
    of the raw values (theta, q) at the frame ``sym``.  The density is
    quadratic in (Z1, Z2), so the damped functional scales it pointwise by
    <(k, eta)>^{2s} minv^2 with minv the real inverse energy weight.
    """
    k = sym.k
    p = sym.p
    pp = -2.0 * k * sym.d
    z1 = p**-0.25 * theta
    z2 = p**0.25 * 1j * math.sqrt(R) * q
    mixed = (pp / np.sqrt(p)) * (z1 * np.conj(z2)).real / (2.0 * k * math.sqrt(R))
    quad = np.abs(z1) ** 2 + np.abs(z2) ** 2
    return 0.5 * (quad + mixed), quad


def _l2(grid, x):
    """sqrt of the trapezoid integral of |x|^2 over the grid."""
    return float(np.sqrt(grid.integrate(np.abs(x) ** 2)))


@dataclass
class EnergyReport:
    """Recorded time series of the energies and observables of one evolution.

    ``energy`` integrates the pointwise functional; ``energy_lower`` and
    ``energy_upper`` are its coercivity envelopes; ``energy_weighted`` is the
    damped functional (NaN when no weight set was supplied).  The norms of
    the density Q, the velocity (vx, vy) and the growing functional
    ||Omega|| + ||sqrt(p) Q|| are taken on the frequency side,
    sqrt(trapezoid |field|^2 d eta), a constant factor sqrt(2 pi) above the
    physical-space L^2 norms.  ``ratio_max`` and ``ratio_min`` bound
    E(t; eta)/E(0; eta) over the records and over every cell carrying at
    least ENERGY_MASK_SHARE of the initial energy; NaN when no cell does.
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
    ratio_max: float
    ratio_min: float


def evolve(grid: FrequencyGrid, theta0, q0, *, beta, R, t_max, dt, t0=0.0, spec=None,
           weights: Optional[WeightSet] = None, s=0.0, record_every=10,
           tol=1e-10, max_iter=50, stats: Optional[SolveStats] = None):
    """Advance (theta0, q0) on ``grid`` from t0 by round(t_max / dt) steps,
    recording energies and observables.

    Uses the pointwise right-hand side when ``spec`` is None and the
    resolvent-based one otherwise.  Records every ``record_every`` steps
    (first and last steps always included); each record evaluates the energy
    density once, scaling it for the damped functional, and solves for the
    vorticity once, reading the velocity from it: vx = i (eta - k t) u / p,
    vy = -i k u / p with u = T_L Omega, and vx picks up the shear-rate
    factor g = 1 + (g-1) for a perturbed profile.  The right-hand sides, the
    resolvent sweeps and the records read the time-dependent symbols from
    one ``FrameSymbols`` per distinct t, kept for the three times an RK4
    step uses.  Raises ``StepUnstable`` (naming k and t) if a field turns
    non-finite or its amplitude exceeds BLOWUP_FACTOR times its initial
    value, and ``ValueError`` when either initial array is not of shape
    (grid.n,) or holds a non-finite value, R is not positive, record_every
    is below 1, dt fails ``dt_is_stable`` or, with weights, the Sobolev
    factor <(k, eta)>^{2s} is not finite on the grid.

    Returns (EnergyReport, theta, q) with the fields at the final time
    ``report.times[-1]``.
    """
    theta0 = np.asarray(theta0, dtype=complex)
    q0 = np.asarray(q0, dtype=complex)
    for name, x in (("theta0", theta0), ("q0", q0)):
        if x.shape != (grid.n,):
            raise ValueError(f"{name}: expected {grid.n} values, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} contains non-finite entries")
    k = grid.k
    lo_const, hi_const = coercivity_constants(R)
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if not dt_is_stable(dt, k, R, beta):
        raise ValueError(
            f"dt = {dt} violates the stability margin "
            f"0 < dt * |k| * max(R, 1 + beta) <= 0.1 for k = {k}, R = {R}, beta = {beta}"
        )
    # an RK4 step and its record use three times: t, t + dt/2 and t + dt
    symbols_at = functools.lru_cache(maxsize=3)(lambda t: FrameSymbols(t, k, grid.etas, beta))

    if spec is not None:
        rhs = lambda t, th, qq: full_rhs(symbols_at(t), th, qq, spec, R, tol, max_iter, stats)
    else:
        rhs = lambda t, th, qq: couette_rhs(symbols_at(t), th, qq, R)

    n_steps = int(round(t_max / dt))
    e0_eta, _ = pointwise_energy(symbols_at(t0), theta0, q0, R)
    cell_share = e0_eta * grid.deta
    total0 = float(np.sum(cell_share))
    mask = cell_share >= ENERGY_MASK_SHARE * total0 if total0 > 0 else np.zeros(grid.n, bool)
    sob = None
    if weights is not None:
        with np.errstate(over="ignore"):
            sob = (1.0 + k * k + grid.etas**2) ** s
        if not np.all(np.isfinite(sob)):
            raise ValueError(f"Sobolev factor (1 + k^2 + eta^2)^s is not finite at s = {s}")

    amp0 = _amplitude(theta0, q0)

    times, e_series, lo_series, hi_series, es_series = [], [], [], [], []
    qn, vxn, vyn, gn = [], [], [], []
    ratio_max, ratio_min = -math.inf, math.inf

    def record(step, t, theta, q):
        nonlocal ratio_max, ratio_min
        # the guard runs after the step, so it cannot name the RK stage
        amp = _amplitude(theta, q)
        if not np.isfinite(amp):
            raise StepUnstable(f"non-finite field at k = {k}, t = {t:.6g}")
        if amp0 > 0 and amp > BLOWUP_FACTOR * amp0:
            raise StepUnstable(
                f"field amplitude grew by more than {BLOWUP_FACTOR:.0e} "
                f"at k = {k}, t = {t:.6g}"
            )
        if step % record_every != 0 and step != n_steps:
            return
        sym = symbols_at(t)
        e_eta, quad = pointwise_energy(sym, theta, q, R)
        quad_total = float(grid.integrate(quad))
        times.append(t)
        e_series.append(float(grid.integrate(e_eta)))
        lo_series.append(lo_const * quad_total)
        hi_series.append(hi_const * quad_total)
        if weights is not None:
            minv = weights.energy_weight_inv(t, k, sym.eta)
            es_series.append(float(grid.integrate(sob * minv**2 * e_eta)))
        else:
            es_series.append(math.nan)
        if np.any(mask):
            ratio = e_eta[mask] / e0_eta[mask]
            ratio_max = max(ratio_max, float(ratio.max()))
            ratio_min = min(ratio_min, float(ratio.min()))

        omega, u = solve_vorticity(sym, spec, theta, tol, max_iter, stats)
        d = sym.d
        p = sym.p
        vx = 1j * d * u / p
        vy = -1j * k * u / p
        if spec is not None:
            vx = vx + apply_profile_convolution(spec, "g1", vx)
        qn.append(_l2(grid, q))
        vxn.append(_l2(grid, vx))
        vyn.append(_l2(grid, vy))
        gn.append(_l2(grid, omega) + _l2(grid, np.sqrt(p) * q))

    theta, q = rk4_integrate(rhs, theta0, q0, t0, t0 + n_steps * dt, dt, callback=record)
    if not np.any(mask):
        ratio_max = ratio_min = math.nan

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
        ratio_max=ratio_max,
        ratio_min=ratio_min,
    )
    return report, theta, q
