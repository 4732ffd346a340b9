"""Per-wavenumber time evolution and the energy functionals.

The state advanced in time is the raw pair (Theta, Q), stacked as one
(2, N) array: the corrected vorticity and the scaled density at one
x-wavenumber k, as functions of the Y-frequency eta.  For the linear
profile the right-hand side is a pointwise 2x2 system per eta,

    dTheta/dt = -i k R Q - i k beta * invLap * BL * Theta,
    dQ/dt     = -i k BL * Theta / p,           invLap = -1/p,

so the beta term carries the sign +i k beta BL / p.  For perturbed profiles
the inverse Laplacian and the vorticity correction are realized through the
one fixed point ``solve_vorticity``, and the Theta coupling splits the
profile factor (b - beta g) into a convolution part (b - beta (g-1)) and the
constant -beta.

The energies are one quadratic form in Z1 = minv p^{-1/4} Theta and
Z2 = minv p^{1/4} i sqrt(R) Q, with minv = 1 unless a weight set is given;
the mixed term makes it coercive exactly when R > 1/4.  The weight set
carries the Sobolev order s of the damped functional.

``rk4_integrate`` yields the frame and the state after every step, and
``evolve`` is one loop over them: it guards each state and evaluates the
recorded ones in batches.
"""

from __future__ import annotations

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
# most bytes of one complex symbol of a batch: 16 rows at N = 256, 8 at
# N = 512, 4 at N = 1024.  A 16 x 512 symbol is 128 KiB, glibc's mmap
# threshold, and every block then mapped and unmapped its symbols afresh
BATCH_SYMBOL_BYTES = 64 * 1024


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


def couette_rhs(sym, y, R):
    """Raw-array right-hand side for the linear profile; pointwise in eta.

    ``sym`` is the ``FrameSymbols`` of (t, k, eta, beta) on the grid of the
    stacked state y = (Theta, Q); returns dy/dt of the same (2, N) shape.
    """
    theta = y[0]  # rows by index: unpacking a 2-row array costs three times more
    dy = np.empty_like(y)
    dtheta, dq = dy[0], dy[1]
    np.multiply(-1j * sym.k * R, y[1], out=dtheta)
    np.multiply(sym.couette_theta, theta, out=dq)
    dtheta += dq
    np.multiply(sym.couette_q, theta, out=dq)
    return dy


def full_rhs(sym, y, spec, R, tol=1e-10, max_iter=50, stats=None):
    """Raw-array right-hand side for a perturbed profile.

    Realizes phi = invDelta_t(Bt Theta) = -T_L(Bt Theta)/p through
    ``solve_vorticity`` on the frame ``sym``, then couples it back with the
    split profile factor; at beta = 0 the g-1 part of the coupling drops out
    and is not computed.  Takes and returns (2, N) arrays as ``couette_rhs``.
    """
    k, beta = sym.k, sym.beta
    _, u = solve_vorticity(sym, spec, y[0], tol, max_iter, stats)
    phi = -u / sym.p
    coupling = apply_profile_convolution(spec, "b", phi)
    if beta != 0.0:
        coupling = coupling - beta * apply_profile_convolution(spec, "g1", phi)
    dy = np.empty_like(y)
    dtheta, dq = dy[0], dy[1]
    np.multiply(-1j * k * R, y[1], out=dtheta)
    dtheta += 1j * k * (coupling - beta * phi)
    np.multiply(1j * k, phi, out=dq)
    return dy


def _block_steps(n):
    """Steps per block of ``rk4_integrate`` on n frequencies: at least 1, and
    as many as keep a complex batch symbol within BATCH_SYMBOL_BYTES."""
    return max(1, BATCH_SYMBOL_BYTES // (16 * n))


def rk4_integrate(rhs, y0, frame0, dt, n_steps):
    """Classical 4th-order integration of a stacked state y over n_steps
    steps of dt from the time of the frame ``frame0``.

    A generator of n_steps + 1 pairs (sym, y): first ``frame0`` with a
    complex copy of y0, then after every step the frame of the step's end
    time with the new state.  Each yielded y is a fresh array that the
    integrator never writes again.  ``rhs(sym, y) -> dy/dt`` at the frame
    ``sym`` returns a new array, which the step may overwrite.  The frames
    of the later stages are built from frame0 a block of ``_block_steps(N)``
    steps at a time, as two batched ``FrameSymbols``: for the steps i of the
    block, ``half`` at the times (t0 + i dt) + dt/2 of stages 2 and 3 and
    ``whole`` at t0 + (i+1) dt, the time of stage 4 and of the next step's
    stage 1.
    """
    y = np.array(y0, dtype=complex)
    sym0 = frame0
    yield sym0, y
    t0, k, etas, beta = frame0.t, frame0.k, frame0.eta, frame0.beta
    block = _block_steps(np.size(etas))
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    for start in range(0, n_steps, block):
        i = np.arange(start, min(start + block, n_steps))[:, None]
        half = FrameSymbols((t0 + i * dt) + half_dt, k, etas, beta)
        whole = FrameSymbols(t0 + (i + 1) * dt, k, etas, beta)
        for sym_half, sym1 in zip(half.rows(), whole.rows()):
            # y + (dt/2) k1, y + (dt/2) k2, y + dt k3 and then
            # y + (dt/6) (k1 + 2 k2 + 2 k3 + k4), evaluated in place in the
            # same order: IEEE sums and products commute exactly
            k1 = rhs(sym0, y)
            stage = half_dt * k1
            stage += y
            k2 = rhs(sym_half, stage)
            np.multiply(half_dt, k2, out=stage)
            stage += y
            k3 = rhs(sym_half, stage)
            np.multiply(dt, k3, out=stage)
            stage += y
            k4 = rhs(sym1, stage)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth_dt
            k2 += y
            y = k2
            yield sym1, y
            sym0 = sym1


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
    """sqrt of the trapezoid integral of |x|^2 over the grid, per row of x."""
    return np.sqrt(grid.integrate(np.abs(x) ** 2))


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
    ``solver`` accumulates the resolvent diagnostics of every solve of the
    run, right-hand sides and records alike (no solve for Couette).
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
    solver: SolveStats


def evolve(grid: FrequencyGrid, theta0, q0, *, beta, R, t_max, dt, t0=0.0, spec=None,
           weights: Optional[WeightSet] = None, record_every=10, tol=1e-10, max_iter=50):
    """Advance (theta0, q0) on ``grid`` from t0 by round(t_max / dt) steps
    (none when t_max < dt / 2), recording energies and observables.

    Uses the pointwise right-hand side when ``spec`` is None and the
    resolvent-based one otherwise.  Records every ``record_every`` steps
    (first and last steps always included).  The time loop is one pass over
    the (frame, state) pairs that ``rk4_integrate`` yields: it checks each
    state and copies a record's state into a buffer of m = ``_block_steps(N)``
    records; when the buffer is full or the last step is reached, one record
    pass evaluates the buffered records as (m, N) arrays on one batched
    ``FrameSymbols`` of their times.  It evaluates the energy density once
    per record, scaling it for the damped functional, and solves for the
    vorticity once, reading the velocity from it: vx = i (eta - k t) u / p,
    vy = -i k u / p with u = T_L Omega, and vx picks up the shear-rate
    factor g = 1 + (g-1) for a perturbed profile, whose solves, velocities
    and norms are taken one record at a time.  Each pass returns its columns
    with the per-record extremes of the energy ratio, which are reduced to
    ``ratio_max`` and ``ratio_min`` after the loop.  The right-hand sides and
    the resolvent sweeps read the time-dependent symbols from the row frames
    that ``rk4_integrate`` builds from the frame of t0, one batch per block
    of steps; the state (Theta, Q) is stepped as one (2, N) array.  Raises
    ``StepUnstable`` (naming k and t) if a field turns non-finite or its
    amplitude exceeds BLOWUP_FACTOR times its initial value, and
    ``ValueError`` when either initial array is not of shape (grid.n,) or
    holds a non-finite value, ``spec`` was sampled on a grid of another N or
    eta_max (its k may differ), R is not positive, record_every is not an
    integer of at least 1, t_max is negative or not finite, beta is
    negative, dt fails ``dt_is_stable``, tol lies outside (0, 1), max_iter
    is below 1 or, with weights, the Sobolev factor <(k, eta)>^{2s} of their
    order ``weights.s`` is not finite on the grid; each before any step is
    taken, for either profile kind.

    Returns (EnergyReport, theta, q) with the fields at the final time
    ``report.times[-1]``; ``report.solver`` counts the run's solves.
    """
    theta0 = np.asarray(theta0, dtype=complex)
    q0 = np.asarray(q0, dtype=complex)
    for name, x in (("theta0", theta0), ("q0", q0)):
        if x.shape != (grid.n,):
            raise ValueError(f"{name}: expected {grid.n} values, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} contains non-finite entries")
    if spec is not None and (spec.grid.n, spec.grid.eta_max) != (grid.n, grid.eta_max):
        raise ValueError(
            f"spec was sampled on (N, eta_max) = ({spec.grid.n}, {spec.grid.eta_max}), "
            f"not on the grid's ({grid.n}, {grid.eta_max})"
        )
    k = grid.k
    lo_const, hi_const = coercivity_constants(R)
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if not float(record_every).is_integer():
        raise ValueError(f"record_every must be an integer, got {record_every}")
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    if beta < 0:
        raise ValueError(f"stratification rate beta must be nonnegative, got {beta}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not dt_is_stable(dt, k, R, beta):
        raise ValueError(
            f"dt = {dt} violates the stability margin "
            f"0 < dt * |k| * max(R, 1 + beta) <= 0.1 for k = {k}, R = {R}, beta = {beta}"
        )
    frame0 = FrameSymbols(t0, k, grid.etas, beta)
    stats = SolveStats()
    if spec is not None:
        rhs = lambda sym, y: full_rhs(sym, y, spec, R, tol, max_iter, stats)
    else:
        rhs = lambda sym, y: couette_rhs(sym, y, R)

    n_steps = int(round(t_max / dt))
    e0_eta, _ = pointwise_energy(frame0, theta0, q0, R)
    cell_share = e0_eta * grid.deta
    total0 = float(np.sum(cell_share))
    mask = cell_share >= ENERGY_MASK_SHARE * total0 if total0 > 0 else np.zeros(grid.n, bool)
    sob = None
    if weights is not None:
        with np.errstate(over="ignore"):
            sob = (1.0 + k * k + grid.etas**2) ** weights.s
        if not np.all(np.isfinite(sob)):
            raise ValueError(
                f"Sobolev factor (1 + k^2 + eta^2)^s is not finite at s = {weights.s}")

    y0 = np.stack([theta0, q0])
    amp0 = np.abs(y0).max()

    # the states of up to m records wait in these buffers, each no larger
    # than a batch symbol, until one pass evaluates them as (m, N) arrays
    m = _block_steps(grid.n)
    theta_buf, q_buf = np.empty((m, grid.n), complex), np.empty((m, grid.n), complex)
    pending = []  # the times of the buffered records
    batches = []  # per pass, the columns of the report it recorded

    def norms(sym, theta, q):
        # the norms of q, vx, vy and the growing functional of one record, or
        # of a batch of records on their batch frame
        omega, u = solve_vorticity(sym, spec, theta, tol, max_iter, stats)
        p = sym.p
        vx = 1j * sym.d * u / p
        if spec is not None:
            vx = vx + apply_profile_convolution(spec, "g1", vx)
        return (_l2(grid, q), _l2(grid, vx), _l2(grid, -1j * k * u / p),
                _l2(grid, omega) + _l2(grid, np.sqrt(p) * q))

    def record_pass(times):
        # the report's columns for the buffered records at these times, and
        # per record the extremes of the energy ratio over the masked cells,
        # NaN when the mask is empty
        sym = FrameSymbols(np.array(times)[:, None], k, grid.etas, beta)
        theta, q = theta_buf[:len(times)], q_buf[:len(times)]
        e_eta, quad = pointwise_energy(sym, theta, q, R)
        energy, quad_total = grid.integrate(e_eta), grid.integrate(quad)
        if weights is not None:
            es = grid.integrate(sob * weights.energy_weight_inv(sym) ** 2 * e_eta)
        else:
            es = np.full(len(theta), math.nan)
        ratio = e_eta[:, mask] / e0_eta[mask]
        del e_eta, quad  # freed before the norms allocate theirs
        if spec is None:  # BL Theta, for the whole batch at once
            columns = norms(sym, theta, q)
        else:  # the Neumann iteration and the convolutions take one field at a time
            columns = np.array([norms(row, th, qq) for row, th, qq in zip(sym.rows(), theta, q)]).T
        return (sym.t[:, 0], energy, lo_const * quad_total, hi_const * quad_total, es, *columns,
                np.fmax.reduce(ratio, 1, initial=math.nan),
                np.fmin.reduce(ratio, 1, initial=math.nan))

    for step, (sym, y) in enumerate(rk4_integrate(rhs, y0, frame0, dt, n_steps)):
        # the guard runs after the step, so it cannot name the RK stage; the
        # max of |y| is NaN when any entry is
        amp = np.abs(y).max()
        if not math.isfinite(amp):
            raise StepUnstable(f"non-finite field at k = {k}, t = {sym.t:.6g}")
        if amp0 > 0 and amp > BLOWUP_FACTOR * amp0:
            raise StepUnstable(
                f"field amplitude grew by more than {BLOWUP_FACTOR:.0e} "
                f"at k = {k}, t = {sym.t:.6g}"
            )
        if step % record_every == 0 or step == n_steps:
            theta_buf[len(pending)] = y[0]
            q_buf[len(pending)] = y[1]
            pending.append(sym.t)
            if len(pending) == m or step == n_steps:
                batches.append(record_pass(pending))
                pending = []

    *columns, ratio_max, ratio_min = (np.concatenate(c) for c in zip(*batches))
    report = EnergyReport(*columns, ratio_max=float(ratio_max.max()),
                          ratio_min=float(ratio_min.min()), solver=stats)
    return report, y[0], y[1]
