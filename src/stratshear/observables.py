"""Decay fits of the observable norms that ``evolution.evolve`` records.

The norms are taken on the frequency side, a constant factor sqrt(2 pi)
above the physical-space L^2 norms, which is irrelevant for the exponents
this module extracts.

Two power-law fits are provided.  ``fit_power_law`` is the slope of a
running-maximum envelope and assumes nothing about the oscillation.
``fit_modulated_power_law`` is given the log-periodic frequency nu of
Couette flow above the Miles-Howard threshold (amplitudes behave like
t^{-1/2 +- i nu}, nu = sqrt(R - 1/4)) and fits that modulation explicitly,
which the envelope cannot remove when the window spans less than one period
pi/nu in ln t.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "InsufficientWindow",
    "ModulatedPowerLawFit",
    "PowerLawFit",
    "fit_modulated_power_law",
    "fit_power_law",
]

ENVELOPE_WIDTH = 5.0  # time width of the running-maximum windows used by fits
SCAN_HALF_WIDTH = 4.0  # modulated fit: exponents scanned around the log-log slope
SCAN_STEP = 0.05
SCAN_TOL = 1e-10  # width at which the golden-section refinement stops


class InsufficientWindow(ValueError):
    """Too few samples inside the requested fit window."""


class PowerLawFit(NamedTuple):
    exponent: float
    r_squared: float


class ModulatedPowerLawFit(NamedTuple):
    """``v(t) = c t^exponent sqrt(1 + depth cos(2 nu ln t + phase))``."""

    exponent: float
    depth: float
    phase: float
    r_squared: float


def _fit_window(times, values, t_lo, t_hi):
    """Samples of a series inside [t_lo, t_hi], checked for a power-law fit."""
    if not t_hi > t_lo or t_lo < 1.0:
        raise ValueError("fit window requires t_hi > t_lo >= 1")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= t_lo) & (times <= t_hi)
    if int(sel.sum()) < 16:
        raise InsufficientWindow(
            f"only {int(sel.sum())} samples in [{t_lo}, {t_hi}]; need at least 16"
        )
    tt = times[sel]
    vv = values[sel]
    if np.any(~(vv > 0)):  # NaN too
        raise ValueError("values must be positive on the fit window")
    return tt, vv


def _r_squared(y, fitted):
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def _line_fit(x, y):
    """Least-squares slope and intercept of y against x, from centred sums.

    The closed form of a straight-line fit; it calls no LAPACK routine, whose
    code a first call would page in (about 1 MB of RSS in a CLI run).
    """
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(np.sum(dx * (y - y_mean)) / np.sum(dx * dx))
    return slope, float(y_mean - slope * x_mean)


def fit_power_law(times, values, t_lo, t_hi) -> PowerLawFit:
    """Least-squares slope of log(value) against log(t) over [t_lo, t_hi].

    The series is first reduced to its running maximum over windows of
    ENVELOPE_WIDTH time units, keeping each maximum at its own abscissa;
    oscillatory prefactors then perturb the fit only through the envelope.
    The line through the maxima is fitted in closed form (``_line_fit``),
    which agrees with ``np.polyfit(x, y, 1)`` to rounding.  The slope is
    invariant under rescaling of the values.
    """
    tt, vv = _fit_window(times, values, t_lo, t_hi)

    pts_t, pts_v = [], []
    n_win = int(math.ceil((t_hi - t_lo) / ENVELOPE_WIDTH))
    edges = t_lo + ENVELOPE_WIDTH * np.arange(n_win + 1)
    edges[-1] = t_hi + 1e-9 * max(1.0, t_hi)  # keep the right endpoint inside
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (tt >= lo) & (tt < hi)
        if not np.any(inside):
            continue
        j = np.argmax(vv[inside])
        pts_t.append(tt[inside][j])
        pts_v.append(vv[inside][j])
    if len(pts_t) < 2:
        raise InsufficientWindow("fit window spans fewer than two envelope windows")

    x = np.log(np.asarray(pts_t))
    y = np.log(np.asarray(pts_v))
    slope, intercept = _line_fit(x, y)
    r2 = _r_squared(y, slope * x + intercept)
    return PowerLawFit(exponent=float(slope), r_squared=r2)


def fit_modulated_power_law(times, values, t_lo, t_hi, nu) -> ModulatedPowerLawFit:
    """Power law with a log-periodic modulation of known frequency ``nu``.

    Fits ``v(t)^2 = t^(2a) (C0 + C1 cos(2 nu ln t) + C2 sin(2 nu ln t))`` to
    every sample in [t_lo, t_hi].  For fixed ``a`` the model is linear in C,
    so C is eliminated by a least-squares fit of the relative residual
    ``1 - model / v^2`` (variable projection); the remaining one-dimensional
    residual is scanned over ``a`` within ``SCAN_HALF_WIDTH`` of the plain
    log-log slope and refined by golden-section search.  The depth is
    ``m = |(C1, C2)| / C0`` and the phase ``phi`` satisfies
    ``C1 cos x + C2 sin x = m C0 cos(x + phi)``; ``r_squared`` is that of
    ``log v``.  Like ``fit_power_law`` the result does not depend on the
    scale of the values, and the window guards are the same.

    For Couette flow above the Miles-Howard threshold, ``nu = sqrt(R - 1/4)``.
    Raises ``ValueError`` if ``nu`` is not positive and finite, or if the
    best exponent lies at the edge of the scan.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"modulation frequency must be positive and finite, got {nu}")
    tt, vv = _fit_window(times, values, t_lo, t_hi)

    x = np.log(tt)
    xc = x - np.mean(x)  # centred so that t^(2a) stays well scaled
    basis = np.stack([np.ones_like(x), np.cos(2.0 * nu * x), np.sin(2.0 * nu * x)], axis=1)
    scaled = basis / (vv * vv)[:, None]
    ones = np.ones_like(x)

    def project(a):
        design = np.exp(2.0 * a * xc)[:, None] * scaled
        coef = np.linalg.lstsq(design, ones, rcond=None)[0]
        resid = ones - design @ coef
        return float(resid @ resid), coef

    a0 = _line_fit(x, np.log(vv))[0]
    n_half = int(round(SCAN_HALF_WIDTH / SCAN_STEP))
    grid = a0 + SCAN_STEP * np.arange(-n_half, n_half + 1)
    j = int(np.argmin([project(a)[0] for a in grid]))
    if j in (0, len(grid) - 1):
        raise ValueError(
            f"modulated fit found no interior minimum within {SCAN_HALF_WIDTH} "
            f"of the log-log slope {a0:+.3f}"
        )

    lo, hi = grid[j - 1], grid[j + 1]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fc, fd = project(c)[0], project(d)[0]
    while hi - lo > SCAN_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = project(c)[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = project(d)[0]
    a = 0.5 * (lo + hi)

    coef = project(a)[1]
    model = np.exp(2.0 * a * xc) * (basis @ coef)
    # a model that dips to zero counts as a large, finite residual
    fitted = 0.5 * np.log(np.maximum(model, np.finfo(float).tiny))
    return ModulatedPowerLawFit(
        exponent=float(a),
        depth=float(math.hypot(coef[1], coef[2]) / coef[0]),
        phase=float(math.atan2(-coef[2], coef[1])),
        r_squared=_r_squared(np.log(vv), fitted),
    )
