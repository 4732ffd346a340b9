"""Time-dependent Fourier multipliers of the moving-frame operators.

Everything here is a closed-form function of (t; k, eta) at a fixed nonzero
x-wavenumber k:

* ``eval_p``        -- symbol p = k^2 + (eta - k t)^2 of the negative sheared
                       Laplacian,
* ``eval_p_prime``  -- its time derivative -2 k (eta - k t),
* ``eval_bl``       -- the stratification multiplier, reciprocal of
                       1 + i beta (eta - k t) / p,
* ``FrameSymbols``  -- the symbols at one time t that the right-hand sides,
                       the resolvent sweeps and the records share.

Functions broadcast over numpy arrays in ``eta`` (and ``t``); they are pure
and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUND_SLACK",
    "BlBoundReport",
    "FrameSymbols",
    "bl_bound_report",
    "eval_bl",
    "eval_p",
    "eval_p_prime",
]

# Bound predicates are exact in real arithmetic; the slack absorbs double
# precision rounding so they never fail spuriously.
BOUND_SLACK = 1.0 + 1e-12


def _require_nonzero_k(k):
    if k == 0:
        raise ValueError("x-wavenumber k must be nonzero (the k = 0 mode is conserved)")


def eval_p(t, k, eta):
    """Symbol of the negative moving-frame Laplacian: k^2 + (eta - k t)^2.

    Always >= k^2 > 0, with equality exactly at t = eta/k.
    """
    _require_nonzero_k(k)
    d = np.asarray(eta, dtype=float) - k * t
    return k * k + d * d


def eval_p_prime(t, k, eta):
    """Time derivative of ``eval_p``: -2 k (eta - k t).

    Satisfies |p'| <= 2 |k| sqrt(p) everywhere.
    """
    _require_nonzero_k(k)
    d = np.asarray(eta, dtype=float) - k * t
    return -2.0 * k * d


def eval_bl(t, k, eta, beta):
    """Stratification multiplier: reciprocal of 1 + i beta (eta - k t)/p.

    Written with explicit real and imaginary parts,

        p^2 / (p^2 + beta^2 (eta-kt)^2)  -  i beta p (eta-kt) / (p^2 + beta^2 (eta-kt)^2),

    so the modulus obeys 1/sqrt(1 + beta^2) <= |value| <= 1.  For beta = 0 or
    t = eta/k the value is exactly 1.  Both parts are computed in real
    arithmetic and written into one complex result.
    """
    _require_nonzero_k(k)
    if beta < 0:
        raise ValueError("stratification rate beta must be nonnegative")
    d = np.asarray(eta, dtype=float) - k * t
    p = k * k + d * d
    pp = p * p
    den = pp + (beta * d) ** 2
    bl = np.empty(np.shape(den), dtype=complex)
    np.divide(pp, den, out=bl.real)
    np.divide(-beta * p * d, den, out=bl.imag)
    return bl[()]


class _symbol:
    """Build a FrameSymbols array on first access and keep it, read-only, in
    the instance.  functools.cached_property would do the same but takes a
    lock on every first access under Python 3.11, which costs more than an
    N = 1 symbol itself."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, sym, owner=None):
        if sym is None:
            return self
        value = self.build(sym)
        if isinstance(value, np.ndarray):  # a scalar eta gives numpy scalars
            value.flags.writeable = False
        sym.__dict__[self.name] = value
        return value


class FrameSymbols:
    """The moving-frame symbols at one time t over the frequencies ``eta``
    at x-wavenumber k and stratification rate beta.

    Each symbol is built on first use and then kept, read-only, so one
    instance serves every right-hand side stage, resolvent sweep and record
    made at that t, and a caller pays only for the symbols its path reads.
    """

    def __init__(self, t, k, eta, beta):
        self.t = t
        self.k = k
        self.eta = eta
        self.beta = beta

    @_symbol
    def d(self):
        """eta - k t."""
        return np.asarray(self.eta, dtype=float) - self.k * self.t

    @_symbol
    def p(self):
        """k^2 + (eta - k t)^2."""
        return self.k * self.k + self.d * self.d

    @_symbol
    def bl(self):
        """The stratification multiplier, from ``eval_bl``."""
        return eval_bl(self.t, self.k, self.eta, self.beta)

    @_symbol
    def couette_q(self):
        """-i k BL/p, the Theta coefficient of dQ/dt for Couette."""
        return -1j * self.k * self.bl / self.p

    @_symbol
    def couette_theta(self):
        """i k beta BL/p = -beta couette_q, the Theta coefficient of dTheta/dt
        for Couette."""
        return -self.beta * self.couette_q

    @_symbol
    def resolvent_d(self):
        """-i (eta - k t)/p, the symbol of (d_Y - t d_X) Delta_L^{-1}."""
        return -1j * self.d / self.p

    @_symbol
    def t_eps_g2(self):
        """-(eta - k t)^2/p, the inner multiplier of the g^2-1 part of T_eps."""
        return -(self.d * self.d) / self.p

    @_symbol
    def t_eps_b(self):
        """i (eta - k t)/p, the inner multiplier of the b part of T_eps."""
        return 1j * self.d / self.p


@dataclass(frozen=True)
class BlBoundReport:
    """Outcome of the four elementary bounds on the stratification multiplier.

    Each flag is the conjunction over all sampled frequencies passed in:

    * ``abs_bound``       |B| <= 1 + beta
    * ``imag_bound``      |Im B| <= beta / sqrt(p)
    * ``real_shift_bound``|Re(B - 1)| <= beta^2 / p
    * ``shift_bound``     |B - 1| <= (beta + beta^2) / sqrt(p)
    """

    abs_bound: bool
    imag_bound: bool
    real_shift_bound: bool
    shift_bound: bool

    def all_hold(self) -> bool:
        return self.abs_bound and self.imag_bound and self.real_shift_bound and self.shift_bound


def bl_bound_report(t, k, eta, beta) -> BlBoundReport:
    """Evaluate the four multiplier bounds at (t; k, eta), elementwise-conjoined."""
    bl = eval_bl(t, k, eta, beta)
    p = eval_p(t, k, eta)
    sp = np.sqrt(p)
    return BlBoundReport(
        abs_bound=bool(np.all(np.abs(bl) <= (1.0 + beta) * BOUND_SLACK)),
        imag_bound=bool(np.all(np.abs(bl.imag) <= beta / sp * BOUND_SLACK + 1e-300)),
        real_shift_bound=bool(np.all(np.abs(bl.real - 1.0) <= beta * beta / p * BOUND_SLACK + 1e-300)),
        shift_bound=bool(np.all(np.abs(bl - 1.0) <= (beta + beta * beta) / sp * BOUND_SLACK + 1e-300)),
    )
