"""Time-dependent Fourier multipliers of the moving-frame operators.

Everything here is a closed-form function of (t; k, eta) at a fixed nonzero
x-wavenumber k:

* ``FrameSymbols``  -- the symbols at one time t, or at a column of times,
                       that the right-hand sides, the resolvent sweeps, the
                       records and the energy weights share,
* ``eval_bl``       -- the stratification multiplier at a frame, reciprocal
                       of 1 + i beta (eta - k t) / p, with p = k^2 + (eta - k t)^2
                       the symbol of the negative sheared Laplacian.

A time enters only through a frame.  The symbols broadcast over numpy arrays
in ``eta`` (and ``t``); they are pure and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FrameSymbols",
    "eval_bl",
]


def eval_bl(sym):
    """Stratification multiplier at the frame ``sym``: reciprocal of
    1 + i beta d/p, with d = eta - k t and p read from the frame.

    Written with explicit real and imaginary parts,

        p^2 / (p^2 + beta^2 d^2)  -  i beta p d / (p^2 + beta^2 d^2),

    so the modulus obeys 1/sqrt(1 + beta^2) <= |value| <= 1.  For beta = 0 or
    t = eta/k the value is exactly 1.  Both parts are computed in real
    arithmetic and written into one complex result.
    """
    if sym.k == 0:
        raise ValueError("x-wavenumber k must be nonzero (the k = 0 mode is conserved)")
    beta = sym.beta
    if beta < 0:
        raise ValueError("stratification rate beta must be nonnegative")
    d, p = sym.d, sym.p
    pp = p * p
    den = pp + (beta * d) ** 2
    bl = np.empty(np.shape(den), dtype=complex)
    np.divide(pp, den, out=bl.real)
    np.divide(-beta * p * d, den, out=bl.imag)
    return bl[()]


class _symbol:
    """Build a FrameSymbols array on first access and keep it, read-only, in
    the instance; a row frame takes its row of the batch's array instead.
    functools.cached_property would do the same but takes a lock on every
    first access under Python 3.11, which costs more than an N = 1 symbol
    itself."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, sym, owner=None):
        if sym is None:
            return self
        if sym.batch is None:
            value = self.build(sym)
            if isinstance(value, np.ndarray):  # a scalar eta gives numpy scalars
                value.flags.writeable = False
        else:  # a view of a read-only row, itself read-only
            value = getattr(sym.batch, self.name)[sym.row]
        sym.__dict__[self.name] = value
        return value


class FrameSymbols:
    """The moving-frame symbols at time t over the frequencies ``eta`` at
    x-wavenumber k and stratification rate beta.

    Each symbol is built on first use and then kept, read-only, so one
    instance serves every right-hand side stage, resolvent sweep and record
    made at that t, and a caller pays only for the symbols its path reads.

    A column of times t, of shape (m, 1), makes a batch: each symbol has one
    row per time, and ``rows()`` hands out the frame of each time.  A symbol
    of a row frame is the row of the batch's symbol, which is built once, on
    first use, for every row.
    """

    batch = None  # the batch a row frame belongs to, and its row in it
    row = None

    def __init__(self, t, k, eta, beta):
        self.t = t
        self.k = k
        self.eta = eta
        self.beta = beta

    def rows(self):
        """The frame of each time of a batch, in order, with t a float."""
        frames = []
        for row, t in enumerate(self.t[:, 0].tolist()):
            frame = FrameSymbols(t, self.k, self.eta, self.beta)
            frame.batch = self
            frame.row = row
            frames.append(frame)
        return frames

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
        return eval_bl(self)

    @_symbol
    def couette_q(self):
        """-i k BL/p, the Theta coefficient of dQ/dt for Couette, in closed form

            -k (beta d + i p) / (p^2 + beta^2 d^2),      d = eta - k t,

        with both parts computed in real arithmetic from d and p, so the
        Couette right-hand side builds neither BL nor a complex quotient."""
        d, p = self.d, self.p
        den = p * p + (self.beta * d) ** 2
        value = np.empty(np.shape(den), dtype=complex)
        np.divide(-self.k * self.beta * d, den, out=value.real)
        np.divide(-self.k * p, den, out=value.imag)
        return value[()]

    @_symbol
    def couette_theta(self):
        """i k beta BL/p = -beta couette_q, the Theta coefficient of dTheta/dt
        for Couette."""
        return -self.beta * self.couette_q

    @_symbol
    def resolvent_d(self):
        """-i (eta - k t)/p, the symbol of (d_Y - t d_X) Delta_L^{-1}, and the
        negated inner multiplier of the b part of T_eps."""
        return -1j * self.d / self.p

    @_symbol
    def t_eps_g2(self):
        """-(eta - k t)^2/p, the inner multiplier of the g^2-1 part of T_eps."""
        return -(self.d * self.d) / self.p
