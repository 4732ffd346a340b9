"""The paper's elementary lemmas on the multipliers and the weights, written
as checkable functions for the tests.

No run calls these: they state the multiplier bounds, the symbol derivative,
the arctan weight and the frequency-exchange inequalities that the energy
method rests on, so that the tests can sample them.  ``eval_p`` and
``bl_reference`` are also the symbols of the dense test references, written
apart from ``FrameSymbols`` and ``eval_bl`` so that they do not share the
code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stratshear.multipliers import FrameSymbols
from stratshear.weights import WeightSet

# Bound predicates are exact in real arithmetic; the slack absorbs double
# precision rounding so they never fail spuriously.
BOUND_SLACK = 1.0 + 1e-12


def eval_p(t, k, eta):
    """Symbol of the negative moving-frame Laplacian: k^2 + (eta - k t)^2.

    Always >= k^2 > 0, with equality exactly at t = eta/k.  The dense test
    references build p from it rather than from ``FrameSymbols``.
    """
    if k == 0:
        raise ValueError("x-wavenumber k must be nonzero (the k = 0 mode is conserved)")
    d = np.asarray(eta, dtype=float) - k * t
    return k * k + d * d


def bl_reference(t, k, eta, beta):
    """The stratification multiplier 1/(1 + i beta (eta - k t)/p) as one
    complex quotient, with p from ``eval_p``: the dense test references use
    it in place of ``eval_bl``, whose real-arithmetic parts it does not share.
    """
    d = np.asarray(eta, dtype=float) - k * t
    return 1.0 / (1.0 + 1j * beta * d / eval_p(t, k, eta))


def eval_p_prime(t, k, eta):
    """Time derivative of ``eval_p``: -2 k (eta - k t).

    Satisfies |p'| <= 2 |k| sqrt(p) everywhere.
    """
    if k == 0:
        raise ValueError("x-wavenumber k must be nonzero (the k = 0 mode is conserved)")
    d = np.asarray(eta, dtype=float) - k * t
    return -2.0 * k * d


def eval_m1(t, k, eta, c_beta):
    """Bounded arctan weight exp[c_beta (arctan(eta/k - t) - arctan(eta/k))].

    Equals 1 at t = 0, is nonincreasing in t and bounded below by
    exp(-pi c_beta).  Its logarithmic derivative is -c_beta k^2 / p.
    """
    eta = np.asarray(eta, dtype=float)
    return np.exp(c_beta * (np.arctan(eta / k - t) - np.arctan(eta / k)))


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
    """Evaluate the four multiplier bounds of ``FrameSymbols.bl`` at
    (t; k, eta), elementwise-conjoined."""
    bl = FrameSymbols(t, k, eta, beta).bl
    p = eval_p(t, k, eta)
    sp = np.sqrt(p)
    return BlBoundReport(
        abs_bound=bool(np.all(np.abs(bl) <= (1.0 + beta) * BOUND_SLACK)),
        imag_bound=bool(np.all(np.abs(bl.imag) <= beta / sp * BOUND_SLACK + 1e-300)),
        real_shift_bound=bool(np.all(np.abs(bl.real - 1.0) <= beta * beta / p * BOUND_SLACK + 1e-300)),
        shift_bound=bool(np.all(np.abs(bl - 1.0) <= (beta + beta * beta) / sp * BOUND_SLACK + 1e-300)),
    )


class ExchangeRatios(NamedTuple):
    """Left/right ratios of the three frequency-exchange inequalities."""

    ratio_p: np.ndarray
    ratio_p_prime: np.ndarray
    ratio_m: np.ndarray


def check_exchange(t, k, eta, xi, delta, c_beta=1.0):
    """Ratios LHS/RHS for exchanging the frequency eta against xi.

    The three inequalities moved across convolutions are

        1/p(eta)        <=  C <eta-xi>^2  / p(xi)
        (|p'|/p)(eta)   <=  C [ <eta-xi>^2 (|p'|/p)(xi) + |k| <eta-xi>^3 / p(xi) ]
        minv(eta)       <=  C <eta-xi>^delta  minv(xi)

    with <x> = sqrt(1 + x^2) and minv the inverse energy weight.  Each entry of
    the result is the ratio of the two sides, so a sampled supremum bounds the
    constant C empirically.  ``c_beta`` defaults to 1: the m-ratio is an
    exponential in c_beta and leaves double precision for run-sized constants.
    """
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    jap = np.sqrt(1.0 + (eta - xi) ** 2)
    p_eta = eval_p(t, k, eta)
    p_xi = eval_p(t, k, xi)

    ratio_p = p_xi / (jap**2 * p_eta)

    d_eta = eta - k * t
    d_xi = xi - k * t
    lhs_pp = 2.0 * abs(k) * np.abs(d_eta) / p_eta
    rhs_pp = jap**2 * 2.0 * abs(k) * np.abs(d_xi) / p_xi + abs(k) * jap**3 / p_xi
    ratio_pp = lhs_pp / rhs_pp

    weights = WeightSet(delta=delta, c_beta=c_beta)
    minv_eta = weights.energy_weight_inv(FrameSymbols(t, k, eta, 0.0))
    minv_xi = weights.energy_weight_inv(FrameSymbols(t, k, xi, 0.0))
    ratio_m = minv_eta / (jap**delta * minv_xi)

    return ExchangeRatios(ratio_p=ratio_p, ratio_p_prime=ratio_pp, ratio_m=ratio_m)
