"""Ghost weights for the energy method: w and m1, combined as w**delta / m1.

The decay-correction weight w solves  d(log w)/dt = |p'| / (4 p),  w(0) = 1.
The arctan weight m1 is returned in its bounded closed form

    m1(t; k, eta) = exp[ C (arctan(eta/k - t) - arctan(eta/k)) ],

which is nonincreasing in t and lies in (exp(-pi C), 1].  Its reciprocal
solves the growth rate  (d/dt) log = C k^2 / p  with value 1 at t = 0; the
energy functional consumes that reciprocal through
``energy_weight_inv`` so the combined weight is increasing, as the
artificial-damping mechanism requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .multipliers import eval_p

__all__ = [
    "ExchangeRatios",
    "WeightSet",
    "c_beta_constant",
    "check_exchange",
    "energy_weight_inv",
    "eval_m1",
    "eval_w",
]


def c_beta_constant(R, beta):
    """Damping-rate constant 256 sqrt(R) (2 sqrt(R)/(2 sqrt(R)-1)) (1+beta^2).

    Defined only above the coercivity threshold R > 1/4; blows up as R -> 1/4.
    """
    if R <= 0.25:
        raise ValueError(f"damping constant requires R > 1/4, got R = {R}")
    sr = math.sqrt(R)
    return 256.0 * sr * (2.0 * sr / (2.0 * sr - 1.0)) * (1.0 + beta * beta)


def eval_w(t, k, eta):
    """Decay-correction weight: w(0) = 1 and d(log w)/dt = |p'|/(4p).

    For eta/k > 0 the symbol first decreases as ((k^2+eta^2)/p)^(1/4) until the
    critical time t = eta/k, then grows as ((k^2+eta^2) p / k^4)^(1/4).  For
    eta/k <= 0 there is no decay phase at t >= 0 and w = (p/(k^2+eta^2))^(1/4).
    Always >= 1 at t >= 0, continuous across the critical time.
    """
    eta = np.asarray(eta, dtype=float)
    p = eval_p(t, k, eta)
    p0 = k * k + eta * eta
    tc = eta / k
    past = (p0 * p / k**4) ** 0.25
    pre = (p0 / p) ** 0.25
    grow = (p / p0) ** 0.25
    return np.where(tc > 0, np.where(np.less(t, tc), pre, past), grow)


def eval_m1(t, k, eta, c_beta):
    """Bounded arctan weight exp[c_beta (arctan(eta/k - t) - arctan(eta/k))].

    Equals 1 at t = 0, is nonincreasing in t and bounded below by
    exp(-pi c_beta).  Its logarithmic derivative is -c_beta k^2 / p.
    """
    eta = np.asarray(eta, dtype=float)
    return np.exp(c_beta * (np.arctan(eta / k - t) - np.arctan(eta / k)))


def energy_weight_inv(t, k, eta, delta, c_beta):
    """Reciprocal of the increasing weight (1/m1) * w**delta scaling Z1, Z2.

    Computed as a single exponential of a nonpositive exponent, hence always
    <= 1: saturation underflows gracefully to 0 instead of overflowing.
    """
    eta = np.asarray(eta, dtype=float)
    logw = np.log(eval_w(t, k, eta))
    expo = c_beta * (np.arctan(eta / k - t) - np.arctan(eta / k)) - delta * logw
    return np.exp(expo)


@dataclass(frozen=True)
class WeightSet:
    """Weight parameters of one run: stratification beta, buoyancy R,
    decay-loss exponent delta = C0 * epsilon, and the damping constant."""

    beta: float
    R: float
    delta: float
    C0: float
    c_beta: float

    @classmethod
    def for_run(cls, R, beta, epsilon, C0=64.0):
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        return cls(beta=beta, R=R, delta=C0 * epsilon, C0=C0,
                   c_beta=c_beta_constant(R, beta))

    def energy_weight_inv(self, t, k, eta):
        return energy_weight_inv(t, k, eta, self.delta, self.c_beta)


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

    minv_eta = energy_weight_inv(t, k, eta, delta, c_beta)
    minv_xi = energy_weight_inv(t, k, xi, delta, c_beta)
    ratio_m = minv_eta / (jap**delta * minv_xi)

    return ExchangeRatios(ratio_p=ratio_p, ratio_p_prime=ratio_pp, ratio_m=ratio_m)
