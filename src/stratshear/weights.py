"""Ghost weights for the energy method: w and m1, combined as w**delta / m1.

The decay-correction weight w solves  d(log w)/dt = |p'| / (4 p),  w(0) = 1.
The arctan weight m1 enters in its bounded closed form

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

import numpy as np

from .multipliers import eval_p

__all__ = [
    "WeightSet",
    "c_beta_constant",
    "energy_weight_inv",
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
