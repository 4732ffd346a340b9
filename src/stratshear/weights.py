"""Ghost weights for the energy method: w and m1, combined as w**delta / m1.

The decay-correction weight w solves  d(log w)/dt = |p'| / (4 p),  w(0) = 1.
The arctan weight m1 enters in its bounded closed form

    m1(t; k, eta) = exp[ C (arctan(eta/k - t) - arctan(eta/k)) ],

which is nonincreasing in t and lies in (exp(-pi C), 1].  Its reciprocal
solves the growth rate  (d/dt) log = C k^2 / p  with value 1 at t = 0; the
energy functional consumes that reciprocal through
``WeightSet.energy_weight_inv`` so the combined weight is increasing, as the
artificial-damping mechanism requires.  Both are evaluated at the
``FrameSymbols`` of their time; w reads p = k^2 + (eta - k t)^2 from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightSet",
    "c_beta_constant",
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


def eval_w(sym):
    """Decay-correction weight at the frame ``sym``: w(0) = 1 and
    d(log w)/dt = |p'|/(4p), with p read from the frame.

    For eta/k > 0 the symbol first decreases as ((k^2+eta^2)/p)^(1/4) until the
    critical time t = eta/k, then grows as ((k^2+eta^2) p / k^4)^(1/4).  For
    eta/k <= 0 there is no decay phase at t >= 0 and w = (p/(k^2+eta^2))^(1/4).
    Always >= 1 at t >= 0, continuous across the critical time.
    """
    t, k = sym.t, sym.k
    eta = np.asarray(sym.eta, dtype=float)
    p = sym.p
    p0 = k * k + eta * eta
    tc = eta / k
    past = (p0 * p / k**4) ** 0.25
    pre = (p0 / p) ** 0.25
    grow = (p / p0) ** 0.25
    return np.where(tc > 0, np.where(np.less(t, tc), pre, past), grow)


@dataclass(frozen=True)
class WeightSet:
    """Weight parameters of one run: the decay-loss exponent delta = C0 *
    epsilon, the damping constant c_beta and the Sobolev order s of the
    damped functional's factor <(k, eta)>^{2s}."""

    delta: float
    c_beta: float
    s: float = 0.0

    @classmethod
    def for_run(cls, R, beta, epsilon, C0=64.0, s=0.0):
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        return cls(delta=C0 * epsilon, c_beta=c_beta_constant(R, beta), s=s)

    def energy_weight_inv(self, sym):
        """Reciprocal of the increasing weight (1/m1) * w**delta scaling Z1, Z2
        at the frame ``sym``.

        Computed as a single exponential of a nonpositive exponent, hence
        always <= 1: saturation underflows gracefully to 0 instead of
        overflowing.
        """
        t, k = sym.t, sym.k
        eta = np.asarray(sym.eta, dtype=float)
        logw = np.log(eval_w(sym))
        expo = self.c_beta * (np.arctan(eta / k - t) - np.arctan(eta / k)) - self.delta * logw
        return np.exp(expo)
