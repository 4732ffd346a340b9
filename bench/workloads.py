"""Benchmark workloads and the seeded config generator.

Each workload is a fixed run shape (profile, resolution, horizon) plus
initial data and a bump centre drawn from the seed.  The seed moves only
``init.theta.*``, ``init.q.*`` and ``profile.y0``; every parameter that the
resolution preconditions or the dt margin depend on is fixed, so they hold
for every seed.  The program under test receives only the generated config.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0

# Seeded ranges.  With alpha >= 0.5 and |center| <= 2 the initial Gaussians
# have decayed below 1e-13 of their peak at |eta| = eta_max / 2 = 10, so the
# data stays well inside the grid.
CENTER_RANGE = (-2.0, 2.0)
ALPHA_RANGE = (0.5, 2.0)
AMPLITUDE_RANGE = (0.5, 2.0)
BUMP_CENTER_RANGE = (-1.0, 1.0)

_BUMP = {"profile.kind": "perturbed", "profile.a": 0.0018, "profile.sigma": 1.6,
         "weights.C0": 64.0, "solver.tol": 1e-10, "solver.max_iter": 50}

WORKLOADS = {
    "couette_pointwise": {
        "why": ("Couette R=1 beta=1 k=1 N=512 dt=0.01 t_max=100 record_every=10: "
                "pointwise rhs and heavy recording; the resolvents do no work, "
                "so resolvent changes must not move it"),
        "params": {"mode": "couette", "R": 1.0, "beta": 1.0, "k_list": [1],
                   "grid.eta_max": 20.0, "grid.N": 512, "time.t_max": 100.0,
                   "time.dt": 0.01, "time.record_every": 10},
    },
    "perturbed_nested": {
        "why": ("Bump a=0.0018 sigma=1.6, R=1 beta=1 k=1 N=256 dt=0.01 t_max=5 "
                "record_every=50: nested T_B(T_L) resolvent, about 40 matvecs per rhs"),
        "params": {"mode": "near_couette", "R": 1.0, "beta": 1.0, "k_list": [1],
                   "grid.eta_max": 20.0, "grid.N": 256, **_BUMP, "time.t_max": 5.0,
                   "time.dt": 0.01, "time.record_every": 50},
    },
    "perturbed_multik": {
        "why": ("Same bump, R=1 beta=0 k=1,2,3 N=512 dt=0.01 t_max=2 record_every=10: "
                "T_L only at the dense/FFT crossover size, spectrum re-sampled per k"),
        "params": {"mode": "near_couette", "R": 1.0, "beta": 0.0, "k_list": [1, 2, 3],
                   "grid.eta_max": 20.0, "grid.N": 512, **_BUMP, "time.t_max": 2.0,
                   "time.dt": 0.01, "time.record_every": 10},
    },
}


def check_preconditions(params):
    """Raise ValueError unless the run shape meets the CLI's preconditions."""
    kmax = max(abs(k) for k in params["k_list"])
    margin = params["time.dt"] * kmax * max(params["R"], 1.0 + params["beta"])
    if margin > 0.1:
        raise ValueError(f"dt margin {margin} above 0.1")
    if params.get("profile.kind") == "perturbed":
        deta = 2.0 * params["grid.eta_max"] / params["grid.N"]
        if params["profile.sigma"] * deta > 0.25:
            raise ValueError("sigma * deta above 1/4")
        if params["grid.eta_max"] * params["profile.sigma"] < 20.0:
            raise ValueError("eta_max * sigma below 20")


def seeded_params(name, seed):
    """Full parameter set of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    params = dict(WORKLOADS[name]["params"])
    for field in ("theta", "q"):
        params[f"init.{field}.amplitude"] = rng.uniform(*AMPLITUDE_RANGE)
        params[f"init.{field}.center"] = rng.uniform(*CENTER_RANGE)
        params[f"init.{field}.alpha"] = rng.uniform(*ALPHA_RANGE)
    if params.get("profile.kind") == "perturbed":
        params["profile.y0"] = rng.uniform(*BUMP_CENTER_RANGE)
    check_preconditions(params)
    return params


def config_text(params):
    """Render parameters as a CLI config file."""
    lines = []
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def expected_rows(params):
    """CSV data rows per k: every record_every-th step plus the last step."""
    n_steps = int(round(params["time.t_max"] / params["time.dt"]))
    every = params["time.record_every"]
    return n_steps // every + 1 + (1 if n_steps % every else 0)


def log_energy_envelope(params):
    """log of the energy-ratio envelope exp(4 pi (1+beta)^2 / (2 sqrt(R) - 1))."""
    return 4.0 * math.pi * (1.0 + params["beta"]) ** 2 / (2.0 * math.sqrt(params["R"]) - 1.0)
