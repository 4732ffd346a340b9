"""Scenario runner: parse a run config, sweep wavenumbers, write series + summary.

Config format is flat ``key = value`` text with dotted section prefixes and
``#`` comments.  Exit codes: 0 success, 2 config error, 3 solver failure,
4 enabled acceptance assertion failed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .evolution import RawState, StepUnstable, dt_is_stable, evolve
from .observables import InsufficientWindow, fit_power_law
from .shear import GridResolutionError, build_profile, sample_spectrum
from .spectral_ops import FrequencyGrid, NonConvergence, SolveStats, SpectralField
from .weights import WeightSet

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

OUTPUT_DIR_ENV = "STRATSHEAR_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ASSERT = 4

CSV_HEADER = "t,E,E_lower,E_upper,q_norm,vx_norm,vy_norm,growth_norm,Es"
ES_MONOTONE_RTOL = 1e-6


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


@dataclass
class GaussianInit:
    amplitude: float = 1.0
    center: float = 0.0
    alpha: float = 1.0

    def sample(self, etas):
        return self.amplitude * np.exp(-self.alpha * (etas - self.center) ** 2)


@dataclass
class RunConfig:
    mode: str = ""
    R: float = 1.0
    beta: float = 0.0
    k_list: list = field(default_factory=lambda: [1])
    s: float = 0.0
    exploratory: bool = False

    grid_eta_max: float = 20.0
    grid_n: int = 256

    profile_kind: str = "couette"
    profile_a: float = 0.0
    profile_sigma: float = 1.0
    profile_y0: float = 0.0

    time_t_max: float = 100.0
    time_dt: float = 0.01
    time_record_every: int = 10

    weights_c0: float = 64.0

    solver_tol: float = 1e-10
    solver_max_iter: int = 50

    init_theta: GaussianInit = field(default_factory=lambda: GaussianInit(1.0, 0.0, 1.0))
    init_q: GaussianInit = field(default_factory=lambda: GaussianInit(1.0, 1.0, 0.5))

    output_dir: str = "out"

    fit_t_lo: Optional[float] = None  # unset: t_max / 10
    fit_t_hi: Optional[float] = None  # unset: t_max

    # acceptance assertions; evaluated only when --assert is passed
    assert_energy_ratio: bool = False
    assert_es_monotone: bool = False
    assert_exponent_q_min: float = math.nan
    assert_exponent_q_max: float = math.nan
    assert_exponent_vx_min: float = math.nan
    assert_exponent_vx_max: float = math.nan
    assert_exponent_vy_min: float = math.nan
    assert_exponent_vy_max: float = math.nan
    assert_exponent_growth_min: float = math.nan
    assert_exponent_growth_max: float = math.nan

    def fit_window(self):
        lo = self.time_t_max / 10.0 if self.fit_t_lo is None else self.fit_t_lo
        hi = self.time_t_max if self.fit_t_hi is None else self.fit_t_hi
        return lo, hi

    def validate(self):
        if self.mode not in ("couette", "near_couette"):
            raise ConfigError(f"mode must be couette or near_couette, got {self.mode!r}")
        if not self.k_list:
            raise ConfigError("k_list must not be empty")
        if len(set(self.k_list)) != len(self.k_list):
            raise ConfigError(f"k_list entries must be distinct, got {self.k_list}")
        for k in self.k_list:
            try:
                FrequencyGrid(k=k, eta_max=self.grid_eta_max, n=self.grid_n)
            except ValueError as exc:
                raise ConfigError(f"grid for k = {k}: {exc}") from None
        if self.R <= 0:
            raise ConfigError(f"R must be positive, got {self.R}")
        if self.R <= 0.25 and not self.exploratory:
            raise ConfigError(
                f"R = {self.R} is at or below the stability threshold 1/4; "
                "set exploratory = true to run it anyway"
            )
        if self.grid_n < 128 and not self.exploratory:
            raise ConfigError(
                f"grid.N = {self.grid_n} below the resolution floor 128; "
                "set exploratory = true to run it anyway"
            )
        if self.mode == "couette" and self.profile_kind != "couette":
            raise ConfigError("mode = couette requires profile.kind = couette")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if self.s < 0:
            raise ConfigError(f"s must be nonnegative, got {self.s}")
        if self.weights_c0 < 0:
            raise ConfigError(f"weights.C0 must be nonnegative, got {self.weights_c0}")
        kmax = max(abs(k) for k in self.k_list)
        if not dt_is_stable(self.time_dt, kmax, self.R, self.beta):
            raise ConfigError(
                f"time.dt = {self.time_dt} violates the stability margin "
                f"0 < dt * |k| * max(R, 1 + beta) <= 0.1 for k = {kmax}"
            )
        if self.time_t_max < self.time_dt:
            raise ConfigError(f"time.t_max = {self.time_t_max} is below time.dt = {self.time_dt}")
        if self.time_record_every <= 0:
            raise ConfigError("time.record_every must be positive")
        if not 0 < self.solver_tol < 1:
            raise ConfigError(f"solver.tol must lie in (0, 1), got {self.solver_tol}")
        if self.solver_max_iter < 1:
            raise ConfigError(f"solver.max_iter must be at least 1, got {self.solver_max_iter}")
        for init in (self.init_theta, self.init_q):
            if init.alpha <= 0:
                raise ConfigError(f"init alpha must be positive, got {init.alpha}")
        lo, hi = self.fit_window()
        if self.fit_t_lo is not None and lo < 1:
            raise ConfigError(f"fit.t_lo = {lo} is below 1")
        if (self.fit_t_lo is not None or self.fit_t_hi is not None) and not hi > lo:
            raise ConfigError(f"fit window [{lo}, {hi}] is empty")
        return self


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# dotted config key -> (RunConfig attribute path, converter)
_SCHEMA = {
    "mode": ("mode", str),
    "R": ("R", _parse_float),
    "beta": ("beta", _parse_float),
    "k_list": ("k_list", _parse_int_list),
    "s": ("s", _parse_float),
    "exploratory": ("exploratory", _parse_bool),
    "grid.eta_max": ("grid_eta_max", _parse_float),
    "grid.N": ("grid_n", int),
    "profile.kind": ("profile_kind", str),
    "profile.a": ("profile_a", _parse_float),
    "profile.sigma": ("profile_sigma", _parse_float),
    "profile.y0": ("profile_y0", _parse_float),
    "time.t_max": ("time_t_max", _parse_float),
    "time.dt": ("time_dt", _parse_float),
    "time.record_every": ("time_record_every", int),
    "weights.C0": ("weights_c0", _parse_float),
    "solver.tol": ("solver_tol", _parse_float),
    "solver.max_iter": ("solver_max_iter", int),
    "init.theta.amplitude": ("init_theta.amplitude", _parse_float),
    "init.theta.center": ("init_theta.center", _parse_float),
    "init.theta.alpha": ("init_theta.alpha", _parse_float),
    "init.q.amplitude": ("init_q.amplitude", _parse_float),
    "init.q.center": ("init_q.center", _parse_float),
    "init.q.alpha": ("init_q.alpha", _parse_float),
    "output.dir": ("output_dir", str),
    "fit.t_lo": ("fit_t_lo", _parse_float),
    "fit.t_hi": ("fit_t_hi", _parse_float),
    "assert.energy_ratio": ("assert_energy_ratio", _parse_bool),
    "assert.es_monotone": ("assert_es_monotone", _parse_bool),
    "assert.exponent_q.min": ("assert_exponent_q_min", _parse_float),
    "assert.exponent_q.max": ("assert_exponent_q_max", _parse_float),
    "assert.exponent_vx.min": ("assert_exponent_vx_min", _parse_float),
    "assert.exponent_vx.max": ("assert_exponent_vx_max", _parse_float),
    "assert.exponent_vy.min": ("assert_exponent_vy_min", _parse_float),
    "assert.exponent_vy.max": ("assert_exponent_vy_max", _parse_float),
    "assert.exponent_growth.min": ("assert_exponent_growth_min", _parse_float),
    "assert.exponent_growth.max": ("assert_exponent_growth_max", _parse_float),
}


def parse_config(text) -> RunConfig:
    """Parse flat key = value config text into a validated RunConfig."""
    cfg = RunConfig()
    seen_mode = False
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {rawline.strip()!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        attr, conv = _SCHEMA[key]
        try:
            value = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
        target = cfg
        parts = attr.split(".")
        for part in parts[:-1]:
            target = getattr(target, part)
        setattr(target, parts[-1], value)
        if key == "mode":
            seen_mode = True
    if not seen_mode:
        raise ConfigError("missing required key 'mode'")
    return cfg.validate()


def _fmt(x):
    return "%.17g" % x


def _safe_fit(series_times, values, lo, hi):
    vals = np.asarray(values)
    if np.any(~(vals > 0)):
        return None
    try:
        fit = fit_power_law(series_times, vals, lo, hi)
    except (InsufficientWindow, ValueError):
        return None
    return fit


def _es_monotone(es):
    es = np.asarray(es)
    if np.any(np.isnan(es)):
        return None
    return bool(np.all(es[1:] <= es[:-1] * (1.0 + ES_MONOTONE_RTOL) + 1e-300))


def _log_energy_envelope(R, beta):
    return 4.0 * math.pi * (1.0 + beta) ** 2 / (2.0 * math.sqrt(R) - 1.0)


def _run_single_k(cfg: RunConfig, spectrum, weights, k, out_dir: Path):
    """Evolve one wavenumber, write its CSV, return its summary block.

    ``spectrum`` is the run's profile spectrum, sampled once for all k, or
    None for Couette.
    """
    grid = FrequencyGrid(k=k, eta_max=cfg.grid_eta_max, n=cfg.grid_n)
    spec = None if spectrum is None else replace(spectrum, grid=grid)
    theta0 = SpectralField(grid, cfg.init_theta.sample(grid.etas).astype(complex))
    q0 = SpectralField(grid, cfg.init_q.sample(grid.etas).astype(complex))
    stats = SolveStats()

    report, _ = evolve(
        RawState(theta0, q0, 0.0),
        beta=cfg.beta, R=cfg.R, t_max=cfg.time_t_max, dt=cfg.time_dt,
        spec=spec, weights=weights, s=cfg.s,
        record_every=cfg.time_record_every,
        tol=cfg.solver_tol, max_iter=cfg.solver_max_iter, stats=stats,
    )

    lines = [CSV_HEADER]
    for i in range(report.times.size):
        lines.append(",".join(_fmt(v) for v in (
            report.times[i], report.energy[i], report.energy_lower[i],
            report.energy_upper[i], report.q_norm[i], report.vx_norm[i],
            report.vy_norm[i], report.growth_norm[i], report.energy_weighted[i],
        )))
    csv_path = out_dir / f"series_k{k}.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    lo, hi = cfg.fit_window()
    fits = {
        "exponent_q": _safe_fit(report.times, report.q_norm, lo, hi),
        "exponent_vx": _safe_fit(report.times, report.vx_norm, lo, hi),
        "exponent_vy": _safe_fit(report.times, report.vy_norm, lo, hi),
        "exponent_growth": _safe_fit(report.times, report.growth_norm, lo, hi),
    }
    block = {
        "k": k,
        "csv": csv_path.name,
        "energy_ratio_max": report.ratio_max,
        "energy_ratio_min": report.ratio_min,
        "Es_monotone": _es_monotone(report.energy_weighted),
        "solver": {
            "solves": stats.solves,
            "iterations_max": stats.iterations_max,
            "residual_max": stats.residual_max,
            "contraction_ratio_max": stats.ratio_max,
        },
    }
    for name, fit in fits.items():
        block[name] = None if fit is None else fit.exponent
        block[name + "_r2"] = None if fit is None else fit.r_squared
    return block


def _check_assertions(cfg: RunConfig, summary):
    failures = []
    if cfg.assert_energy_ratio and cfg.R <= 0.25:
        failures.append(f"energy ratio envelope needs R > 1/4, got R = {cfg.R}")
    elif cfg.assert_energy_ratio:
        log_env = _log_energy_envelope(cfg.R, cfg.beta)
        rmax, rmin = summary["energy_ratio_max"], summary["energy_ratio_min"]
        if not (rmax > 0 and math.log(rmax) <= log_env * (1 + 1e-9)):
            failures.append(f"energy ratio max {rmax} above envelope exp({log_env:.4g})")
        if not (rmin > 0 and math.log(rmin) >= -log_env * (1 + 1e-9)):
            failures.append(f"energy ratio min {rmin} below envelope exp(-{log_env:.4g})")
    if cfg.assert_es_monotone and summary["Es_monotone"] is not True:
        failures.append("weighted energy not monotone")
    for name in ("q", "vx", "vy", "growth"):
        lo = getattr(cfg, f"assert_exponent_{name}_min")
        hi = getattr(cfg, f"assert_exponent_{name}_max")
        if math.isnan(lo) and math.isnan(hi):
            continue
        value = summary[f"exponent_{name}"]
        if value is None:
            failures.append(f"exponent_{name} not fittable")
            continue
        if not math.isnan(lo) and value < lo:
            failures.append(f"exponent_{name} = {value:.4g} below {lo}")
        if not math.isnan(hi) and value > hi:
            failures.append(f"exponent_{name} = {value:.4g} above {hi}")
    return failures


def run(cfg: RunConfig, out_dir=None, enable_asserts=False, jobs=1) -> int:
    """Execute a validated config; write per-k CSVs and summary.json.

    Deterministic: identical configs reproduce byte-identical outputs.
    """
    try:
        profile = build_profile(cfg.profile_kind, a=cfg.profile_a, sigma=cfg.profile_sigma,
                                y0=cfg.profile_y0, s=cfg.s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    weights = None
    if cfg.R > 0.25:
        weights = WeightSet.for_run(cfg.R, cfg.beta, profile.epsilon, cfg.weights_c0)
    # the difference-lattice kernels depend on N and eta_max, not on k
    spectrum = None if profile.is_couette else sample_spectrum(
        profile, FrequencyGrid(k=cfg.k_list[0], eta_max=cfg.grid_eta_max, n=cfg.grid_n))

    if jobs > 1 and len(cfg.k_list) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_run_single_k,
                                   *zip(*[(cfg, spectrum, weights, k, out) for k in cfg.k_list])))
    else:
        blocks = [_run_single_k(cfg, spectrum, weights, k, out) for k in cfg.k_list]

    first = blocks[0]
    monotone_flags = [b["Es_monotone"] for b in blocks]
    summary = {
        "schema": "stratshear-run-v1",
        "mode": cfg.mode,
        "R": cfg.R,
        "beta": cfg.beta,
        "s": cfg.s,
        "k_list": list(cfg.k_list),
        "epsilon_measured": profile.epsilon,
        "epsilon_velocity": profile.epsilon_velocity,
        "delta_used": (weights.delta if weights is not None else 0.0),
        "exponent_q": first["exponent_q"],
        "exponent_vx": first["exponent_vx"],
        "exponent_vy": first["exponent_vy"],
        "exponent_growth": first["exponent_growth"],
        "energy_ratio_max": max(b["energy_ratio_max"] for b in blocks),
        "energy_ratio_min": min(b["energy_ratio_min"] for b in blocks),
        "Es_monotone": (None if any(m is None for m in monotone_flags)
                        else all(monotone_flags)),
        "seed": None,  # no seed exists; bench/gate.py matches keys with bench/reference/
        "runs": blocks,
    }

    failures = _check_assertions(cfg, summary) if enable_asserts else []
    summary["assertions_checked"] = bool(enable_asserts)
    summary["assertion_failures"] = failures

    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return EXIT_ASSERT if failures else EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="stratshear",
        description="Run stratified-shear inviscid damping scenarios from a config file",
    )
    ap.add_argument("--config", required=True, help="path to a key = value config file")
    ap.add_argument("--out", default=None, help="output directory (overrides config and env)")
    ap.add_argument("--assert", dest="enable_asserts", action="store_true",
                    help="evaluate acceptance assertions from the config; exit 4 on failure")
    ap.add_argument("--jobs", type=int, default=1, help="parallel workers across k_list")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    try:
        return run(cfg, out_dir, enable_asserts=args.enable_asserts, jobs=args.jobs)
    except (NonConvergence, StepUnstable) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, GridResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
