"""Scenario runner: parse a run config, sweep wavenumbers, write series + summary.

Config format is flat ``key = value`` text with dotted section prefixes and
``#`` comments.  Exit codes: 0 success, 2 config error, 3 solver failure,
4 enabled acceptance assertion failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .evolution import StepUnstable, dt_is_stable, evolve
from .observables import InsufficientWindow, fit_power_law
from .shear import GridResolutionError, build_profile, sample_spectrum
from .spectral_ops import FrequencyGrid, NonConvergence
from .weights import WeightSet

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

OUTPUT_DIR_ENV = "STRATSHEAR_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ASSERT = 4

CSV_HEADER = "t,E,E_lower,E_upper,q_norm,vx_norm,vy_norm,growth_norm,Es"
ES_MONOTONE_RTOL = 1e-6
# the problem is linear, so scale carries no physics; at 1e100 the squared
# energies of a 100-time-unit N = 512 run still fit a double
MAX_INIT_AMPLITUDE = 1e100
# the damped functional scales energy densities by (1 + k^2 + eta^2)^s; for
# densities of the size MAX_INIT_AMPLITUDE^2 the product fits a double while
# the log of that factor stays below this
MAX_LOG_SOBOLEV_FACTOR = math.log(sys.float_info.max / MAX_INIT_AMPLITUDE**2)


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


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


def _key(key, parse, default):
    """A RunConfig field set by the config key ``key``, whose raw text
    ``parse`` converts."""
    meta = {"key": key, "parse": parse}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    mode: str = _key("mode", str, "")
    R: float = _key("R", _parse_float, 1.0)
    beta: float = _key("beta", _parse_float, 0.0)
    k_list: list = _key("k_list", _parse_int_list, [1])
    s: float = _key("s", _parse_float, 0.0)
    exploratory: bool = _key("exploratory", _parse_bool, False)

    grid_eta_max: float = _key("grid.eta_max", _parse_float, 20.0)
    grid_n: int = _key("grid.N", int, 256)

    profile_kind: str = _key("profile.kind", str, "couette")
    profile_a: float = _key("profile.a", _parse_float, 0.0)
    profile_sigma: float = _key("profile.sigma", _parse_float, 1.0)
    profile_y0: float = _key("profile.y0", _parse_float, 0.0)

    time_t_max: float = _key("time.t_max", _parse_float, 100.0)
    time_dt: float = _key("time.dt", _parse_float, 0.01)
    time_record_every: int = _key("time.record_every", int, 10)

    weights_c0: float = _key("weights.C0", _parse_float, 64.0)

    solver_tol: float = _key("solver.tol", _parse_float, 1e-10)
    solver_max_iter: int = _key("solver.max_iter", int, 50)

    # Gaussian initial data amplitude * exp(-alpha (eta - center)^2)
    init_theta_amplitude: float = _key("init.theta.amplitude", _parse_float, 1.0)
    init_theta_center: float = _key("init.theta.center", _parse_float, 0.0)
    init_theta_alpha: float = _key("init.theta.alpha", _parse_float, 1.0)
    init_q_amplitude: float = _key("init.q.amplitude", _parse_float, 1.0)
    init_q_center: float = _key("init.q.center", _parse_float, 1.0)
    init_q_alpha: float = _key("init.q.alpha", _parse_float, 0.5)

    output_dir: str = _key("output.dir", str, "out")

    fit_t_lo: Optional[float] = _key("fit.t_lo", _parse_float, None)  # unset: t_max / 10
    fit_t_hi: Optional[float] = _key("fit.t_hi", _parse_float, None)  # unset: t_max

    # acceptance assertions; evaluated only when --assert is passed
    assert_energy_ratio: bool = _key("assert.energy_ratio", _parse_bool, False)
    assert_es_monotone: bool = _key("assert.es_monotone", _parse_bool, False)
    assert_exponent_q_min: float = _key("assert.exponent_q.min", _parse_float, math.nan)
    assert_exponent_q_max: float = _key("assert.exponent_q.max", _parse_float, math.nan)
    assert_exponent_vx_min: float = _key("assert.exponent_vx.min", _parse_float, math.nan)
    assert_exponent_vx_max: float = _key("assert.exponent_vx.max", _parse_float, math.nan)
    assert_exponent_vy_min: float = _key("assert.exponent_vy.min", _parse_float, math.nan)
    assert_exponent_vy_max: float = _key("assert.exponent_vy.max", _parse_float, math.nan)
    assert_exponent_growth_min: float = _key("assert.exponent_growth.min", _parse_float,
                                             math.nan)
    assert_exponent_growth_max: float = _key("assert.exponent_growth.max", _parse_float,
                                             math.nan)

    def initial_data(self, etas):
        """The Gaussian initial data (Theta, Q) sampled at ``etas``, as complex
        arrays: the dtype ``evolve`` steps, which then takes them without a copy."""
        gaussians = ((self.init_theta_amplitude, self.init_theta_center, self.init_theta_alpha),
                     (self.init_q_amplitude, self.init_q_center, self.init_q_alpha))
        with np.errstate(over="ignore"):  # an exponent overflowing to -inf gives exp = 0
            return tuple((amplitude * np.exp(-alpha * (etas - center) ** 2)).astype(complex)
                         for amplitude, center, alpha in gaussians)

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
        if self.profile_kind == "couette" and self.profile_a != 0:
            raise ConfigError(
                f"profile.a = {self.profile_a} sets a bump, which profile.kind = couette "
                "ignores; set profile.kind = perturbed"
            )
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if not self.s >= 0:
            raise ConfigError(f"s must be nonnegative, got {self.s}")
        if self.weights_c0 < 0:
            raise ConfigError(f"weights.C0 must be nonnegative, got {self.weights_c0}")
        kmax = max(abs(k) for k in self.k_list)
        if not dt_is_stable(self.time_dt, kmax, self.R, self.beta):
            raise ConfigError(
                f"time.dt = {self.time_dt} violates the stability margin "
                f"0 < dt * |k| * max(R, 1 + beta) <= 0.1 for k = {kmax}"
            )
        log_bracket = math.log1p(kmax**2 + self.grid_eta_max**2)
        if self.s * log_bracket > MAX_LOG_SOBOLEV_FACTOR:
            raise ConfigError(
                f"s = {self.s} makes the Sobolev factor (1 + k^2 + eta_max^2)^s overflow "
                f"energy densities up to {MAX_INIT_AMPLITUDE:g}^2; on this grid s must be "
                f"at most {MAX_LOG_SOBOLEV_FACTOR / log_bracket:.4g}"
            )
        if self.time_t_max < self.time_dt:
            raise ConfigError(f"time.t_max = {self.time_t_max} is below time.dt = {self.time_dt}")
        if self.time_record_every <= 0:
            raise ConfigError("time.record_every must be positive")
        if not 0 < self.solver_tol < 1:
            raise ConfigError(f"solver.tol must lie in (0, 1), got {self.solver_tol}")
        if self.solver_max_iter < 1:
            raise ConfigError(f"solver.max_iter must be at least 1, got {self.solver_max_iter}")
        for name in ("theta", "q"):
            alpha = getattr(self, f"init_{name}_alpha")
            amplitude = getattr(self, f"init_{name}_amplitude")
            if alpha <= 0:
                raise ConfigError(f"init alpha must be positive, got {alpha}")
            if abs(amplitude) > MAX_INIT_AMPLITUDE:
                raise ConfigError(
                    f"|init.{name}.amplitude| = {abs(amplitude):g} is above "
                    f"{MAX_INIT_AMPLITUDE:g}; the problem is linear, so scale the data down"
                )
        etas = FrequencyGrid(k=self.k_list[0], eta_max=self.grid_eta_max, n=self.grid_n).etas
        if not any(np.any(x) for x in self.initial_data(etas)):
            raise ConfigError("initial data are identically zero on the grid")
        lo, hi = self.fit_window()
        if self.fit_t_lo is not None and lo < 1:
            raise ConfigError(f"fit.t_lo = {lo} is below 1")
        if (self.fit_t_lo is not None or self.fit_t_hi is not None) and not hi > lo:
            raise ConfigError(f"fit window [{lo}, {hi}] is empty")
        return self


# config key -> (RunConfig attribute, parser)
_SCHEMA = {f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(RunConfig)}


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
        attr, parse = _SCHEMA[key]
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
        setattr(cfg, attr, value)
        if key == "mode":
            seen_mode = True
    if not seen_mode:
        raise ConfigError("missing required key 'mode'")
    return cfg.validate()


def _fmt(x):
    return "%.17g" % x


def _safe_fit(series_times, values, lo, hi):
    """The power-law fit of a series on [lo, hi], or None where the window
    holds too few samples or a value that is not positive."""
    try:
        return fit_power_law(series_times, values, lo, hi)
    except (InsufficientWindow, ValueError):
        return None


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
    report, _, _ = evolve(
        grid, *cfg.initial_data(grid.etas),
        beta=cfg.beta, R=cfg.R, t_max=cfg.time_t_max, dt=cfg.time_dt,
        spec=spectrum, weights=weights, record_every=cfg.time_record_every,
        tol=cfg.solver_tol, max_iter=cfg.solver_max_iter,
    )

    csv_path = out_dir / f"series_k{k}.csv"
    with open(csv_path, "w") as f:  # row by row: no string of the whole file
        f.write(CSV_HEADER + "\n")
        for i in range(report.times.size):
            f.write(",".join(_fmt(v) for v in (
                report.times[i], report.energy[i], report.energy_lower[i],
                report.energy_upper[i], report.q_norm[i], report.vx_norm[i],
                report.vy_norm[i], report.growth_norm[i], report.energy_weighted[i],
            )) + "\n")

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
        "solver": asdict(report.solver),
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
        weights = WeightSet.for_run(cfg.R, cfg.beta, profile.epsilon, cfg.weights_c0, s=cfg.s)
    # one spectrum serves every k (its kernels depend on N and eta_max); None for Couette
    spectrum = sample_spectrum(
        profile, FrequencyGrid(k=cfg.k_list[0], eta_max=cfg.grid_eta_max, n=cfg.grid_n))

    run_k = functools.partial(_run_single_k, cfg, spectrum, weights, out_dir=out)
    # a dense spectrum's run steps in-process: spectral_ops notes why, at the crossover
    if jobs > 1 and len(cfg.k_list) > 1 and not (spectrum is not None and spectrum.dense):
        # no more workers than wavenumbers: a pool started by fork forks
        # every worker at its first submit, whether it gets work or not
        workers = min(jobs, len(cfg.k_list))
        # imported here, so that a run without a pool does not pay its 5 ms of
        # import time and 0.2-0.4 MB of RSS
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run_k, cfg.k_list))
    else:
        blocks = list(map(run_k, cfg.k_list))

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
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
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
    except (ConfigError, GridResolutionError, OSError) as exc:  # OSError: an unusable --out
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
