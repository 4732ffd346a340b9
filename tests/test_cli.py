import concurrent.futures
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import stratshear.cli
from stratshear.cli import (
    EXIT_ASSERT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    _SCHEMA,
    ConfigError,
    RunConfig,
    main,
    parse_config,
)
from stratshear.observables import fit_power_law

SMOKE = """
# smoke configuration
mode = couette
R = 1.0
beta = 0.0
k_list = 1
grid.eta_max = 20.0
grid.N = 256
time.t_max = 100.0
time.dt = 0.01
time.record_every = 10
"""

SUMMARY_FIELDS = (
    "exponent_q", "exponent_vx", "exponent_vy", "exponent_growth",
    "energy_ratio_max", "energy_ratio_min", "Es_monotone",
    "epsilon_measured", "delta_used",
)


def read_summary(out):
    """summary.json of a run, parsed as strict JSON: NaN and Infinity raise."""

    def reject(constant):
        raise ValueError(f"summary.json holds {constant}, which is not valid JSON")

    return json.loads((Path(out) / "summary.json").read_text(), parse_constant=reject)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_rejects_empty_k_list():
    with pytest.raises(ConfigError, match="k_list"):
        parse_config("mode = couette\nk_list =\n")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("mode = couette\nR = 1.0\nbogus.key = 2\n")


def test_parse_rejects_low_r_without_exploratory():
    with pytest.raises(ConfigError, match="threshold"):
        parse_config("mode = couette\nR = 0.2\n")
    cfg = parse_config("mode = couette\nR = 0.2\nexploratory = true\n")
    assert cfg.R == 0.2


def test_parse_rejects_couette_mode_with_bump():
    with pytest.raises(ConfigError, match="profile.kind"):
        parse_config("mode = couette\nprofile.kind = perturbed\n")
    # profile.kind defaults to couette, which ran Couette and ignored the bump
    with pytest.raises(ConfigError, match="profile.kind"):
        parse_config("mode = near_couette\nprofile.a = 0.0018\n")


def test_parse_rejects_unstable_dt():
    with pytest.raises(ConfigError, match="stability"):
        parse_config("mode = couette\nR = 4.0\nk_list = 2\ntime.dt = 0.05\n")


def test_parse_rejects_coarse_grid_without_exploratory():
    with pytest.raises(ConfigError, match="floor"):
        parse_config("mode = couette\ngrid.N = 64\n")
    cfg = parse_config("mode = couette\ngrid.N = 64\nexploratory = true\n")
    assert cfg.grid_n == 64


def test_parse_init_overrides():
    cfg = parse_config(
        "mode = couette\n"
        "init.theta.amplitude = 2.0\ninit.theta.center = -1.0\ninit.theta.alpha = 0.25\n"
        "init.q.amplitude = 0.0\n"
    )
    import numpy as np

    etas = np.array([-1.0, 0.0])
    theta0, q0 = cfg.initial_data(etas)
    assert theta0[0] == pytest.approx(2.0)
    assert theta0[1] == pytest.approx(2.0 * np.exp(-0.25))
    assert not np.any(q0)


# a valid, non-default value of every key: raw text and the value it parses to
NON_DEFAULT = {
    "mode": ("near_couette", "near_couette"),
    "R": ("2.0", 2.0),
    "beta": ("0.5", 0.5),
    "k_list": ("2, 3", [2, 3]),
    "s": ("0.5", 0.5),
    "exploratory": ("true", True),
    "grid.eta_max": ("18.0", 18.0),
    "grid.N": ("192", 192),
    "profile.kind": ("perturbed", "perturbed"),
    "profile.a": ("0.001", 0.001),
    "profile.sigma": ("1.5", 1.5),
    "profile.y0": ("0.25", 0.25),
    "time.t_max": ("50.0", 50.0),
    "time.dt": ("0.005", 0.005),
    "time.record_every": ("5", 5),
    "weights.C0": ("32.0", 32.0),
    "solver.tol": ("1e-9", 1e-9),
    "solver.max_iter": ("40", 40),
    "init.theta.amplitude": ("2.0", 2.0),
    "init.theta.center": ("0.5", 0.5),
    "init.theta.alpha": ("1.5", 1.5),
    "init.q.amplitude": ("0.5", 0.5),
    "init.q.center": ("-1.0", -1.0),
    "init.q.alpha": ("0.75", 0.75),
    "output.dir": ("elsewhere", "elsewhere"),
    "fit.t_lo": ("5.0", 5.0),
    "fit.t_hi": ("40.0", 40.0),
    "assert.energy_ratio": ("true", True),
    "assert.es_monotone": ("true", True),
    **{f"assert.exponent_{name}.{end}": (raw, float(raw))
       for name in ("q", "vx", "vy", "growth") for end, raw in (("min", "-3.0"), ("max", "2.0"))},
}


def test_every_key_round_trips():
    assert sorted(attr for attr, _ in _SCHEMA.values()) == sorted(f.name for f in fields(RunConfig))
    assert set(NON_DEFAULT) == set(_SCHEMA)
    cfg = parse_config("".join(f"{key} = {raw}\n" for key, (raw, _) in NON_DEFAULT.items()))
    default = RunConfig()
    for key, (_, value) in NON_DEFAULT.items():
        attr = _SCHEMA[key][0]
        got = getattr(cfg, attr)
        assert type(got) is type(value) and got == value, key
        assert got != getattr(default, attr), key


def _expand_key_group(pattern):
    """The keys a README table entry names: ``{a,b}`` alternatives expanded,
    and a trailing ``.*`` matched against the schema (at least one key)."""
    brace = re.search(r"\{([^}]*)\}", pattern)
    if brace is not None:
        return [key for alt in brace.group(1).split(",")
                for key in _expand_key_group(pattern[:brace.start()] + alt + pattern[brace.end():])]
    if pattern.endswith(".*"):
        keys = [key for key in _SCHEMA if key.startswith(pattern[:-1])]
        assert keys, pattern
        return keys
    return [pattern]


def test_readme_configuration_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration format", 1)[1].split("\n### ", 1)[0]
    named = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 2 and "`" in cells[1]:
            for pattern in re.findall(r"`([^`]+)`", cells[1]):
                named += _expand_key_group(pattern)
    assert sorted(named) == sorted(_SCHEMA)


def test_smoke_run_under_ten_seconds(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    started = time.time()
    code = main(["--config", str(cfg), "--out", str(out)])
    elapsed = time.time() - started
    assert code == EXIT_OK
    assert elapsed < 10.0
    assert (out / "series_k1.csv").exists()
    read_summary(out)


def test_csv_schema_and_summary_fields(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header = (out / "series_k1.csv").read_text().splitlines()[0]
    assert header == "t,E,E_lower,E_upper,q_norm,vx_norm,vy_norm,growth_norm,Es"
    summary = read_summary(out)
    for field in SUMMARY_FIELDS:
        assert field in summary
    assert summary["runs"][0]["k"] == 1


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "series_k1.csv").read_bytes() == (out2 / "series_k1.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_malformed_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, "mode = couette\nthis is not a key value line\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    missing = tmp_path / "nope.cfg"
    assert main(["--config", str(missing), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_non_contractive_profile_exits_3(tmp_path, capsys):
    text = """
mode = near_couette
R = 1.0
beta = 0.0
k_list = 1
grid.eta_max = 16.0
grid.N = 256
profile.kind = perturbed
profile.a = 1.9
profile.sigma = 2.0
time.t_max = 2.0
time.dt = 0.01
solver.max_iter = 40
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "k = 1" in err


def test_solver_failure_in_a_pool_worker_exits_3(tmp_path, capsys):
    # the worker's NonConvergence could not be unpickled in the parent, so
    # the pool broke and the run ended in a traceback and exit 1
    text = (Path(__file__).resolve().parents[1] / "configs" / "near_couette.cfg").read_text()
    cfg = write_config(tmp_path, text + "profile.a = 0.8\nk_list = 1, 2\ngrid.N = 512\n"
                                        "time.t_max = 1.0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "2"]) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure: ")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
def test_unusable_output_directory_exits_2_with_one_line(tmp_path, capsys, below):
    # a regular file as --out, or as its parent, raised from mkdir: a traceback and exit 1
    cfg = write_config(tmp_path, SMOKE.replace("time.t_max = 100.0", "time.t_max = 0.05"))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--config", str(cfg), "--out", str(blocker / below)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_assertion_failure_exits_4(tmp_path):
    text = SMOKE + "assert.exponent_q.min = 5.0\nassert.exponent_q.max = 6.0\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    # without --assert the run succeeds and only reports
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert main(["--config", str(cfg), "--out", str(out), "--assert"]) == EXIT_ASSERT
    assert read_summary(out)["assertion_failures"]


def test_env_var_output_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SMOKE.replace("time.t_max = 100.0", "time.t_max = 5.0"))
    target = tmp_path / "env_out"
    monkeypatch.setenv("STRATSHEAR_OUT", str(target))
    assert main(["--config", str(cfg)]) == EXIT_OK
    read_summary(target)


BUMP = """
mode = near_couette
R = 1.0
beta = 1.0
k_list = 1
grid.eta_max = 20.0
grid.N = 256
profile.kind = perturbed
profile.a = 0.0018
profile.sigma = 1.6
time.t_max = 0.05
time.dt = 0.01
time.record_every = 1
"""

PARALLEL_INPUTS = {
    "couette": SMOKE.replace("k_list = 1", "k_list = 1, 2").replace("time.t_max = 100.0",
                                                                   "time.t_max = 5.0"),
    # dense matvecs below DIRECT_CONVOLUTION_N: steps in-process
    "perturbed": BUMP.replace("k_list = 1", "k_list = 1, 2").replace("time.t_max = 0.05",
                                                                    "time.t_max = 0.2"),
    # the shared profile spectrum is pickled to the workers
    "perturbed_direct": BUMP.replace("k_list = 1", "k_list = 1, 2")
                            .replace("grid.N = 256", "grid.N = 512")
                            .replace("time.t_max = 0.05", "time.t_max = 0.2"),
}


@pytest.mark.parametrize("text", PARALLEL_INPUTS.values(), ids=PARALLEL_INPUTS.keys())
def test_parallel_jobs_match_serial(tmp_path, text):
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == EXIT_OK
    for name in ("series_k1.csv", "series_k2.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2_with_one_line(tmp_path, capsys, jobs):
    # --jobs -3 used to be accepted and run serially
    cfg = write_config(tmp_path, SMOKE.replace("time.t_max = 100.0", "time.t_max = 0.05"))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and jobs in err[0]
    assert not out.exists()


def test_jobs_start_no_more_workers_than_wavenumbers(tmp_path, monkeypatch):
    # a pool started by fork forks all max_workers processes at its first
    # submit; this pool records max_workers and maps serially, so no process
    # is started
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = write_config(tmp_path, PARALLEL_INPUTS["couette"].replace("time.t_max = 5.0",
                                                                    "time.t_max = 0.05"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "64"]) == EXIT_OK
    assert requested == [2]


def test_dense_perturbed_run_starts_no_pool(tmp_path, monkeypatch):
    # below DIRECT_CONVOLUTION_N the matvecs are BLAS products that use every
    # core already; pool workers that each drove them ran slower than one process
    cfg = write_config(tmp_path, PARALLEL_INPUTS["perturbed"])
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["--config", str(cfg), "--out", str(out1)]) == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started for a dense run")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert main(["--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == EXIT_OK
    for name in ("series_k1.csv", "series_k2.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_couette_smoke_fits_without_lapack(tmp_path, monkeypatch):
    # the CLI fits its exponents in closed form: a first LAPACK call would
    # page in about 1 MB of library code after the run's arrays are freed
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "couette_smoke.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = read_summary(tmp_path)
    assert all(summary[f"exponent_{name}"] is not None for name in ("q", "vx", "vy", "growth"))


def test_spectrum_is_sampled_once_per_run(tmp_path, monkeypatch):
    calls = []
    real = stratshear.cli.sample_spectrum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stratshear.cli, "sample_spectrum", counting)
    cfg = write_config(tmp_path, BUMP.replace("k_list = 1", "k_list = 1, 2, 3")
                       .replace("time.t_max = 0.05", "time.t_max = 0.02"))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1
    for k in (1, 2, 3):
        assert (out / f"series_k{k}.csv").exists()


def run_python(code):
    """Standard output, stripped, of a fresh interpreter running code with
    this package on its path."""
    src = str(Path(stratshear.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.strip()


def test_perturbed_run_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a perturbed profile, its spectrum
    # and a perturbed CLI run import no scipy module
    cfg = write_config(tmp_path, BUMP)
    code = "\n".join([
        "import sys, stratshear",
        "from stratshear.cli import main",
        "from stratshear.shear import build_profile, sample_spectrum",
        "from stratshear.spectral_ops import FrequencyGrid",
        "profile = build_profile('perturbed', a=0.0018, sigma=1.6, y0=0.3)",
        "sample_spectrum(profile, FrequencyGrid(k=1, eta_max=20.0, n=256))",
        f"assert main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    assert run_python(code) == "[]"


def test_cli_loads_concurrent_futures_only_for_a_pool():
    assert run_python("import sys, stratshear.cli\n"
                      "print('concurrent.futures' in sys.modules)") == "False"


# configs that once crashed, ran a silent one-row "success", or were
# misreported; later lines override the same key in BUMP
CONFIG_ERRORS = {
    "non_monotone_bump": "profile.a = 2.0\n",
    "zero_bump_width": "profile.sigma = 0.0\n",
    "negative_bump_width": "profile.sigma = -1.0\n",
    "zero_eta_max": "grid.eta_max = 0.0\n",
    "nan_eta_max": "grid.eta_max = nan\n",
    "negative_R_exploratory": "R = -1.0\nexploratory = true\n",
    "zero_max_iter": "solver.max_iter = 0\n",
    "zero_dt": "time.dt = 0.0\n",
    "negative_dt": "time.dt = -0.01\n",
    "zero_t_max": "time.t_max = 0.0\n",
    "negative_t_max": "time.t_max = -1.0\n",
    "t_max_below_dt": "time.t_max = 0.004\n",  # zero steps: a one-row CSV
    "nan_R": "R = nan\n",
    "nan_beta": "beta = nan\n",
    "zero_tol": "solver.tol = 0.0\n",
    "tol_not_below_1": "solver.tol = 1.0\n",
    "duplicate_k": "k_list = 1, 1\n",
    "explicit_fit_t_lo_below_1": "fit.t_lo = 0.5\n",
    "explicit_empty_fit_window": "fit.t_lo = 2.0\nfit.t_hi = 1.5\n",
    "negative_init_alpha": "init.theta.alpha = -2.0\n",  # data overflows to inf
    "negative_sobolev_order": "s = -20.0\n",  # epsilon was measured as NaN
    "negative_weight_constant": "weights.C0 = -1.0\n",  # weight inverse above 1
    "unaffordable_bump_width": "profile.sigma = 2.0e4\n",  # tens of GB per transform chunk
    # epsilon measured from the transform's rounding floor: 2.6x and 6.7x too large
    "rounding_floor_high_order": "s = 6.0\n",
    "rounding_floor_wide_bump": "profile.sigma = 4.0\ns = 5.0\n",
    # above N = 4728: 1.07e9 complex multiply-adds per convolution
    "unaffordable_dense_operators": "grid.N = 32768\n",
    # NaN energy ratios written to summary.json
    "zero_initial_data": "init.theta.amplitude = 0.0\ninit.q.amplitude = 0.0\n",
    "huge_init_amplitude": "init.theta.amplitude = 1e300\n",  # every CSV value inf
    "overflowing_init_alpha": "init.theta.alpha = 1e306\ninit.q.alpha = 1e306\n",
    # the bump was ignored: a Couette run with epsilon_measured 0 and no solves
    "bump_under_couette_kind": "profile.kind = couette\n",
    # (1 + k^2 + eta_max^2)^s = 402^120 overflows: every Es value inf, or a traceback
    "overflowing_sobolev_factor": "mode = couette\nprofile.kind = couette\nprofile.a = 0\n"
                                  "s = 120.0\n",
}


@pytest.mark.parametrize("override", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, override):
    cfg = write_config(tmp_path, BUMP + override)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_energy_ratio_assertion_at_threshold_exits_4(tmp_path):
    # the envelope exp(4 pi (1+beta)^2 / (2 sqrt(R) - 1)) does not exist at R = 1/4
    text = "mode = couette\nR = 0.25\nexploratory = true\ntime.t_max = 0.05\nassert.energy_ratio = true\n"
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--assert"]) == EXIT_ASSERT


def test_unset_fit_window_keeps_default(tmp_path):
    # t_max / 10 < 1 when unset: the run succeeds and reports null exponents
    cfg = write_config(tmp_path, SMOKE.replace("time.t_max = 100.0", "time.t_max = 2.0"))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert read_summary(out)["exponent_q"] is None


def test_fit_is_judged_on_its_window(tmp_path):
    # Q starts at zero, so ||q|| is 0 in the first record only, outside the
    # default window [3, 30]; the exponent is the fit of that window alone
    text = SMOKE.replace("time.t_max = 100.0", "time.t_max = 30.0") + "init.q.amplitude = 0\n"
    out = tmp_path / "o"
    assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    rows = (out / "series_k1.csv").read_text().splitlines()
    column = rows[0].split(",").index("q_norm")
    t, q_norm = np.array([[float(row.split(",")[i]) for i in (0, column)] for row in rows[1:]]).T
    assert q_norm[0] == 0.0 and np.all(q_norm[1:] > 0.0)
    exponent = read_summary(out)["exponent_q"]
    assert exponent == fit_power_law(t, q_norm, 3.0, 30.0).exponent
    assert -1.0 < exponent < -0.9
