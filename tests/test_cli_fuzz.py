"""Fuzz the CLI exit contract: every config exits 0, 2, 3 or 4 and never raises."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stratshear.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, _SCHEMA, main  # noqa: E402
from test_cli import BUMP, SMOKE  # noqa: E402

# Candidate values per key, valid and invalid alike.  Valid shapes stay small
# (N <= 256, t_max <= 0.05) but for N = 32768, which a Couette run steps in
# milliseconds and a perturbed run refuses for the O(N^2) work of each
# convolution; bump widths and Sobolev orders whose transforms would be
# unaffordable are refused before anything is allocated too.
FUZZ_VALUES = {
    "mode": ["couette", "near_couette", "bogus"],
    "R": ["1.0", "4.0", "0.25", "0.2", "0", "-1", "nan", "inf", "1e300"],
    "beta": ["0", "1.0", "-1", "nan", "-inf"],
    "k_list": ["1", "1, 2", "2, 2", "-1", "0", "", "1.5"],
    "s": ["0", "1.5", "1e4", "-1", "nan"],
    "exploratory": ["true", "false", "maybe"],
    "grid.eta_max": ["20.0", "16.0", "1e-300", "0", "-5", "nan", "inf"],
    "grid.N": ["256", "128", "64", "2", "7", "0", "-2", "1.5", "32768"],
    "profile.kind": ["couette", "perturbed", "bogus"],
    "profile.a": ["0", "0.0018", "-0.05", "1.6", "2.0", "nan"],
    "profile.sigma": ["1.6", "2.0", "0.5", "2e4", "0", "-1", "inf"],
    "profile.y0": ["0", "0.5", "nan"],
    "time.t_max": ["0.05", "0.02", "0.001", "0", "-1", "nan"],
    "time.dt": ["0.01", "0.005", "0.05", "0", "-0.01", "1", "nan"],
    "time.record_every": ["1", "3", "100", "0", "-1"],
    "weights.C0": ["64", "0", "-1", "1e300", "nan"],
    "solver.tol": ["1e-10", "1e-300", "0", "-1", "1", "nan"],
    "solver.max_iter": ["50", "1", "0", "-3"],
    "init.theta.amplitude": ["1", "0", "-2", "1e300", "nan"],
    "init.theta.center": ["0", "5", "nan"],
    "init.theta.alpha": ["1", "0", "-1", "nan"],
    "init.q.amplitude": ["1", "0", "1e300", "inf"],
    "init.q.center": ["1", "-30", "inf"],
    "init.q.alpha": ["0.5", "1e-300", "-0.5", "nan"],
    "fit.t_lo": ["2", "0.5", "1", "-1", "nan"],
    "fit.t_hi": ["0.05", "3", "0", "nan"],
    "output.dir": ["out"],
    "assert.energy_ratio": ["true", "false"],
    "assert.es_monotone": ["true", "false"],
    **{f"assert.exponent_{name}.{end}": ["-1", "5", "nan", "-inf"]
       for name in ("q", "vx", "vy", "growth") for end in ("min", "max")},
}

config_lines = st.lists(
    st.sampled_from(sorted(FUZZ_VALUES)).flatmap(
        lambda key: st.sampled_from(FUZZ_VALUES[key]).map(lambda v: f"{key} = {v}")),
    max_size=4,
)
# a perturbed run costs about 1 s (the smallness measurement), a Couette run
# a few ms, so three of four examples start from the Couette base
FUZZ_BASES = [SMOKE.replace("time.t_max = 100.0", "time.t_max = 0.05")] * 3 + [BUMP]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(base=st.sampled_from(FUZZ_BASES), lines=config_lines, enable_asserts=st.booleans())
def test_fuzzed_configs_keep_the_exit_contract(base, lines, enable_asserts):
    assert set(FUZZ_VALUES) == set(_SCHEMA)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(base + "\n".join(lines) + "\n")
        argv = ["--config", str(cfg), "--out", str(Path(tmp) / "o")]
        code = main(argv + (["--assert"] if enable_asserts else []))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_ASSERT)
