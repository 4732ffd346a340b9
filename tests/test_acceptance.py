"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured values (run with -s to see them live).  Tolerances are fixed here,
not tuned at runtime.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import dense_vorticity, frame
from stratshear.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from stratshear.evolution import (
    RawState,
    coercivity_constants,
    couette_rhs,
    evolve,
    pointwise_energy,
    rk4_integrate,
)
from stratshear.multipliers import FrameSymbols, bl_bound_report, eval_bl, eval_p
from stratshear.observables import fit_modulated_power_law, fit_power_law
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    FrequencyGrid,
    SolveStats,
    SpectralField,
    apply_T_eps,
    solve_vorticity,
)
from stratshear.weights import WeightSet, check_exchange

ES_MONOTONE_RTOL = 1e-6
REFERENCE_NU = math.sqrt(1.0 - 0.25)  # log-periodic frequency sqrt(R - 1/4) at R = 1


def verdict(ok, label, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    return ok


def standard_state(grid):
    theta = SpectralField(grid, np.exp(-grid.etas**2).astype(complex))
    q = SpectralField(grid, np.exp(-((grid.etas - 1.0) ** 2) / 2.0).astype(complex))
    return RawState(theta, q, 0.0)


@pytest.fixture(scope="module")
def couette_reference_run():
    # k=1, R=1, beta=1, N=512, eta_max=20, t_max=200, dt=0.01
    grid = FrequencyGrid(k=1, eta_max=20.0, n=512)
    report, _ = evolve(standard_state(grid), beta=1.0, R=1.0, t_max=200.0,
                       dt=0.01, record_every=10)
    return report


def test_couette_energy_conservation():
    """Per-cell energy ratio within the explicit envelope across the sweep."""
    all_ok = True
    for R in (0.5, 1.0, 4.0):
        for beta in (0.0, 1.0):
            log_env = 4.0 * math.pi * (1.0 + beta) ** 2 / (2.0 * math.sqrt(R) - 1.0)
            for k in (1, 2):
                grid = FrequencyGrid(k=k, eta_max=20.0, n=512)
                started = time.time()
                report, _ = evolve(standard_state(grid), beta=beta, R=R,
                                   t_max=200.0, dt=0.01, record_every=10)
                elapsed = time.time() - started
                ok = (
                    math.log(report.ratio_max) <= log_env
                    and math.log(report.ratio_min) >= -log_env
                    and elapsed <= 60.0
                )
                all_ok &= verdict(
                    ok,
                    f"energy conservation R={R} beta={beta} k={k}",
                    f"ratio [{report.ratio_min:.3g}, {report.ratio_max:.3g}] within "
                    f"exp(+-{log_env:.3g}), {elapsed:.1f}s",
                )
    assert all_ok


def test_couette_decay_exponents(couette_reference_run):
    """Decay exponents over t in [20, 200], fitted with the R = 1 modulation."""
    series = couette_reference_run
    checks = [
        ("q_norm", series.q_norm, -0.5, 0.10),
        ("vx_norm", series.vx_norm, -0.5, 0.10),
        ("vy_norm", series.vy_norm, -1.5, 0.15),
    ]
    all_ok = True
    for name, vals, target, tolerance in checks:
        fit = fit_modulated_power_law(series.times, vals, 20.0, 200.0, REFERENCE_NU)
        ok = abs(fit.exponent - target) <= tolerance
        all_ok &= verdict(ok, f"decay exponent {name}",
                          f"{fit.exponent:+.3f} vs {target} +- {tolerance}")
    assert all_ok


def test_vorticity_growth_exponent(couette_reference_run):
    """Growing functional exponent over the same run and modulated fit."""
    series = couette_reference_run
    fit = fit_modulated_power_law(series.times, series.growth_norm, 20.0, 200.0,
                                  REFERENCE_NU)
    ok = abs(fit.exponent - 0.5) <= 0.10
    verdict(ok, "vorticity growth exponent", f"{fit.exponent:+.3f} vs +0.5 +- 0.10")
    assert ok


def test_near_couette_monotonicity_and_decay():
    """Weighted energy non-increasing and q decay within the loss window."""
    started = time.time()
    profile = build_profile("perturbed", a=0.0018, sigma=1.6, y0=0.0, s=0.0)
    assert profile.epsilon <= 0.05
    grid = FrequencyGrid(k=1, eta_max=20.0, n=256)
    spec = sample_spectrum(profile, grid)
    weights = WeightSet.for_run(R=1.0, beta=1.0, epsilon=profile.epsilon, C0=64.0)
    stats = SolveStats()
    report, _ = evolve(standard_state(grid), beta=1.0, R=1.0, t_max=100.0,
                       dt=0.01, spec=spec, weights=weights, s=0.0,
                       record_every=50, stats=stats)
    elapsed = time.time() - started

    es = report.energy_weighted
    monotone = bool(np.all(es[1:] <= es[:-1] * (1.0 + ES_MONOTONE_RTOL) + 1e-300))
    fit = fit_power_law(report.times, report.q_norm, 10.0, 100.0)
    lo, hi = -0.5, -0.5 + 64.0 * profile.epsilon * 1.5
    in_window = lo <= fit.exponent <= hi
    contracting = stats.ratio_max < 0.5

    ok = monotone and in_window and contracting and elapsed <= 600.0
    verdict(ok, "near-couette monotone weighted energy",
            f"eps={profile.epsilon:.4f}, monotone={monotone}, "
            f"q exponent {fit.exponent:+.3f} in [{lo:.2f}, {hi:.2f}], "
            f"contraction {stats.ratio_max:.3g}, {elapsed:.0f}s")
    assert ok


def test_operator_correctness():
    """Dense-solve agreement, multiplier reduction, forward/inverse identity."""
    tol = 1e-10
    grid = FrequencyGrid(k=1, eta_max=16.0, n=256)
    profile = build_profile("perturbed", a=0.0045, sigma=2.0, s=0.0)
    assert profile.epsilon <= 0.05
    spec = sample_spectrum(profile, grid)
    f = SpectralField(grid, (np.exp(-grid.etas**2) * (1 + 0.2j)).astype(complex))
    t, beta = 2.5, 1.0

    def matrix_of(op):
        cols = np.empty((grid.n, grid.n), complex)
        for j in range(grid.n):
            e = np.zeros(grid.n, complex)
            e[j] = 1.0
            cols[:, j] = op(SpectralField(grid, e)).values
        return cols

    eye = np.eye(grid.n, dtype=complex)
    dense_tl = np.linalg.solve(eye - matrix_of(lambda u: apply_T_eps(frame(grid, t), spec, u)),
                               f.values)
    err_tl = np.linalg.norm(dense_tl - solve_vorticity(frame(grid, t), spec, f.values, tol=tol)[1])
    dense_omega, dense_u = dense_vorticity(t, spec, beta, f.values)
    omega, u = solve_vorticity(frame(grid, t, beta), spec, f.values, tol=tol)
    err_tb = max(np.linalg.norm(dense_omega - omega), np.linalg.norm(dense_u - u))
    scale = np.linalg.norm(f.values)
    ok_dense = err_tl <= 10 * tol * scale and err_tb <= 10 * tol * scale
    verdict(ok_dense, "dense-solve agreement",
            f"TL {err_tl / scale:.2e}, TB {err_tb / scale:.2e} vs {10 * tol:.0e}")

    czero = sample_spectrum(build_profile("couette"), grid)
    bl = eval_bl(t, grid.k, grid.etas, beta)
    p = eval_p(t, grid.k, grid.etas)
    omega, u = solve_vorticity(frame(grid, t, beta), czero, f.values)
    red1 = np.max(np.abs(omega - bl * f.values))
    red2 = np.max(np.abs(-u / p + bl * f.values / p))
    red3 = np.max(np.abs(apply_T_eps(frame(grid, t), czero, f).values))
    ok_reduction = red1 < 1e-14 and red2 < 1e-14 and red3 == 0.0
    verdict(ok_reduction, "couette reduction to multipliers",
            f"max deviations {red1:.1e}, {red2:.1e}, {red3:.1e}")

    from stratshear.spectral_ops import apply_profile_convolution

    interior = slice(grid.n // 10, -grid.n // 10)
    worst = 0.0
    for tt in (0.0, 2.0, 9.0):
        sym = frame(grid, tt)
        inv = -solve_vorticity(sym, spec, f.values, tol=1e-12)[1] / sym.p
        d = sym.d
        forward = -sym.p * inv
        forward = forward + apply_profile_convolution(spec, "g2", -(d * d) * inv)
        forward = forward + apply_profile_convolution(spec, "b", 1j * d * inv)
        err = np.linalg.norm((forward - f.values)[interior]) / np.linalg.norm(f.values[interior])
        worst = max(worst, err)
    ok_forward = worst <= 1e-6
    verdict(ok_forward, "forward-inverse interior identity", f"worst {worst:.2e} vs 1e-06")

    assert ok_dense and ok_reduction and ok_forward


def test_multiplier_and_weight_properties():
    """Multiplier bounds, coercivity sandwich and threshold, exchange suprema."""
    rng = np.random.default_rng(2024)

    ok_bl = True
    for beta in (0.5, 1.0, 5.0):
        t = rng.uniform(0, 50, 10_000)
        eta = rng.uniform(-20, 20, 10_000)
        k = int(rng.integers(1, 6))
        mods = np.abs(eval_bl(t, k, eta, beta))
        ok_bl &= bool(np.all(mods >= (1 - 1e-12) / math.sqrt(1 + beta**2))
                      and np.all(mods <= 1 + 1e-12))
        ok_bl &= bl_bound_report(t, k, eta, beta).all_hold()
    verdict(ok_bl, "stratification multiplier bounds", "3 x 10^4 samples")

    ok_coercive = True
    grid = FrequencyGrid(k=1, eta_max=10.0, n=64)
    for R in (0.26, 0.5, 1.0, 4.0):
        lo, hi = coercivity_constants(R)
        for _ in range(160):
            state = RawState(
                SpectralField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64)),
                SpectralField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64)),
                rng.uniform(0, 30))
            sym = frame(grid, state.t)
            e_eta, _ = pointwise_energy(sym, state.theta.values, state.q.values, R)
            p = sym.p  # |Z1|^2 + |Z2|^2 with Z1 = p^-1/4 Theta, Z2 = p^1/4 i sqrt(R) Q
            quad = np.abs(state.theta.values) ** 2 / np.sqrt(p) + R * np.sqrt(p) * np.abs(state.q.values) ** 2
            ok_coercive &= bool(np.all(e_eta >= lo * quad - 1e-12)
                                and np.all(e_eta <= hi * quad + 1e-12))
    verdict(ok_coercive, "coercivity sandwich", "4 x 10^4 cell samples")

    lo25, _ = coercivity_constants(0.25)
    lo20, _ = coercivity_constants(0.20)
    ok_threshold = lo25 <= 0.0 and lo20 < 0.0
    verdict(ok_threshold, "coercivity failure detected at and below threshold",
            f"lower constants {lo25:.3g}, {lo20:.3g}")

    n = 100_000
    t = rng.uniform(0, 50, n)
    ks = rng.integers(1, 6, n)
    eta = rng.uniform(-20, 20, n)
    xi = rng.uniform(-20, 20, n)
    delta, c_beta = 0.5, 1.0
    sup_p = sup_pp = sup_m = 0.0
    for kk in range(1, 6):
        sel = ks == kk
        r = check_exchange(t[sel], kk, eta[sel], xi[sel], delta, c_beta)
        sup_p = max(sup_p, float(np.max(r.ratio_p)))
        sup_pp = max(sup_pp, float(np.max(r.ratio_p_prime)))
        sup_m = max(sup_m, float(np.max(r.ratio_m)))
    ok_exchange = (np.isfinite([sup_p, sup_pp, sup_m]).all()
                   and sup_p <= 16.0 and sup_pp <= 16.0
                   and sup_m <= 16.0 * math.exp(2 * c_beta))
    verdict(ok_exchange, "frequency-exchange sampled suprema",
            f"p {sup_p:.3g}, p' {sup_pp:.3g}, m {sup_m:.3g} over 10^5 samples")

    assert ok_bl and ok_coercive and ok_threshold and ok_exchange


def test_integrator_self_convergence():
    """4th-order slope and refined-step reference agreement."""
    etas = np.array([0.0])
    frame = functools.lru_cache(maxsize=3)(lambda t: FrameSymbols(t, 1, etas, 0.0))
    rhs = lambda t, a, b: couette_rhs(frame(t), a, b, 1.0)
    th0 = np.array([1.0 + 0j])
    q0 = np.array([0.0 + 0j])

    ref_th, ref_q = rk4_integrate(rhs, th0, q0, 0.0, 20.0, 20.0 / 2**15)
    errs = []
    dts = (0.04, 0.02, 0.01)
    for dt in dts:
        th, q = rk4_integrate(rhs, th0, q0, 0.0, 20.0, dt)
        errs.append(math.hypot(abs(th[0] - ref_th[0]), abs(q[0] - ref_q[0])))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok_order = abs(slope - 4.0) <= 0.2
    verdict(ok_order, "integration order", f"slope {slope:.2f} vs 4.0 +- 0.2")

    worst = 0.0
    th, q = th0, q0
    thf, qf = th0, q0
    for t_from in np.arange(0.0, 100.0, 10.0):
        th, q = rk4_integrate(rhs, th, q, t_from, t_from + 10.0, 0.01)
        thf, qf = rk4_integrate(rhs, thf, qf, t_from, t_from + 10.0, 0.01 / 16)
        mag = math.hypot(abs(thf[0]), abs(qf[0]))
        worst = max(worst, math.hypot(abs(th[0] - thf[0]), abs(q[0] - qf[0])) / mag)
    ok_ref = worst <= 1e-6
    verdict(ok_ref, "refined-step reference agreement", f"worst relative {worst:.2e}")

    assert ok_order and ok_ref


def test_determinism_schema_and_exit_codes(tmp_path):
    """Byte-identical reruns, complete summary schema, exit-code contract."""
    cfg_text = (
        "mode = couette\nR = 1.0\nbeta = 0.0\nk_list = 1\n"
        "grid.eta_max = 20.0\ngrid.N = 256\n"
        "time.t_max = 50.0\ntime.dt = 0.01\ntime.record_every = 10\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["--config", str(cfg), "--out", str(out1)])
    code2 = main(["--config", str(cfg), "--out", str(out2)])
    identical = (
        (out1 / "series_k1.csv").read_bytes() == (out2 / "series_k1.csv").read_bytes()
        and (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    )
    ok_identical = code1 == EXIT_OK and code2 == EXIT_OK and identical
    verdict(ok_identical, "byte-identical reruns")

    summary = json.loads((out1 / "summary.json").read_text())
    required = ("exponent_q", "exponent_vx", "exponent_vy", "exponent_growth",
                "energy_ratio_max", "energy_ratio_min", "Es_monotone",
                "epsilon_measured", "delta_used")
    ok_schema = all(field in summary for field in required)
    verdict(ok_schema, "summary schema complete", ", ".join(required))

    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = couette\nnot a key value line\n")
    code_bad = main(["--config", str(bad), "--out", str(tmp_path / "x1")])

    runaway = tmp_path / "runaway.cfg"
    runaway.write_text(
        "mode = near_couette\nR = 1.0\nbeta = 0.0\nk_list = 1\n"
        "grid.eta_max = 16.0\ngrid.N = 256\n"
        "profile.kind = perturbed\nprofile.a = 1.9\nprofile.sigma = 2.0\n"
        "time.t_max = 2.0\ntime.dt = 0.01\n"
    )
    code_runaway = main(["--config", str(runaway), "--out", str(tmp_path / "x2")])
    ok_codes = code_bad == EXIT_CONFIG and code_runaway == EXIT_SOLVER
    verdict(ok_codes, "exit-code contract",
            f"malformed -> {code_bad}, non-contractive -> {code_runaway}")

    assert ok_identical and ok_schema and ok_codes
