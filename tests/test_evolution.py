import math
from collections import Counter

import numpy as np
import pytest

from conftest import dense_vorticity, frame, gaussian_field
from stratshear.evolution import (
    RawState,
    StepUnstable,
    coercivity_constants,
    couette_rhs,
    evolve,
    full_rhs,
    pointwise_energy,
    rk4_integrate,
)
from stratshear.multipliers import FrameSymbols, eval_bl, eval_p, eval_p_prime
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    FrequencyGrid,
    SolveStats,
    SpectralField,
    apply_profile_convolution,
    solve_vorticity,
)
from stratshear.weights import WeightSet


def make_state(grid, t=0.0, qc=1.0):
    theta = gaussian_field(grid)
    q = SpectralField(grid, np.exp(-((grid.etas - qc) ** 2) / 2).astype(complex))
    return RawState(theta, q, t)


def energy_of(state, R, weights=None, s=0.0):
    return pointwise_energy(frame(state.grid, state.t), state.theta.values, state.q.values,
                            R, weights, s)


def z_map(grid, t, theta, q, R):
    """Unweighted symmetrized pair Z1 = p^{-1/4} Theta, Z2 = p^{1/4} i sqrt(R) Q."""
    p = eval_p(t, grid.k, grid.etas)
    return p**-0.25 * theta, p**0.25 * 1j * math.sqrt(R) * q


def test_couette_rhs_substitutions(grid256):
    # with theta = 0 the density feeds theta only: dtheta = -i k R q, dq = 0
    k = grid256.k
    q = gaussian_field(grid256).values
    zeros = np.zeros(grid256.n, complex)
    dtheta, dq = couette_rhs(frame(grid256, 0.7), zeros, q, 2.0)
    assert np.allclose(dtheta, -1j * k * 2.0 * q)
    assert not np.any(dq)
    # R = 0 and beta = 0 freeze theta entirely
    state = make_state(grid256)
    dtheta, dq = couette_rhs(frame(grid256, 0.0), state.theta.values, state.q.values, 0.0)
    assert not np.any(dtheta)


def symmetric_rhs(t, z1, z2, k, etas, beta, R):
    """Direct right-hand side of the symmetrized 2x2 system (unweighted)."""
    p = eval_p(t, k, etas)
    pp = eval_p_prime(t, k, etas)
    bl = eval_bl(t, k, etas, beta)
    row = k * math.sqrt(R) / np.sqrt(p)
    dz1 = -0.25 * (pp / p) * z1 - row * z2 + 1j * k * beta * bl * z1 / p
    dz2 = row * z1 + 0.25 * (pp / p) * z2 + row * (bl - 1.0) * z1
    return dz1, dz2


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_raw_step_matches_symmetrized_step(grid256, beta):
    # one RK4 step in raw variables, transformed, against one step of the
    # symmetrized system; agreement far below the O(dt^2) envelope
    R, dt, t0 = 1.0, 0.01, 1.3
    state = make_state(grid256, t=t0)
    z1_0, z2_0 = z_map(grid256, t0, state.theta.values, state.q.values, R)

    th, q = rk4_integrate(
        lambda t, a, b: couette_rhs(frame(grid256, t, beta), a, b, R),
        state.theta.values, state.q.values, t0, t0 + dt, dt)
    z1_raw, z2_raw = z_map(grid256, t0 + dt, th, q, R)

    z1, z2 = rk4_integrate(
        lambda t, a, b: symmetric_rhs(t, a, b, grid256.k, grid256.etas, beta, R),
        z1_0, z2_0, t0, t0 + dt, dt)

    scale = max(np.max(np.abs(z1)), np.max(np.abs(z2)))
    assert np.max(np.abs(z1_raw - z1)) <= dt**2 * scale
    assert np.max(np.abs(z2_raw - z2)) <= dt**2 * scale


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_full_rhs_reduces_to_couette(grid256, couette_spectrum, beta):
    state = make_state(grid256, t=2.3)
    th, q = state.theta.values, state.q.values
    sym = frame(grid256, 2.3, beta)
    ref = couette_rhs(sym, th, q, 1.0)
    got = full_rhs(sym, th, q, couette_spectrum, 1.0)
    assert np.max(np.abs(ref[0] - got[0])) < 1e-14
    assert np.max(np.abs(ref[1] - got[1])) < 1e-14


def test_full_rhs_perturbation_scaling(grid256):
    t, beta, R = 1.5, 1.0, 1.0
    state = make_state(grid256, t=t)
    th, q = state.theta.values, state.q.values
    snorm = state.theta.l2() + state.q.l2()
    consts = []
    for a in (0.01, 0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        sym = frame(grid256, t, beta)
        dref = couette_rhs(sym, th, q, R)
        dgot = full_rhs(sym, th, q, spec, R)
        diff = np.sqrt(grid256.integrate(np.abs(dgot[0] - dref[0]) ** 2)
                       + grid256.integrate(np.abs(dgot[1] - dref[1]) ** 2))
        consts.append(diff / (prof.epsilon * snorm))
    base = consts[0]
    for c in consts[1:]:
        assert abs(c - base) / base < 0.25


@pytest.mark.parametrize("amplitude", [0.0045, 0.045])  # epsilon about 0.047 and 0.46
def test_full_rhs_matches_dense_solve(grid256, amplitude):
    # phi = -T_L(Bt Theta)/p from dense matrices, coupled back as full_rhs does
    tol, beta, R = 1e-10, 1.0, 1.0
    spec = sample_spectrum(build_profile("perturbed", a=amplitude, sigma=2.0), grid256)
    k = grid256.k
    for t in (0.0, 2.5, 9.0):
        state = make_state(grid256, t=t)
        th, q = state.theta.values, state.q.values
        _, u = dense_vorticity(t, spec, beta, th)
        phi = -u / eval_p(t, k, grid256.etas)
        coupling = (apply_profile_convolution(spec, "b", phi)
                    - beta * apply_profile_convolution(spec, "g1", phi))
        dense = (-1j * k * R * q + 1j * k * (coupling - beta * phi), 1j * k * phi)
        got = full_rhs(frame(grid256, t, beta), th, q, spec, R, tol=tol)
        for ref, val in zip(dense, got):
            assert np.linalg.norm(val - ref) <= 10 * tol * np.linalg.norm(ref)


def test_evolve_zero_data_stays_zero(grid256):
    zeros = SpectralField(grid256, np.zeros(grid256.n, complex))
    report, final = evolve(RawState(zeros, zeros.copy(), 0.0), beta=0.0, R=1.0,
                           t_max=1.0, dt=0.01, record_every=10)
    assert not np.any(final.theta.values) and not np.any(final.q.values)
    assert final.t == pytest.approx(1.0)
    assert np.all(report.energy == 0.0)
    for norms in (report.q_norm, report.vx_norm, report.vy_norm, report.growth_norm):
        assert np.all(norms == 0.0)


def test_evolve_rejects_unstable_dt(grid256):
    state = make_state(grid256)
    with pytest.raises(ValueError, match="stability"):
        evolve(state, beta=0.0, R=4.0, t_max=1.0, dt=0.05)


@pytest.mark.parametrize("kwargs, message", [
    ({"R": 0.0}, "R must be positive"),
    ({"R": -1.0}, "R must be positive"),
    ({"record_every": 0}, "record_every must be at least 1, got 0$"),
    ({"record_every": -1}, "record_every must be at least 1, got -1$"),
], ids=["R=0", "R=-1", "record_every=0", "record_every=-1"])
def test_evolve_rejects_nonpositive_R_and_record_every(grid256, kwargs, message):
    # R = 0 used to return NaN energies and record_every = -1 to record every step
    args = {"beta": 0.0, "R": 1.0, "t_max": 1.0, "dt": 0.01, "record_every": 10, **kwargs}
    with pytest.raises(ValueError, match=message):
        evolve(make_state(grid256), **args)


def test_evolve_linearity(grid256):
    state = make_state(grid256)
    scaled = RawState(SpectralField(grid256, 2.5 * state.theta.values),
                      SpectralField(grid256, 2.5 * state.q.values), 0.0)
    _, f1 = evolve(state, beta=1.0, R=1.0, t_max=2.0, dt=0.01, record_every=100)
    _, f2 = evolve(scaled, beta=1.0, R=1.0, t_max=2.0, dt=0.01, record_every=100)
    assert np.max(np.abs(f2.theta.values - 2.5 * f1.theta.values)) < 1e-12


def test_pointwise_energy_values(grid256):
    # Z1 = 1, Z2 = 0 at the critical time (p' = 0) gives density 1/2: build the
    # raw state whose symmetrized image is that
    k = grid256.k
    eta0 = grid256.etas[140]
    t = eta0 / k
    p = eval_p(t, k, grid256.etas)
    theta = SpectralField(grid256, p**0.25 * np.ones(grid256.n, complex))
    q = SpectralField(grid256, np.zeros(grid256.n, complex))
    e_eta, _ = energy_of(RawState(theta, q, t), R=1.0)
    assert e_eta[140] == pytest.approx(0.5)


def test_pointwise_energy_coercivity_sandwich():
    rng = np.random.default_rng(50)
    grid = FrequencyGrid(k=1, eta_max=10.0, n=64)
    for R in (0.26, 0.5, 1.0, 4.0):
        lo, hi = coercivity_constants(R)
        for _ in range(160):  # 160 states x 64 cells ~ 10^4 samples
            t = rng.uniform(0, 30)
            theta = SpectralField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
            q = SpectralField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
            state = RawState(theta, q, t)
            e_eta, _ = energy_of(state, R)
            z1, z2 = z_map(grid, t, theta.values, q.values, R)
            quad = np.abs(z1) ** 2 + np.abs(z2) ** 2
            assert np.all(e_eta >= lo * quad - 1e-12)
            assert np.all(e_eta <= hi * quad + 1e-12)


def test_coercivity_fails_at_and_below_threshold():
    lo_at, _ = coercivity_constants(0.25)
    assert lo_at == pytest.approx(0.0, abs=1e-15)
    lo_below, _ = coercivity_constants(0.2)
    assert lo_below < 0.0


def test_pointwise_energy_returns_quadratic_density(grid256):
    state = make_state(grid256, t=2.7)
    z1, z2 = z_map(grid256, 2.7, state.theta.values, state.q.values, 2.0)
    _, quad = energy_of(state, 2.0)
    assert np.allclose(quad, np.abs(z1) ** 2 + np.abs(z2) ** 2, rtol=1e-13, atol=0)


def test_pointwise_energy_sobolev_factor(grid256):
    state = make_state(grid256, t=2.7)
    plain, _ = energy_of(state, 1.0)
    e_s, _ = energy_of(state, 1.0, s=1.5)
    bracket = (1.0 + grid256.k**2 + grid256.etas**2) ** 1.5
    assert np.allclose(e_s, bracket * plain, rtol=1e-13, atol=0)


def test_weighted_energy_zero_state(grid256):
    zeros = SpectralField(grid256, np.zeros(grid256.n, complex))
    ws = WeightSet.for_run(1.0, 1.0, 0.02)
    e_eta, _ = energy_of(RawState(zeros, zeros.copy(), 1.0), 1.0, ws)
    assert grid256.integrate(e_eta) == 0.0


def test_weighted_energy_matches_pointwise_at_t0(grid256):
    # at t = 0 every weight is 1, so with s = 0 the functionals coincide
    ws = WeightSet.for_run(1.0, 0.0, 0.0)  # epsilon 0 -> delta 0
    state = make_state(grid256, t=0.0)
    plain, _ = energy_of(state, 1.0)
    weighted, _ = energy_of(state, 1.0, ws, s=0.0)
    assert grid256.integrate(weighted) == pytest.approx(grid256.integrate(plain), rel=1e-12)


def test_recorded_energy_inside_coercivity_envelopes(grid256):
    state = make_state(grid256)
    report, _ = evolve(state, beta=1.0, R=1.0, t_max=20.0, dt=0.01, record_every=20)
    assert np.all(report.energy >= report.energy_lower - 1e-12)
    assert np.all(report.energy <= report.energy_upper + 1e-12)


def test_negative_wavenumber_evolution():
    grid = FrequencyGrid(k=-1, eta_max=16.0, n=256)
    state = make_state(grid)
    report, _ = evolve(state, beta=1.0, R=1.0, t_max=10.0, dt=0.01, record_every=20)
    assert np.all(np.isfinite(report.energy))
    assert report.ratio_max < 50.0 and report.ratio_min > 1.0 / 50.0
    assert np.all(report.energy >= report.energy_lower - 1e-12)


def test_couette_energy_ratio_envelope(grid256):
    # per-cell energy ratio within the explicit envelope for R=1, beta=1
    state = make_state(grid256)
    report, _ = evolve(state, beta=1.0, R=1.0, t_max=50.0, dt=0.01, record_every=20)
    log_env = 4 * math.pi * (1 + 1.0) ** 2 / (2 * math.sqrt(1.0) - 1)
    assert math.log(report.ratio_max) <= log_env
    assert math.log(report.ratio_min) >= -log_env
    assert report.ratio_max >= 1.0 >= report.ratio_min


def test_evolve_blowup_guard(grid256, monkeypatch):
    # an artificial exponential runaway must trip the amplitude guard
    from stratshear import evolution as ev

    def runaway(sym, theta, q, R):
        return 10.0 * theta, 10.0 * q

    monkeypatch.setattr(ev, "couette_rhs", runaway)
    state = make_state(grid256)
    with pytest.raises(StepUnstable, match=r"amplitude grew by more than 1e\+06 at k = 1, t = "):
        ev.evolve(state, beta=0.0, R=1.0, t_max=2.0, dt=0.01, record_every=1)


def count_calls(monkeypatch, counts, label, owners, name):
    """Count calls of the function ``name`` wherever an owner holds it."""
    for owner in owners:
        real = getattr(owner, name, None)
        if real is None:
            continue

        def counted(*args, _real=real, **kwargs):
            counts[label] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def count_bl_calls(monkeypatch, counts):
    from stratshear import evolution, multipliers, spectral_ops

    count_calls(monkeypatch, counts, "eval_bl", (multipliers, spectral_ops, evolution),
                "eval_bl")


def test_rk4_stage_four_time_is_next_stage_one_time():
    # with t0 = 1.3, dt = 0.01 the sum (t0 + i dt) + dt misses t0 + (i+1) dt
    # by an ulp for 34 of the first 100 steps
    times, recorded = [], []

    def rhs(t, a, b):
        times.append(t)
        return np.zeros_like(a), np.zeros_like(b)

    t0, dt, n_steps = 1.3, 0.01, 100
    zero = np.zeros(1, complex)
    rk4_integrate(rhs, zero, zero, t0, t0 + n_steps * dt, dt,
                  callback=lambda i, t, a, b: recorded.append(t))
    stages = np.array(times).reshape(n_steps, 4)
    assert np.array_equal(stages[:, 1], stages[:, 2])
    assert np.array_equal(stages[:-1, 3], stages[1:, 0])
    assert np.array_equal(stages[:, 3], recorded[1:])
    assert len(np.unique(times)) == 2 * n_steps + 1


def test_evolve_evaluates_bl_once_per_distinct_time(grid256, monkeypatch):
    # an RK4 step needs BL at t + dt/2 and t + dt alone: stage 1 and the record
    # reuse the previous step's t + dt, so n steps cost at most
    # 2 n + (records + 1) evaluations instead of 4 n + records
    counts = Counter()
    count_bl_calls(monkeypatch, counts)
    n_steps = 200
    report, _ = evolve(make_state(grid256), beta=1.0, R=1.0, t_max=n_steps * 0.01,
                       dt=0.01, record_every=10)
    assert 2 * n_steps <= counts["eval_bl"] <= 2 * n_steps + report.times.size + 1


def test_perturbed_evolve_evaluates_bl_once_per_distinct_time(grid256, bump_spectrum,
                                                              monkeypatch):
    _, spec = bump_spectrum
    counts = Counter()
    count_bl_calls(monkeypatch, counts)
    n_steps = 20
    report, _ = evolve(make_state(grid256), beta=1.0, R=1.0, t_max=n_steps * 0.01,
                       dt=0.01, record_every=5, spec=spec)
    assert 2 * n_steps <= counts["eval_bl"] <= 2 * n_steps + report.times.size + 1


def test_solve_vorticity_builds_symbols_once_per_solve(grid256, bump_spectrum, monkeypatch):
    _, spec = bump_spectrum
    sym = frame(grid256, 1.3, 1.0)
    counts = Counter()
    count_bl_calls(monkeypatch, counts)
    count_calls(monkeypatch, counts, "FrameSymbols", (FrameSymbols,), "__init__")
    stats = SolveStats()
    theta = make_state(grid256).theta.values
    solve_vorticity(sym, spec, theta, stats=stats)
    assert stats.iterations_max >= 3
    assert counts["eval_bl"] == 1
    assert counts["FrameSymbols"] == 0


def test_full_rhs_skips_g1_coupling_at_beta_zero(grid256, bump_spectrum, monkeypatch):
    from stratshear import evolution, spectral_ops

    _, spec = bump_spectrum
    state = make_state(grid256, t=1.1)
    th, q = state.theta.values, state.q.values
    kernels = Counter()
    for owner in (evolution, spectral_ops):
        real = owner.apply_profile_convolution

        def counted(spec_, name, values, _real=real):
            kernels[name] += 1
            return _real(spec_, name, values)

        monkeypatch.setattr(owner, "apply_profile_convolution", counted)
    sym = frame(grid256, 1.1)
    dtheta, _ = full_rhs(sym, th, q, spec, 1.0)
    assert kernels["g1"] == 0 and kernels["b"] > 0
    # the coupling b - 0 * g1 it drops is b bit for bit
    _, u = solve_vorticity(sym, spec, th)
    phi = -u / eval_p(1.1, grid256.k, grid256.etas)
    coupling = (apply_profile_convolution(spec, "b", phi)
                - 0.0 * apply_profile_convolution(spec, "g1", phi))
    k = grid256.k
    assert np.array_equal(dtheta, -1j * k * 1.0 * q + 1j * k * (coupling - 0.0 * phi))


@pytest.mark.parametrize("field", ["theta", "q"])
def test_step_guard_catches_nan_in_either_field(monkeypatch, field):
    # the guard reduces max(|theta|, |q|) once per step; a NaN in either field
    # alone must still trip it (Python's max(a, nan) would return a)
    from stratshear import evolution as ev

    grid = FrequencyGrid(k=2, eta_max=16.0, n=256)
    real = ev.couette_rhs

    def poisoned(sym, theta, q, R):
        dtheta, dq = real(sym, theta, q, R)
        if sym.t > 0.05:
            (dtheta if field == "theta" else dq)[grid.n // 2] = np.nan
        return dtheta, dq

    monkeypatch.setattr(ev, "couette_rhs", poisoned)
    with pytest.raises(StepUnstable, match=r"non-finite field at k = 2, t = 0\.06$"):
        ev.evolve(make_state(grid), beta=1.0, R=1.0, t_max=2.0, dt=0.01, record_every=10)
