import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import dense_vorticity, frame, gaussian_field, kernel_matrix, l2
from lemmas import bl_reference, eval_p, eval_p_prime
from stratshear.evolution import (
    StepUnstable,
    _block_steps,
    coercivity_constants,
    couette_rhs,
    evolve,
    full_rhs,
    pointwise_energy,
    rk4_integrate,
)
from stratshear.multipliers import FrameSymbols
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    DIRECT_CONVOLUTION_N,
    FrequencyGrid,
    SolveStats,
    apply_profile_convolution,
    solve_vorticity,
)
from stratshear.weights import WeightSet


def make_state(grid):
    """Standard data (theta, q): Gaussians centred at 0 and at 1."""
    return gaussian_field(grid), np.exp(-((grid.etas - 1.0) ** 2) / 2).astype(complex)


def energy_of(grid, t, theta, q, R):
    return pointwise_energy(frame(grid, t), theta, q, R)


def z_map(grid, t, theta, q, R):
    """Unweighted symmetrized pair Z1 = p^{-1/4} Theta, Z2 = p^{1/4} i sqrt(R) Q."""
    p = eval_p(t, grid.k, grid.etas)
    return p**-0.25 * theta, p**0.25 * 1j * math.sqrt(R) * q


def test_couette_rhs_substitutions(grid256):
    # with theta = 0 the density feeds theta only: dtheta = -i k R q, dq = 0
    k = grid256.k
    q = gaussian_field(grid256)
    zeros = np.zeros(grid256.n, complex)
    dtheta, dq = couette_rhs(frame(grid256, 0.7), np.stack([zeros, q]), 2.0)
    assert np.allclose(dtheta, -1j * k * 2.0 * q)
    assert not np.any(dq)
    # R = 0 and beta = 0 freeze theta entirely
    dtheta, dq = couette_rhs(frame(grid256, 0.0), np.stack(make_state(grid256)), 0.0)
    assert not np.any(dtheta)


def symmetric_rhs(t, z, k, etas, beta, R):
    """Direct right-hand side of the symmetrized 2x2 system (unweighted)."""
    z1, z2 = z
    p = eval_p(t, k, etas)
    pp = eval_p_prime(t, k, etas)
    bl = bl_reference(t, k, etas, beta)
    row = k * math.sqrt(R) / np.sqrt(p)
    dz1 = -0.25 * (pp / p) * z1 - row * z2 + 1j * k * beta * bl * z1 / p
    dz2 = row * z1 + 0.25 * (pp / p) * z2 + row * (bl - 1.0) * z1
    return np.stack([dz1, dz2])


def integrate(rhs, y0, grid, t0, dt, n_steps, beta=0.0):
    """The state after n_steps steps of rk4_integrate from t0 on the frames of
    a grid."""
    for _, y in rk4_integrate(rhs, y0, frame(grid, t0, beta), dt, n_steps):
        pass
    return y


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_raw_step_matches_symmetrized_step(grid256, beta):
    # one RK4 step in raw variables, transformed, against one step of the
    # symmetrized system; agreement far below the O(dt^2) envelope
    R, dt, t0 = 1.0, 0.01, 1.3
    theta0, q0 = make_state(grid256)
    z1_0, z2_0 = z_map(grid256, t0, theta0, q0, R)

    th, q = integrate(lambda sym, y: couette_rhs(sym, y, R), np.stack([theta0, q0]),
                      grid256, t0, dt, 1, beta)
    z1_raw, z2_raw = z_map(grid256, t0 + dt, th, q, R)

    z1, z2 = integrate(
        lambda sym, z: symmetric_rhs(sym.t, z, grid256.k, grid256.etas, beta, R),
        np.stack([z1_0, z2_0]), grid256, t0, dt, 1, beta)

    scale = max(np.max(np.abs(z1)), np.max(np.abs(z2)))
    assert np.max(np.abs(z1_raw - z1)) <= dt**2 * scale
    assert np.max(np.abs(z2_raw - z2)) <= dt**2 * scale


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_full_rhs_reduces_to_couette(grid256, couette_spectrum, beta):
    y = np.stack(make_state(grid256))
    sym = frame(grid256, 2.3, beta)
    ref = couette_rhs(sym, y, 1.0)
    got = full_rhs(sym, y, couette_spectrum, 1.0)
    assert np.max(np.abs(ref[0] - got[0])) < 1e-14
    assert np.max(np.abs(ref[1] - got[1])) < 1e-14


def test_full_rhs_perturbation_scaling(grid256):
    t, beta, R = 1.5, 1.0, 1.0
    th, q = make_state(grid256)
    y = np.stack([th, q])
    snorm = l2(grid256, th) + l2(grid256, q)
    consts = []
    for a in (0.01, 0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        sym = frame(grid256, t, beta)
        dref = couette_rhs(sym, y, R)
        dgot = full_rhs(sym, y, spec, R)
        diff = np.sqrt(grid256.integrate(np.abs(dgot[0] - dref[0]) ** 2)
                       + grid256.integrate(np.abs(dgot[1] - dref[1]) ** 2))
        consts.append(diff / (prof.epsilon * snorm))
    base = consts[0]
    for c in consts[1:]:
        assert abs(c - base) / base < 0.25


@pytest.mark.parametrize("n, amplitude", [
    pytest.param(256, 0.0045, id="0.0045"),  # epsilon about 0.047
    pytest.param(256, 0.045, id="0.045"),  # epsilon about 0.46
    pytest.param(512, 0.045, id="N512-0.045"),  # direct convolutions
])
def test_full_rhs_matches_dense_solve(n, amplitude):
    # phi = -T_L(Bt Theta)/p from dense matrices built from the kernels,
    # coupled back as full_rhs does
    tol, beta, R = 1e-10, 1.0, 1.0
    grid = FrequencyGrid(k=1, eta_max=16.0, n=n)
    spec = sample_spectrum(build_profile("perturbed", a=amplitude, sigma=2.0), grid)
    k = grid.k
    for t in (0.0, 2.5, 9.0):
        th, q = make_state(grid)
        _, u = dense_vorticity(t, spec, beta, th)
        phi = -u / eval_p(t, k, grid.etas)
        coupling = kernel_matrix(spec, "b") @ phi - beta * (kernel_matrix(spec, "g1") @ phi)
        dense = (-1j * k * R * q + 1j * k * (coupling - beta * phi), 1j * k * phi)
        got = full_rhs(frame(grid, t, beta), np.stack([th, q]), spec, R, tol=tol)
        for ref, val in zip(dense, got):
            assert np.linalg.norm(val - ref) <= 10 * tol * np.linalg.norm(ref)


def test_evolve_zero_data_stays_zero(grid256):
    zeros = np.zeros(grid256.n, complex)
    report, theta, q = evolve(grid256, zeros, zeros, beta=0.0, R=1.0,
                              t_max=1.0, dt=0.01, record_every=10)
    assert not np.any(theta) and not np.any(q)
    assert report.times[-1] == pytest.approx(1.0)
    assert np.all(report.energy == 0.0)
    for norms in (report.q_norm, report.vx_norm, report.vy_norm, report.growth_norm):
        assert np.all(norms == 0.0)
    # no cell carries energy, so the ratio bounds are undefined
    assert math.isnan(report.ratio_max) and math.isnan(report.ratio_min)


def test_evolve_rejects_bad_initial_data(grid256):
    theta, q = make_state(grid256)
    args = {"beta": 0.0, "R": 1.0, "t_max": 1.0, "dt": 0.01}
    nan_theta = theta.copy()
    nan_theta[3] = np.nan
    with pytest.raises(ValueError, match="theta0 contains non-finite entries"):
        evolve(grid256, nan_theta, q, **args)
    inf_q = q.copy()
    inf_q[200] = np.inf
    with pytest.raises(ValueError, match="q0 contains non-finite entries"):
        evolve(grid256, theta, inf_q, **args)
    with pytest.raises(ValueError, match=r"q0: expected 256 values, got shape \(255,\)"):
        evolve(grid256, theta, q[:-1], **args)
    with pytest.raises(ValueError, match=r"theta0: expected 256 values, got shape \(\)"):
        evolve(grid256, 1.0, q, **args)


@pytest.mark.parametrize("eta_max, n", [(20.0, 256), (16.0, 512)], ids=["eta_max", "N"])
def test_evolve_rejects_a_spectrum_sampled_on_another_grid(bump_spectrum, eta_max, n):
    # eta_max 20 against 16 ran to the end with vx off by 5.9e-5 relative;
    # another N ended in a bare numpy shape error
    _, spec = bump_spectrum
    grid = FrequencyGrid(k=1, eta_max=eta_max, n=n)
    with pytest.raises(ValueError, match=rf"\(256, 16.0\), not on the grid's \({n}, {eta_max}\)"):
        evolve(grid, *make_state(grid), beta=1.0, R=1.0, t_max=0.02, dt=0.01, spec=spec)
    # k may differ: one spectrum serves every wavenumber of a run
    grid = FrequencyGrid(k=2, eta_max=16.0, n=256)
    report, _, _ = evolve(grid, *make_state(grid), beta=1.0, R=1.0, t_max=0.02, dt=0.01,
                          spec=spec)
    assert report.times.size == 2


def test_evolve_rejects_unstable_dt(grid256):
    with pytest.raises(ValueError, match="stability"):
        evolve(grid256, *make_state(grid256), beta=0.0, R=4.0, t_max=1.0, dt=0.05)


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
        evolve(grid256, *make_state(grid256), **args)


@pytest.mark.parametrize("k, beta", [(2, 0.0), (2, 1.0), (2, 2.0), (3, 0.0), (3, 1.0)])
def test_couette_k_rescaling(k, beta):
    # with eta = k eta', Theta(t, eta) = Theta'(t, eta') and k Q(t, eta) =
    # Q'(t, eta') map the Couette cell at (k, beta) onto the cell at
    # (1, beta/k): d = k d', p = k^2 p' and each coefficient scales by a power
    # of k.  At k = 2 every scaling is by a power of two, so the runs agree
    # bit for bit.  (k = 3, beta = 3 fails dt_is_stable at dt = 0.01.)
    def final(grid, b):
        x = grid.etas / grid.k
        theta0 = np.exp(-x**2).astype(complex)
        q0 = np.exp(-((x - 1.0) ** 2) / 2).astype(complex) / grid.k
        _, theta, q = evolve(grid, theta0, q0, beta=b, R=1.0, t_max=50.0, dt=0.01,
                             record_every=5000)
        return theta, grid.k * q

    theta, kq = final(FrequencyGrid(k=k, eta_max=20.0 * k, n=512), beta)
    theta1, q1 = final(FrequencyGrid(k=1, eta_max=20.0, n=512), beta / k)
    if k == 2:
        assert np.array_equal(theta, theta1) and np.array_equal(kq, q1)
    else:
        for got, ref in ((theta, theta1), (kq, q1)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("profile", ["couette", "bump"])
def test_evolve_rejects_negative_beta_before_any_step(grid256, bump_spectrum, monkeypatch,
                                                      profile):
    # a Couette run used to make all of its steps before the record pass
    # raised from eval_bl
    from stratshear import evolution as ev

    counts = Counter()
    count_calls(monkeypatch, counts, "rhs", (ev,), "couette_rhs")
    count_calls(monkeypatch, counts, "rhs", (ev,), "full_rhs")
    spec = bump_spectrum[1] if profile == "bump" else None
    with pytest.raises(ValueError, match="beta must be nonnegative, got -0.5$"):
        ev.evolve(grid256, *make_state(grid256), beta=-0.5, R=1.0, t_max=1.0, dt=0.01,
                  spec=spec)
    assert counts["rhs"] == 0


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iter": 0}, r"max_iter must be at least 1, got 0$"),
    ({"tol": 0.0}, r"tol must lie in \(0, 1\), got 0.0$"),
    ({"tol": 1.0}, r"tol must lie in \(0, 1\), got 1.0$"),
    ({"tol": math.nan}, r"tol must lie in \(0, 1\), got nan$"),
], ids=["max_iter=0", "tol=0", "tol=1", "tol=nan"])
@pytest.mark.parametrize("profile", ["couette", "bump"])
def test_evolve_rejects_bad_solver_settings_before_any_step(grid256, bump_spectrum,
                                                            monkeypatch, profile, kwargs,
                                                            message):
    # a Couette run, which makes no solve, used to accept them silently, and a
    # bump run at tol = 0 spent max_iter sweeps before naming a residual
    from stratshear import evolution as ev

    counts = Counter()
    count_calls(monkeypatch, counts, "rhs", (ev,), "couette_rhs")
    count_calls(monkeypatch, counts, "rhs", (ev,), "full_rhs")
    spec = bump_spectrum[1] if profile == "bump" else None
    with pytest.raises(ValueError, match=message):
        ev.evolve(grid256, *make_state(grid256), beta=1.0, R=1.0, t_max=1.0, dt=0.01,
                  spec=spec, **kwargs)
    assert counts["rhs"] == 0


@pytest.mark.parametrize("profile", ["couette", "bump"])
def test_evolve_reports_its_solver_counters(grid256, bump_spectrum, profile):
    # one solve per right-hand side and one per record, all in report.solver;
    # Couette makes none
    spec = bump_spectrum[1] if profile == "bump" else None
    n_steps, every = 20, 5
    report, _, _ = evolve(grid256, *make_state(grid256), beta=1.0, R=1.0,
                          t_max=n_steps * 0.01, dt=0.01, spec=spec, record_every=every)
    stats = report.solver
    if spec is None:
        assert stats == SolveStats()
    else:
        assert stats.solves == 4 * n_steps + report.times.size
        assert 1 <= stats.iterations_max <= 50
        assert 0.0 < stats.residual_max <= 1e-10
        assert 0.0 < stats.contraction_ratio_max < 0.5


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_couette_rk4_matches_an_mpmath_oracle_at_fourth_order(beta):
    # Each Couette cell is the 2 x 2 system
    #     dTheta/dt = -i k R Q + i k beta BL Theta / p,  dQ/dt = -i k BL Theta / p,
    # with d = eta - k t, p = k^2 + d^2 and BL/p = 1 / (p + i beta d), written
    # here in mpmath and integrated by its Taylor-series odefun, so the oracle
    # shares no code with multipliers or evolution.  Two cells at eta = +-0.5,
    # R = 1, k = 1, the standard data, to t = 5.  Measured: the largest error
    # is 2.5e-10 (beta = 0) and 2.2e-10 (beta = 1) at dt = 0.01, and 16.01 and
    # 16.03 times smaller at dt = 0.005.
    mp = pytest.importorskip("mpmath")
    grid = FrequencyGrid(k=1, eta_max=1.0, n=2)
    assert grid.etas.tolist() == [-0.5, 0.5]
    theta0, q0 = make_state(grid)
    oracle = []
    with mp.workdps(20):
        for eta, th, qq in zip(grid.etas.tolist(), theta0, q0):
            def cell(t, y, eta=mp.mpf(eta)):
                d = eta - t
                bl_over_p = 1 / (1 + d * d + mp.j * beta * d)
                return [-mp.j * y[1] + mp.j * beta * bl_over_p * y[0],
                        -mp.j * bl_over_p * y[0]]

            solution = mp.odefun(cell, 0, [mp.mpc(th), mp.mpc(qq)])
            oracle.append([complex(v) for v in solution(5)])
    oracle = np.array(oracle).T
    errors = []
    for dt in (0.01, 0.005):
        _, theta, q = evolve(grid, theta0, q0, beta=beta, R=1.0, t_max=5.0, dt=dt,
                             record_every=1000)
        errors.append(np.max(np.abs(np.stack([theta, q]) - oracle)))
    assert 1e-10 < errors[0] < 5e-10
    assert abs(errors[0] / errors[1] - 16.0) < 0.5


def couette_final(grid, theta0, q0, beta, dt, t_max):
    """(Theta, Q) of a Couette run at R = 1 from t = 0 to t_max."""
    _, theta, q = evolve(grid, theta0, q0, beta=beta, R=1.0, t_max=t_max, dt=dt,
                         record_every=10**6)
    return theta, q


@pytest.mark.parametrize("beta, bound", [(0.0, 1e-11), (1.0, 1e-9), (3.0, 3e-9)],
                         ids=["beta=0", "beta=1", "beta=3"])
def test_couette_determinant_follows_liouville(beta, bound):
    # Each Couette cell is y' = A y with tr A = couette_theta = i k beta / (p + i beta d),
    # d = eta - k t.  By Liouville's formula the determinant of the states
    # grown from (1, 0) and (0, 1) is exp of its integral, which is
    # ln det = -(beta/s) (L(eta - k t) - L(eta)) with s = sqrt(beta^2 + 4 k^2),
    # L(d) = log(d - r+) - log(d - r-) and r+- = i (-beta +- s)/2.  The ratio
    # is compared with 1, not the logs, whose phase wraps at beta = 3.
    # Measured (N = 256, eta_max = 20, k = 1, t = 50): 2.5e-12 at beta = 0;
    # 5.0e-10 and 3.1e-11 at beta = 1, 1.5e-9 and 9.7e-11 at beta = 3, at
    # dt = 0.01 and 0.005 (ratio 16.0 and 15.9, i.e. dt^4).  The bounds
    # leave a margin of 2 to 4; the ratio must lie in [12, 20].
    grid, t_max = FrequencyGrid(k=1, eta_max=20.0, n=256), 50.0
    one, zero = np.ones(grid.n, complex), np.zeros(grid.n, complex)
    s = math.sqrt(beta**2 + 4 * grid.k**2)
    r_plus, r_minus = 0.5j * (-beta + s), 0.5j * (-beta - s)

    def log_term(d):
        return np.log(d - r_plus) - np.log(d - r_minus)

    log_det = -(beta / s) * (log_term(grid.etas - grid.k * t_max) - log_term(grid.etas))
    errors = []
    for dt in (0.01,) if beta == 0.0 else (0.01, 0.005):
        theta1, q1 = couette_final(grid, one, zero, beta, dt, t_max)
        theta2, q2 = couette_final(grid, zero, one, beta, dt, t_max)
        errors.append(np.max(np.abs((theta1 * q2 - theta2 * q1) / np.exp(log_det) - 1.0)))
    assert errors[0] < bound
    if beta != 0.0:
        assert 12.0 <= errors[0] / errors[1] <= 20.0


def test_couette_cross_term_is_conserved_without_stratification():
    # At beta = 0, d/dt Re(Theta conj(Q)) = |Theta|^2 Re(couette_q) and
    # couette_q = -i k/p is imaginary, so Re(Theta conj(Q)) is conserved in
    # each cell.  Measured from the standard data (N = 256, eta_max = 20,
    # k = 1, t = 50, dt = 0.01): a drift of 2.0e-12 of max |Theta0| |Q0|;
    # the bound leaves a margin of 5.
    grid = FrequencyGrid(k=1, eta_max=20.0, n=256)
    theta0, q0 = make_state(grid)
    theta, q = couette_final(grid, theta0, q0, 0.0, 0.01, 50.0)
    drift = np.abs((theta * q.conj()).real - (theta0 * q0.conj()).real)
    assert np.max(drift) < 1e-11 * np.max(np.abs(theta0) * np.abs(q0))


def test_evolve_linearity(grid256):
    theta, q = make_state(grid256)
    _, th1, _ = evolve(grid256, theta, q, beta=1.0, R=1.0, t_max=2.0, dt=0.01,
                       record_every=100)
    _, th2, _ = evolve(grid256, 2.5 * theta, 2.5 * q, beta=1.0, R=1.0, t_max=2.0, dt=0.01,
                       record_every=100)
    assert np.max(np.abs(th2 - 2.5 * th1)) < 1e-12


def test_pointwise_energy_values(grid256):
    # Z1 = 1, Z2 = 0 at the critical time (p' = 0) gives density 1/2: build the
    # raw state whose symmetrized image is that
    k = grid256.k
    eta0 = grid256.etas[140]
    t = eta0 / k
    p = eval_p(t, k, grid256.etas)
    theta = p**0.25 * np.ones(grid256.n, complex)
    q = np.zeros(grid256.n, complex)
    e_eta, _ = energy_of(grid256, t, theta, q, R=1.0)
    assert e_eta[140] == pytest.approx(0.5)


def test_pointwise_energy_coercivity_sandwich():
    rng = np.random.default_rng(50)
    grid = FrequencyGrid(k=1, eta_max=10.0, n=64)
    for R in (0.26, 0.5, 1.0, 4.0):
        lo, hi = coercivity_constants(R)
        for _ in range(160):  # 160 states x 64 cells ~ 10^4 samples
            t = rng.uniform(0, 30)
            theta = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            q = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            e_eta, _ = energy_of(grid, t, theta, q, R)
            z1, z2 = z_map(grid, t, theta, q, R)
            quad = np.abs(z1) ** 2 + np.abs(z2) ** 2
            assert np.all(e_eta >= lo * quad - 1e-12)
            assert np.all(e_eta <= hi * quad + 1e-12)


def test_coercivity_fails_at_and_below_threshold():
    lo_at, _ = coercivity_constants(0.25)
    assert lo_at == pytest.approx(0.0, abs=1e-15)
    lo_below, _ = coercivity_constants(0.2)
    assert lo_below < 0.0


def test_pointwise_energy_returns_quadratic_density(grid256):
    theta, q = make_state(grid256)
    z1, z2 = z_map(grid256, 2.7, theta, q, 2.0)
    _, quad = energy_of(grid256, 2.7, theta, q, 2.0)
    assert np.allclose(quad, np.abs(z1) ** 2 + np.abs(z2) ** 2, rtol=1e-13, atol=0)


def test_pointwise_energy_sobolev_factor(grid256):
    # the recorded damped functional is the energy form of the weighted pair
    # (minv Z1, minv Z2), times the Sobolev factor <(k, eta)>^{2s}
    t, R, s = 2.7, 1.0, 1.5
    k, etas = grid256.k, grid256.etas
    ws = WeightSet.for_run(R, 1.0, 0.02, s=s)
    theta, q = make_state(grid256)
    report, _, _ = evolve(grid256, theta, q, beta=1.0, R=R, t_max=0.01, dt=0.01, t0=t,
                          weights=ws, record_every=1)
    minv = ws.energy_weight_inv(frame(grid256, t))
    z1, z2 = (minv * z for z in z_map(grid256, t, theta, q, R))
    p = eval_p(t, k, etas)
    mixed = (eval_p_prime(t, k, etas) / np.sqrt(p)) * (z1 * np.conj(z2)).real \
        / (2.0 * k * math.sqrt(R))
    bracket = (1.0 + k**2 + etas**2) ** s
    density = 0.5 * bracket * (np.abs(z1) ** 2 + np.abs(z2) ** 2 + mixed)
    assert report.times[0] == t
    assert report.energy_weighted[0] == pytest.approx(grid256.integrate(density), rel=1e-13)


def test_evolve_rejects_overflowing_sobolev_factor(grid256):
    # (1 + k^2 + eta^2)^s overflows on the grid: no Es series of inf
    ws = WeightSet.for_run(1.0, 1.0, 0.02, s=1e4)
    with pytest.raises(ValueError, match="Sobolev factor .* not finite at s = 10000.0$"):
        evolve(grid256, *make_state(grid256), beta=1.0, R=1.0, t_max=0.01, dt=0.01,
               weights=ws, record_every=1)


def test_weighted_energy_zero_state(grid256):
    zeros = np.zeros(grid256.n, complex)
    ws = WeightSet.for_run(1.0, 1.0, 0.02, s=1.5)
    report, _, _ = evolve(grid256, zeros, zeros, beta=1.0, R=1.0, t_max=0.02, dt=0.01,
                          t0=1.0, weights=ws, record_every=1)
    assert np.all(report.energy_weighted == 0.0)


def test_weighted_energy_matches_pointwise_at_t0(grid256):
    # at t = 0 every weight is 1, so with s = 0 the functionals coincide
    ws = WeightSet.for_run(1.0, 0.0, 0.0)  # epsilon 0 -> delta 0
    report, _, _ = evolve(grid256, *make_state(grid256), beta=0.0, R=1.0, t_max=0.01,
                          dt=0.01, weights=ws, record_every=1)
    assert report.energy_weighted[0] == report.energy[0]


def test_recorded_energy_inside_coercivity_envelopes(grid256):
    report, _, _ = evolve(grid256, *make_state(grid256), beta=1.0, R=1.0, t_max=20.0,
                          dt=0.01, record_every=20)
    assert np.all(report.energy >= report.energy_lower - 1e-12)
    assert np.all(report.energy <= report.energy_upper + 1e-12)


def test_negative_wavenumber_evolution():
    grid = FrequencyGrid(k=-1, eta_max=16.0, n=256)
    report, _, _ = evolve(grid, *make_state(grid), beta=1.0, R=1.0, t_max=10.0, dt=0.01,
                          record_every=20)
    assert np.all(np.isfinite(report.energy))
    assert report.ratio_max < 50.0 and report.ratio_min > 1.0 / 50.0
    assert np.all(report.energy >= report.energy_lower - 1e-12)


def test_couette_energy_ratio_envelope(grid256):
    # per-cell energy ratio within the explicit envelope for R=1, beta=1
    report, _, _ = evolve(grid256, *make_state(grid256), beta=1.0, R=1.0, t_max=50.0,
                          dt=0.01, record_every=20)
    log_env = 4 * math.pi * (1 + 1.0) ** 2 / (2 * math.sqrt(1.0) - 1)
    assert math.log(report.ratio_max) <= log_env
    assert math.log(report.ratio_min) >= -log_env
    assert report.ratio_max >= 1.0 >= report.ratio_min


def test_evolve_blowup_guard(grid256, monkeypatch):
    # an artificial exponential runaway must trip the amplitude guard
    from stratshear import evolution as ev

    def runaway(sym, y, R):
        return 10.0 * y

    monkeypatch.setattr(ev, "couette_rhs", runaway)
    with pytest.raises(StepUnstable, match=r"amplitude grew by more than 1e\+06 at k = 1, t = "):
        ev.evolve(grid256, *make_state(grid256), beta=0.0, R=1.0, t_max=2.0, dt=0.01,
                  record_every=1)


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


def count_bl(monkeypatch, counts):
    """Count the calls of eval_bl and the time rows they evaluate: one for the
    frame of a scalar t, m for the batch frame of a column of m times."""
    from stratshear import evolution, multipliers, spectral_ops

    for owner in (multipliers, spectral_ops, evolution):
        real = getattr(owner, "eval_bl", None)
        if real is None:
            continue

        def counted(sym, _real=real):
            counts["eval_bl"] += 1
            counts["eval_bl rows"] += np.size(sym.t)
            return _real(sym)

        monkeypatch.setattr(owner, "eval_bl", counted)


def run_rk4(n, t0, dt, n_steps, beta=0.0):
    """Step a zero state n_steps times on n frequencies with a right-hand side
    that returns zeros.  Returns the (frame, state) pairs that rk4_integrate
    yields and the frames it passes to the right-hand side, in call order."""
    seen = []

    def rhs(sym, y):
        seen.append(sym)
        return np.zeros_like(y)

    frame0 = FrameSymbols(t0, 1, np.linspace(-20.0, 20.0, n), beta)
    return list(rk4_integrate(rhs, np.zeros((2, n)), frame0, dt, n_steps)), seen


def test_frame_blocks_times_are_the_step_times():
    # the half times (t0 + i dt) + dt/2 that stages 2 and 3 read and the whole
    # times t0 + i dt that the steps yield are the floats of a per-step loop,
    # across two block boundaries
    for n in (256, 512):
        block = _block_steps(n)
        t0, dt, n_steps = 1.3, 0.01, 2 * block + 5
        steps, seen = run_rk4(n, t0, dt, n_steps)
        assert [sym.batch.t.shape for sym, _ in steps[1::block]] == [(block, 1), (block, 1),
                                                                     (5, 1)]
        assert seen[1::4] == seen[2::4]  # stages 2 and 3 share the half-time frame
        half = [sym.t for sym in seen[1::4]]
        whole = [sym.t for sym, _ in steps[1:]]
        assert half == [(t0 + i * dt) + 0.5 * dt for i in range(n_steps)]
        assert whole == [t0 + i * dt for i in range(1, n_steps + 1)]
        # stage 1 of a step and stage 4 of the one before read its start frame
        assert seen[0::4] == [steps[0][0]] + seen[3::4][:-1]
        assert seen[3::4] == [sym for sym, _ in steps[1:]]
        # the stage-4 sum (t0 + i dt) + dt would miss some of them by an ulp
        assert any(whole[i] != (t0 + i * dt) + dt for i in range(n_steps))


@pytest.mark.parametrize("n, rows", [(256, 16), (512, 8), (1024, 4)])
def test_frame_blocks_keep_each_batch_symbol_within_64_kib(n, rows):
    # a 16 x 512 complex symbol is 128 KiB, at glibc's mmap threshold
    steps, seen = run_rk4(n, 0.0, 0.01, 3 * rows, beta=1.0)
    halves = [sym.batch for sym in seen[1::4 * rows]]
    wholes = [sym.batch for sym, _ in steps[1::rows]]
    assert [half.t.shape for half in halves] == [(rows, 1)] * 3
    assert [whole.t.shape for whole in wholes] == [(rows, 1)] * 3
    for batch in halves + wholes:
        for name in ("d", "p", "bl", "couette_q", "couette_theta", "resolvent_d", "t_eps_g2"):
            assert getattr(batch, name).nbytes <= 64 * 1024


def test_rk4_integrate_yields_the_start_and_every_step():
    # n_steps + 1 pairs: frame0 itself with a complex copy of y0, then one per
    # step; each state is a fresh array that later steps leave as it was
    y0 = np.ones((2, 8))
    frame0 = FrameSymbols(0.5, 1, np.linspace(-1.0, 1.0, 8), 1.0)
    rhs = lambda sym, y: couette_rhs(sym, y, 1.0)
    for n_steps in (0, 1, 2 * _block_steps(8) + 3):
        steps = [(sym, y, y.copy()) for sym, y in rk4_integrate(rhs, y0, frame0, 0.01, n_steps)]
        assert len(steps) == n_steps + 1
        assert steps[0][0] is frame0
        assert steps[0][1].dtype == complex and not np.shares_memory(steps[0][1], y0)
        assert np.array_equal(steps[0][1], y0)
        for (_, y, copy), (_, later, _) in zip(steps, steps[1:]):
            assert not np.shares_memory(y, later)
            assert np.array_equal(y, copy) and not np.array_equal(y, later)


@pytest.mark.parametrize("kwargs, message", [
    ({"t_max": -0.5}, "t_max must be finite and nonnegative, got -0.5$"),
    ({"t_max": math.inf}, "t_max must be finite and nonnegative, got inf$"),
    ({"t_max": math.nan}, "t_max must be finite and nonnegative, got nan$"),
    ({"record_every": 2.5}, "record_every must be an integer, got 2.5$"),
], ids=["t_max=-0.5", "t_max=inf", "t_max=nan", "record_every=2.5"])
def test_evolve_rejects_bad_time_inputs(grid256, bump_spectrum, kwargs, message):
    # a negative t_max used to return the one record at t0, inf and nan to
    # fail in int(round(t_max / dt)), and record_every = 2.5 to record every
    # fifth step; each is now refused before any step, for either profile kind
    args = {"beta": 1.0, "R": 1.0, "t_max": 1.0, "dt": 0.01, "record_every": 10, **kwargs}
    for spec in (None, bump_spectrum[1]):
        with pytest.raises(ValueError, match=message):
            evolve(grid256, *make_state(grid256), spec=spec, **args)


@pytest.mark.parametrize("t_max", [0.004])
def test_zero_step_evolve_records_the_start(grid256, t_max):
    # round(t_max / dt) is 0: no step is made, and the one record is the
    # initial data at t0
    theta0, q0 = make_state(grid256)
    report, theta, q = evolve(grid256, theta0, q0, beta=1.0, R=1.0, t_max=t_max, dt=0.01,
                              t0=0.7)
    assert report.times.tolist() == [0.7]
    assert np.array_equal(theta, theta0) and np.array_equal(q, q0)
    e_eta, _ = pointwise_energy(frame(grid256, 0.7, 1.0), theta0, q0, 1.0)
    assert report.energy.tolist() == [float(grid256.integrate(e_eta))]
    assert report.q_norm.tolist() == [l2(grid256, q0)]
    assert report.ratio_max == report.ratio_min == 1.0
    assert report.solver == SolveStats()


@pytest.mark.parametrize("n, rows", [(256, 16), (512, 8), (1024, 4)])
def test_record_passes_keep_buffer_and_batch_symbols_within_64_kib(monkeypatch, n, rows):
    # the records wait in one buffer per field and are evaluated together on
    # the batch frame of their times, _block_steps(N) records at a time
    from stratshear import evolution as ev

    passes = []

    def spy(sym, theta, q, R):
        passes.append((sym, theta, q))
        return pointwise_energy(sym, theta, q, R)

    monkeypatch.setattr(ev, "pointwise_energy", spy)
    grid = FrequencyGrid(k=1, eta_max=20.0, n=n)
    weights = WeightSet.for_run(1.0, 1.0, 0.02, s=1.0)
    evolve(grid, *make_state(grid), beta=1.0, R=1.0, t_max=3 * rows * 0.01, dt=0.01,
           weights=weights, record_every=1)
    frame0, *passes = passes
    assert np.ndim(frame0[0].t) == 0
    assert [theta.shape for _, theta, _ in passes] == [(rows, n)] * 3 + [(1, n)]
    for sym, theta, q in passes:
        assert theta.base.nbytes <= 64 * 1024 and q.base.nbytes <= 64 * 1024
        for name in ("d", "p", "bl"):
            assert getattr(sym, name).nbytes <= 64 * 1024


def reference_evolve(grid, theta, q, *, beta, R, t0, dt, n_steps, record_every, spec=None,
                     weights=None):
    """A per-step RK4 loop on the pair (theta, q) with one scalar frame per
    evaluation, and each record evaluated on its own.  Returns the records
    (t, E, E_lower, E_upper, ||q||, ||vx||, ||vy||, growth), the ratio bounds
    (max, min) and the final pair.  With weights, each record also carries
    the damped functional Es, with the Sobolev factor of order weights.s."""
    k = grid.k
    lo_const, hi_const = coercivity_constants(R)

    def rhs(t, th, qq):
        sym = frame(grid, t, beta)
        if spec is None:
            return -1j * k * R * qq + sym.couette_theta * th, sym.couette_q * th
        _, u = solve_vorticity(sym, spec, th)
        phi = -u / sym.p
        coupling = apply_profile_convolution(spec, "b", phi)
        if beta != 0.0:
            coupling = coupling - beta * apply_profile_convolution(spec, "g1", phi)
        return -1j * k * R * qq + 1j * k * (coupling - beta * phi), 1j * k * phi

    records, ratios = [], []
    e0, _ = pointwise_energy(frame(grid, t0, beta), theta, q, R)
    mask = e0 * grid.deta >= 1e-8 * np.sum(e0 * grid.deta)

    def record(step, t, th, qq):
        if step % record_every == 0 or step == n_steps:
            sym = frame(grid, t, beta)
            e_eta, quad = pointwise_energy(sym, th, qq, R)
            omega, u = solve_vorticity(sym, spec, th)
            vx = 1j * sym.d * u / sym.p
            if spec is not None:
                vx = vx + apply_profile_convolution(spec, "g1", vx)
            quad_total = grid.integrate(quad)
            row = (t, float(grid.integrate(e_eta)), lo_const * quad_total, hi_const * quad_total,
                   l2(grid, qq), l2(grid, vx), l2(grid, -1j * k * u / sym.p),
                   l2(grid, omega) + l2(grid, np.sqrt(sym.p) * qq))
            if weights is not None:
                minv = weights.energy_weight_inv(sym)
                sob = (1.0 + k * k + grid.etas**2) ** weights.s
                row += (float(grid.integrate(sob * minv**2 * e_eta)),)
            records.append(row)
            ratios.extend(e_eta[mask] / e0[mask])

    record(0, t0, theta, q)
    for i in range(n_steps):
        t = t0 + i * dt
        t_half = t + 0.5 * dt
        t_next = t0 + (i + 1) * dt
        k1t, k1q = rhs(t, theta, q)
        k2t, k2q = rhs(t_half, theta + 0.5 * dt * k1t, q + 0.5 * dt * k1q)
        k3t, k3q = rhs(t_half, theta + 0.5 * dt * k2t, q + 0.5 * dt * k2q)
        k4t, k4q = rhs(t_next, theta + dt * k3t, q + dt * k3q)
        theta = theta + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        record(i + 1, t_next, theta, q)
    return records, (max(ratios), min(ratios)), theta, q


@pytest.mark.parametrize("profile", ["couette", "couette-weighted", "bump", "bump-N512",
                                     "bump-weighted"])
def test_evolve_matches_per_step_loop_bit_for_bit(grid256, bump_spectrum, bump_spectrum512,
                                                  profile):
    # more than three blocks of steps, one step past a multiple of the block,
    # and more records than one pass takes, the last of them off the record
    # grid at every = 3; at N = 512 the convolutions sum over the kernels
    # directly.  With weights, Es reads the weights at the batch frame of the
    # records
    spec = {"bump": bump_spectrum[1], "bump-N512": bump_spectrum512,
            "bump-weighted": bump_spectrum[1]}.get(profile)
    weights = None
    if profile.endswith("weighted"):
        weights = WeightSet.for_run(1.0, 1.0, bump_spectrum[0].epsilon, s=1.5)
    grid = grid256 if spec is None else spec.grid
    m = _block_steps(grid.n)
    t0, dt, n_steps = 1.3, 0.01, 3 * m + 1
    theta0, q0 = make_state(grid)
    for every in (1, 3):
        records, ratios, theta, q = reference_evolve(
            grid, theta0, q0, beta=1.0, R=1.0, t0=t0, dt=dt, n_steps=n_steps,
            record_every=every, spec=spec, weights=weights)
        assert len(records) > m and len(records) % m != 0
        report, th, qq = evolve(grid, theta0, q0, beta=1.0, R=1.0, t_max=n_steps * dt, dt=dt,
                                t0=t0, spec=spec, weights=weights, record_every=every)
        assert th.tobytes() == theta.tobytes() and qq.tobytes() == q.tobytes()
        columns = [report.times, report.energy, report.energy_lower, report.energy_upper,
                   report.q_norm, report.vx_norm, report.vy_norm, report.growth_norm]
        if weights is not None:
            columns.append(report.energy_weighted)
            assert all(row[-1] > 0.0 for row in records)
        else:
            assert np.isnan(report.energy_weighted).all()
        assert list(zip(*(c.tolist() for c in columns))) == records
        assert (report.ratio_max, report.ratio_min) == ratios
    assert n_steps % 3 != 0  # so the last record of every = 3 is off its grid


@pytest.mark.parametrize("n", [256, 512])
def test_perturbed_evolve_holds_dense_operators_only_below_the_crossover(n):
    # From DIRECT_CONVOLUTION_N up the sampled spectrum holds the three
    # weighted kernels, 2N - 1 values each, and a perturbed run allocates no
    # N x N array while it samples and steps; below it the three dense
    # operators show in the traced peak
    grid = FrequencyGrid(k=1, eta_max=16.0, n=n)
    profile = build_profile("perturbed", a=0.05, sigma=2.0, y0=0.4)
    theta0, q0 = make_state(grid)
    tracemalloc.start()
    try:
        spec = sample_spectrum(profile, grid)
        evolve(grid, theta0, q0, beta=1.0, R=1.0, t_max=0.05, dt=0.01, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shapes = {name: op.shape for name, op in spec.operators.items()}
    operator_bytes = 16 * n * n
    if n >= DIRECT_CONVOLUTION_N:
        assert not spec.dense
        assert shapes == dict.fromkeys(("g1", "g2", "b"), (2 * n - 1,))
        assert peak < operator_bytes
    else:
        assert spec.dense
        assert shapes == dict.fromkeys(("g1", "g2", "b"), (n, n))
        assert peak >= 3 * operator_bytes


def test_evolve_evaluates_bl_once_per_distinct_time(grid256, monkeypatch):
    # Couette steps with closed-form coefficients that need no BL; the
    # records evaluate it once per recorded time, one eval_bl call per pass
    # of up to _block_steps(N) records
    counts = Counter()
    count_bl(monkeypatch, counts)
    n_steps, every = 200, 10
    records = n_steps // every + 1
    evolve(grid256, *make_state(grid256), beta=1.0, R=1.0, t_max=n_steps * 0.01, dt=0.01,
           record_every=every)
    assert counts["eval_bl rows"] == records
    assert counts["eval_bl"] == math.ceil(records / _block_steps(grid256.n))


def test_perturbed_evolve_evaluates_bl_once_per_distinct_time(grid256, bump_spectrum,
                                                              monkeypatch):
    # n steps have 2n + 1 distinct times: t0, and per step t + dt/2 and t + dt.
    # Each is one row of one eval_bl call per block of steps; the records
    # evaluate BL again, once per recorded time in batches of their own
    _, spec = bump_spectrum
    counts = Counter()
    count_bl(monkeypatch, counts)
    n_steps, every = 20, 5
    records = n_steps // every + 1
    block = _block_steps(grid256.n)
    evolve(grid256, *make_state(grid256), beta=1.0, R=1.0, t_max=n_steps * 0.01, dt=0.01,
           record_every=every, spec=spec)
    assert counts["eval_bl rows"] == 2 * n_steps + 1 + records
    assert counts["eval_bl"] == 1 + 2 * math.ceil(n_steps / block) + math.ceil(records / block)


def test_solve_vorticity_builds_symbols_once_per_solve(grid256, bump_spectrum, monkeypatch):
    _, spec = bump_spectrum
    sym = frame(grid256, 1.3, 1.0)
    counts = Counter()
    count_bl(monkeypatch, counts)
    count_calls(monkeypatch, counts, "FrameSymbols", (FrameSymbols,), "__init__")
    stats = SolveStats()
    theta, _ = make_state(grid256)
    solve_vorticity(sym, spec, theta, stats=stats)
    assert stats.iterations_max >= 3
    assert counts["eval_bl"] == 1
    assert counts["FrameSymbols"] == 0


def test_full_rhs_skips_g1_coupling_at_beta_zero(grid256, bump_spectrum, monkeypatch):
    from stratshear import evolution, spectral_ops

    _, spec = bump_spectrum
    th, q = make_state(grid256)
    kernels = Counter()
    for owner in (evolution, spectral_ops):
        real = owner.apply_profile_convolution

        def counted(spec_, name, values, _real=real):
            kernels[name] += 1
            return _real(spec_, name, values)

        monkeypatch.setattr(owner, "apply_profile_convolution", counted)
    sym = frame(grid256, 1.1)
    dtheta, _ = full_rhs(sym, np.stack([th, q]), spec, 1.0)
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

    def poisoned(sym, y, R):
        dy = real(sym, y, R)
        if sym.t > 0.05:
            dy[0 if field == "theta" else 1, grid.n // 2] = np.nan
        return dy

    monkeypatch.setattr(ev, "couette_rhs", poisoned)
    with pytest.raises(StepUnstable, match=r"non-finite field at k = 2, t = 0\.06$"):
        ev.evolve(grid, *make_state(grid), beta=1.0, R=1.0, t_max=2.0, dt=0.01,
                  record_every=10)


@pytest.mark.parametrize("every", [1, 3])
def test_step_guard_fires_with_records_pending(monkeypatch, every):
    # the guard checks each step before its state joins the record buffer,
    # so records waiting for their pass neither delay nor move it
    from stratshear import evolution as ev

    grid = FrequencyGrid(k=3, eta_max=16.0, n=512)
    m = _block_steps(grid.n)
    bad = 2 * m + 5  # the first step whose state is NaN
    real = ev.couette_rhs

    def poisoned(sym, y, R):
        dy = real(sym, y, R)
        if sym.t > (bad - 1) * 0.01:  # stages 2 to 4 of step bad
            dy[1, 7] = np.nan
        return dy

    passes = []

    def spy(sym, theta, q, R):
        passes.append(theta.shape[0])
        return pointwise_energy(sym, theta, q, R)

    monkeypatch.setattr(ev, "couette_rhs", poisoned)
    monkeypatch.setattr(ev, "pointwise_energy", spy)
    with pytest.raises(StepUnstable, match=rf"non-finite field at k = 3, t = {bad / 100:g}$"):
        ev.evolve(grid, *make_state(grid), beta=1.0, R=1.0, t_max=1.0, dt=0.01,
                  record_every=every)
    recorded = (bad - 1) // every + 1  # steps 0 to bad - 1 on the record grid
    assert recorded % m != 0  # so some of them were still waiting
    assert sum(passes[1:]) == recorded - recorded % m
