import math

import numpy as np
import pytest

from conftest import dense_resolvent, frame, gaussian_field, l2
from lemmas import bl_reference, eval_p
from stratshear.evolution import evolve
from stratshear.observables import (
    ENVELOPE_WIDTH,
    InsufficientWindow,
    fit_modulated_power_law,
    fit_power_law,
)
from stratshear.shear import fourier_transform_samples
from stratshear.spectral_ops import FrequencyGrid, solve_vorticity


def first_record(grid, theta, q, t):
    """Recorded norms of a beta = 0 Couette state at its own time t (row 0)."""
    report, _, _ = evolve(grid, theta, q, beta=0.0, R=1.0, t_max=0.01, dt=0.01, t0=t,
                          record_every=1)
    return report


def test_vorticity_identity_for_zero_beta(grid256):
    theta = gaussian_field(grid256, phase=0.3)
    omega, _ = solve_vorticity(frame(grid256, 2.0), None, theta)
    assert np.array_equal(omega, theta)


def test_vorticity_couette_pointwise_bounds(grid256):
    beta = 2.0
    theta = gaussian_field(grid256, center=0.5)
    for t in (0.0, 3.0, 11.0):
        omega, _ = solve_vorticity(frame(grid256, t, beta), None, theta)
        lo = np.abs(theta) / np.sqrt(1 + beta * beta)
        assert np.all(np.abs(omega) <= np.abs(theta) * (1 + 1e-12))
        assert np.all(np.abs(omega) >= lo * (1 - 1e-12))


def test_vorticity_roundtrip_near_couette(grid256, bump_spectrum):
    _, spec = bump_spectrum
    beta, t = 1.0, 2.0
    theta = gaussian_field(grid256, center=0.2, alpha=0.8)
    omega, _ = solve_vorticity(frame(grid256, t, beta), spec, theta, tol=1e-12)
    # invert: theta = BL^{-1} (omega - B_eps omega)
    bl = bl_reference(t, grid256.k, grid256.etas, beta)
    beps = dense_resolvent(t, spec, beta)[1] @ omega
    back = (omega - beps) / bl
    assert np.max(np.abs(back - theta)) <= 1e-8 * np.max(np.abs(theta))


def test_velocity_multiplier_identity(grid256):
    # beta = 0 and the linear profile: vx = i (eta - k t) Omega / p, vy = -i k Omega / p
    omega = gaussian_field(grid256, center=-0.3, phase=0.2)
    q = gaussian_field(grid256, center=1.0)
    for t in (0.0, 4.0):
        report = first_record(grid256, omega, q, t)
        sym = frame(grid256, t)
        d, p = sym.d, sym.p
        assert report.times[0] == t
        assert report.vx_norm[0] == pytest.approx(l2(grid256, 1j * d * omega / p),
                                                  rel=1e-15)
        assert report.vy_norm[0] == pytest.approx(
            l2(grid256, -1j * grid256.k * omega / p), rel=1e-15)


def test_velocity_point_value():
    # t=0, k=1, omega = 1: vy = -i / p and vx = i eta / p with p = 1 + eta^2,
    # whose norms over the grid span [-L, L] have closed forms
    grid = FrequencyGrid(k=1, eta_max=8.0, n=512)
    ones = np.ones(grid.n, complex)
    report = first_record(grid, ones, ones, 0.0)
    big_l = grid.etas[-1]
    inv_p2 = big_l / (1 + big_l**2) + math.atan(big_l)  # int 1/p^2
    inv_p = 2 * math.atan(big_l)  # int 1/p
    assert report.vy_norm[0] == pytest.approx(math.sqrt(inv_p2), rel=1e-4)
    assert report.vx_norm[0] == pytest.approx(math.sqrt(inv_p - inv_p2), rel=1e-4)


def test_velocity_vy_bounded_by_omega_over_sqrt_p(grid256):
    omega = gaussian_field(grid256)
    for t in (0.0, 7.0):
        report = first_record(grid256, omega, omega, t)
        bound = l2(grid256, np.abs(omega) / np.sqrt(eval_p(t, grid256.k, grid256.etas)))
        assert report.vy_norm[0] <= bound * (1 + 1e-12)


def test_recorded_norms_zero_history(grid256):
    zeros = np.zeros(grid256.n, complex)
    report, _, _ = evolve(grid256, zeros, zeros, beta=1.0, R=1.0, t_max=0.04, dt=0.01,
                          record_every=1)
    assert report.times.size == 5
    assert np.all(report.q_norm == 0) and np.all(report.growth_norm == 0)


def test_recorded_norms_plancherel_crosscheck(grid256):
    # at t=0 the physical-space L2 norm of the density matches the
    # frequency-side norm up to the sqrt(2 pi) transform constant
    alpha = 0.5
    qhat = np.exp(-alpha * grid256.etas**2)
    report = first_record(grid256, np.zeros(grid256.n, complex), qhat.astype(complex), 0.0)
    # q(Y) = (1/2pi) int qhat e^{i eta Y} d eta is a Gaussian with closed form
    y = np.linspace(-30, 30, 6001)
    qy = fourier_transform_samples(grid256.etas, qhat, -y).conj() / (2 * np.pi)
    l2_physical = np.sqrt(np.trapezoid(np.abs(qy) ** 2, y))
    assert report.q_norm[0] / np.sqrt(2 * np.pi) == pytest.approx(l2_physical, rel=1e-6)


def test_recorded_norms_nonnegative_finite(grid256):
    report, _, _ = evolve(grid256, gaussian_field(grid256),
                          gaussian_field(grid256, center=1.0, alpha=0.5),
                          beta=1.0, R=1.0, t_max=5.0, dt=0.01, record_every=50)
    for arr in (report.q_norm, report.vx_norm, report.vy_norm, report.growth_norm):
        assert arr.shape == report.times.shape
        assert np.all(np.isfinite(arr)) and np.all(arr >= 0)


def test_vy_decade_decay_ratio():
    # vy norm falls by ~10^{-3/2} per decade for the standard data
    grid = FrequencyGrid(k=1, eta_max=20.0, n=512)
    ser, _, _ = evolve(grid, np.exp(-grid.etas**2).astype(complex),
                       np.exp(-((grid.etas - 1) ** 2) / 2).astype(complex),
                       beta=1.0, R=1.0, t_max=100.0, dt=0.01, record_every=100)
    i10 = int(np.argmin(np.abs(ser.times - 10.0)))
    i100 = int(np.argmin(np.abs(ser.times - 100.0)))
    ratio = ser.vy_norm[i100] / ser.vy_norm[i10]
    # the -3/2 rate is an upper envelope; the prefactor carries a slow
    # log-periodic modulation (factor ~1.6 per decade at R = 1), so the
    # point ratio may undershoot the nominal decade factor but not exceed it
    assert ratio <= 10.0**-1.5 * 1.25
    assert ratio >= 10.0**-1.5 / 2.0


def test_fit_power_law_exact_series():
    t = np.arange(1.0, 120.0, 0.25)
    fit = fit_power_law(t, t**-1.5, 1.0, 119.0)
    assert fit.exponent == pytest.approx(-1.5, abs=1e-6)
    assert fit.r_squared >= 1 - 1e-10


def test_fit_power_law_scale_invariant_growth():
    t = np.arange(1.0, 120.0, 0.25)
    fit = fit_power_law(t, 7.0 * t**0.5, 1.0, 119.0)
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)
    # rescaling values shifts the intercept only
    fit2 = fit_power_law(t, 0.003 * t**0.5, 1.0, 119.0)
    assert fit2.exponent == pytest.approx(fit.exponent, abs=1e-12)


def test_fit_power_law_oscillatory_envelope():
    t = np.arange(1.0, 200.0, 0.05)
    v = t**-0.5 * (2.0 + np.sin(t))
    fit = fit_power_law(t, v, 1.0, 199.0)
    assert fit.exponent == pytest.approx(-0.5, abs=0.05)


def polyfit_envelope_reference(t, v, t_lo, t_hi):
    """Slope and r^2 of ``np.polyfit`` through the envelope maxima: the
    maximum of each ENVELOPE_WIDTH window of [t_lo, t_hi], the last window
    closed at t_hi."""
    sel = (t >= t_lo) & (t <= t_hi)
    t, v = t[sel], v[sel]
    n_win = math.ceil((t_hi - t_lo) / ENVELOPE_WIDTH)
    x, y = [], []
    for i in range(n_win):
        lo = t_lo + ENVELOPE_WIDTH * i
        inside = (t >= lo) & ((t < lo + ENVELOPE_WIDTH) if i < n_win - 1 else (t <= t_hi))
        if inside.any():
            j = np.argmax(v[inside])
            x.append(math.log(t[inside][j]))
            y.append(math.log(v[inside][j]))
    x, y = np.array(x), np.array(y)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return slope, 1.0 - (resid @ resid) / np.sum((y - y.mean()) ** 2)


ENVELOPE_SERIES = {
    "exact": (np.arange(1.0, 120.0, 0.25), lambda t: t**-1.5),
    "growth": (np.arange(1.0, 120.0, 0.25), lambda t: 0.003 * t**0.5),
    "oscillatory": (np.arange(1.0, 200.0, 0.05), lambda t: t**-0.5 * (2.0 + np.sin(t))),
    # a modulated Couette-like decay with 5 % multiplicative noise
    "noisy": (np.arange(1.0, 200.0, 0.1), lambda t: t**-0.5
              * (1.0 + 0.3 * np.cos(math.sqrt(3.0) * np.log(t)))
              * np.exp(0.05 * np.random.default_rng(3).standard_normal(t.size))),
}


@pytest.mark.parametrize("name", ENVELOPE_SERIES)
def test_fit_power_law_matches_polyfit_reference(name):
    # the closed-form line agrees with a LAPACK least-squares fit to rounding
    t, series = ENVELOPE_SERIES[name]
    fit = fit_power_law(t, series(t), 1.0, t[-1])
    slope, r2 = polyfit_envelope_reference(t, series(t), 1.0, t[-1])
    assert fit.exponent == pytest.approx(slope, rel=1e-12)
    assert fit.r_squared == pytest.approx(r2, rel=1e-12)


def test_fit_power_law_window_guards():
    t = np.arange(1.0, 100.0, 5.0)
    with pytest.raises(InsufficientWindow):
        fit_power_law(t, t**-1.0, 1.0, 40.0)  # only 8 samples
    with pytest.raises(ValueError):
        fit_power_law(t, t**-1.0, 50.0, 10.0)  # inverted window
    with pytest.raises(ValueError):
        fit_power_law(np.arange(1.0, 100.0), -np.ones(99), 1.0, 99.0)  # nonpositive
    # a NaN is refused on the window, and a value outside it is not judged
    t = np.arange(1.0, 100.0)
    v = t**-1.0
    v[50] = math.nan
    with pytest.raises(ValueError, match="positive on the fit window"):
        fit_power_law(t, v, 1.0, 99.0)
    v[50], v[0] = 1.0 / t[50], 0.0
    assert fit_power_law(t, v, 2.0, 99.0).exponent == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.parametrize("a", [-1.5, -0.5, 0.5])
def test_fit_modulated_power_law_synthetic(a):
    # c t^a sqrt(1 + m cos(2 nu ln t + phi)) is the model itself, so the fit
    # is exact up to rounding for every depth, phase, frequency and scale
    t = np.arange(1.0, 400.0, 0.5)
    for nu in (0.5, math.sqrt(0.75), 2.0):
        for m in (0.0, 0.5, 0.99):
            for phi in (0.3, 2.5, 4.0):
                v = 3.7 * t**a * np.sqrt(1.0 + m * np.cos(2.0 * nu * np.log(t) + phi))
                fit = fit_modulated_power_law(t, v, 20.0, 200.0, nu)
                assert fit.exponent == pytest.approx(a, abs=1e-6)
                assert fit.depth == pytest.approx(m, abs=1e-6)
                if m > 0.0:
                    assert abs(math.remainder(fit.phase - phi, 2 * math.pi)) <= 1e-6
                assert fit.r_squared >= 1 - 1e-10
                rescaled = fit_modulated_power_law(t, 1e-4 * v, 20.0, 200.0, nu)
                assert rescaled.exponent == pytest.approx(fit.exponent, abs=1e-8)


def test_fit_modulated_power_law_guards():
    t = np.arange(1.0, 100.0, 0.5)
    v = t**-0.5
    for nu in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            fit_modulated_power_law(t, v, 1.0, 99.0, nu)
    with pytest.raises(InsufficientWindow):
        fit_modulated_power_law(t, v, 10.0, 17.0, 1.0)  # only 15 samples
    with pytest.raises(ValueError):
        fit_modulated_power_law(t, v, 50.0, 10.0, 1.0)  # inverted window
    with pytest.raises(ValueError):
        fit_modulated_power_law(t, -v, 1.0, 99.0, 1.0)  # nonpositive
    step = np.where(t < 50.0, 1.0, 1e-6)  # no power law: the best exponent is off the scan
    with pytest.raises(ValueError, match="no interior minimum"):
        fit_modulated_power_law(t, step, 1.0, 99.0, 1.0)


def test_fit_modulated_power_law_legendre_oracle():
    # At beta = 0 a Couette cell obeys ((1 + tau^2) Q')' + R Q = 0, solved
    # exactly by the Legendre functions Q_n(i tau) and Q_{-n-1}(i tau) of
    # degree n = -1/2 + i sqrt(R - 1/4).  Every combination decays like
    # tau^{-1/2} times a bounded log-periodic factor, independently of the
    # integrator and the frequency grid.
    mp = pytest.importorskip("mpmath")
    R = 1.0
    nu = math.sqrt(R - 0.25)
    degrees = (mp.mpc(-0.5, nu), mp.mpc(-0.5, -nu))

    def legendre_q(n, tau):
        return mp.legenq(n, 0, mp.mpc(0, tau), type=3)

    for n in degrees:
        for tau in (-3.0, 0.7, 40.0):
            w, w1, w2 = (mp.diff(lambda s: legendre_q(n, s), tau, order) for order in range(3))
            terms = ((1 + tau**2) * w2, 2 * tau * w1, R * w)
            assert abs(sum(terms)) <= 1e-12 * max(abs(term) for term in terms)

    tau = np.geomspace(20.0, 200.0, 120)
    q_a, q_b = (np.array([complex(legendre_q(n, s)) for s in tau]) for n in degrees)
    # equal moduli at tau = 200, so the combinations below are modulated to
    # depths between about 0.5 and 0.99
    q_b *= abs(q_a[-1] / q_b[-1])
    for r in (0.3, 0.6, 0.9):
        for phi in np.arange(6) * np.pi / 3:  # includes 4 pi / 3
            v = np.abs(q_a + r * np.exp(1j * phi) * q_b)
            fit = fit_modulated_power_law(tau, v, 20.0, 200.0, nu)
            assert fit.exponent == pytest.approx(-0.5, abs=2e-3)
