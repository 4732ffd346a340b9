import numpy as np
import pytest

from stratshear.multipliers import (
    FrameSymbols,
    bl_bound_report,
    eval_bl,
    eval_p,
    eval_p_prime,
)


def test_p_direct_values():
    assert eval_p(0.0, 2, 3.0) == 13.0
    assert eval_p(5.0, 1, 2.0) == 10.0


def test_p_minimum_at_critical_time():
    for k, eta in [(1, 2.0), (3, -7.5), (-2, 4.0)]:
        tc = eta / k
        assert eval_p(tc, k, eta) == pytest.approx(k * k)
        # minimum: nearby times are above
        for dt in (-0.3, 0.2, 1.0):
            assert eval_p(tc + dt, k, eta) >= k * k


def test_rejects_zero_wavenumber():
    with pytest.raises(ValueError):
        eval_p(0.0, 0, 1.0)
    with pytest.raises(ValueError):
        eval_p_prime(0.0, 0, 1.0)
    with pytest.raises(ValueError):
        eval_bl(0.0, 0, 1.0, 1.0)


def test_p_prime_values():
    assert eval_p_prime(0.0, 1, 2.0) == -4.0
    assert eval_p_prime(2.0, 1, 2.0) == 0.0  # critical time


def test_p_prime_matches_central_difference():
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(200):
        k = int(rng.integers(1, 6))
        t = rng.uniform(0.5, 10.0)
        eta = rng.uniform(-10.0, 10.0)
        fd = (eval_p(t + h, k, eta) - eval_p(t - h, k, eta)) / (2 * h)
        assert abs(fd - eval_p_prime(t, k, eta)) <= 1e-6


def test_p_prime_sqrt_p_bound():
    rng = np.random.default_rng(8)
    t = rng.uniform(0, 20, 5000)
    eta = rng.uniform(-20, 20, 5000)
    for k in (1, 2, 5, -3):
        ratio = np.abs(eval_p_prime(t, k, eta)) / np.sqrt(eval_p(t, k, eta))
        assert np.all(ratio <= 2 * abs(k) * (1 + 1e-12))


def test_time_integral_of_k2_over_p_bounded_by_pi():
    # adaptive quadrature of k^2/p against the arctan antiderivative
    from scipy.integrate import quad

    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        eta = rng.uniform(-10, 10)
        previous = 0.0
        for T in (2.0, 10.0, 40.0, 80.0):
            val, _ = quad(lambda s: k * k / eval_p(s, k, eta), 0.0, T, limit=200)
            closed = np.arctan(T - eta / k) + np.arctan(eta / k)
            assert val >= previous - 1e-12  # monotone in T
            assert val <= np.pi + 1e-9
            assert abs(val - closed) <= 1e-6
            previous = val


def test_bl_is_one_for_zero_beta_and_at_critical_time():
    t = np.linspace(0, 30, 64)
    for eta in (-3.0, 0.5, 8.0):
        vals = eval_bl(t, 2, eta, 0.0)
        assert np.all(vals == 1.0)
    # eta - k t = 0 makes the multiplier exactly one for any beta
    assert eval_bl(3.0, 1, 3.0, 5.0) == 1.0 + 0.0j


def test_bl_reciprocal_identity():
    rng = np.random.default_rng(10)
    t = rng.uniform(0, 10, 100)
    eta = rng.uniform(-10, 10, 100)
    for beta in (0.5, 2.0):
        bl = eval_bl(t, 3, eta, beta)
        d = eta - 3 * t
        p = eval_p(t, 3, eta)
        recon = 1.0 / (1.0 + 1j * beta * d / p)
        assert np.max(np.abs(bl - recon)) < 1e-14


def test_bl_explicit_value():
    # beta = 1, k = 1, eta = 1, t = 0: p = 2, so B = 4/5 - 2i/5
    bl = eval_bl(0.0, 1, 1.0, 1.0)
    assert bl == pytest.approx(0.8 - 0.4j)
    assert abs(bl.imag) <= 1.0 / np.sqrt(2.0)  # the beta/sqrt(p) bound


def test_bl_modulus_sandwich():
    rng = np.random.default_rng(11)
    t = rng.uniform(0, 50, 10_000)
    eta = rng.uniform(-20, 20, 10_000)
    k = rng.integers(1, 6, 10_000)
    for beta in (0.5, 1.0, 5.0):
        mods = np.abs([eval_bl(t[i], int(k[i]), eta[i], beta) for i in range(0, 10_000, 7)])
        lo = 1.0 / np.sqrt(1.0 + beta * beta)
        assert np.all(mods >= lo * (1 - 1e-12))
        assert np.all(mods <= 1.0 + 1e-12)


def test_bl_modulus_sandwich_vectorized_bulk():
    rng = np.random.default_rng(12)
    for beta in (0.5, 1.0, 5.0):
        for k in (1, 2, 5):
            t = rng.uniform(0, 50, 10_000)
            eta = rng.uniform(-20, 20, 10_000)
            mods = np.abs(eval_bl(t, k, eta, beta))
            assert np.all(mods >= (1 - 1e-12) / np.sqrt(1 + beta * beta))
            assert np.all(mods <= 1 + 1e-12)


def test_bl_bound_report_zero_beta():
    rep = bl_bound_report(1.0, 1, np.linspace(-5, 5, 101), 0.0)
    assert rep.all_hold()


def test_bl_bound_report_random_sweep():
    rng = np.random.default_rng(13)
    for beta in (0.5, 1.0, 5.0):
        t = rng.uniform(0, 50, 10_000)
        eta = rng.uniform(-20, 20, 10_000)
        for k in (1, 3):
            assert bl_bound_report(t, k, eta, beta).all_hold()


def test_bl_continuous_in_time():
    ts = np.linspace(0, 20, 4001)
    vals = eval_bl(ts, 1, 3.0, 2.0)
    # small steps in t produce small steps in the multiplier
    assert np.max(np.abs(np.diff(vals))) < 0.02


@pytest.mark.parametrize("k, beta", [(1, 1.0), (-2, 0.0), (3, 2.5)])
def test_frame_symbols_match_closed_forms(k, beta):
    eta = np.linspace(-12.0, 12.0, 97)
    t = 1.7
    sym = FrameSymbols(t, k, eta, beta)
    d = eta - k * t
    p = eval_p(t, k, eta)
    bl = eval_bl(t, k, eta, beta)
    assert np.array_equal(sym.d, d) and np.array_equal(sym.p, p)
    assert np.array_equal(sym.bl, bl)
    expected = {
        "couette_theta": 1j * k * beta * bl / p,
        "couette_q": -1j * k * bl / p,
        "resolvent_d": -1j * d / p,
        "t_eps_g2": -(d * d) / p,
        "t_eps_b": 1j * d / p,
    }
    for name, ref in expected.items():
        got = getattr(sym, name)
        assert np.allclose(got, ref, rtol=1e-15, atol=0), name
        assert getattr(sym, name) is got  # built once, then kept
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
