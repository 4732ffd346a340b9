import math

import numpy as np
import pytest

from lemmas import check_exchange, eval_m1, eval_p, eval_p_prime
from stratshear.multipliers import FrameSymbols
from stratshear.weights import WeightSet, c_beta_constant, eval_w


def w_at(t, k, eta):
    """The weight w at (t; k, eta), through the frame of that time."""
    return eval_w(FrameSymbols(t, k, eta, 0.0))


def minv_at(t, k, eta, delta, c_beta):
    """The inverse energy weight at (t; k, eta), through the frame of that time."""
    return WeightSet(delta=delta, c_beta=c_beta).energy_weight_inv(FrameSymbols(t, k, eta, 0.0))


def test_c_beta_formula():
    # 256 sqrt(R) (2 sqrt(R)/(2 sqrt(R)-1)) (1+beta^2)
    assert c_beta_constant(1.0, 0.0) == pytest.approx(512.0)
    assert c_beta_constant(1.0, 1.0) == pytest.approx(1024.0)
    assert c_beta_constant(4.0, 0.0) == pytest.approx(256 * 2 * (4 / 3))
    with pytest.raises(ValueError):
        c_beta_constant(0.25, 0.0)


def test_w_is_one_at_time_zero():
    etas = np.array([-7.0, -0.5, 0.0, 0.5, 7.0])
    for k in (1, 2, -3):
        assert np.allclose(w_at(0.0, k, etas), 1.0, rtol=0, atol=1e-14)


def test_w_continuous_at_critical_time():
    for k, eta in [(1, 3.0), (2, 5.0)]:
        tc = eta / k
        left = w_at(tc - 1e-9, k, eta)
        right = w_at(tc + 1e-9, k, eta)
        expected = ((k * k + eta * eta) / k**2) ** 0.25
        assert left == pytest.approx(expected, rel=1e-6)
        assert right == pytest.approx(expected, rel=1e-6)


def test_w_log_derivative_matches_rate():
    rng = np.random.default_rng(21)
    h = 1e-4
    checked = 0
    while checked < 1000:
        k = int(rng.integers(1, 5))
        eta = rng.uniform(-10, 10)
        t = rng.uniform(2 * h, 10.0)
        if abs(t - eta / k) < 0.05:
            continue  # rate jumps across the critical time
        fd = (math.log(w_at(t + h, k, eta)) - math.log(w_at(t - h, k, eta))) / (2 * h)
        rate = abs(eval_p_prime(t, k, eta)) / (4.0 * eval_p(t, k, eta))
        assert abs(fd - rate) <= 1e-5
        checked += 1


def test_w_nondecreasing_in_time():
    # the rate |p'|/(4p) is nonnegative, so w never decreases
    for k, eta in [(1, 6.0), (2, -5.0), (1, 0.0)]:
        ts = np.linspace(0, 30.0, 601)
        w = w_at(ts, k, eta)
        assert np.all(np.diff(w) >= -1e-12)
        assert w[0] == pytest.approx(1.0)


def test_w_lower_bound_identity():
    # w(t) >= ((k^2+eta^2)/p)^(1/4) with equality in the decay phase
    rng = np.random.default_rng(22)
    t = rng.uniform(0, 40, 5000)
    eta = rng.uniform(-15, 15, 5000)
    for k in (1, 3):
        w = w_at(t, k, eta)
        floor = ((k * k + eta**2) / eval_p(t, k, eta)) ** 0.25
        assert np.all(w >= floor * (1 - 1e-12))
        decay = (eta / k > 0) & (t < eta / k)
        assert np.allclose(w[decay], floor[decay], rtol=1e-12)


def test_w_growth_ceiling():
    # w <= 2 <t>^(1/2) <(k, eta)> sampled over a wide box
    rng = np.random.default_rng(23)
    t = rng.uniform(0, 100, 20000)
    eta = rng.uniform(-20, 20, 20000)
    for k in (1, 2, 5):
        w = w_at(t, k, eta)
        cap = 2.0 * (1 + t**2) ** 0.25 * np.sqrt(1 + k * k + eta**2)
        assert np.all(w <= cap)


def test_m1_initial_value_and_bounds():
    etas = np.linspace(-10, 10, 41)
    c = c_beta_constant(1.0, 0.0)
    assert np.allclose(eval_m1(0.0, 1, etas, c), 1.0, atol=1e-14)
    rng = np.random.default_rng(24)
    t = rng.uniform(0, 100, 5000)
    eta = rng.uniform(-20, 20, 5000)
    vals = eval_m1(t, 1, eta, 2.0)
    assert np.all(vals <= math.exp(2.0 * math.pi))
    assert np.all(vals >= math.exp(-2.0 * math.pi))


def test_m1_long_time_limit():
    # at k=1, eta=0 the exponent tends to -c * pi/2
    c = 3.0
    val = eval_m1(1e9, 1, 0.0, c)
    assert val == pytest.approx(math.exp(-c * math.pi / 2), rel=1e-6)


def test_m_log_derivative_additivity():
    # the inverse energy weight m1 / w**delta has
    # d/dt log = -(delta |p'|/(4p) + c k^2/p), by central differences
    rng = np.random.default_rng(25)
    h = 1e-4
    delta, c = 0.8, 1.5
    checked = 0
    while checked < 400:
        k = int(rng.integers(1, 4))
        eta = rng.uniform(-8, 8)
        t = rng.uniform(2 * h, 10.0)
        if abs(t - eta / k) < 0.05:
            continue
        fd = (math.log(minv_at(t + h, k, eta, delta, c))
              - math.log(minv_at(t - h, k, eta, delta, c))) / (2 * h)
        p = eval_p(t, k, eta)
        rate = -(delta * abs(eval_p_prime(t, k, eta)) / (4 * p) + c * k * k / p)
        assert abs(fd - rate) <= 1e-5
        checked += 1


def test_energy_weight_inverse_initial_and_cap():
    etas = np.linspace(-10, 10, 81)
    ws = WeightSet.for_run(1.0, 1.0, 0.01, 64.0)
    assert np.allclose(ws.energy_weight_inv(FrameSymbols(0.0, 1, etas, 0.0)), 1.0, atol=1e-12)
    rng = np.random.default_rng(26)
    t = rng.uniform(0, 200, 2000)
    eta = rng.uniform(-20, 20, 2000)
    vals = ws.energy_weight_inv(FrameSymbols(t, 1, eta, 0.0))
    assert np.all(vals <= 1.0 + 1e-15)
    assert np.all(vals >= 0.0)


def test_weight_set_invariants():
    ws = WeightSet.for_run(R=1.0, beta=1.0, epsilon=0.03, C0=64.0)
    assert ws.delta == pytest.approx(64.0 * 0.03)
    assert ws.c_beta == pytest.approx(c_beta_constant(1.0, 1.0))
    # the Sobolev order of the damped functional travels with the weights
    assert ws.s == 0.0 and WeightSet(0.5, 1.0).s == 0.0
    assert WeightSet.for_run(1.0, 1.0, 0.03, 64.0, s=1.5) == WeightSet(ws.delta, ws.c_beta, 1.5)


def test_exchange_equal_frequencies():
    r = check_exchange(2.0, 1, 3.0, 3.0, delta=0.5)
    assert r.ratio_p == pytest.approx(1.0)
    assert r.ratio_m == pytest.approx(1.0)


def test_exchange_direct_substitution():
    # t=0, k=1, eta=3, xi=0: 1/p(eta) = 1/10 against <3>^2 / p(xi) = 10
    r = check_exchange(0.0, 1, 3.0, 0.0, delta=0.5)
    assert r.ratio_p == pytest.approx(0.01)


def test_exchange_sampled_suprema():
    rng = np.random.default_rng(27)
    n = 100_000
    t = rng.uniform(0, 50, n)
    k = rng.integers(1, 6, n)
    eta = rng.uniform(-20, 20, n)
    xi = rng.uniform(-20, 20, n)
    delta, c_beta = 0.5, 1.0
    sup_p = sup_pp = sup_m = 0.0
    for kk in (1, 2, 3, 4, 5):
        sel = k == kk
        r = check_exchange(t[sel], kk, eta[sel], xi[sel], delta, c_beta)
        sup_p = max(sup_p, float(np.max(r.ratio_p)))
        sup_pp = max(sup_pp, float(np.max(r.ratio_p_prime)))
        sup_m = max(sup_m, float(np.max(r.ratio_m)))
    assert np.isfinite([sup_p, sup_pp, sup_m]).all()
    assert sup_p <= 16.0
    assert sup_pp <= 16.0
    assert sup_m <= 16.0 * math.exp(2.0 * c_beta)
