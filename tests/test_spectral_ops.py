import numpy as np
import pytest

from conftest import gaussian_field, operator_matrix
from stratshear.multipliers import eval_bl
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    FrequencyGrid,
    NonConvergence,
    SolveStats,
    SpectralField,
    apply_B_eps,
    apply_Bt,
    apply_T_eps,
    apply_inv_delta_t,
    apply_inv_laplace_L,
    solve_TB,
    solve_TL,
)
from stratshear.weights import energy_weight_inv


def forward_delta_t(t, spec, u):
    """Independent assembly of the forward sheared Laplacian.

    Multiplier part -p plus the profile corrections applied directly:
    (g^2-1) against the squared sheared gradient and b against the gradient.
    """
    from stratshear.spectral_ops import apply_profile_convolution

    grid = spec.grid
    d = grid.shift(t)
    p = grid.p(t)
    out = -p * u.values
    if not spec.trivial:
        out = out + apply_profile_convolution(spec, "g2", -(d * d) * u.values)
        out = out + apply_profile_convolution(spec, "b", 1j * d * u.values)
    return SpectralField(grid, out)


def test_grid_basic_invariants():
    g = FrequencyGrid(k=2, eta_max=20.0, n=512)
    assert g.deta == 2 * 20.0 / 512
    assert np.all(np.diff(g.etas) == g.deta)  # dyadic spacing is exact
    assert np.allclose(g.etas, -g.etas[::-1])
    with pytest.raises(ValueError):
        FrequencyGrid(k=0, eta_max=10.0, n=64)
    with pytest.raises(ValueError):
        FrequencyGrid(k=1, eta_max=10.0, n=63)


def test_field_rejects_non_finite():
    g = FrequencyGrid(k=1, eta_max=4.0, n=8)
    vals = np.zeros(8, complex)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SpectralField(g, vals)


def test_inv_laplace_values(grid256):
    t = 0.0
    u = SpectralField(grid256, np.ones(grid256.n, complex))
    out = apply_inv_laplace_L(t, u)
    assert np.allclose(out.values, -1.0 / (1.0 + grid256.etas**2))
    # composing with multiplication by -p recovers the input exactly
    back = -grid256.p(t) * out.values
    assert np.max(np.abs(back - u.values)) < 1e-14


def test_inv_laplace_at_critical_time(grid256):
    eta0 = grid256.etas[130]
    t = eta0 / grid256.k
    u = gaussian_field(grid256)
    out = apply_inv_laplace_L(t, u)
    assert out.values[130] == pytest.approx(-u.values[130] / grid256.k**2)


def test_t_eps_couette_is_zero(grid256, couette_spectrum):
    u = gaussian_field(grid256, phase=0.7)
    out = apply_T_eps(1.5, couette_spectrum, u)
    assert not np.any(out.values)


def test_t_eps_inner_multiplier_bounded(grid256):
    d = grid256.shift(3.7)
    p = grid256.p(3.7)
    assert np.all((d * d) / p <= 1.0)


def test_t_eps_norm_scales_with_amplitude(grid256):
    # power iteration on the dense matrix; the norm is linear in a to ~10%
    t = 2.0
    norms = {}
    for a in (0.025, 0.05):
        spec = sample_spectrum(build_profile("perturbed", a=a, sigma=2.0, y0=0.4), grid256)
        mat = operator_matrix(lambda f: apply_T_eps(t, spec, f), grid256)
        rng = np.random.default_rng(40)
        v = rng.standard_normal(grid256.n) + 1j * rng.standard_normal(grid256.n)
        for _ in range(60):
            v = mat.conj().T @ (mat @ v)
            v /= np.linalg.norm(v)
        norms[a] = float(np.sqrt(np.linalg.norm(mat.conj().T @ (mat @ v))))
    ratio = (norms[0.05] / 0.05) / (norms[0.025] / 0.025)
    assert abs(ratio - 1.0) < 0.10
    assert norms[0.05] < 1.0  # inside the contractive regime


def test_profile_convolution_matches_physical_product(grid256, bump_spectrum):
    # convolving transforms must equal transforming the pointwise product
    from stratshear.shear import fourier_transform_samples
    from stratshear.spectral_ops import apply_profile_convolution

    profile, spec = bump_spectrum
    s_f, c_f = 1.1, -0.2
    Y = np.linspace(-40, 40, 16001)
    u_y = np.exp(-((Y - c_f) / s_f) ** 2)
    gm1_y = profile.u_prime(profile.u_inverse(Y)) - 1.0
    product_hat = fourier_transform_samples(Y, gm1_y * u_y, grid256.etas)

    u_hat = s_f * np.sqrt(np.pi) * np.exp(-((s_f * grid256.etas) ** 2) / 4) \
        * np.exp(-1j * grid256.etas * c_f)
    got = apply_profile_convolution(spec, "g1", u_hat.astype(complex))
    assert np.max(np.abs(got - product_hat)) <= 1e-8 * np.max(np.abs(product_hat))


def test_solve_tl_couette_identity(grid256, couette_spectrum):
    f = gaussian_field(grid256, center=1.0)
    u = solve_TL(0.8, couette_spectrum, f)
    assert np.array_equal(u.values, f.values)


def test_solve_tl_residual_contract(grid256, bump_spectrum):
    _, spec = bump_spectrum
    tol = 1e-10
    for t in (0.0, 1.7, 12.0):
        f = gaussian_field(grid256, center=-0.5, alpha=0.8)
        u = solve_TL(t, spec, f, tol=tol)
        resid = u.values - f.values - apply_T_eps(t, spec, u).values
        assert np.linalg.norm(resid) <= tol * np.linalg.norm(f.values)


def test_solve_tl_agrees_with_dense_solve(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t = 2.5
    tol = 1e-10
    eye = np.eye(grid256.n, dtype=complex)
    a_mat = eye - operator_matrix(lambda v: apply_T_eps(t, spec, v), grid256)
    f = gaussian_field(grid256, center=0.5)
    direct = np.linalg.solve(a_mat, f.values)
    vianeumann = solve_TL(t, spec, f, tol=tol).values
    denom = np.linalg.norm(f.values)
    assert np.linalg.norm(direct - vianeumann) <= 10 * tol * denom


def test_solve_tl_nonconvergence_for_large_profile(grid256):
    # amplitude near the monotonicity edge sits far outside the perturbative regime
    prof = build_profile("perturbed", a=1.9, sigma=2.0)
    spec = sample_spectrum(prof, grid256)
    f = gaussian_field(grid256)
    with pytest.raises(NonConvergence) as err:
        solve_TL(1.0, spec, f, tol=1e-10, max_iter=50)
    assert err.value.iterations > 0


def test_b_eps_zero_cases(grid256, bump_spectrum, couette_spectrum):
    _, spec = bump_spectrum
    u = gaussian_field(grid256)
    assert not np.any(apply_B_eps(1.0, spec, 0.0, u).values)
    assert not np.any(apply_B_eps(1.0, couette_spectrum, 2.0, u).values)


def test_b_eps_norm_scales_with_epsilon(grid256):
    # || B_eps u || <= C beta eps ||u|| with a stable sampled constant
    t, beta = 1.3, 1.0
    u = gaussian_field(grid256, center=0.3)
    consts = []
    for a in (0.01, 0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        out = apply_B_eps(t, spec, beta, u)
        consts.append(out.l2() / (beta * prof.epsilon * u.l2()))
    assert all(np.isfinite(consts))
    base = consts[0]
    for c in consts[1:]:
        assert abs(c - base) / base < 0.25


def test_solve_tb_couette_and_beta_zero(grid256, bump_spectrum, couette_spectrum):
    _, spec = bump_spectrum
    f = gaussian_field(grid256)
    assert np.array_equal(solve_TB(1.0, couette_spectrum, 2.0, f).values, f.values)
    assert np.array_equal(solve_TB(1.0, spec, 0.0, f).values, f.values)


def test_solve_tb_residual_and_norm_bound(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta, tol = 3.0, 1.0, 1e-10
    f = gaussian_field(grid256, center=-1.0)
    u = solve_TB(t, spec, beta, f, tol=tol)
    resid = u.values - f.values - apply_B_eps(t, spec, beta, u).values
    assert np.linalg.norm(resid) <= 2 * tol * np.linalg.norm(f.values)
    assert u.l2() <= 2.0 * f.l2()


def test_solve_tb_agrees_with_dense_solve(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta, tol = 2.5, 1.0, 1e-10
    eye = np.eye(grid256.n, dtype=complex)
    a_mat = eye - operator_matrix(lambda v: apply_B_eps(t, spec, beta, v), grid256)
    f = gaussian_field(grid256, center=0.5)
    direct = np.linalg.solve(a_mat, f.values)
    vianeumann = solve_TB(t, spec, beta, f, tol=tol).values
    assert np.linalg.norm(direct - vianeumann) <= 10 * tol * np.linalg.norm(f.values)


def test_bt_couette_reduces_to_multiplier(grid256, couette_spectrum):
    t, beta = 1.8, 1.5
    u = gaussian_field(grid256, center=0.2)
    out = apply_Bt(t, couette_spectrum, beta, u)
    bl = eval_bl(t, grid256.k, grid256.etas, beta)
    assert np.max(np.abs(out.values - bl * u.values)) < 1e-15


def test_inv_delta_t_couette_reduces(grid256, couette_spectrum):
    t = 4.0
    u = gaussian_field(grid256)
    out = apply_inv_delta_t(t, couette_spectrum, u)
    assert np.max(np.abs(out.values + u.values / grid256.p(t))) < 1e-15


def test_forward_inverse_consistency(grid256, bump_spectrum):
    # apply the assembled forward operator to the resolvent-based inverse
    _, spec = bump_spectrum
    interior = slice(grid256.n // 10, -grid256.n // 10)
    for t in (0.0, 2.0, 9.0):
        u = gaussian_field(grid256, center=0.4, alpha=0.6)
        inv = apply_inv_delta_t(t, spec, u, tol=1e-12)
        back = forward_delta_t(t, spec, inv)
        err = np.linalg.norm((back.values - u.values)[interior])
        assert err <= 1e-6 * np.linalg.norm(u.values[interior])


def test_operators_are_linear(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta = 1.1, 0.7
    u = gaussian_field(grid256, center=0.5, phase=0.4)
    v = gaussian_field(grid256, center=-1.0, alpha=0.5)
    alpha = 0.37 - 1.2j
    for op in (
        lambda f: apply_T_eps(t, spec, f),
        lambda f: apply_B_eps(t, spec, beta, f),
        lambda f: apply_inv_laplace_L(t, f),
    ):
        lhs = op(SpectralField(grid256, alpha * u.values + v.values)).values
        rhs = alpha * op(u).values + op(v).values
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(scale, 1.0)


def test_neumann_contraction_ratio_logged(grid256, bump_spectrum):
    _, spec = bump_spectrum
    stats = SolveStats()
    f = gaussian_field(grid256)
    solve_TL(1.0, spec, f, stats=stats)
    solve_TB(1.0, spec, 1.0, f, stats=stats)
    assert stats.solves >= 2
    assert stats.ratio_max < 0.5


def test_weighted_commutation_bounds(grid256):
    # exchanging the damping-weighted norm with the resolvents costs at most 2;
    # with the perturbative parts it costs a stable multiple of epsilon
    t_samples = (0.0, 1.0, 5.0, 25.0)
    delta, c_beta = 0.5, 1.0
    u = gaussian_field(grid256, center=0.3, alpha=0.7)

    def weighted_norm(vals, t):
        g = grid256
        wgt = (np.sqrt(c_beta) * abs(g.k) / np.sqrt(g.p(t))) * g.p(t) ** -0.25
        wgt = wgt * energy_weight_inv(t, g.k, g.etas, delta, c_beta)
        return np.sqrt(g.integrate(np.abs(wgt * vals) ** 2))

    eps_consts = []
    for a in (0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        worst_tl = worst_tb = worst_teps = worst_beps = 0.0
        for t in t_samples:
            wn = weighted_norm(u.values, t)
            worst_tl = max(worst_tl, weighted_norm(solve_TL(t, spec, u).values, t) / wn)
            worst_tb = max(worst_tb, weighted_norm(solve_TB(t, spec, 1.0, u).values, t) / wn)
            worst_teps = max(worst_teps, weighted_norm(apply_T_eps(t, spec, u).values, t) / wn)
            worst_beps = max(worst_beps, weighted_norm(apply_B_eps(t, spec, 1.0, u).values, t) / wn)
        assert worst_tl <= 2.0
        assert worst_tb <= 2.0
        eps_consts.append((worst_teps / prof.epsilon, worst_beps / prof.epsilon))
    # constants sampled at two amplitudes stay within a factor two of each other
    for i in (0, 1):
        lo, hi = sorted((eps_consts[0][i], eps_consts[1][i]))
        assert hi <= 2.0 * lo + 1e-12
