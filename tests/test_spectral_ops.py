import numpy as np
import pytest

from conftest import dense_resolvent, dense_vorticity, frame, gaussian_field, operator_matrix
from stratshear.evolution import full_rhs
from stratshear.multipliers import eval_bl, eval_p
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    FrequencyGrid,
    NonConvergence,
    SolveStats,
    SpectralField,
    apply_T_eps,
    solve_vorticity,
)
from stratshear.weights import energy_weight_inv


def forward_delta_t(t, spec, u):
    """Independent assembly of the forward sheared Laplacian.

    Multiplier part -p plus the profile corrections applied directly:
    (g^2-1) against the squared sheared gradient and b against the gradient.
    """
    from stratshear.spectral_ops import apply_profile_convolution

    grid = spec.grid
    d = grid.etas - grid.k * t
    p = eval_p(t, grid.k, grid.etas)
    out = -p * u.values
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


def inv_laplace_via_rhs(t, spec, theta):
    """phi = -T_L(Bt Theta)/p read back from dq = i k phi at beta = 0."""
    zeros = np.zeros_like(theta)
    _, dq = full_rhs(frame(spec.grid, t), theta, zeros, spec, 1.0)
    return dq / (1j * spec.grid.k)


def test_inv_laplace_values(grid256, couette_spectrum):
    t = 0.0
    u = np.ones(grid256.n, complex)
    out = inv_laplace_via_rhs(t, couette_spectrum, u)
    assert np.allclose(out, -1.0 / (1.0 + grid256.etas**2))
    # composing with multiplication by -p recovers the input exactly
    back = -eval_p(t, grid256.k, grid256.etas) * out
    assert np.max(np.abs(back - u)) < 1e-14


def test_inv_laplace_at_critical_time(grid256, couette_spectrum):
    eta0 = grid256.etas[130]
    t = eta0 / grid256.k
    u = gaussian_field(grid256)
    out = inv_laplace_via_rhs(t, couette_spectrum, u.values)
    assert out[130] == pytest.approx(-u.values[130] / grid256.k**2)


def test_t_eps_couette_is_zero(grid256, couette_spectrum):
    u = gaussian_field(grid256, phase=0.7)
    out = apply_T_eps(frame(grid256, 1.5), couette_spectrum, u)
    assert not np.any(out.values)


def test_t_eps_inner_multiplier_bounded(grid256):
    sym = frame(grid256, 3.7)
    d, p = sym.d, sym.p
    assert np.all((d * d) / p <= 1.0)


def test_t_eps_norm_scales_with_amplitude(grid256):
    # power iteration on the dense matrix; the norm is linear in a to ~10%
    t = 2.0
    norms = {}
    for a in (0.025, 0.05):
        spec = sample_spectrum(build_profile("perturbed", a=a, sigma=2.0, y0=0.4), grid256)
        mat = operator_matrix(lambda f: apply_T_eps(frame(grid256, t), spec, f), grid256)
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


# At beta = 0 the vorticity is BL Theta = Theta and solve_vorticity reduces
# to the resolvent T_L of the Laplacian perturbation: u = Theta + T_eps u.


def test_solve_tl_couette_identity(grid256, couette_spectrum):
    f = gaussian_field(grid256, center=1.0)
    for spec in (couette_spectrum, None):
        omega, u = solve_vorticity(frame(grid256, 0.8), spec, f.values)
        assert np.array_equal(u, f.values)
        assert np.array_equal(omega, f.values)


def test_solve_tl_residual_contract(grid256, bump_spectrum):
    _, spec = bump_spectrum
    tol = 1e-10
    for t in (0.0, 1.7, 12.0):
        f = gaussian_field(grid256, center=-0.5, alpha=0.8)
        sym = frame(grid256, t)
        _, u = solve_vorticity(sym, spec, f.values, tol=tol)
        resid = u - f.values - apply_T_eps(sym, spec, SpectralField(grid256, u)).values
        assert np.linalg.norm(resid) <= tol * np.linalg.norm(f.values)


def test_solve_tl_agrees_with_dense_solve(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t = 2.5
    tol = 1e-10
    eye = np.eye(grid256.n, dtype=complex)
    sym = frame(grid256, t)
    a_mat = eye - operator_matrix(lambda v: apply_T_eps(sym, spec, v), grid256)
    f = gaussian_field(grid256, center=0.5)
    direct = np.linalg.solve(a_mat, f.values)
    _, vianeumann = solve_vorticity(sym, spec, f.values, tol=tol)
    denom = np.linalg.norm(f.values)
    assert np.linalg.norm(direct - vianeumann) <= 10 * tol * denom


def test_solve_tl_nonconvergence_for_large_profile(grid256):
    # amplitude near the monotonicity edge sits far outside the perturbative regime
    prof = build_profile("perturbed", a=1.9, sigma=2.0)
    spec = sample_spectrum(prof, grid256)
    f = gaussian_field(grid256)
    with pytest.raises(NonConvergence, match=r"k = 1, t = 1\b") as err:
        solve_vorticity(frame(grid256, 1.0), spec, f.values, tol=1e-10, max_iter=50)
    assert err.value.iterations > 0


def test_b_eps_zero_cases(grid256, bump_spectrum, couette_spectrum):
    # the vorticity correction vanishes: Omega = BL Theta exactly
    _, spec = bump_spectrum
    u = gaussian_field(grid256)
    omega, _ = solve_vorticity(frame(grid256, 1.0), spec, u.values)
    assert np.array_equal(omega, u.values)
    omega, _ = solve_vorticity(frame(grid256, 1.0, 2.0), couette_spectrum, u.values)
    assert np.array_equal(omega, eval_bl(1.0, grid256.k, grid256.etas, 2.0) * u.values)
    assert not np.any(dense_resolvent(1.0, spec, 0.0)[1])
    assert not np.any(dense_resolvent(1.0, couette_spectrum, 2.0)[1])


def test_b_eps_norm_scales_with_epsilon(grid256):
    # || B_eps u || <= C beta eps ||u|| with a stable sampled constant
    t, beta = 1.3, 1.0
    u = gaussian_field(grid256, center=0.3)
    consts = []
    for a in (0.01, 0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        out = SpectralField(grid256, dense_resolvent(t, spec, beta)[1] @ u.values)
        consts.append(out.l2() / (beta * prof.epsilon * u.l2()))
    assert all(np.isfinite(consts))
    base = consts[0]
    for c in consts[1:]:
        assert abs(c - base) / base < 0.25


def test_solve_tb_couette_and_beta_zero(grid256, bump_spectrum, couette_spectrum):
    # with no vorticity correction the resolvent is the identity on BL Theta
    _, spec = bump_spectrum
    f = gaussian_field(grid256)
    bl = eval_bl(1.0, grid256.k, grid256.etas, 2.0)
    omega, u = solve_vorticity(frame(grid256, 1.0, 2.0), couette_spectrum, f.values)
    assert np.array_equal(omega, bl * f.values) and np.array_equal(u, omega)
    assert np.array_equal(solve_vorticity(frame(grid256, 1.0), spec, f.values)[0], f.values)


def test_solve_tb_residual_and_norm_bound(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta, tol = 3.0, 1.0, 1e-10
    f = gaussian_field(grid256, center=-1.0)
    t_l, b, bl = dense_resolvent(t, spec, beta)
    omega, u = solve_vorticity(frame(grid256, t, beta), spec, f.values, tol=tol)
    src = bl * f.values
    resid = omega - src - b @ omega
    assert np.linalg.norm(resid) <= 2 * tol * np.linalg.norm(src)
    assert np.linalg.norm(u - t_l @ omega) <= 2 * tol * np.linalg.norm(src)
    assert SpectralField(grid256, omega).l2() <= 2.0 * SpectralField(grid256, src).l2()


def test_solve_tb_agrees_with_dense_solve(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta, tol = 2.5, 1.0, 1e-10
    f = gaussian_field(grid256, center=0.5)
    dense_omega, dense_u = dense_vorticity(t, spec, beta, f.values)
    omega, u = solve_vorticity(frame(grid256, t, beta), spec, f.values, tol=tol)
    assert np.linalg.norm(dense_omega - omega) <= 10 * tol * np.linalg.norm(f.values)
    assert np.linalg.norm(dense_u - u) <= 10 * tol * np.linalg.norm(f.values)


def test_bt_couette_reduces_to_multiplier(grid256, couette_spectrum):
    t, beta = 1.8, 1.5
    u = gaussian_field(grid256, center=0.2)
    bl = eval_bl(t, grid256.k, grid256.etas, beta)
    for spec in (couette_spectrum, None):
        omega, _ = solve_vorticity(frame(grid256, t, beta), spec, u.values)
        assert np.max(np.abs(omega - bl * u.values)) < 1e-15


def test_inv_delta_t_couette_reduces(grid256, couette_spectrum):
    t = 4.0
    u = gaussian_field(grid256)
    out = inv_laplace_via_rhs(t, couette_spectrum, u.values)
    assert np.max(np.abs(out + u.values / eval_p(t, grid256.k, grid256.etas))) < 1e-15


def test_forward_inverse_consistency(grid256, bump_spectrum):
    # apply the assembled forward operator to the resolvent-based inverse
    _, spec = bump_spectrum
    interior = slice(grid256.n // 10, -grid256.n // 10)
    for t in (0.0, 2.0, 9.0):
        u = gaussian_field(grid256, center=0.4, alpha=0.6)
        sym = frame(grid256, t)
        _, tl = solve_vorticity(sym, spec, u.values, tol=1e-12)
        back = forward_delta_t(t, spec, SpectralField(grid256, -tl / sym.p))
        err = np.linalg.norm((back.values - u.values)[interior])
        assert err <= 1e-6 * np.linalg.norm(u.values[interior])


def test_operators_are_linear(grid256, bump_spectrum):
    # T_eps and the dense B are linear to rounding; the iterative resolvent
    # is linear to its tolerance
    _, spec = bump_spectrum
    t, beta, tol = 1.1, 0.7, 1e-10
    u = gaussian_field(grid256, center=0.5, phase=0.4)
    v = gaussian_field(grid256, center=-1.0, alpha=0.5)
    alpha = 0.37 - 1.2j
    b = dense_resolvent(t, spec, beta)[1]
    sym = frame(grid256, t, beta)
    for op, bound in (
        (lambda f: apply_T_eps(sym, spec, SpectralField(grid256, f)).values, 1e-12),
        (lambda f: b @ f, 1e-12),
        (lambda f: solve_vorticity(sym, spec, f, tol=tol)[0], 10 * tol),
        (lambda f: solve_vorticity(sym, spec, f, tol=tol)[1], 10 * tol),
    ):
        lhs = op(alpha * u.values + v.values)
        rhs = alpha * op(u.values) + op(v.values)
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= bound * max(scale, 1.0)


def test_neumann_contraction_ratio_logged(grid256, bump_spectrum):
    _, spec = bump_spectrum
    stats = SolveStats()
    f = gaussian_field(grid256)
    solve_vorticity(frame(grid256, 1.0), spec, f.values, stats=stats)
    solve_vorticity(frame(grid256, 1.0, 1.0), spec, f.values, stats=stats)
    assert stats.solves == 2
    assert stats.ratio_max < 0.5


def test_weighted_commutation_bounds(grid256):
    # exchanging the damping-weighted norm with the resolvents costs at most 2;
    # with the perturbative parts it costs a stable multiple of epsilon
    t_samples = (0.0, 1.0, 5.0, 25.0)
    delta, c_beta = 0.5, 1.0
    u = gaussian_field(grid256, center=0.3, alpha=0.7)

    def weighted_norm(vals, t):
        g = grid256
        p = eval_p(t, g.k, g.etas)
        wgt = (np.sqrt(c_beta) * abs(g.k) / np.sqrt(p)) * p ** -0.25
        wgt = wgt * energy_weight_inv(t, g.k, g.etas, delta, c_beta)
        return np.sqrt(g.integrate(np.abs(wgt * vals) ** 2))

    eps_consts = []
    for a in (0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        worst_tl = worst_tb = worst_teps = worst_beps = 0.0
        eye = np.eye(grid256.n)
        for t in t_samples:
            wn = weighted_norm(u.values, t)
            t_l, b, _ = dense_resolvent(t, spec, 1.0)
            worst_tl = max(worst_tl, weighted_norm(t_l @ u.values, t) / wn)
            worst_tb = max(worst_tb, weighted_norm(np.linalg.solve(eye - b, u.values), t) / wn)
            worst_teps = max(worst_teps,
                             weighted_norm(apply_T_eps(frame(grid256, t), spec, u).values, t) / wn)
            worst_beps = max(worst_beps, weighted_norm(b @ u.values, t) / wn)
        assert worst_tl <= 2.0
        assert worst_tb <= 2.0
        eps_consts.append((worst_teps / prof.epsilon, worst_beps / prof.epsilon))
    # constants sampled at two amplitudes stay within a factor two of each other
    for i in (0, 1):
        lo, hi = sorted((eps_consts[0][i], eps_consts[1][i]))
        assert hi <= 2.0 * lo + 1e-12
