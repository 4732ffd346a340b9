import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import (
    dense_resolvent,
    dense_t_eps,
    dense_vorticity,
    frame,
    gaussian_field,
    kernel_matrix,
    l2,
)
from lemmas import bl_reference, eval_p
from stratshear.evolution import evolve, full_rhs
from stratshear.multipliers import FrameSymbols
from stratshear.shear import build_profile, sample_spectrum
from stratshear.spectral_ops import (
    DIRECT_CONVOLUTION_N,
    FrequencyGrid,
    NonConvergence,
    ProfileSpectrum,
    SolveStats,
    _t_eps_values,
    apply_profile_convolution,
    solve_vorticity,
)
from stratshear.weights import WeightSet


def forward_delta_t(t, spec, u):
    """Independent assembly of the forward sheared Laplacian.

    Multiplier part -p plus the profile corrections applied directly:
    (g^2-1) against the squared sheared gradient and b against the gradient,
    with the convolution matrices built from the kernels.
    """
    grid = spec.grid
    d = grid.etas - grid.k * t
    p = eval_p(t, grid.k, grid.etas)
    out = -p * u
    out = out + kernel_matrix(spec, "g2") @ (-(d * d) * u)
    return out + kernel_matrix(spec, "b") @ (1j * d * u)


def test_grid_basic_invariants():
    g = FrequencyGrid(k=2, eta_max=20.0, n=512)
    assert g.deta == 2 * 20.0 / 512
    assert np.all(np.diff(g.etas) == g.deta)  # dyadic spacing is exact
    assert np.allclose(g.etas, -g.etas[::-1])
    with pytest.raises(ValueError):
        FrequencyGrid(k=0, eta_max=10.0, n=64)
    with pytest.raises(ValueError):
        FrequencyGrid(k=1, eta_max=10.0, n=63)


@pytest.mark.parametrize("eta_max, n", [(20.0, 512), (7.3, 200)])
def test_grid_integrate_is_trapezoid_bit_for_bit(eta_max, n):
    # integrate reuses the grid's steps in np.trapezoid's own formula
    g = FrequencyGrid(k=1, eta_max=eta_max, n=n)
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e300):
        y = scale * rng.standard_normal(n)
        assert g.integrate(y) == np.trapezoid(y, g.etas)
        # along the last axis of a stack of densities, row by row
        ys = scale * rng.standard_normal((8, n))
        assert g.integrate(ys).tolist() == [g.integrate(row) for row in ys]


def inv_laplace_via_rhs(t, spec, theta):
    """phi = -T_L(Bt Theta)/p read back from dq = i k phi at beta = 0."""
    _, dq = full_rhs(frame(spec.grid, t), np.stack([theta, np.zeros_like(theta)]), spec, 1.0)
    return dq / (1j * spec.grid.k)


@pytest.mark.parametrize("t", [0.0, 4.0])
def test_inv_laplace_values(grid256, couette_spectrum, t):
    # zero kernels: phi = -Theta/p, so multiplying by -p recovers the input
    u = gaussian_field(grid256)
    out = inv_laplace_via_rhs(t, couette_spectrum, u)
    p = eval_p(t, grid256.k, grid256.etas)
    assert np.max(np.abs(out + u / p)) < 1e-15
    assert np.max(np.abs(-p * out - u)) < 1e-14


def test_inv_laplace_at_critical_time(grid256, couette_spectrum):
    eta0 = grid256.etas[130]
    t = eta0 / grid256.k
    u = gaussian_field(grid256)
    out = inv_laplace_via_rhs(t, couette_spectrum, u)
    assert out[130] == pytest.approx(-u[130] / grid256.k**2)


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
        mat = dense_t_eps(t, spec)
        rng = np.random.default_rng(40)
        v = rng.standard_normal(grid256.n) + 1j * rng.standard_normal(grid256.n)
        for _ in range(60):
            v = mat.conj().T @ (mat @ v)
            v /= np.linalg.norm(v)
        norms[a] = float(np.sqrt(np.linalg.norm(mat.conj().T @ (mat @ v))))
    ratio = (norms[0.05] / 0.05) / (norms[0.025] / 0.025)
    assert abs(ratio - 1.0) < 0.10
    assert norms[0.05] < 1.0  # inside the contractive regime


@pytest.mark.parametrize("name", ["g1", "g2", "b"])
def test_direct_convolution_matches_kernel_matrix(bump_spectrum512, name):
    # From DIRECT_CONVOLUTION_N up np.convolve forms the products of each
    # dense row and sums them in another order, so every entry agrees with
    # the matvec within a few ulp of the sum of |K_ij x_j| over its N
    # products (2.5 ulp at worst, measured on 20 such vectors)
    spec = bump_spectrum512
    grid = spec.grid
    assert grid.n >= DIRECT_CONVOLUTION_N
    rng = np.random.default_rng(11)
    mat = kernel_matrix(spec, name)
    for x in (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n),
              gaussian_field(grid, center=0.5, alpha=0.1, phase=0.3)):
        got = apply_profile_convolution(spec, name, x)
        bound = 8 * np.finfo(float).eps * (np.abs(mat) @ np.abs(x))
        assert np.all(np.abs(got - mat @ x) <= bound)


@pytest.mark.parametrize("name", ["g1", "g2", "b"])
def test_dense_operator_is_the_kernel_matrix_bit_for_bit(bump_spectrum, name):
    # the spectrum's Toeplitz matrix, copied from a sliding-window view,
    # holds the reference's entries in the same C layout
    _, spec = bump_spectrum
    assert spec.grid.n < DIRECT_CONVOLUTION_N
    op = spec.operators[name]
    assert op.flags.c_contiguous
    assert np.array_equal(op, kernel_matrix(spec, name))


def test_dense_operator_build_peaks_at_the_matrix(bump_spectrum):
    # the constructor builds three 16 N^2-byte matrices, each build holding
    # its matrix and the (2N-1)-point weighted kernel; two N x N index arrays
    # per build made one of them peak at 1.5 times its matrix
    _, spec = bump_spectrum
    tracemalloc.start()
    try:
        ProfileSpectrum(spec.grid, spec.kern_g1, spec.kern_g2, spec.kern_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 1.05 * 16 * spec.grid.n**2


@pytest.mark.parametrize("length", ["N", "2N+1"])
def test_spectrum_rejects_kernels_of_the_wrong_length(grid256, length):
    # a kernel of N values made every convolution return one value, which
    # numpy broadcast without an error; one of 2N + 1 failed inside full_rhs
    n = grid256.n
    good = np.zeros(2 * n - 1, dtype=complex)
    bad = np.zeros(n if length == "N" else 2 * n + 1, dtype=complex)
    for kernels in ((bad, good, good), (good, bad, good), (good, good, bad)):
        with pytest.raises(ValueError, match=r"expected shape \(2N-1,\) = \(511,\)"):
            ProfileSpectrum(grid256, *kernels)


def test_profile_convolution_matches_physical_product(grid256, bump_spectrum):
    # convolving transforms must equal transforming the pointwise product
    from stratshear.shear import fourier_transform_samples

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
        omega, u = solve_vorticity(frame(grid256, 0.8), spec, f)
        assert np.array_equal(u, f)
        assert np.array_equal(omega, f)


def test_solve_tl_residual_contract(grid256, bump_spectrum):
    _, spec = bump_spectrum
    tol = 1e-10
    for t in (0.0, 1.7, 12.0):
        f = gaussian_field(grid256, center=-0.5, alpha=0.8)
        sym = frame(grid256, t)
        _, u = solve_vorticity(sym, spec, f, tol=tol)
        resid = u - f - dense_t_eps(t, spec) @ u
        assert np.linalg.norm(resid) <= tol * np.linalg.norm(f)


def test_solve_tl_agrees_with_dense_solve(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t = 2.5
    tol = 1e-10
    eye = np.eye(grid256.n, dtype=complex)
    f = gaussian_field(grid256, center=0.5)
    direct = np.linalg.solve(eye - dense_t_eps(t, spec), f)
    _, vianeumann = solve_vorticity(frame(grid256, t), spec, f, tol=tol)
    denom = np.linalg.norm(f)
    assert np.linalg.norm(direct - vianeumann) <= 10 * tol * denom


def test_solve_tl_nonconvergence_for_large_profile(grid256):
    # amplitude near the monotonicity edge sits far outside the perturbative regime
    prof = build_profile("perturbed", a=1.9, sigma=2.0)
    spec = sample_spectrum(prof, grid256)
    f = gaussian_field(grid256)
    with pytest.raises(NonConvergence, match=r"^solve_vorticity at k = 1, t = 1: "):
        solve_vorticity(frame(grid256, 1.0), spec, f, tol=1e-10, max_iter=50)
    # the label is built only on failure, on either path: here max_iter runs out
    with pytest.raises(NonConvergence, match=r"^solve_vorticity at k = 1, t = 1: residual"):
        solve_vorticity(frame(grid256, 1.0), spec, f, tol=1e-10, max_iter=1)


def test_nonconvergence_survives_pickling(grid256, bump_spectrum):
    # a pool worker's exception reaches the parent pickled; one whose __init__
    # took more arguments than its message could not be rebuilt there
    _, spec = bump_spectrum
    with pytest.raises(NonConvergence) as err:
        solve_vorticity(frame(grid256, 1.0), spec, gaussian_field(grid256), max_iter=1)
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is NonConvergence and str(copy) == str(err.value)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_below_one_is_rejected(grid256, bump_spectrum, max_iter):
    # max_iter = 0 used to end in a TypeError while formatting the
    # NonConvergence message, since no update norm had been taken
    _, spec = bump_spectrum
    f = gaussian_field(grid256)
    message = f"max_iter must be at least 1, got {max_iter}$"
    with pytest.raises(ValueError, match=message):
        solve_vorticity(frame(grid256, 1.0), spec, f, max_iter=max_iter)
    with pytest.raises(ValueError, match=message):
        evolve(grid256, f, f, beta=1.0, R=1.0, t_max=0.01, dt=0.01, spec=spec,
               max_iter=max_iter)


@pytest.mark.parametrize("tol", [0.0, 1.0, float("nan")], ids=["0", "1", "nan"])
def test_tol_outside_unit_interval_is_rejected_before_any_sweep(grid256, bump_spectrum,
                                                                 monkeypatch, tol):
    # tol = nan used to spend all max_iter sweeps and then name a residual
    # "above tol nan"
    from stratshear import spectral_ops

    _, spec = bump_spectrum
    calls = []
    real = spectral_ops.apply_profile_convolution

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(spectral_ops, "apply_profile_convolution", counted)
    with pytest.raises(ValueError, match=rf"^tol must lie in \(0, 1\), got {tol}$"):
        solve_vorticity(frame(grid256, 1.0, 1.0), spec, gaussian_field(grid256), tol=tol)
    assert calls == []


def test_b_eps_zero_cases(grid256, bump_spectrum, couette_spectrum):
    # the vorticity correction vanishes: Omega = BL Theta exactly
    _, spec = bump_spectrum
    u = gaussian_field(grid256)
    omega, _ = solve_vorticity(frame(grid256, 1.0), spec, u)
    assert np.array_equal(omega, u)
    omega, _ = solve_vorticity(frame(grid256, 1.0, 2.0), couette_spectrum, u)
    assert np.array_equal(omega, frame(grid256, 1.0, 2.0).bl * u)
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
        out = dense_resolvent(t, spec, beta)[1] @ u
        consts.append(l2(grid256, out) / (beta * prof.epsilon * l2(grid256, u)))
    assert all(np.isfinite(consts))
    base = consts[0]
    for c in consts[1:]:
        assert abs(c - base) / base < 0.25


def test_solve_tb_couette_and_beta_zero(grid256, bump_spectrum, couette_spectrum):
    # with no vorticity correction the resolvent is the identity on BL Theta
    _, spec = bump_spectrum
    f = gaussian_field(grid256)
    sym = frame(grid256, 1.0, 2.0)
    omega, u = solve_vorticity(sym, couette_spectrum, f)
    bl = sym.bl
    assert np.array_equal(omega, bl * f) and np.array_equal(u, omega)
    assert np.array_equal(solve_vorticity(frame(grid256, 1.0), spec, f)[0], f)


def test_solve_tb_residual_and_norm_bound(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta, tol = 3.0, 1.0, 1e-10
    f = gaussian_field(grid256, center=-1.0)
    t_l, b, bl = dense_resolvent(t, spec, beta)
    omega, u = solve_vorticity(frame(grid256, t, beta), spec, f, tol=tol)
    src = bl * f
    resid = omega - src - b @ omega
    assert np.linalg.norm(resid) <= 2 * tol * np.linalg.norm(src)
    assert np.linalg.norm(u - t_l @ omega) <= 2 * tol * np.linalg.norm(src)
    assert l2(grid256, omega) <= 2.0 * l2(grid256, src)


def test_solve_tb_agrees_with_dense_solve(grid256, bump_spectrum):
    _, spec = bump_spectrum
    t, beta, tol = 2.5, 1.0, 1e-10
    f = gaussian_field(grid256, center=0.5)
    dense_omega, dense_u = dense_vorticity(t, spec, beta, f)
    omega, u = solve_vorticity(frame(grid256, t, beta), spec, f, tol=tol)
    assert np.linalg.norm(dense_omega - omega) <= 10 * tol * np.linalg.norm(f)
    assert np.linalg.norm(dense_u - u) <= 10 * tol * np.linalg.norm(f)


def test_bt_couette_reduces_to_multiplier(grid256, couette_spectrum):
    t, beta = 1.8, 1.5
    u = gaussian_field(grid256, center=0.2)
    bl = bl_reference(t, grid256.k, grid256.etas, beta)
    for spec in (couette_spectrum, None):
        omega, _ = solve_vorticity(frame(grid256, t, beta), spec, u)
        assert np.max(np.abs(omega - bl * u)) < 1e-15


def test_forward_inverse_consistency(grid256, bump_spectrum):
    # apply the assembled forward operator to the resolvent-based inverse
    _, spec = bump_spectrum
    interior = slice(grid256.n // 10, -grid256.n // 10)
    for t in (0.0, 2.0, 9.0):
        u = gaussian_field(grid256, center=0.4, alpha=0.6)
        sym = frame(grid256, t)
        _, tl = solve_vorticity(sym, spec, u, tol=1e-12)
        back = forward_delta_t(t, spec, -tl / sym.p)
        err = np.linalg.norm((back - u)[interior])
        assert err <= 1e-6 * np.linalg.norm(u[interior])


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
        (lambda f: _t_eps_values(sym, spec, f), 1e-12),
        (lambda f: b @ f, 1e-12),
        (lambda f: solve_vorticity(sym, spec, f, tol=tol)[0], 10 * tol),
        (lambda f: solve_vorticity(sym, spec, f, tol=tol)[1], 10 * tol),
    ):
        lhs = op(alpha * u + v)
        rhs = alpha * op(u) + op(v)
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= bound * max(scale, 1.0)


def test_neumann_contraction_ratio_logged(grid256, bump_spectrum):
    _, spec = bump_spectrum
    stats = SolveStats()
    f = gaussian_field(grid256)
    solve_vorticity(frame(grid256, 1.0), spec, f, stats=stats)
    solve_vorticity(frame(grid256, 1.0, 1.0), spec, f, stats=stats)
    assert stats.solves == 2
    assert stats.contraction_ratio_max < 0.5


def test_weighted_commutation_bounds(grid256):
    # exchanging the damping-weighted norm with the resolvents costs at most 2;
    # with the perturbative parts it costs a stable multiple of epsilon
    t_samples = (0.0, 1.0, 5.0, 25.0)
    delta, c_beta = 0.5, 1.0
    weights = WeightSet(delta=delta, c_beta=c_beta)
    u = gaussian_field(grid256, center=0.3, alpha=0.7)

    def weighted_norm(vals, t):
        g = grid256
        p = eval_p(t, g.k, g.etas)
        wgt = (np.sqrt(c_beta) * abs(g.k) / np.sqrt(p)) * p ** -0.25
        wgt = wgt * weights.energy_weight_inv(FrameSymbols(t, g.k, g.etas, 0.0))
        return np.sqrt(g.integrate(np.abs(wgt * vals) ** 2))

    eps_consts = []
    for a in (0.02, 0.04):
        prof = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        spec = sample_spectrum(prof, grid256)
        worst_tl = worst_tb = worst_teps = worst_beps = 0.0
        eye = np.eye(grid256.n)
        for t in t_samples:
            wn = weighted_norm(u, t)
            t_l, b, _ = dense_resolvent(t, spec, 1.0)
            worst_tl = max(worst_tl, weighted_norm(t_l @ u, t) / wn)
            worst_tb = max(worst_tb, weighted_norm(np.linalg.solve(eye - b, u), t) / wn)
            worst_teps = max(worst_teps,
                             weighted_norm(dense_t_eps(t, spec) @ u, t) / wn)
            worst_beps = max(worst_beps, weighted_norm(b @ u, t) / wn)
        assert worst_tl <= 2.0
        assert worst_tb <= 2.0
        eps_consts.append((worst_teps / prof.epsilon, worst_beps / prof.epsilon))
    # constants sampled at two amplitudes stay within a factor two of each other
    for i in (0, 1):
        lo, hi = sorted((eps_consts[0][i], eps_consts[1][i]))
        assert hi <= 2.0 * lo + 1e-12
