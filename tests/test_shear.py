import numpy as np
import pytest

from stratshear.shear import (
    GridResolutionError,
    build_profile,
    fourier_transform_samples,
    profile_transforms,
    sample_spectrum,
    sobolev_norm,
)
from stratshear.spectral_ops import FrequencyGrid


def test_couette_profile_is_trivial():
    p = build_profile("couette")
    y = np.linspace(-5, 5, 11)
    assert np.all(p.u_prime(p.u_inverse(y)) == 1.0)
    assert np.all(p.u_second(p.u_inverse(y)) == 0.0)
    assert p.epsilon == 0.0
    assert p.epsilon_velocity == 0.0


def test_zero_amplitude_matches_couette():
    p = build_profile("perturbed", a=0.0, sigma=2.0)
    y = np.linspace(-5, 5, 11)
    assert np.all(p.u_prime(p.u_inverse(y)) == 1.0)
    assert p.epsilon == 0.0
    assert p.is_couette


def test_rejects_non_monotone_parameters():
    with pytest.raises(ValueError, match="non-monotone"):
        build_profile("perturbed", a=2.5, sigma=2.0)
    with pytest.raises(ValueError, match="non-monotone"):
        build_profile("perturbed", a=-1.0, sigma=0.9)
    with pytest.raises(ValueError):
        build_profile("bogus_kind")


def test_epsilon_scales_linearly_with_amplitude():
    ratios = []
    for a in (0.01, 0.02, 0.04):
        p = build_profile("perturbed", a=a, sigma=2.0, s=0.0)
        assert p.epsilon > 0
        ratios.append(p.epsilon / a)
    base = ratios[0]
    for r in ratios[1:]:
        assert abs(r - base) / base < 0.05


def test_inverse_composition_roundtrip():
    prof = build_profile("perturbed", a=0.4, sigma=1.5, y0=0.3)
    rng = np.random.default_rng(31)
    y = rng.uniform(-8, 8, 1000)
    # g(U(y)) must reproduce U'(y)
    assert np.max(np.abs(prof.u_prime(prof.u_inverse(prof.u(y))) - prof.u_prime(y))) <= 1e-9
    assert np.max(np.abs(prof.u_inverse(prof.u(y)) - y)) <= 1e-10


def test_gaussian_transform_closed_form():
    # f(y) = A exp(-(y-c)^2/s^2)  ->  A s sqrt(pi) exp(-s^2 eta^2/4) exp(-i eta c)
    A, s, c = 0.7, 1.3, 0.45
    y = np.linspace(c - 14 * s, c + 14 * s, 4001)
    f = A * np.exp(-((y - c) / s) ** 2)
    etas = np.linspace(-12, 12, 201)
    got = fourier_transform_samples(y, f, etas)
    expected = A * s * np.sqrt(np.pi) * np.exp(-(s * etas) ** 2 / 4) * np.exp(-1j * etas * c)
    assert np.max(np.abs(got - expected)) <= 1e-8


def test_profile_transforms_hermitian_symmetry():
    prof = build_profile("perturbed", a=0.05, sigma=2.0, y0=0.6)
    etas = np.linspace(-10, 10, 81)  # symmetric sampling
    g1, g2, bb = profile_transforms(prof, etas)
    for arr in (g1, g2, bb):
        assert np.max(np.abs(arr[::-1] - np.conj(arr))) < 1e-14


@pytest.mark.parametrize("n_etas", [2001, 1023])
def test_stacked_transform_equals_single_columns(n_etas):
    # every column shares the phase matrix of its chunk, but keeps its own
    # matrix-vector product, so it is bit-identical to a 1-D call
    y = np.linspace(-9.0, 9.0, 1201)
    bump = np.exp(-y**2)
    stack = np.stack([bump, y * np.exp(-(y - 0.3) ** 2), bump**2 - 0.5 * bump], axis=1)
    etas = np.linspace(-15.0, 15.0, n_etas)  # not a multiple of the 256-row chunk
    got = fourier_transform_samples(y, stack, etas)
    assert got.shape == (n_etas, 3)
    for j in range(stack.shape[1]):
        assert np.array_equal(got[:, j], fourier_transform_samples(y, stack[:, j], etas))


def test_single_transform_is_one_dimensional():
    y = np.linspace(-6.0, 6.0, 301)
    got = fourier_transform_samples(y, np.exp(-y**2), np.linspace(-4.0, 4.0, 7))
    assert got.shape == (7,)


def test_sample_spectrum_couette_is_zero():
    grid = FrequencyGrid(k=1, eta_max=16.0, n=256)
    spec = sample_spectrum(build_profile("couette"), grid)
    assert not np.any(spec.kern_g1) and not np.any(spec.kern_b)
    assert not np.any(spec.kern_g2)


def test_sample_spectrum_resolution_guards():
    prof = build_profile("perturbed", a=0.05, sigma=2.0)
    with pytest.raises(GridResolutionError, match="sigma"):
        sample_spectrum(prof, FrequencyGrid(k=1, eta_max=20.0, n=128))  # deta too big
    with pytest.raises(GridResolutionError, match="eta_max"):
        sample_spectrum(prof, FrequencyGrid(k=1, eta_max=8.0, n=256))  # grid too short


def test_build_profile_rejects_unaffordable_transform_window():
    # a very wide bump or a very narrow one would need tens of GB per
    # transform chunk; the quadrature is refused before anything is allocated
    for a, sigma in ((0.01, 2.0e4), (1e-5, 1e-4)):
        with pytest.raises(GridResolutionError, match="quadrature samples"):
            build_profile("perturbed", a=a, sigma=sigma)


def test_sample_spectrum_mirrors_the_nonnegative_half(grid256, bump_spectrum):
    # the kernels are transformed at eta >= 0 only and mirrored, so they are
    # Hermitian bit for bit and agree with a transform over the whole lattice
    profile, spec = bump_spectrum
    n = grid256.n
    lattice = np.arange(-(n - 1), n) * grid256.deta
    for kern, full in zip((spec.kern_g1, spec.kern_g2, spec.kern_b),
                          profile_transforms(profile, lattice)):
        assert np.array_equal(kern[::-1], np.conj(kern))
        assert np.max(np.abs(kern - full)) <= 1e-15 * np.max(np.abs(full))


def test_sample_spectrum_grid_values_and_decay(grid256, bump_spectrum):
    _, spec = bump_spectrum
    n = grid256.n
    assert spec.kern_g1.shape == (2 * n - 1,)
    # the difference lattice is symmetric, so the kernel is Hermitian-symmetric
    assert np.max(np.abs(spec.kern_g1[::-1] - np.conj(spec.kern_g1))) < 1e-13
    # tails have decayed by many orders already at the grid's truncation edge
    # |eta| ~ eta_max, not only at the lattice ends |eta| ~ 2 eta_max
    lattice = np.arange(-(n - 1), n) * grid256.deta
    edge = np.abs(lattice) >= grid256.eta_max - 4 * grid256.deta
    mid = np.max(np.abs(spec.kern_g1))
    assert np.count_nonzero(edge & (np.abs(lattice) <= grid256.eta_max)) >= 8
    assert np.max(np.abs(spec.kern_g1[edge])) < 1e-12 * mid


def test_spectrum_tail_decay_power(grid256, bump_spectrum):
    # |ghat(eta)| <eta>^{s+5} stays bounded by its low-frequency scale on the
    # sampled tail (the transforms decay faster than any polynomial)
    profile, spec = bump_spectrum
    order = profile.sobolev_order + 5.0
    lattice = np.arange(-(grid256.n - 1), grid256.n) * grid256.deta
    bracket = (1.0 + lattice**2) ** (order / 2.0)
    weighted = np.abs(spec.kern_g1) * bracket
    assert np.max(weighted) <= 10.0 * np.max(np.abs(spec.kern_g1))
    tail = np.abs(lattice) >= grid256.eta_max / 2
    assert np.max(weighted[tail]) <= np.max(weighted)


def test_sobolev_norm_zero_and_monotone():
    etas = np.linspace(-20, 20, 801)
    assert sobolev_norm(etas, np.zeros_like(etas), 3.0) == 0.0
    fhat = np.exp(-(etas**2) / 4)
    n0 = sobolev_norm(etas, fhat, 0.0)
    n1 = sobolev_norm(etas, fhat, 1.0)
    n2 = sobolev_norm(etas, fhat, 2.5)
    assert n0 <= n1 <= n2
    # the full bracket with k dominates the one-dimensional bracket
    assert sobolev_norm(etas, fhat, 1.0, k=2) >= n1


def test_sobolev_norm_plancherel_crosscheck():
    # || f ||_{L^2(dy)} equals the order-0 transform norm divided by sqrt(2 pi)
    s, c = 1.1, -0.4
    y = np.linspace(c - 16 * s, c + 16 * s, 6001)
    f = np.exp(-((y - c) / s) ** 2)
    l2_physical = np.sqrt(np.trapezoid(f**2, y))
    etas = np.linspace(-40, 40, 4001)
    fhat = fourier_transform_samples(y, f, etas)
    l2_freq = sobolev_norm(etas, fhat, 0.0) / np.sqrt(2 * np.pi)
    assert abs(l2_freq - l2_physical) <= 1e-6 * l2_physical


def test_reports_both_smallness_measurements():
    p = build_profile("perturbed", a=0.02, sigma=2.0, s=0.0)
    assert p.epsilon > 0
    assert p.epsilon_velocity > 0
    # the velocity-side measurement uses higher orders; both scale together
    p2 = build_profile("perturbed", a=0.04, sigma=2.0, s=0.0)
    assert p2.epsilon_velocity / p.epsilon_velocity == pytest.approx(2.0, rel=0.05)
