import tracemalloc

import numpy as np
import pytest

from stratshear import shear
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


def test_profile_matches_scipy_erf_reference():
    # the bump primitive evaluates math.erf; U agrees with a scipy.special.erf
    # reference within 4 ulp of its larger term (U = y + a phi cancels to 0
    # near one point), and the inverse still round-trips
    erf = pytest.importorskip("scipy.special").erf
    prof = build_profile("perturbed", a=0.0018, sigma=1.6, y0=0.3)
    y = prof.center + prof.width * np.linspace(-12.0, 12.0, 200001)
    z = (y - prof.center) / prof.width
    ref = y + prof.amplitude * (0.5 * np.sqrt(np.pi) * erf(z))
    ulp = np.spacing(np.maximum(np.abs(y), np.abs(ref)))
    assert np.all(np.abs(prof.u(y) - ref) <= 4 * ulp)
    assert np.max(np.abs(prof.u_inverse(ref) - y)) <= 1e-13


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
    etas = np.linspace(-15.0, 15.0, n_etas)  # not a multiple of the chunk's rows
    got = fourier_transform_samples(y, stack, etas)
    assert got.shape == (n_etas, 3)
    for j in range(stack.shape[1]):
        assert np.array_equal(got[:, j], fourier_transform_samples(y, stack[:, j], etas))


@pytest.mark.parametrize("rows", [4, 8, None])
@pytest.mark.parametrize("n_etas", [257, 259])
def test_chunking_does_not_change_a_transform(monkeypatch, rows, n_etas):
    # chunks of 4 rows, 8 rows and every row (None) against one product over
    # the whole phase matrix; 257 leaves a lone last frequency, 259 three
    y = np.linspace(-9.0, 9.0, 1201)
    bump = np.exp(-y**2)
    stack = np.stack([bump, y * np.exp(-(y - 0.3) ** 2), bump**2 - 0.5 * bump], axis=1)
    etas = np.linspace(-15.0, 15.0, n_etas)
    wts = np.full(y.size, y[1] - y[0])
    wts[0] = wts[-1] = 0.5 * (y[1] - y[0])
    arg = np.multiply.outer(-etas, y)
    phase = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    monkeypatch.setattr(shear, "_TRANSFORM_CHUNK_BYTES", 16 * y.size * (rows or n_etas))
    got = fourier_transform_samples(y, stack, etas)
    for j in range(stack.shape[1]):
        want = phase @ (stack[:, j] * wts)
        assert np.array_equal(got[:, j], want)
        assert np.array_equal(fourier_transform_samples(y, stack[:, j], etas), want)


def test_wide_bump_smallness_stays_small_in_memory():
    # sigma = 30 takes about 30,000 quadrature samples; one chunk of 64
    # frequencies made build_profile peak at about 50 MB, 4-frequency chunks
    # with a real argument buffer beside the phase at 6.66 MB, and with the
    # phase buffer alone at 5.44 MB: the bound leaves 10 % above that
    tracemalloc.start()
    try:
        build_profile("perturbed", a=0.05, sigma=30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6


def test_single_transform_is_one_dimensional():
    y = np.linspace(-6.0, 6.0, 301)
    got = fourier_transform_samples(y, np.exp(-y**2), np.linspace(-4.0, 4.0, 7))
    assert got.shape == (7,)


def test_sample_spectrum_couette_is_none():
    # Couette is spec=None alone: no zero kernels as a second encoding
    grid = FrequencyGrid(k=1, eta_max=16.0, n=256)
    assert sample_spectrum(build_profile("couette"), grid) is None


def test_sample_spectrum_resolution_guards():
    prof = build_profile("perturbed", a=0.05, sigma=2.0)
    with pytest.raises(GridResolutionError, match="sigma"):
        sample_spectrum(prof, FrequencyGrid(k=1, eta_max=20.0, n=128))  # deta too big
    with pytest.raises(GridResolutionError, match="eta_max"):
        sample_spectrum(prof, FrequencyGrid(k=1, eta_max=8.0, n=256))  # grid too short
    with pytest.raises(GridResolutionError, match="N = 4730 above 4728"):
        sample_spectrum(prof, FrequencyGrid(k=1, eta_max=20.0, n=4730))  # O(N^2) per convolution


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
    _, spec = bump_spectrum
    order = 5.0  # s + 5 at the fixture's s = 0
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


def test_smallness_measurements_mirror_full_transforms():
    # the measurement lattice is exactly symmetric, so transforming eta >= 0
    # and mirroring gives both smallness measurements bit for bit
    s = 1.5
    prof = build_profile("perturbed", a=0.0018, sigma=1.6, y0=-0.05, s=s)
    etas, Y, samples = shear._measurement_samples(prof, s)
    assert np.array_equal(etas[::-1], -etas)
    g_hat, b_hat, up_hat, us_hat = fourier_transform_samples(Y, samples, etas).T
    assert prof.epsilon == sobolev_norm(etas, g_hat, s + 5.0) + sobolev_norm(etas, b_hat, s + 4.0)
    assert prof.epsilon_velocity == sobolev_norm(etas, up_hat, 6.0) + sobolev_norm(etas, us_hat, 5.0)


def _fine_lattice_transforms(prof, order, columns):
    """Transforms on a 2001-point lattice ending at (10 + 2 order) max(1, 2/sigma),
    with the window of that end, computed at eta >= 0 and mirrored."""
    hi = (10.0 + 2.0 * order) * max(1.0, 2.0 / prof.width)
    etas = np.arange(-1000, 1001) * (hi / 1000)
    Y = shear._profile_window(prof, hi)
    yin = prof.u_inverse(Y)
    samples = {"g": prof.u_prime(yin) - 1.0, "b": prof.u_second(yin),
               "up": prof.u_prime(Y) - 1.0, "us": prof.u_second(Y)}
    half = fourier_transform_samples(Y, np.stack([samples[c] for c in columns], axis=1),
                                     etas[1000:])
    return etas, np.concatenate([np.conj(half[:0:-1]), half]).T


def _two_lattice_smallness(prof, orders):
    """epsilon at each offset order s + 5 in ``orders`` and the velocity
    smallness, each measured on its own 2001-point lattice and window."""
    etas6, (g6, b6, up, us) = _fine_lattice_transforms(prof, 6.0, ("g", "b", "up", "us"))
    eps = {}
    for order in orders:
        etas, (g, b) = ((etas6, (g6, b6)) if order == 6.0
                        else _fine_lattice_transforms(prof, order, ("g", "b")))
        eps[order] = sobolev_norm(etas, g, order) + sobolev_norm(etas, b, order - 1.0)
    return eps, sobolev_norm(etas6, up, 6.0) + sobolev_norm(etas6, us, 5.0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.6, 4.0, 10.0, 30.0])
def test_smallness_matches_two_fine_lattices(sigma):
    # one transform on a lattice of spacing pi/L measures what two transforms
    # on 2001-point lattices (spacing hi/1000) and their own windows measured.
    # Every amplitude meets every centre up to sigma = 4; the wide bumps cost
    # about 4 s per pair on 2 vCPUs, so there each amplitude meets one centre
    # (a centre only translates the profile)
    amplitudes, centres = (0.0018, 0.05, 0.3 * sigma), (0.0, 0.45, -1.0)
    pairs = (zip(amplitudes, centres) if sigma >= 10.0
             else [(a, y0) for a in amplitudes for y0 in centres])
    for a, y0 in pairs:
        eps, velocity = _two_lattice_smallness(
            shear.ShearProfile(amplitude=a, width=sigma, center=y0), (5.0, 6.0))
        for s in (0.0, 1.0):
            prof = build_profile("perturbed", a=a, sigma=sigma, y0=y0, s=s)
            assert prof.epsilon == pytest.approx(eps[s + 5.0], rel=1e-11, abs=0)
            assert prof.epsilon_velocity == pytest.approx(velocity, rel=1e-11, abs=0)


def test_shipped_bump_smallness_matches_two_fine_lattices():
    for y0 in (0.0, 0.45):
        prof = build_profile("perturbed", a=0.0018, sigma=1.6, y0=y0, s=0.0)
        eps, velocity = _two_lattice_smallness(prof, (5.0,))
        assert prof.epsilon == pytest.approx(eps[5.0], rel=1e-12, abs=0)
        assert prof.epsilon_velocity == pytest.approx(velocity, rel=1e-12, abs=0)


def test_smallness_transforms_a_bounded_count_of_frequencies(monkeypatch):
    # the work of the measurement, counted: one transform of at most 1001
    # frequencies eta >= 0 (the old lattices' count), far fewer for the
    # shipped bump width
    counts = []

    def counting(y, values, etas):
        counts.append(np.size(etas))
        return fourier_transform_samples(y, values, etas)

    monkeypatch.setattr(shear, "fourier_transform_samples", counting)
    for sigma in (0.05, 0.5, 1.6, 4.0, 10.0, 30.0):
        counts.clear()
        build_profile("perturbed", a=0.0018, sigma=sigma, y0=0.45)
        assert len(counts) == 1 and counts[0] <= 1001
        if sigma == 1.6:
            assert counts[0] <= 301


def _truncated_smallness(prof, s):
    """Both measurements from the transform on the measurement lattice, each
    column cut to zero from the first frequency past its peak where it
    reaches its rounding floor, the largest modulus at |eta| >= hi/2."""
    etas, Y, samples = shear._measurement_samples(prof, s)
    fhat = fourier_transform_samples(Y, samples, etas).T
    for col in fhat:
        floor = np.max(np.abs(col[np.abs(etas) >= etas[-1] / 2]))
        half = np.abs(col[etas >= 0])
        peak = int(np.argmax(half))
        cut = etas[etas >= 0][peak + int(np.argmax(half[peak:] <= floor))]
        col[np.abs(etas) >= cut] = 0.0
    g, b, up, us = (sobolev_norm(etas, col, order)
                    for col, order in zip(fhat, (s + 5.0, s + 4.0, 6.0, 5.0)))
    return g + b, up + us


def test_smallness_is_refused_where_the_rounding_floor_carries_it():
    # (1 + eta^2)^{s+5} amplifies the transform's rounding floor: every
    # accepted measurement agrees with the floor-truncated transform within
    # the bound, the orders used by the tests and configs are accepted, and
    # those where the floor carries epsilon are refused
    accepted, refused = set(), set()
    for sigma in (0.5, 1.6, 2.0, 4.0):
        for s in (0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0):
            try:
                prof = build_profile("perturbed", a=0.0018, sigma=sigma, y0=0.45, s=s)
            except GridResolutionError as exc:
                assert "rounding floor" in str(exc)
                refused.add((sigma, s))
                continue
            accepted.add((sigma, s))
            eps, velocity = _truncated_smallness(prof, s)
            assert prof.epsilon == pytest.approx(eps, rel=shear._FLOOR_SHARE_BOUND, abs=0)
            assert prof.epsilon_velocity == pytest.approx(
                velocity, rel=shear._FLOOR_SHARE_BOUND, abs=0)
    assert {(sigma, s) for sigma in (1.6, 2.0) for s in (0.0, 1.0, 1.5)} <= accepted
    assert {(1.6, 6.0), (4.0, 5.0)} <= refused
