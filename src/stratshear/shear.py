"""Background shear profiles near the linear one and their Fourier data.

A profile is U(y) = y + a * phi((y - y0)/sigma) with phi the odd primitive of
a unit Gaussian bump, so U' - 1 and U'' are Schwartz functions of y.  The
moving-frame coefficient functions are

    g(Y) = U'(U^{-1}(Y)),     b(Y) = U''(U^{-1}(Y)),

and the smallness of the profile is measured as

    epsilon = ||g - 1||_{s+5} + ||b||_{s+4}

in the frequency-side Sobolev norms below.  Monotonicity of U (needed for the
inverse) is guaranteed by |a| * sup|phi'| / sigma = |a|/sigma < 1.  The linear
(Couette) profile is the bump of amplitude a = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral_ops import FrequencyGrid, ProfileSpectrum

__all__ = [
    "GridResolutionError",
    "ShearProfile",
    "build_profile",
    "fourier_transform_samples",
    "sample_spectrum",
    "sobolev_norm",
]

_SQRT_PI = math.sqrt(math.pi)
_INVERSION_TOL = 1e-13
# quadrature samples per transform window; a chunk of the transform at 2^15
# samples holds 4 frequencies, 4 x 2^15 complex values (2 MiB)
_MAX_WINDOW_SAMPLES = 2**15
# bytes of the complex phase buffer of one transform chunk, 16 per frequency
# and sample: 12 frequencies at 3,133 samples, 4 at 2^15
_TRANSFORM_CHUNK_BYTES = 768 * 2**10
# the frequencies of a chunk are a multiple of this, so that a BLAS whose
# matrix-vector kernel takes rows four at a time groups them as one product
# over every row would (OpenBLAS 0.3.31, Haswell kernels, sums each row of a
# product of 2 or more rows alike whatever the grouping)
_TRANSFORM_CHUNK_ROWS = 4
# share of either smallness measurement that the rounding floor of its
# transforms may make up (estimated) before build_profile refuses it
_FLOOR_SHARE_BOUND = 1e-3
# largest grid of a perturbed run: each profile convolution costs O(N^2)
# work, N^2 complex multiply-adds, and a right-hand side does 9 to 14 of them
# (at N = 4728 about 0.1 s per right-hand side on 2 cores, extrapolated from
# 3.9-6.6 ms at N = 1024)
_MAX_PERTURBED_N = 4728
# math.erf as a ufunc (it returns Python floats, cast back on use)
_erf = np.frompyfunc(math.erf, 1, 1)


class GridResolutionError(ValueError):
    """Frequency grid too coarse or too short to carry the profile spectrum,
    too fine for its O(N^2) convolutions to stay affordable, or a profile
    whose transform would need an unaffordable quadrature."""


def _bump(z):
    return np.exp(-np.asarray(z, dtype=float) ** 2)


def _bump_primitive(z):
    # odd, with sup of the derivative equal to 1 and range (-sqrt(pi)/2, sqrt(pi)/2)
    return 0.5 * _SQRT_PI * np.asarray(_erf(np.asarray(z, dtype=float)), dtype=float)


@dataclass(frozen=True)
class ShearProfile:
    """Monotone background shear U(y) = y + a * phi((y - y0)/sigma).

    ``epsilon`` is the measured g/b smallness at Sobolev offset orders
    (s+5, s+4); ``epsilon_velocity`` the companion H^6/H^5 measurement of
    (U'-1, U'').  Amplitude 0 is the linear (Couette) profile, whose
    smallness is 0.  Instances are immutable and safe to share across
    workers.
    """

    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    epsilon: float = 0.0
    epsilon_velocity: float = 0.0

    @property
    def is_couette(self) -> bool:
        return self.amplitude == 0.0

    def u(self, y):
        y = np.asarray(y, dtype=float)
        return y + self.amplitude * _bump_primitive((y - self.center) / self.width)

    def u_prime(self, y):
        y = np.asarray(y, dtype=float)
        return 1.0 + (self.amplitude / self.width) * _bump((y - self.center) / self.width)

    def u_second(self, y):
        y = np.asarray(y, dtype=float)
        z = (y - self.center) / self.width
        return (self.amplitude / self.width**2) * (-2.0 * z) * _bump(z)

    def u_inverse(self, Y):
        """Invert U by clamped Newton iteration, tolerance ~1e-13 in y.

        Convergence is guaranteed because U' >= 1 - |a|/sigma > 0 and the root
        lies within |a| sqrt(pi)/2 of Y.
        """
        Y = np.asarray(Y, dtype=float)
        span = abs(self.amplitude) * (0.5 * _SQRT_PI) + 1e-9
        lo, hi = Y - span, Y + span
        y = Y.copy()
        for _ in range(100):
            f = self.u(y) - Y
            if np.max(np.abs(f)) <= _INVERSION_TOL:
                break
            y = np.clip(y - f / self.u_prime(y), lo, hi)
        return y


def fourier_transform_samples(y, values, etas):
    """Trapezoid approximation of integral values(y) * exp(-i eta y) dy.

    ``values`` is one sampled function, shape (M,), or a stack of them,
    shape (M, c); the result has shape (len(etas),) or (len(etas), c).
    ``y`` must be uniformly spaced and wide enough that every sampled
    function is negligible at the window ends.  Evaluation is chunked over
    ``etas`` to bound memory: each chunk fills one phase matrix
    exp(-i eta y), in one complex buffer sized from _TRANSFORM_CHUNK_BYTES
    and reused across chunks, and every column of the stack shares it
    through its own matrix-vector product, so a stacked column equals the
    transform of that column alone.  The argument -eta y is written into the
    buffer's real part, its sine into the imaginary part and its cosine over
    the real part in place, so no separate argument buffer exists.  A chunk
    holds a multiple of _TRANSFORM_CHUNK_ROWS frequencies, and a lone last
    frequency joins the chunk before it: numpy takes a one-row product as a
    dot product, which sums in another order.  The chunking then does not
    change the result.
    """
    y = np.asarray(y, dtype=float)
    values = np.asarray(values)
    etas = np.asarray(etas, dtype=float)
    h = y[1] - y[0]
    wts = np.full(y.shape, h)
    wts[0] = wts[-1] = 0.5 * h
    weighted = np.ascontiguousarray(np.atleast_2d(values.T) * wts)  # one row per column
    out = np.empty((weighted.shape[0], etas.size), dtype=complex)
    chunk = _TRANSFORM_CHUNK_BYTES // (16 * y.size) // _TRANSFORM_CHUNK_ROWS
    chunk = max(chunk, 1) * _TRANSFORM_CHUNK_ROWS
    bounds = list(range(0, etas.size, chunk)) + [etas.size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    rows = max((hi - lo for lo, hi in zip(bounds, bounds[1:])), default=0)
    phase = np.empty((rows, y.size), dtype=complex)
    for lo, hi in zip(bounds, bounds[1:]):
        ph = phase[:hi - lo]
        # exp(-i eta y) = cos(-eta y) + i sin(-eta y), and -eta * y == -(eta * y) exactly
        np.multiply.outer(-etas[lo:hi], y, out=ph.real)
        np.sin(ph.real, out=ph.imag)
        np.cos(ph.real, out=ph.real)
        for row, w in zip(out, weighted):
            row[lo:hi] = ph @ w
    return out[0] if values.ndim == 1 else out.T


def _profile_window(profile: ShearProfile, eta_hi: float):
    halfwidth = 9.0 * profile.width + abs(profile.amplitude) + 1.0
    h = min(profile.width / 10.0, math.pi / (8.0 * max(eta_hi, 1.0)))
    if not 2.0 * halfwidth <= (_MAX_WINDOW_SAMPLES - 1) * h:
        raise GridResolutionError(
            f"sigma = {profile.width:.4g} needs more than {_MAX_WINDOW_SAMPLES} "
            f"quadrature samples to transform the profile up to |eta| = {eta_hi:.4g}"
        )
    n = int(math.ceil(2.0 * halfwidth / h)) + 1
    return np.linspace(profile.center - halfwidth, profile.center + halfwidth, n)


def profile_transforms(profile: ShearProfile, etas):
    """Transforms of (g - 1, g^2 - 1, b) sampled at the given frequencies,
    from their samples at U^{-1}(Y) on the transform window Y."""
    etas = np.asarray(etas, dtype=float)
    Y = _profile_window(profile, float(np.max(np.abs(etas))))
    yin = profile.u_inverse(Y)
    gm1, bb = profile.u_prime(yin) - 1.0, profile.u_second(yin)
    g1, g2, b = fourier_transform_samples(
        Y, np.stack([gm1, gm1 * (gm1 + 2.0), bb], axis=1), etas).T
    return g1, g2, b


def sobolev_norm(etas, fhat, order):
    """Frequency-side Sobolev norm sqrt( int <eta>^{2 order} |fhat|^2 d eta )
    of a pure Y-profile.

    Trapezoid rule on the sampled points; at order 0 this is the plain L^2
    norm of the transform (a factor sqrt(2 pi) above the physical-space L^2
    norm).
    """
    etas = np.asarray(etas, dtype=float)
    fhat = np.asarray(fhat)
    density = (1.0 + etas**2) ** order * np.abs(fhat) ** 2
    return float(np.sqrt(np.trapezoid(density, etas)))


def _measurement_samples(profile: ShearProfile, s: float):
    """The smallness lattice, the transform window Y, and the samples on Y of
    (g - 1, b) at U^{-1}(Y) and of (U' - 1, U''), stacked as four columns.

    The lattice ends at hi, past which <eta>^{2 order} |fhat|^2 has decayed
    below 1e-30 at the highest order measured, max(s + 5, 6).  Its spacing is
    pi/L, L the half-width of the window: |fhat|^2 is the transform of an
    autocorrelation that vanishes outside [-2L, 2L], and so is its product
    with any polynomial, so by Poisson summation the trapezoid rule
    integrates both exactly once 2 pi / spacing >= 2L.  The spacing is
    capped at 1000 intervals per side.  The lattice is exactly symmetric,
    (-m) * h == -(m * h), so that the transforms can be mirrored from
    eta >= 0.
    """
    hi = (10.0 + 2.0 * max(s + 5.0, 6.0)) * max(1.0, 2.0 / profile.width)
    Y = _profile_window(profile, hi)
    m = min(1000, math.ceil(hi * (Y[-1] - Y[0]) / (2.0 * math.pi)))
    yin = profile.u_inverse(Y)
    samples = np.stack([profile.u_prime(yin) - 1.0, profile.u_second(yin),
                        profile.u_prime(Y) - 1.0, profile.u_second(Y)], axis=1)
    return np.arange(-m, m + 1) * (hi / m), Y, samples


def _conj_mirror(half):
    """Transforms of real functions on an exactly symmetric lattice from
    their rows at eta >= 0 (eta = 0 first): the row at -eta is the conjugate
    of the row at eta."""
    return np.concatenate([np.conj(half[:0:-1]), half])


def _measure_smallness(profile: ShearProfile, s: float):
    """epsilon = ||g - 1||_{s+5} + ||b||_{s+4} and the velocity smallness
    ||U' - 1||_6 + ||U''||_5, from one transform of the four samples.

    The computed transforms level off at a rounding floor, which the Sobolev
    weights amplify at high orders.  The floor of each column is estimated
    as the RMS of its transform over the outer tenth of the lattice, taken
    as flat over the whole lattice; if the floor's norms exceed
    _FLOOR_SHARE_BOUND of either measurement, the measurement is refused.
    """
    etas, Y, samples = _measurement_samples(profile, s)
    fhat = _conj_mirror(fourier_transform_samples(Y, samples, etas[etas.size // 2:]))
    orders = (s + 5.0, s + 4.0, 6.0, 5.0)
    norms = [sobolev_norm(etas, col, order) for col, order in zip(fhat.T, orders)]
    outer = np.abs(etas) >= 0.9 * etas[-1]
    floor_rms = np.sqrt(np.mean(np.abs(fhat[outer]) ** 2, axis=0))
    flat = np.ones(etas.size)
    floors = [rms * sobolev_norm(etas, flat, order) for rms, order in zip(floor_rms, orders)]
    eps, eps_velocity = norms[0] + norms[1], norms[2] + norms[3]
    for name, value, floor in (("epsilon", eps, floors[0] + floors[1]),
                               ("the velocity smallness", eps_velocity, floors[2] + floors[3])):
        if floor > _FLOOR_SHARE_BOUND * value:
            raise GridResolutionError(
                f"s = {s:.4g}: the rounding floor of the profile transform makes up "
                f"{floor / value:.2g} of {name}, above {_FLOOR_SHARE_BOUND:g}; lower s"
            )
    return eps, eps_velocity


def build_profile(kind, a=0.0, sigma=1.0, y0=0.0, s=0.0) -> ShearProfile:
    """Construct a shear profile and measure its smallness.

    ``kind`` is "couette", the bump of amplitude 0 (the bump parameters are
    ignored), or "perturbed".
    Rejects non-monotone parameter choices: monotonicity of U requires
    |a| * sup|phi'| / sigma = |a|/sigma < 1.  Raises ``GridResolutionError``
    when the transform window would be unaffordable, or when the rounding
    floor would carry too much of the measured smallness.
    """
    if kind not in ("couette", "perturbed"):
        raise ValueError(f"unknown profile kind {kind!r}")
    if kind == "couette":
        return ShearProfile()
    if sigma <= 0:
        raise ValueError("bump width sigma must be positive")
    if abs(a) / sigma >= 1.0:
        raise ValueError(
            f"non-monotone shear: |a| * sup|phi'| / sigma = {abs(a) / sigma:.3g} >= 1"
        )
    base = ShearProfile(amplitude=a, width=sigma, center=y0)
    if a == 0.0:
        return base
    eps, eps_vel = _measure_smallness(base, s)
    return ShearProfile(amplitude=a, width=sigma, center=y0, epsilon=eps,
                        epsilon_velocity=eps_vel)


def sample_spectrum(profile: ShearProfile, grid: FrequencyGrid) -> Optional[ProfileSpectrum]:
    """Sample the profile transforms on the difference lattice of a grid.

    For perturbed profiles the grid must resolve the bump:
    sigma * deta <= 1/4 (sampling) and eta_max * sigma >= 20 (truncation);
    otherwise aliasing or tail loss would corrupt the convolution operators.
    N must also stay at or below _MAX_PERTURBED_N, since every convolution
    costs O(N^2) work; each check raises ``GridResolutionError`` before
    anything is transformed.
    A Couette profile (a = 0) has no spectrum: it gives None, the ``spec``
    that every operator takes for Couette.
    """
    if profile.is_couette:
        return None
    n = grid.n
    if profile.width * grid.deta > 0.25:
        raise GridResolutionError(
            f"sigma * deta = {profile.width * grid.deta:.4g} > 1/4: grid spacing "
            "too coarse for the profile width"
        )
    if grid.eta_max * profile.width < 20.0:
        raise GridResolutionError(
            f"eta_max * sigma = {grid.eta_max * profile.width:.4g} < 20: grid too "
            "short to carry the profile spectrum"
        )
    if n > _MAX_PERTURBED_N:
        raise GridResolutionError(
            f"N = {n} above {_MAX_PERTURBED_N}: each profile convolution would cost "
            f"{float(n * n):.3g} complex multiply-adds, 9 to 14 of them per right-hand side"
        )
    # The lattice is exactly symmetric and the profiles are real: transform
    # the n points eta >= 0 and mirror them.
    halves = profile_transforms(profile, np.arange(n) * grid.deta)
    g1, g2, bb = (_conj_mirror(half) for half in halves)
    return ProfileSpectrum(grid, kern_g1=g1, kern_g2=g2, kern_b=bb)
