"""Background shear profiles near the linear one and their Fourier data.

A profile is U(y) = y + a * phi((y - y0)/sigma) with phi the odd primitive of
a unit Gaussian bump, so U' - 1 and U'' are Schwartz functions of y.  The
moving-frame coefficient functions are

    g(Y) = U'(U^{-1}(Y)),     b(Y) = U''(U^{-1}(Y)),

and the smallness of the profile is measured as

    epsilon = ||g - 1||_{s+5} + ||b||_{s+4}

in the frequency-side Sobolev norms below.  Monotonicity of U (needed for the
inverse) is guaranteed by |a| * sup|phi'| / sigma = |a|/sigma < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral_ops import FrequencyGrid

__all__ = [
    "GridResolutionError",
    "ProfileSpectrum",
    "ShearProfile",
    "build_profile",
    "fourier_transform_samples",
    "sample_spectrum",
    "sobolev_norm",
]

_SQRT_PI = math.sqrt(math.pi)
_INVERSION_TOL = 1e-13
# quadrature samples per transform window; one 256-frequency chunk of the
# transform then holds a 256 x 2^15 real and a 256 x 2^15 complex buffer
# (about 200 MB together)
_MAX_WINDOW_SAMPLES = 2**15


class GridResolutionError(ValueError):
    """Frequency grid too coarse or too short to carry the profile spectrum,
    or a profile whose transform would need an unaffordable quadrature."""


def _bump(z):
    return np.exp(-np.asarray(z, dtype=float) ** 2)


def _bump_primitive(z):
    # odd, with sup of the derivative equal to 1 and range (-sqrt(pi)/2, sqrt(pi)/2);
    # scipy.special is imported here so that only a perturbed profile pays for it
    from scipy.special import erf

    return 0.5 * _SQRT_PI * erf(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class ShearProfile:
    """Monotone background shear U(y) = y + a * phi((y - y0)/sigma).

    ``epsilon`` is the measured g/b smallness at Sobolev offset orders
    (s+5, s+4); ``epsilon_velocity`` the companion H^6/H^5 measurement of
    (U'-1, U'').  Both are 0 for the plain linear profile.  Instances are
    immutable and safe to share across workers.
    """

    kind: str
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    sobolev_order: float = 0.0
    epsilon: float = 0.0
    epsilon_velocity: float = 0.0

    @property
    def is_couette(self) -> bool:
        return self.kind == "couette" or self.amplitude == 0.0

    def u(self, y):
        y = np.asarray(y, dtype=float)
        if self.is_couette:
            return y
        return y + self.amplitude * _bump_primitive((y - self.center) / self.width)

    def u_prime(self, y):
        y = np.asarray(y, dtype=float)
        if self.is_couette:
            return np.ones_like(y)
        return 1.0 + (self.amplitude / self.width) * _bump((y - self.center) / self.width)

    def u_second(self, y):
        y = np.asarray(y, dtype=float)
        if self.is_couette:
            return np.zeros_like(y)
        z = (y - self.center) / self.width
        return (self.amplitude / self.width**2) * (-2.0 * z) * _bump(z)

    def u_inverse(self, Y):
        """Invert U by clamped Newton iteration, tolerance ~1e-13 in y.

        Convergence is guaranteed because U' >= 1 - |a|/sigma > 0 and the root
        lies within |a| sqrt(pi)/2 of Y.
        """
        Y = np.asarray(Y, dtype=float)
        if self.is_couette:
            return Y.copy()
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
    ``etas`` to bound memory: each chunk of 256 frequencies fills one phase
    matrix exp(-i eta y), in buffers reused across chunks, and every column
    of the stack shares it through its own matrix-vector product, so a
    stacked column equals the transform of that column alone.
    """
    y = np.asarray(y, dtype=float)
    values = np.asarray(values)
    etas = np.asarray(etas, dtype=float)
    h = y[1] - y[0]
    wts = np.full(y.shape, h)
    wts[0] = wts[-1] = 0.5 * h
    weighted = np.ascontiguousarray(np.atleast_2d(values.T) * wts)  # one row per column
    out = np.empty((weighted.shape[0], etas.size), dtype=complex)
    chunk = 256
    rows = min(chunk, etas.size)
    arg = np.empty((rows, y.size))
    phase = np.empty((rows, y.size), dtype=complex)
    for i in range(0, etas.size, chunk):
        block = etas[i : i + chunk]
        nb = block.size
        # exp(-i eta y) = cos(-eta y) + i sin(-eta y), and -eta * y == -(eta * y) exactly
        np.multiply.outer(-block, y, out=arg[:nb])
        np.cos(arg[:nb], out=phase[:nb].real)
        np.sin(arg[:nb], out=phase[:nb].imag)
        for row, w in zip(out, weighted):
            row[i : i + nb] = phase[:nb] @ w
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


def _frame_samples(profile: ShearProfile, etas):
    """Transform window Y and the samples of g - 1 and b on it."""
    Y = _profile_window(profile, float(np.max(np.abs(etas))))
    yin = profile.u_inverse(Y)
    return Y, profile.u_prime(yin) - 1.0, profile.u_second(yin)


def profile_transforms(profile: ShearProfile, etas):
    """Transforms of (g - 1, g^2 - 1, b) sampled at the given frequencies."""
    etas = np.asarray(etas, dtype=float)
    if profile.is_couette:
        z = np.zeros(etas.shape, dtype=complex)
        return z, z.copy(), z.copy()
    Y, gm1, bb = _frame_samples(profile, etas)
    g1, g2, b = fourier_transform_samples(
        Y, np.stack([gm1, gm1 * (gm1 + 2.0), bb], axis=1), etas).T
    return g1, g2, b


def sobolev_norm(etas, fhat, order, k=None):
    """Frequency-side Sobolev norm sqrt( int <.>^{2 order} |fhat|^2 d eta ).

    Uses the one-dimensional bracket <eta> for pure Y-profiles and the full
    bracket <(k, eta)> when the x-wavenumber is supplied.  Trapezoid rule on
    the sampled points; at order 0 this is the plain L^2 norm of the transform
    (a factor sqrt(2 pi) above the physical-space L^2 norm).
    """
    etas = np.asarray(etas, dtype=float)
    fhat = np.asarray(fhat)
    base = 1.0 + etas**2 + (0.0 if k is None else float(k) ** 2)
    density = base**order * np.abs(fhat) ** 2
    return float(np.sqrt(np.trapezoid(density, etas)))


def _measurement_etas(profile: ShearProfile, order: float):
    # Wide enough that <eta>^{2*order} |fhat|^2 has decayed below 1e-30.
    hi = (10.0 + 2.0 * order) * max(1.0, 2.0 / profile.width)
    return np.linspace(-hi, hi, 2001)


def _measure_epsilon(profile: ShearProfile, s: float):
    etas = _measurement_etas(profile, s + 5.0)
    Y, gm1, bb = _frame_samples(profile, etas)
    g_hat, b_hat = fourier_transform_samples(Y, np.stack([gm1, bb], axis=1), etas).T
    return sobolev_norm(etas, g_hat, s + 5.0) + sobolev_norm(etas, b_hat, s + 4.0)


def _measure_epsilon_velocity(profile: ShearProfile):
    etas = _measurement_etas(profile, 6.0)
    Y = _profile_window(profile, float(np.max(np.abs(etas))))
    up_hat, us_hat = fourier_transform_samples(
        Y, np.stack([profile.u_prime(Y) - 1.0, profile.u_second(Y)], axis=1), etas).T
    return sobolev_norm(etas, up_hat, 6.0) + sobolev_norm(etas, us_hat, 5.0)


def build_profile(kind, a=0.0, sigma=1.0, y0=0.0, s=0.0) -> ShearProfile:
    """Construct a shear profile and measure its smallness.

    ``kind`` is "couette" (ignores the bump parameters) or "perturbed".
    Rejects non-monotone parameter choices: monotonicity of U requires
    |a| * sup|phi'| / sigma = |a|/sigma < 1.
    """
    if kind not in ("couette", "perturbed"):
        raise ValueError(f"unknown profile kind {kind!r}")
    if kind == "couette":
        return ShearProfile(kind="couette", sobolev_order=s)
    if sigma <= 0:
        raise ValueError("bump width sigma must be positive")
    if abs(a) / sigma >= 1.0:
        raise ValueError(
            f"non-monotone shear: |a| * sup|phi'| / sigma = {abs(a) / sigma:.3g} >= 1"
        )
    base = ShearProfile(kind="perturbed", amplitude=a, width=sigma, center=y0,
                        sobolev_order=s)
    if a == 0.0:
        return base
    eps = _measure_epsilon(base, s)
    eps_vel = _measure_epsilon_velocity(base)
    return ShearProfile(kind="perturbed", amplitude=a, width=sigma, center=y0,
                        sobolev_order=s, epsilon=eps, epsilon_velocity=eps_vel)


@dataclass
class ProfileSpectrum:
    """Profile transforms sampled for one frequency grid.

    ``kern_g1``, ``kern_g2`` and ``kern_b`` hold the transforms of g-1, g^2-1
    and b on the (2N-1)-point difference lattice that the linear convolution
    needs (Hermitian-symmetric since the profiles are real); convolution
    matrices built from them are cached on first use.  The lattice depends
    on N and eta_max only, not on k, so one sampled spectrum serves every
    wavenumber of a run: ``dataclasses.replace(spec, grid=grid_k)`` shares
    the kernels and the convolution cache with the grid of another k.
    """

    grid: FrequencyGrid
    kern_g1: np.ndarray
    kern_g2: np.ndarray
    kern_b: np.ndarray
    _conv_cache: dict = field(default_factory=dict, repr=False, compare=False)


def sample_spectrum(profile: ShearProfile, grid: FrequencyGrid) -> ProfileSpectrum:
    """Sample the profile transforms on the difference lattice of a grid.

    For perturbed profiles the grid must resolve the bump:
    sigma * deta <= 1/4 (sampling) and eta_max * sigma >= 20 (truncation);
    otherwise aliasing or tail loss would corrupt the convolution operators.
    A Couette profile gives zero kernels; the operators take ``spec=None``
    for Couette instead.
    """
    n = grid.n
    lattice = np.arange(-(n - 1), n) * grid.deta
    if profile.is_couette:
        zk = np.zeros(2 * n - 1, dtype=complex)
        return ProfileSpectrum(grid, zk, zk.copy(), zk.copy())
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
    # The lattice is exactly symmetric and the profiles are real, so the
    # transform at -eta is the conjugate of the one at eta: transform the
    # n points eta >= 0 and mirror them.
    g1, g2, bb = (np.concatenate([np.conj(half[:0:-1]), half])
                  for half in profile_transforms(profile, lattice[n - 1:]))
    return ProfileSpectrum(grid, kern_g1=g1, kern_g2=g2, kern_b=bb)
