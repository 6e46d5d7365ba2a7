"""Fourier uncertainty relation with escort moments.

The transform uses the frequency convention psihat(xi) = int psi(x)
e^{-2 pi i x.xi} dx, under which the bound constant is n/(2 pi k q) and a
Gaussian saturates the q = 1, beta = 2 case at 1/(4 pi).  The discrete
transform is the FFT with an explicit phase factor for the grid origin; it
is exactly unitary in the trapezoid inner product up to the (tiny) boundary
terms, which the preconditions keep below rounding scale.  The uncertainty
check needs only |psihat|^2, which the phase factor leaves as it is, so it
takes that power spectrum straight from the FFT.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cramer_rao import BoundReport
from .densities import QGaussianParams, _escort_mass, make_q_gaussian, q_exponential_shape
from .errors import (AliasingWarning, BoundaryMassWarning, GridTooCoarse, NonIntegrable,
                     ParameterError, warn)
from .grid import (GridDensity, GridSpec, boundary_abs_max, row_strips, strip_face_abs_max,
                   strip_radius, support_power)

L2_NORM_TOL = 1e-9
BOUNDARY_PSI_REL_TOL = 1e-8
SPECTRAL_TAIL_FRACTION = 1e-6


@dataclass(frozen=True)
class WaveFunction:
    """Finite complex values on a grid, of unit L2 norm under trapezoid
    quadrature when built by `from_values`, which scales them to it.

    The constructor checks the shape and finiteness and holds the values
    read-only: a read-only array is kept as it is (as complex), anything else
    is copied.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        read_only = isinstance(v, np.ndarray) and not v.flags.writeable
        v = (np.asarray if read_only else np.array)(v, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("wave function contains non-finite entries")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, grid: GridSpec, values) -> "WaveFunction":
        """`values` scaled to unit L2 norm.  An all-zero psi raises
        ValueError, and one whose norm overflows or underflows NonIntegrable."""
        arr = cls(grid, values).values
        with np.errstate(over="ignore"):
            norm = math.sqrt(float((grid.trap_weights() * np.abs(arr) ** 2).sum()))
        if not 0.0 < norm < math.inf:
            if not arr.any():
                raise ValueError("wave function is identically zero")
            raise NonIntegrable(f"wave function L2 norm {norm!r} overflows or underflows")
        arr = arr / norm
        arr.flags.writeable = False
        return cls(grid, arr)

    def density(self) -> GridDensity:
        """|psi|^2 as a density; mass is already 1 through the L2 invariant."""
        return GridDensity(self.grid, np.abs(self.values) ** 2)


@dataclass(frozen=True)
class UncertaintyParams:
    q: float
    beta: float
    gamma_exp: float = 2.0
    theta_exp: float = 2.0
    dims: int = 1

    def __post_init__(self):
        if not self.q > 0.0:
            raise ParameterError(("q",), "must be positive")
        if not self.beta > 1.0:
            raise ParameterError(("beta",), "must exceed 1")
        if not self.beta * (self.q - 1.0) + 1.0 > 0.0:
            raise ParameterError(("q", "beta"), "must make beta(q-1)+1 positive for the escort order k")
        for name in ("gamma_exp", "theta_exp"):
            if getattr(self, name) < 2.0:
                raise ParameterError((name,), "must be at least 2")
        if self.dims < 1:
            raise ValueError("dims must be at least 1")

    @property
    def k(self) -> float:
        return self.beta / (self.beta * (self.q - 1.0) + 1.0)

    @property
    def lam(self) -> float:
        return self.dims * (self.q - 1.0) + 1.0

    @property
    def bound(self) -> float:
        return self.dims / (2.0 * math.pi * self.k * self.q)


def frequency_grid(grid: GridSpec) -> GridSpec:
    """Fourier-dual grid: fftshifted FFT frequencies along each axis."""
    los, his, pts = [], [], []
    for n, h in zip(grid.points, grid.spacing):
        xi = np.fft.fftshift(np.fft.fftfreq(n, h))
        los.append(float(xi[0]))
        his.append(float(xi[-1]))
        pts.append(n)
    return GridSpec(tuple(los), tuple(his), tuple(pts))


def fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Unitary FFT with the e^{-2 pi i x.xi} kernel and origin phase correction.

    Its |psi_hat|^2 is held to `_check_spectrum`'s rules, and the transform
    of a psi truncated at the box faces is renormalized to unit L2 norm."""
    mag = np.abs(psi.values)
    bmax, vmax = boundary_abs_max(mag), float(mag.max())
    del mag
    out_grid = frequency_grid(psi.grid)
    values = np.fft.fftshift(np.fft.fftn(psi.values))
    cell = 1.0
    for axis, (lo, n, h) in enumerate(zip(psi.grid.lo, psi.grid.points, psi.grid.spacing)):
        cell *= h
        xi = np.fft.fftshift(np.fft.fftfreq(n, h))
        phase = np.exp(-2j * np.pi * lo * xi)
        shape = [1] * psi.grid.dims
        shape[axis] = n
        values *= phase.reshape(shape)
    values *= cell
    power = np.abs(values)
    power **= 2
    truncated = _check_spectrum(power, out_grid, bmax, vmax)
    # read-only, so neither constructor below copies it
    values.flags.writeable = False
    if truncated:
        return WaveFunction.from_values(out_grid, values)
    # within L2_NORM_TOL of unit norm, so it is kept unscaled
    return WaveFunction(out_grid, values)


def _power_spectrum(psi: WaveFunction) -> np.ndarray:
    """|psi_hat|^2 = cell^2 |FFT psi|^2 on `frequency_grid(psi.grid)`, in its
    (fftshifted) order, as a new array: `fourier_transform`'s |values|^2 but
    for rounding, since its phase factor has modulus 1.

    The transform of a real psi is Hermitian, psi_hat(-xi) = conj psi_hat(xi),
    so for one the half spectrum of `np.fft.rfftn` (last axis xi >= 0) fills
    the rest by the mirror xi -> -xi; a complex psi takes `np.fft.fftn`.
    """
    if psi.values.imag.any():
        power = np.fft.fftshift(np.abs(np.fft.fftn(psi.values)))
    else:
        power = _shifted_from_half(np.abs(np.fft.rfftn(psi.values.real)), psi.grid.shape)
    power **= 2
    power *= math.prod(psi.grid.spacing) ** 2
    return power


def _shifted_from_half(half: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The fftshifted array of `shape` whose unshifted entries at last-axis
    indices 0 .. n//2 are `half` and which is even under k -> -k (mod shape),
    as |FFT| of a real array is."""
    # on a shifted axis of m points, position j holds frequency index
    # (j - m//2) % m, and its mirror -j the index (m//2 - j) % m
    direct = np.ix_(*[(np.arange(m) - m // 2) % m for m in shape[:-1]])
    mirror = np.ix_(*[(m // 2 - np.arange(m)) % m for m in shape[:-1]])
    n = shape[-1]
    c, odd = n // 2, n % 2
    out = np.empty(shape)
    # last-axis indices 0 .. n - c - 1 go to positions c on; at even n the
    # Nyquist index c to position 0; the negative indices n - i to positions
    # c - i (i = 1 .. c - 1 + odd), read mirrored at i
    out[..., c:] = half[(*direct, slice(0, n - c))]
    if not odd:
        out[..., 0] = half[(*direct, c)]
    out[..., 1 - odd:c] = half[(*mirror, slice(c - 1 + odd, 0, -1))]
    return out


def _check_spectrum(power: np.ndarray, grid_hat: GridSpec, bmax: float, vmax: float) -> bool:
    """Hold |psi_hat|^2 = `power` on `grid_hat` to the transform's rules, psi
    being a wave function whose |psi| peaks at `vmax` and at `bmax` on the box
    faces; returns whether psi is truncated there.

    A truncated psi is warned about (BoundaryMassWarning), and its ringing
    breaks exact unitarity, so `power` is renormalized in place to unit mass.
    A spectral tail (some |xi_a| at or above 0.9 of its axis' largest) holding
    more than SPECTRAL_TAIL_FRACTION of the mass draws an AliasingWarning.  An
    untruncated psi must keep unit L2 norm within L2_NORM_TOL, or
    GridTooCoarse is raised.  The masses are trapezoid sums strip by strip.
    """
    truncated = bmax > BOUNDARY_PSI_REL_TOL * vmax
    if truncated:
        warn(f"boundary |psi| = {bmax:.3e} exceeds {BOUNDARY_PSI_REL_TOL:.0e} x max; "
             "the transform will pick up truncation ringing", BoundaryMassWarning)
    w, mesh = grid_hat.trap_weights(), grid_hat.open_mesh()
    far = [np.abs(xi) >= 0.9 * float(np.abs(xi).max()) for xi in mesh]
    total = tail = 0.0
    for rows in row_strips(power.shape):
        dens = w[rows] * power[rows]
        total += float(dens.sum())
        in_tail = reduce(np.logical_or, [far[0][rows], *far[1:]])
        tail += float(dens[np.broadcast_to(in_tail, dens.shape)].sum())
    tail_mass = tail / max(total, 1e-300)
    if tail_mass > SPECTRAL_TAIL_FRACTION:
        warn(f"spectral tail holds {tail_mass:.2e} of the mass; grid is too coarse for psi",
             AliasingWarning)
    if truncated:
        power /= total
        return True
    # a clean input keeps unit norm but for Nyquist content, which the trapezoid
    # weights halve at the frequency grid's ends
    norm = math.sqrt(total)
    if abs(norm - 1.0) > L2_NORM_TOL:
        raise GridTooCoarse(
            f"transform L2 norm {norm:.10f} deviates from 1 beyond {L2_NORM_TOL:g}: psi has "
            "content at the Nyquist frequency, which the grid does not resolve"
        )
    return False


def uncertainty_check(psi: WaveFunction, p: UncertaintyParams) -> BoundReport:
    """Escort-moment uncertainty product against n/(2 pi k q).

    lhs = (M_{k/2}^{1/2} / M_{kq/2}) E_{k/2}[|x|^gamma]^{1/gamma}
          E[|xi|^theta]^{1/theta}, the xi-moment taken plainly under |psihat|^2.

    Each side is summed strip by strip (`grid.row_strips`), each node's terms
    in the order of its composition from `escort`, `m_q_functional` and
    `GridDensity.expectation`.  The x side (`_x_side`) takes one pass over
    psi and works only on its support; the xi side sums `_power_spectrum`,
    the one grid array the check makes, under `_check_spectrum`'s rules.
    """
    if psi.grid.dims != p.dims:
        raise ValueError(f"params declare dims = {p.dims} but psi lives in {psi.grid.dims}D")
    # its strip arrays are gone before the power spectrum is made
    vmax, bmax, m_half_k, m_half_kq, x_mom = _x_side(psi, p)

    grid_hat = frequency_grid(psi.grid)
    power = _power_spectrum(psi)
    _check_spectrum(power, grid_hat, bmax, vmax)
    w, mesh = grid_hat.trap_weights(), grid_hat.open_mesh()
    xi_mom = 0.0
    for rows in row_strips(power.shape):
        field = strip_radius(mesh, rows, 2.0)
        field **= p.theta_exp
        field *= w[rows]
        field *= power[rows]
        xi_mom += float(field.sum())

    lhs = (
        math.sqrt(m_half_k)
        / m_half_kq
        * x_mom ** (1.0 / p.gamma_exp)
        * xi_mom ** (1.0 / p.theta_exp)
    )
    return BoundReport.make(
        lhs=float(lhs),
        rhs=p.bound,
        diagnostics={
            "k": p.k,
            "lambda": p.lam,
            "m_k_half": float(m_half_k),
            "m_kq_half": float(m_half_kq),
            "x_moment": float(x_mom),
            "xi_moment": float(xi_mom),
        },
    )


def _x_side(psi: WaveFunction, p: UncertaintyParams) -> tuple[float, float, float, float, float]:
    """(max |psi|, its maximum on the box faces, M_{k/2}, M_{kq/2}, the
    x moment E_{k/2}[|x|^gamma]) of `uncertainty_check`, in one pass over
    the strips of psi.

    Each strip's escort is normalized by the strip's own mass and the strip
    sums are weighted by their shares of M_{k/2}, so one strip (every 1D
    grid) sums the escort's bits.  A strip where psi is all zero adds +0.0
    to every sum and 0 to every maximum, so it is skipped, and the powers
    of rho = |psi|^2 are those of `support_power`, as the escort's and M_q's.
    """
    k = p.k
    grid = psi.grid
    w, mesh = grid.trap_weights(), grid.open_mesh()
    vmax = bmax = m_half_k = m_half_kq = 0.0
    shares = []  # (strip mass, strip x sum)
    for rows in row_strips(grid.shape):
        # |psi| once: its maxima feed the transform's truncation test, and
        # squared in place it is rho = |psi|^2
        rho = np.abs(psi.values[rows])
        top = float(rho.max())
        if top == 0.0:
            continue
        vmax = max(vmax, top)
        bmax = max(bmax, strip_face_abs_max(rho, rows, grid.shape[0]))
        rho **= 2
        # the escort of order k/2 is rho^(k/2) / M_{k/2}; the weighted sum of
        # each power is its M
        rho_pow = support_power(rho, k / 2.0)
        mass = float((w[rows] * rho_pow).sum())
        m_half_k += mass
        m_half_kq += float((w[rows] * support_power(rho, k * p.q / 2.0)).sum())
        if 0.0 < mass < math.inf:
            field = strip_radius(mesh, rows, 2.0)
            field **= p.gamma_exp
            field *= w[rows]
            rho_pow /= mass
            field *= rho_pow
            shares.append((mass, float(field.sum())))
    m_half_k = _escort_mass(m_half_k)
    x_mom = sum((mass / m_half_k * x for mass, x in shares), 0.0)
    return vmax, bmax, m_half_k, m_half_kq, x_mom


def saturating_wavefunction(grid: GridSpec, p: UncertaintyParams) -> WaveFunction:
    """Equality case of the bound: |psi|^k is a generalized Gaussian of order q.

    Builds the alpha = 2 generalized Gaussian with the params' q and returns
    its (1/k)-th power, L2-normalized.  At q = 1 this is the plain Gaussian.
    Dilations leave the product invariant, so its scale gamma is chosen from
    the box: |psi| = shape^(1/k) decays below 1e-9 of its peak inside it.
    For q > 1 the support edge sits at 0.6 of the half width, unless that
    makes psi narrower than the q = 1 profile does: as q -> 1+ it would
    shrink below the grid spacing.  The q > 1 shape lies under exp(-gamma
    ||x||^2), so where its support then runs past the box, psi still decays
    as the q = 1 profile does inside it.  For q < 1 the decay takes
    1e-9^(-k(1-q)), and ParameterError is raised when it overflows a float
    (k(1-q) above about 34, as at q = 0.51, beta = 2).
    """
    half = min((hi - lo) / 2.0 for lo, hi in zip(grid.lo, grid.hi))
    eps = 1e-9
    gamma = p.k * math.log(1.0 / eps) / (0.8 * half) ** 2
    if p.q > 1.0:
        # support edge 1/sqrt(gamma (q-1)) at 0.6 of the half width
        gamma = min(1.0 / ((p.q - 1.0) * (0.6 * half) ** 2), gamma)
    elif p.q < 1.0:
        one_m_q = 1.0 - p.q
        try:
            decay = eps ** (-p.k * one_m_q)
        except OverflowError:
            limit = math.log(sys.float_info.max) / math.log(1.0 / eps)
            raise ParameterError(
                ("q", "beta"),
                f"must give k(1-q) <= {limit:.4g}, or the scale {eps:g}^(-k(1-q)) of the "
                "saturating psi overflows") from None
        gamma = (decay - 1.0) / (one_m_q * (0.8 * half) ** 2)
    shape_params = QGaussianParams(q=p.q, alpha=2.0, gamma=gamma, dims=grid.dims)
    if shape_params.compact_support and shape_params.support_radius > half:
        shape = q_exponential_shape(shape_params, grid.radius())
        dens = GridDensity.from_values(grid, shape, check_boundary=False)
    else:
        dens = make_q_gaussian(shape_params, grid)
    return WaveFunction.from_values(grid, support_power(dens.values, 1.0 / p.k))
