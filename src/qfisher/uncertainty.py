"""Fourier uncertainty relation with escort moments.

The transform uses the frequency convention psihat(xi) = int psi(x)
e^{-2 pi i x.xi} dx, under which the bound constant is n/(2 pi k q) and a
Gaussian saturates the q = 1, beta = 2 case at 1/(4 pi).  The discrete
transform is the FFT with an explicit phase factor for the grid origin; it
is exactly unitary in the trapezoid inner product up to the (tiny) boundary
terms, which the preconditions keep below rounding scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cramer_rao import BoundReport
from .densities import QGaussianParams, _escort_mass, make_q_gaussian
from .errors import AliasingWarning, BoundaryMassWarning, GridTooCoarse, NonIntegrable, ParameterError
from .grid import GridDensity, GridSpec, boundary_abs_max

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
    """Unitary FFT with the e^{-2 pi i x.xi} kernel and origin phase correction."""
    mag = np.abs(psi.values)
    bmax, vmax = boundary_abs_max(mag), float(mag.max())
    del mag
    return _transform(psi, bmax, vmax, stacklevel=3)[0]


def _transform(psi: WaveFunction, bmax: float, vmax: float,
               stacklevel: int) -> tuple[WaveFunction, np.ndarray]:
    """`fourier_transform` of psi, whose |psi| peaks at `vmax` and at `bmax`
    on the box faces, and |psi_hat|^2 as a new array.  Warnings name the
    caller `stacklevel` frames up."""
    truncated = bmax > BOUNDARY_PSI_REL_TOL * vmax
    if truncated:
        warnings.warn(
            f"boundary |psi| = {bmax:.3e} exceeds {BOUNDARY_PSI_REL_TOL:.0e} x max; "
            "the transform will pick up truncation ringing",
            BoundaryMassWarning,
            stacklevel=stacklevel,
        )
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

    w = out_grid.trap_weights()
    sq = np.abs(values)
    sq **= 2
    dens = w * sq
    # the norm `WaveFunction.from_values` would take, bit for bit
    total = float(dens.sum())
    tail = np.zeros(out_grid.shape, dtype=bool)
    for axis, ax in enumerate(out_grid.axes()):
        edge = 0.9 * float(np.abs(ax).max())
        shape = [1] * out_grid.dims
        shape[axis] = len(ax)
        tail |= np.abs(ax).reshape(shape) >= edge
    tail_mass = float(dens[tail].sum()) / max(total, 1e-300)
    del dens
    if tail_mass > SPECTRAL_TAIL_FRACTION:
        warnings.warn(
            f"spectral tail holds {tail_mass:.2e} of the mass; grid is too coarse for psi",
            AliasingWarning,
            stacklevel=stacklevel,
        )
    # a clean input keeps unit norm but for Nyquist content, which the trapezoid
    # weights halve at the frequency grid's ends; a truncated one was warned
    # about, and its ringing breaks exact unitarity, so it is renormalized
    norm = math.sqrt(total)
    if not truncated and abs(norm - 1.0) > L2_NORM_TOL:
        raise GridTooCoarse(
            f"transform L2 norm {norm:.10f} deviates from 1 beyond {L2_NORM_TOL:g}: psi has "
            "content at the Nyquist frequency, which the grid does not resolve"
        )
    # read-only, so neither constructor below copies it
    values.flags.writeable = False
    if truncated:
        psi_hat = WaveFunction.from_values(out_grid, values)
        np.abs(psi_hat.values, out=sq)
        sq **= 2
        return psi_hat, sq
    # within L2_NORM_TOL of unit norm, so it is kept unscaled
    return WaveFunction(out_grid, values), sq


def uncertainty_check(psi: WaveFunction, p: UncertaintyParams) -> BoundReport:
    """Escort-moment uncertainty product against n/(2 pi k q).

    lhs = (M_{k/2}^{1/2} / M_{kq/2}) E_{k/2}[|x|^gamma]^{1/gamma}
          E[|xi|^theta]^{1/theta}, the xi-moment taken plainly under |psihat|^2.

    Each side is summed in the order of its composition from `escort`,
    `m_q_functional` and `GridDensity.expectation`.  The x side runs in three
    grid arrays, which are gone before the transform makes its own.
    """
    if psi.grid.dims != p.dims:
        raise ValueError(f"params declare dims = {p.dims} but psi lives in {psi.grid.dims}D")
    k = p.k
    w = psi.grid.trap_weights()
    # |psi| once: its maxima feed the transform's truncation test, and squared
    # in place it is rho = |psi|^2.  That is >= 0, never -0 and never NaN, so
    # the np.where(rho > 0, rho, 0) the escort and M_q take leaves it as it is
    rho = np.abs(psi.values)
    bmax, vmax = boundary_abs_max(rho), float(rho.max())
    rho **= 2
    # the escort of order k/2 is rho^(k/2) / M_{k/2}; the weighted sum of each
    # power is its M
    rho_pow = rho.copy()
    rho_pow **= k / 2.0
    m_half_k = _escort_mass(float((w * rho_pow).sum()))
    rho **= k * p.q / 2.0
    rho *= w
    m_half_kq = float(rho.sum())
    del rho
    field = psi.grid.radius(2.0)
    field **= p.gamma_exp
    field *= w
    rho_pow /= m_half_k
    field *= rho_pow
    x_mom = float(field.sum())
    del rho_pow, field

    # its warnings name this line, as when this called `fourier_transform`
    psi_hat, rho_hat = _transform(psi, bmax, vmax, stacklevel=2)
    grid_hat = psi_hat.grid
    del psi_hat
    field = grid_hat.radius(2.0)
    field **= p.theta_exp
    field *= grid_hat.trap_weights()
    field *= rho_hat
    xi_mom = float(field.sum())

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
            "k": k,
            "lambda": p.lam,
            "m_k_half": float(m_half_k),
            "m_kq_half": float(m_half_kq),
            "x_moment": float(x_mom),
            "xi_moment": float(xi_mom),
        },
    )


def saturating_wavefunction(grid: GridSpec, p: UncertaintyParams) -> WaveFunction:
    """Equality case of the bound: |psi|^k is a generalized Gaussian of order q.

    Builds the alpha = 2 generalized Gaussian with the params' q and returns
    its (1/k)-th power, L2-normalized.  At q = 1 this is the plain Gaussian.
    Dilations leave the product invariant, so its scale gamma is chosen from
    the box: |psi| = shape^(1/k) decays below 1e-9 of its peak inside it.
    """
    half = min((hi - lo) / 2.0 for lo, hi in zip(grid.lo, grid.hi))
    eps = 1e-9
    if p.q > 1.0:
        # compact support radius 1/sqrt(gamma (q-1)); keep it inside the box
        gamma = 1.0 / ((p.q - 1.0) * (0.6 * half) ** 2)
    elif p.q == 1.0:
        gamma = p.k * math.log(1.0 / eps) / (0.8 * half) ** 2
    else:
        one_m_q = 1.0 - p.q
        gamma = (eps ** (-p.k * one_m_q) - 1.0) / (one_m_q * (0.8 * half) ** 2)
    shape_params = QGaussianParams(q=p.q, alpha=2.0, gamma=gamma, dims=grid.dims)
    dens = make_q_gaussian(shape_params, grid)
    return WaveFunction.from_values(grid, dens.values ** (1.0 / p.k))
