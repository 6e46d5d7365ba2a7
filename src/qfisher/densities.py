"""Generalized Gaussians, escort transforms, moments, and coarse-graining."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEscort,
    GridTooCoarse,
    IncompatibleFactor,
    NonIntegrable,
    ParameterError,
    TruncationWarning,
    warn,
)
from .grid import (GridDensity, GridSpec, row_strips, strip_face_abs_max, strip_radius,
                   support_power)

# q values closer to 1 than this are treated as the stretched-Gaussian limit.
Q_ONE_EPS = 1e-12
# share of the alpha-moment that suggested_half_extent leaves outside the box
MOMENT_TAIL_REL = 1e-9


def gaussian_limit(q: float) -> bool:
    """Whether q counts as 1, the stretched-Gaussian limit: the band
    1 - Q_ONE_EPS <= q <= 1 + Q_ONE_EPS, above which
    `QGaussianParams.compact_support` holds."""
    return 1.0 - Q_ONE_EPS <= q <= 1.0 + Q_ONE_EPS


@dataclass(frozen=True)
class QGaussianParams:
    """Shape (1 - gamma*(q-1)*||x||^alpha)_+^(1/(q-1)); exp(-gamma*||x||^alpha) at q = 1.

    Integrability on R^dims requires q > max(0, 1 - alpha/dims); compact
    support for q > 1, power-law tails for q < 1.
    """

    q: float
    alpha: float
    gamma: float
    dims: int = 1
    norm_p: float = 2.0

    def __post_init__(self):
        if not (self.q > 0.0 and np.isfinite(self.q)):
            raise NonIntegrable("q must be a positive real")
        if not (self.alpha >= 1.0 and np.isfinite(self.alpha)):
            raise ParameterError(("alpha",), "must be >= 1")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ParameterError(("gamma",), "must be positive")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.q <= 1.0 - self.alpha / self.dims:
            raise NonIntegrable(
                f"q = {self.q} is not integrable for alpha = {self.alpha}, "
                f"dims = {self.dims}: need q > max(0, 1 - alpha/dims)"
            )

    @property
    def compact_support(self) -> bool:
        return self.q > 1.0 + Q_ONE_EPS

    @property
    def support_radius(self) -> float:
        """||x|| at the support edge (inf for q <= 1)."""
        if not self.compact_support:
            return np.inf
        return (1.0 / (self.gamma * (self.q - 1.0))) ** (1.0 / self.alpha)

    @property
    def scale(self) -> float:
        """Characteristic width: support radius for q > 1, else gamma^(-1/alpha)."""
        if self.compact_support:
            return self.support_radius
        return self.gamma ** (-1.0 / self.alpha)


def q_exponential_shape(p: QGaussianParams, r: np.ndarray) -> np.ndarray:
    """Unnormalized density values at radii r = ||x||."""
    ra = r**p.alpha
    if gaussian_limit(p.q):
        return np.exp(-p.gamma * ra)
    base = 1.0 - p.gamma * (p.q - 1.0) * ra
    if p.compact_support:
        return support_power(base, 1.0 / (p.q - 1.0))
    # q < 1: base = 1 + gamma*(1-q)*r^alpha > 0 everywhere
    return base ** (1.0 / (p.q - 1.0))


def make_q_gaussian(p: QGaussianParams, grid: GridSpec) -> GridDensity:
    """Normalized generalized Gaussian sampled on `grid`.

    The grid must cover the support (q > 1) or reach at least 4
    characteristic scales from the origin (q <= 1), with >= 64 points per
    axis across the support; GridTooCoarse is raised otherwise.
    """
    if grid.dims != p.dims:
        raise ValueError(f"grid dims {grid.dims} != params dims {p.dims}")
    half_extent = min(
        min(-l, h) for l, h in zip(grid.lo, grid.hi)
    )
    if p.compact_support:
        if half_extent < p.support_radius:
            raise GridTooCoarse(
                f"grid half-extent {half_extent:.3g} does not cover the "
                f"support radius {p.support_radius:.3g}"
            )
        for a, (h, n) in enumerate(zip(grid.spacing, grid.points)):
            inside = 2.0 * p.support_radius / h
            if inside < 64:
                raise GridTooCoarse(
                    f"axis {a}: only ~{inside:.0f} points across the support; need >= 64"
                )
    else:
        if half_extent < 4.0 * p.scale:
            raise GridTooCoarse(
                f"grid half-extent {half_extent:.3g} < 4 scales "
                f"(scale = {p.scale:.3g}) for non-compact support"
            )
        if min(grid.points) < 64:
            raise GridTooCoarse("need >= 64 points per axis")
    r = grid.radius(p.norm_p)
    vals = q_exponential_shape(p, r)
    # q > 1 with grid covering the support is exactly zero at the boundary, so
    # the boundary check only bites for heavy tails on too-small grids.
    return GridDensity.from_values(grid, vals, normalize=True, check_boundary=not p.compact_support)


def suggested_half_extent(p: QGaussianParams) -> float:
    """Half-width that keeps alpha-moment truncation below MOMENT_TAIL_REL and the
    boundary density below the warning threshold.

    For q < 1 the moment integrand decays like r^(alpha*q/(q-1)), so the
    truncated fraction scales as (R/scale)^(1-s) with s-1 = (alpha*q+q-1)/(1-q);
    solving for R gives the first power below.  The second solves
    shape(R) = 0.5e-10 x shape(0) so heavy tails do not trip the boundary
    check.  Compact support (q > 1) just needs a 5% margin.
    """
    if p.compact_support:
        return 1.05 * p.support_radius
    if gaussian_limit(p.q):
        return max(8.0, 1.3 * np.log(1.0 / MOMENT_TAIL_REL) ** (1.0 / p.alpha)) * p.scale
    one_m_q = 1.0 - p.q
    growth_moment = MOMENT_TAIL_REL ** (-one_m_q / (p.alpha * p.q + p.q - 1.0))
    growth_boundary = (((0.5e-10) ** -one_m_q - 1.0) / one_m_q) ** (1.0 / p.alpha)
    return max(8.0, growth_moment, growth_boundary) * p.scale


def escort(g: GridDensity, q: float) -> GridDensity:
    """Escort distribution g^q / integral(g^q)."""
    if not (q > 0.0 and np.isfinite(q)):
        raise ValueError("escort order must be a positive real")
    vals = support_power(g.values, q)
    # M_q once: DegenerateEscort where it cannot normalize g^q
    vals /= _escort_mass(g.integral(vals))
    return GridDensity(g.grid, vals)


def _escort_mass(z: float) -> float:
    """z, the integral of g^q, when it can normalize an escort; DegenerateEscort
    when it underflows or is not finite."""
    if not np.isfinite(z) or z < 1e-300:
        raise DegenerateEscort(f"escort normalization {z!r} underflows or is not finite")
    return z


def moment(g: GridDensity, alpha: float, norm_p: float = 2.0) -> float:
    """m_alpha[g] = E_g[||x||_p^alpha], summed strip by strip (`grid.row_strips`)
    with ||x||_p recomputed per strip; warns when the integrand is boundary-heavy."""
    if alpha <= 0.0:
        raise ValueError("moment order must be positive")
    if norm_p < 1.0:
        raise ValueError("norm_p must be >= 1")
    gv, w, mesh = g.values, g.grid.trap_weights(), g.grid.open_mesh()
    total = imax = bmax = 0.0
    for rows in row_strips(gv.shape):
        integrand = np.power(strip_radius(mesh, rows, norm_p), alpha) * gv[rows]
        imax = max(imax, float(integrand.max()))
        bmax = max(bmax, strip_face_abs_max(integrand, rows, len(gv)))
        # w * integrand, as `GridDensity.integral` sums it
        total += float((w[rows] * integrand).sum())
    warn_if_truncated(imax, bmax)
    return total


def warn_if_truncated(imax: float, bmax: float) -> None:
    """TruncationWarning when a moment integrand, whose largest value is
    `imax` and largest |value| on the grid's faces `bmax`, is not negligible
    at the boundary."""
    if imax > 0.0 and bmax > 1e-6 * imax:
        warn(f"moment integrand at boundary is {bmax / imax:.2e} of its max; "
             "value is likely truncated", TruncationWarning)


def m_q_functional(g: GridDensity, q: float) -> float:
    """M_q[g] = integral of g^q."""
    if not (q > 0.0 and np.isfinite(q)):
        raise ValueError("order q must be a positive real")
    return g.integral(support_power(g.values, q))


def tsallis_entropy(g: GridDensity, q: float) -> float:
    """S_q = (M_q - 1)/(1 - q); Shannon entropy -E[ln g] at q = 1."""
    if not (q > 0.0 and np.isfinite(q)):
        raise ValueError("order q must be a positive real")
    if gaussian_limit(q):
        v = g.values
        integrand = np.where(v > 0.0, -v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
        return g.integral(integrand)
    return (m_q_functional(g, q) - 1.0) / (1.0 - q)


def block_average(values: np.ndarray, factor: int) -> np.ndarray:
    """Mean over factor^dims blocks; requires factor to divide every axis."""
    v = np.asarray(values, dtype=float)
    if factor < 1:
        raise IncompatibleFactor("factor must be >= 1")
    if factor == 1:
        return v.copy()
    for a, n in enumerate(v.shape):
        if n % factor != 0:
            raise IncompatibleFactor(f"factor {factor} does not divide {n} points on axis {a}")
    for a in range(v.ndim):
        n = v.shape[a]
        shape = v.shape[:a] + (n // factor, factor) + v.shape[a + 1 :]
        v = v.reshape(shape).mean(axis=a + 1)
    return v


def coarse_grid(grid: GridSpec, factor: int) -> GridSpec:
    """Grid of block centroids after merging `factor` nodes per axis; an axis
    left with fewer than 2 points raises GridTooCoarse."""
    if factor == 1:
        return grid
    lo, hi, pts = [], [], []
    for axis, (l, h, n, sp) in enumerate(zip(grid.lo, grid.hi, grid.points, grid.spacing)):
        if n % factor != 0:
            raise IncompatibleFactor(f"factor {factor} does not divide {n} points")
        m = n // factor
        if m < 2:
            raise GridTooCoarse(f"factor {factor} leaves {m} coarse point of the {n} points on "
                                f"axis {axis}; coarse-graining needs at least 2")
        new_lo = l + sp * (factor - 1) / 2.0
        lo.append(new_lo)
        hi.append(new_lo + sp * factor * (m - 1))
        pts.append(m)
    return GridSpec(tuple(lo), tuple(hi), tuple(pts))


def coarse_grain(g: GridDensity, factor: int) -> GridDensity:
    """Mass-preserving block-mean coarse-graining (a Markov coarse map).

    The plain-sum mass identity sum(out)*prod(spacing_out) ==
    sum(in)*prod(spacing_in) holds exactly; the trapezoid integral stays 1 up
    to the (boundary-weighted) difference between the two quadratures.
    GridTooCoarse is raised when that difference exceeds 1e-6, as it does
    when the end blocks carry mass on a grid of few coarse points.
    """
    if factor == 1:
        return g
    vals = block_average(g.values, factor)
    grid = coarse_grid(g.grid, factor)
    mass = float((grid.trap_weights() * vals).sum())
    if abs(mass - 1.0) > 1e-6:
        raise GridTooCoarse(f"coarse-graining by factor {factor} moves the trapezoid mass "
                            f"{mass - 1.0:+.3e} from 1; use a smaller factor or more points")
    return GridDensity.from_values(grid, vals, normalize=False, check_boundary=False)


def q_gaussian_moment_scale(q: float, alpha: float) -> float:
    """Closed form m_alpha * gamma for a generalized Gaussian: 1/(q*alpha + q - 1)."""
    denom = q * alpha + q - 1.0
    if denom <= 0.0:
        raise NonIntegrable("alpha-moment of this generalized Gaussian diverges")
    return 1.0 / denom


def fit_q_gaussian(g: GridDensity, q: float, alpha: float, norm_p: float = 2.0) -> GridDensity:
    """Generalized Gaussian with (q, alpha) whose alpha-moment matches g's.

    Uses m_alpha = 1/(gamma*(q*alpha + q - 1)), exact for this family.
    """
    m = moment(g, alpha, norm_p)
    if not m > 0.0:
        raise GridTooCoarse("the density's alpha-moment is 0 on this grid: all its mass "
                            "sits at the origin node")
    gamma = q_gaussian_moment_scale(q, alpha) / m
    p = QGaussianParams(q=q, alpha=alpha, gamma=gamma, dims=g.grid.dims, norm_p=norm_p)
    r = g.grid.radius(norm_p)
    vals = q_exponential_shape(p, r)
    return GridDensity.from_values(g.grid, vals, normalize=True, check_boundary=False)


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    if a.grid != b.grid:
        raise ValueError("densities live on different grids")
    return a.integral(np.abs(a.values - b.values))
