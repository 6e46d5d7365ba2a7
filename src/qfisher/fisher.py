"""Generalized Fisher information of parametric families on grids.

The central object is the score-like field grad_theta f / g averaged against
a reference density g.  Three views are provided: the beta-power p-norm
functional, its realization as the small-step limit of chi^beta divergences,
and the (beta, q) form driven by a single density via its escort pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .densities import m_q_functional
from .divergences import chi_beta_g
from .errors import NonConvergent, SupportMismatch
from .grid import GridDensity, GridSpec, dual_exponent, interior_support, lp_norm, support_floor


@dataclass(frozen=True)
class ParametricFamily:
    """theta -> GridDensity map, all outputs on one fixed grid.

    kind "translation" promises f(x; theta) = f0(x - theta) with theta_dim
    equal to the grid dimension, so theta-derivatives reduce to spatial ones.
    kind "generic" differentiates density_at by symmetric differences in
    theta with one Richardson pass.
    """

    density_at: Callable[[np.ndarray], GridDensity]
    theta_dim: int
    kind: str = "translation"
    fd_step: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("translation", "generic"):
            raise ValueError("kind must be 'translation' or 'generic'")
        if self.theta_dim < 1:
            raise ValueError("theta_dim must be >= 1")

    def at(self, theta) -> GridDensity:
        return self.density_at(_as_theta(theta, self.theta_dim))


def _as_theta(theta, dim: int) -> np.ndarray:
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.shape != (dim,):
        raise ValueError(f"theta must have shape ({dim},)")
    return t


def theta_gradient(fam: ParametricFamily, theta) -> tuple[GridDensity, np.ndarray]:
    """Density at theta and d f / d theta_j, stacked over components."""
    t = _as_theta(theta, fam.theta_dim)
    d = fam.at(t)
    if fam.kind == "translation":
        if fam.theta_dim != d.grid.dims:
            raise ValueError("translation family needs theta_dim == grid dims")
        grads = np.stack([-a for a in d.spatial_gradient()])
        return d, grads
    comps = []
    for j in range(fam.theta_dim):
        e = np.zeros(fam.theta_dim)
        e[j] = 1.0
        h = fam.fd_step * max(1.0, abs(t[j]))

        def diff(step):
            up = fam.at(t + step * e).values
            dn = fam.at(t - step * e).values
            return (up - dn) / (2.0 * step)

        d1, d2 = diff(h), diff(h / 2.0)
        comps.append((4.0 * d2 - d1) / 3.0)
    return d, np.stack(comps)


def _gradient_on(fam: ParametricFamily, g: GridDensity, theta) -> np.ndarray:
    """theta_gradient components, checked to live on the grid of g."""
    d, grads = theta_gradient(fam, theta)
    if g.grid != d.grid:
        raise ValueError("g must live on the family grid")
    return grads


@dataclass(frozen=True)
class ScoreField:
    """Components of grad_theta f / g on the grid (zero where both vanish)."""

    grid: GridSpec
    components: np.ndarray  # shape (theta_dim, *grid.shape)


def score_field(fam: ParametricFamily, g: GridDensity, theta) -> ScoreField:
    grads = _gradient_on(fam, g, theta)
    gv = g.values
    mask = gv > support_floor(gv)
    out = np.zeros_like(grads)
    for j in range(grads.shape[0]):
        gj = grads[j]
        gmax = float(np.abs(gj).max())
        # rounding-scale tails below the mask are fine; O(1) overhang is not
        if gmax > 0.0 and bool(np.any(~mask & (np.abs(gj) > 1e-6 * gmax))):
            raise SupportMismatch("theta-gradient is nonzero where g vanishes")
        out[j, mask] = gj[mask] / gv[mask]
    return ScoreField(grid=g.grid, components=out)


def generalized_fisher(
    fam: ParametricFamily, g: GridDensity, theta, beta: float, norm_p: float = 2.0
) -> float:
    """I_beta[f|g; theta] = E_g[ ||grad_theta f / g||_p^beta ]."""
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    grads = _gradient_on(fam, g, theta)
    return g.masked_power_integral(lp_norm(list(grads), norm_p), beta)


def generalized_fisher_components(
    fam: ParametricFamily, g: GridDensity, theta, beta: float
) -> np.ndarray:
    """Per-component E_g[|d_j f / g|^beta]; sums to the p = beta functional."""
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    grads = _gradient_on(fam, g, theta)
    return np.array([g.masked_power_integral(np.abs(gj), beta) for gj in grads])


@dataclass(frozen=True)
class LimitReport:
    """Divergence-ratio sequences and their extrapolated limits per component."""

    beta: float
    steps: tuple[float, ...]
    ratios: np.ndarray  # shape (theta_dim, len(steps))
    limits: np.ndarray  # shape (theta_dim,)
    converged: bool

    @property
    def limit(self) -> float:
        return float(self.limits.sum())


def _extrapolate_to_zero(u: np.ndarray, v: np.ndarray) -> float:
    """Value at 0 of the interpolating polynomial through (u_k, v_k)."""
    n = len(u)
    t = list(map(float, v))
    for level in range(1, n):
        for i in range(n - level):
            t[i] = (u[i + level] * t[i] - u[i] * t[i + 1]) / (u[i + level] - u[i])
    return t[0]


def chi2_limit_check(
    fam: ParametricFamily,
    g: GridDensity,
    theta,
    beta: float,
    steps=(0.2, 0.1, 0.05),
    cauchy_tol: float = 1e-2,
) -> LimitReport:
    """Realize the Fisher functional as lim chi_g^beta(f_{theta+t}, f_theta)/|t|^beta.

    The +t and -t one-sided ratios are averaged, which makes the result an
    even function of the step for every family and cancels odd-order error
    terms; extrapolation to t = 0 is polynomial in t^2.
    """
    t0 = _as_theta(theta, fam.theta_dim)
    steps = tuple(float(s) for s in steps)
    if len(steps) < 2 or any(s <= 0.0 for s in steps):
        raise ValueError("need at least two positive steps")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly decreasing")
    f0 = fam.at(t0)
    ratios = np.zeros((fam.theta_dim, len(steps)))
    limits = np.zeros(fam.theta_dim)
    converged = True
    for j in range(fam.theta_dim):
        e = np.zeros(fam.theta_dim)
        e[j] = 1.0
        for k, s in enumerate(steps):
            up = chi_beta_g(fam.at(t0 + s * e), f0, g, beta).value
            dn = chi_beta_g(fam.at(t0 - s * e), f0, g, beta).value
            ratios[j, k] = 0.5 * (up + dn) / s**beta
        seq = ratios[j]
        scale = max(abs(seq[-1]), 1e-300)
        if abs(seq[-1] - seq[-2]) > cauchy_tol * scale:
            raise NonConvergent(
                f"component {j}: ratio sequence is not Cauchy at {cauchy_tol:g} "
                f"(last change {abs(seq[-1] - seq[-2]) / scale:.2e} relative)"
            )
        limits[j] = _extrapolate_to_zero(np.asarray(steps) ** 2, seq)
    return LimitReport(
        beta=float(beta), steps=steps, ratios=ratios, limits=limits, converged=converged
    )


def q_fisher(g: GridDensity, beta: float, q: float, norm_p: float = 2.0) -> float:
    """I_{beta,q}[g] = (q/M_q)^beta E_g[ g^{beta(q-1)} ||grad ln g||_*^beta ].

    The integrand is evaluated as ||grad g||_*^beta g^{beta(q-1)+1-beta},
    which stays bounded at compact-support edges; a 2-cell layer at the
    support boundary is excluded to keep one-sided kinks out of the sum.
    """
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    if not (q > 0.0 and np.isfinite(q)):
        raise ValueError("q must be a positive real")
    pstar = dual_exponent(norm_p)
    grads = g.spatial_gradient()
    gnorm = lp_norm(grads, pstar)
    gv = g.values
    mask = interior_support(gv) & (gnorm > 0.0)
    expo = beta * (q - 1.0) + 1.0 - beta
    integrand = np.zeros_like(gv)
    integrand[mask] = gnorm[mask] ** beta * gv[mask] ** expo
    mq = m_q_functional(g, q)
    return (q / mq) ** beta * g.integral(integrand)


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric PSD matrix E_g[psi psi^T] with psi = grad_theta f / g."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
            raise ValueError("entries must be symmetric")
        a = 0.5 * (a + a.T)
        eigmin = float(np.linalg.eigvalsh(a).min())
        if eigmin < -1e-10 * max(1.0, float(np.abs(a).max())):
            raise ValueError(f"matrix has negative eigenvalue {eigmin:.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _matrix_from_parts(grads: np.ndarray, g: GridDensity) -> np.ndarray:
    """Entries integral of grads_i grads_j / g over the support of g."""
    gv = g.values
    mask = gv > support_floor(gv)
    k = grads.shape[0]
    m = np.zeros((k, k))
    for i in range(k):
        gi = grads[i]
        # the clamped-floor leak guard runs on the diagonals only; the
        # off-diagonal leak is Cauchy-Schwarz dominated by them
        g.masked_power_integral(
            np.abs(gi), 2.0, mismatch="theta-gradient carries weight where g vanishes"
        )
        for j in range(i, k):
            integrand = np.zeros_like(gv)
            integrand[mask] = gi[mask] * grads[j][mask] / gv[mask]
            m[i, j] = m[j, i] = g.integral(integrand)
    return m


def fisher_matrix(fam: ParametricFamily, g: GridDensity, theta) -> FisherMatrix:
    """Matrix form at beta = 2: entries integral of (d_i f)(d_j f)/g."""
    return FisherMatrix(_matrix_from_parts(_gradient_on(fam, g, theta), g))


def fisher_matrix_data_processing(
    fam: ParametricFamily, g: GridDensity, theta, factor: int
) -> tuple[FisherMatrix, FisherMatrix, float]:
    """Fisher matrices before/after block coarse-graining and the PSD margin.

    The coarse family gradient is the block mean of the fine gradient (the
    coarse map is linear in f), so the matrix ordering is structural rather
    than numerical luck.
    """
    from .densities import block_average, coarse_grain

    grads = _gradient_on(fam, g, theta)
    before = FisherMatrix(_matrix_from_parts(grads, g))
    grads_c = np.stack([block_average(gj, factor) for gj in grads])
    after = FisherMatrix(_matrix_from_parts(grads_c, coarse_grain(g, factor)))
    diff = before.entries - after.entries
    psd_margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
    return before, after, psd_margin


# -- common family constructors ----------------------------------------------


def gaussian_location_family(grid: GridSpec, sigma=1.0) -> ParametricFamily:
    """Translation family of a (diagonal) normal with fixed scale."""
    from .zoo import gaussian_density

    def build(theta: np.ndarray) -> GridDensity:
        return gaussian_density(grid, mean=theta, sigma=sigma)

    return ParametricFamily(density_at=build, theta_dim=grid.dims, kind="translation")


def laplace_location_family(grid: GridSpec, eps: float = 0.005) -> ParametricFamily:
    from .zoo import laplace_smoothed_density

    def build(theta: np.ndarray) -> GridDensity:
        return laplace_smoothed_density(grid, theta=float(theta[0]), eps=eps)

    return ParametricFamily(density_at=build, theta_dim=1, kind="translation")


def q_gaussian_location_family(grid: GridSpec, q: float, alpha: float, gamma: float) -> ParametricFamily:
    """Translation family of a 1D generalized Gaussian (use q < 1 to keep full support)."""
    from .densities import QGaussianParams, q_exponential_shape

    params = QGaussianParams(q=q, alpha=alpha, gamma=gamma, dims=grid.dims)

    def build(theta: np.ndarray) -> GridDensity:
        r = lp_norm([x - t for x, t in zip(grid.open_mesh(), theta)], params.norm_p)
        vals = q_exponential_shape(params, r)
        return GridDensity.from_values(grid, vals, normalize=True, check_boundary=False)

    return ParametricFamily(density_at=build, theta_dim=grid.dims, kind="translation")


def gaussian_scale_family(grid: GridSpec) -> ParametricFamily:
    """N(0, theta^2) as a generic-kind family (theta differentiation by FD)."""
    from .zoo import gaussian_density

    def build(theta: np.ndarray) -> GridDensity:
        return gaussian_density(grid, mean=0.0, sigma=float(theta[0]))

    return ParametricFamily(density_at=build, theta_dim=1, kind="generic")
