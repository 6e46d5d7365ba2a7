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

from .densities import QGaussianParams, block_average, coarse_grain, q_exponential_shape
from .divergences import chi_beta_g
from .errors import NonConvergent, ParameterError
from .grid import (
    GridDensity,
    GridSpec,
    _norm_of_magnitudes,
    dual_exponent,
    lp_norm,
    row_strips,
    strip_gradient,
    support_floor,
)
from .zoo import gaussian_density, laplace_smoothed_density

# central_difference steps by FD_STEP * max(1, |theta_j|)
FD_STEP = 1e-3
# chi2_limit_check's steps t, and the most its last two ratios may differ by
LIMIT_STEPS = (0.2, 0.1, 0.05)
LIMIT_CAUCHY_TOL = 1e-2


@dataclass(frozen=True)
class ParametricFamily:
    """theta -> GridDensity map, all outputs on one fixed grid.

    kind "translation" promises f(x; theta) = f0(x - theta) with theta_dim
    equal to the grid dimension, so theta-derivatives reduce to spatial ones.
    kind "generic" differentiates density_at by `central_difference` in
    theta with one Richardson pass.
    """

    density_at: Callable[[np.ndarray], GridDensity]
    theta_dim: int
    kind: str = "translation"

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


def central_difference(fn: Callable[[np.ndarray], np.ndarray], theta: np.ndarray,
                       scale: float = 1.0) -> list:
    """[(fn(theta + s e_j) - fn(theta - s e_j)) / (2 s) for each component j]
    with s = FD_STEP * max(1, |theta_j|) * scale."""
    out = []
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = 1.0
        s = FD_STEP * max(1.0, abs(theta[j])) * scale
        out.append((fn(theta + s * e) - fn(theta - s * e)) / (2.0 * s))
    return out


def theta_gradient(fam: ParametricFamily, theta) -> tuple[GridDensity, np.ndarray]:
    """Density at theta and d f / d theta_j, stacked over components."""
    t = _as_theta(theta, fam.theta_dim)
    d = fam.at(t)
    if fam.kind == "translation":
        if fam.theta_dim != d.grid.dims:
            raise ValueError("translation family needs theta_dim == grid dims")
        grads = np.stack([-a for a in d.spatial_gradient()])
        return d, grads

    def values_at(th):
        return fam.at(th).values

    # one Richardson pass over the step and half of it
    d1, d2 = central_difference(values_at, t), central_difference(values_at, t, 0.5)
    return d, np.stack([(4.0 * b - a) / 3.0 for a, b in zip(d1, d2)])


def _gradient_on(fam: ParametricFamily, g: GridDensity, theta) -> np.ndarray:
    """theta_gradient components, checked to live on the grid of g."""
    d, grads = theta_gradient(fam, theta)
    if g.grid != d.grid:
        raise ValueError("g must live on the family grid")
    return grads


def generalized_fisher(
    fam: ParametricFamily, g: GridDensity, theta, beta: float, norm_p: float = 2.0
) -> float:
    """I_beta[f|g; theta] = E_g[ ||grad_theta f / g||_p^beta ]."""
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    grads = _gradient_on(fam, g, theta)
    return g.masked_power_integral(lp_norm(list(grads), norm_p), beta)


@dataclass(frozen=True)
class LimitReport:
    """Divergence-ratio sequences at LIMIT_STEPS and their limits, per component."""

    ratios: np.ndarray  # shape (theta_dim, len(LIMIT_STEPS))
    limits: np.ndarray  # shape (theta_dim,)

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


def chi2_limit_check(fam: ParametricFamily, g: GridDensity, theta, beta: float) -> LimitReport:
    """Realize the Fisher functional as lim chi_g^beta(f_{theta+t}, f_theta)/|t|^beta.

    The ratios at the LIMIT_STEPS are extrapolated to t = 0; the last two
    must agree within LIMIT_CAUCHY_TOL (relative) or NonConvergent is raised.
    The +t and -t one-sided ratios are averaged, which makes the result an
    even function of the step for every family and cancels odd-order error
    terms; extrapolation to t = 0 is polynomial in t^2.
    """
    t0 = _as_theta(theta, fam.theta_dim)
    f0 = fam.at(t0)
    ratios = np.zeros((fam.theta_dim, len(LIMIT_STEPS)))
    limits = np.zeros(fam.theta_dim)
    for j in range(fam.theta_dim):
        e = np.zeros(fam.theta_dim)
        e[j] = 1.0
        for k, s in enumerate(LIMIT_STEPS):
            up = chi_beta_g(fam.at(t0 + s * e), f0, g, beta)
            dn = chi_beta_g(fam.at(t0 - s * e), f0, g, beta)
            ratios[j, k] = 0.5 * (up + dn) / s**beta
        seq = ratios[j]
        scale = max(abs(seq[-1]), 1e-300)
        if abs(seq[-1] - seq[-2]) > LIMIT_CAUCHY_TOL * scale:
            raise NonConvergent(
                f"component {j}: ratio sequence is not Cauchy at {LIMIT_CAUCHY_TOL:g} "
                f"(last change {abs(seq[-1] - seq[-2]) / scale:.2e} relative)"
            )
        limits[j] = _extrapolate_to_zero(np.asarray(LIMIT_STEPS) ** 2, seq)
    return LimitReport(ratios=ratios, limits=limits)


# cell derivatives take their series form where the two ends differ by at most
# this fraction of the larger; the quotient form then loses at most ~1e-12
SERIES_REL = 2e-4


def gradient_adjoint(v: np.ndarray, h: float) -> np.ndarray:
    """Exact adjoint of the face difference (g[1:] - g[:-1]) / h: takes one
    value per cell to one per node.  Verified against the dot-product
    identity in the tests."""
    out = np.zeros(v.size + 1)
    out[1:] += v
    out[:-1] -= v
    out /= h
    return out


def p1_moment_weights(grid: GridSpec, alpha: float) -> np.ndarray:
    """W_i = integral of |x|^alpha phi_i over a 1D grid, phi_i the hat function of
    node i, so that W . g is the alpha-moment of the linear interpolant of g.

    W is the second difference of G(x) = |x|^(alpha+2) / ((alpha+1)(alpha+2))
    over h, with G's slope F(x) = x |x|^alpha / (alpha+1) closing the two
    half hats at the ends.  The difference cancels where |x| is large against
    h: against 30-digit quadrature the worst relative error is 5e-13 at 513
    points on [-10, 10] and 9e-10 at 4096 points on [-68.7, 68.7].
    """
    x = grid.axes()[0]
    h = grid.spacing[0]
    ax = np.abs(x)
    big_g = ax ** (alpha + 2.0) / ((alpha + 1.0) * (alpha + 2.0))
    slope = x * ax**alpha / (alpha + 1.0)
    w = np.empty_like(x)
    w[1:-1] = big_g[2:] - 2.0 * big_g[1:-1] + big_g[:-2]
    w[0] = big_g[1] - big_g[0] - h * slope[0]
    w[-1] = big_g[-2] - big_g[-1] + h * slope[-1]
    return w / h


def _cell_power_integrals(g: np.ndarray, s: np.ndarray, h: float, keep: np.ndarray | None,
                          gradient: bool):
    """Integrals of l^s over the cells, l the linear interpolant of the node
    values g >= 0, one row per exponent in the column `s`, and with `gradient`
    their derivatives in each cell's left and right node value.  Cells off
    `keep` (None keeps all) give 0.

    Where l runs from a to b, the integral is h (b^(s+1) - a^(s+1)) / ((s+1)(b - a)),
    or h (ln b - ln a) / (b - a) at s = -1.  It is evaluated as
    h M^s (1 - rho^(s+1)) / ((s+1) x), with M the larger end, rho = m/M the
    ratio of the ends and x = 1 - rho = |b - a|/M, through expm1 of
    (s+1) ln rho.  ln rho is log1p(-x) where x < 1/2, so no term cancels as
    a and b merge; a cell with a = b gets h a^s.  The derivatives are
    (h b^s - P) / (b - a) and (P - h a^s) / (b - a), or a series where the
    ends nearly agree.
    """
    a, b = g[:-1], g[1:]
    t = s + 1.0
    log_rows = t[:, 0] == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gs = g**s
        up = b >= a
        top = np.where(up, b, a)
        diff = b - a
        # a = b: x at 1e-200 takes the ratio below to its limit 1
        x = np.maximum(np.abs(diff) / top, 1e-200)
        log_rho = np.log1p(-x)
        far = np.flatnonzero(x >= 0.5)
        if far.size:
            log_rho[far] = np.log(np.minimum(a[far], b[far]) / top[far])
        if log_rows.any():
            ratio = -np.expm1(t * log_rho) / (np.where(log_rows[:, None], 1.0, t) * x)
            ratio[log_rows] = -log_rho / x
        else:
            ratio = np.expm1(t * log_rho) / (-t * x)
        p = h * np.where(up, gs[:, 1:], gs[:, :-1]) * ratio
        if gradient:
            hgs = h * gs
            dpa = (p - hgs[:, :-1]) / diff
            dpb = (hgs[:, 1:] - p) / diff
            # those quotients cancel as a and b merge: where x is at most
            # SERIES_REL, take h m^(s-1) (s + c (s-2) r^2 -+ 2 c r) / 2 with
            # m = (a+b)/2, r = (b-a)/(a+b) and c = s(s-1)/6, exact to O(r^3)
            near = np.flatnonzero(x <= SERIES_REL if keep is None else (x <= SERIES_REL) & keep)
            if near.size:
                total = a[near] + b[near]
                r = diff[near] / total
                c = s * (s - 1.0) / 6.0
                half = 0.5 * h * (0.5 * total) ** (s - 1.0)
                d_m = s + c * (s - 2.0) * r * r
                d_r = 2.0 * c * r
                dpa[:, near] = half * (d_m - d_r)
                dpb[:, near] = half * (d_m + d_r)
    if keep is not None:
        p = np.where(keep, p, 0.0)
        if gradient:
            dpa, dpb = np.where(keep, dpa, 0.0), np.where(keep, dpb, 0.0)
    return p, dpa if gradient else None, dpb if gradient else None


class QFisherKernel:
    """The one discrete (beta, q)-Fisher functional I_{beta,q}, set up for a grid.

    `q_fisher`, the checks built on it, the flow's entropy identity and the
    minimizer's objective all evaluate it.  I_{beta,q} = (q/M_q)^beta Phi with
    Phi the integral of ||grad g||_*^beta g^e, e = beta(q-1)+1-beta, and M_q
    the integral of g^q.

    In 1D both are exact integrals of the P1 (piecewise-linear) interpolant of
    the node values: on each cell the slope is the face difference D, so
    Phi = sum over cells of |D|^beta times the integral of g^e, and M_q sums
    the integrals of g^q (`_cell_power_integrals`).  Where the node values
    vanish at both ends of the box, the interpolant is a density on the line,
    so the paper's bound J >= 1 holds for the discrete product up to
    rounding.  A cell whose two ends are 0 contributes 0.  When e + 1 <= 0 a
    cell that falls to 0 has infinite Phi, so the support floor applies per
    cell: cells at or below it on both ends are left out, and elsewhere g^e
    sees the values clamped at the floor, so a drop to 0 still costs what a
    drop to the floor does.  `parts` returns the exact gradient of this sum,
    through the adjoint of the face difference.

    In 2D the integrand is evaluated at the nodes with the `np.gradient`
    stencil and summed by the trapezoid rule over the nodes above the
    support floor; that path has a value and no gradient.  It streams over
    strips of grid rows (`grid.row_strips`), each with a halo of one row for
    the stencil, so only g^q is a grid-sized array.
    """

    def __init__(self, grid: GridSpec, beta: float, q: float, norm_p: float = 2.0):
        if not beta > 1.0:
            raise ValueError("beta must exceed 1")
        if not (q > 0.0 and np.isfinite(q)):
            raise ValueError("q must be a positive real")
        self.dims = grid.dims
        self.spacing = grid.spacing
        self.beta = beta
        self.q = q
        self.dual = dual_exponent(norm_p)
        self.e = beta * (q - 1.0) + 1.0 - beta
        self.weights = grid.trap_weights()
        self._exponents = np.array([[self.e], [q]])

    def parts(self, gv: np.ndarray, gradient: bool = False) -> tuple[float, np.ndarray | None]:
        """I_{beta,q} at node values `gv` (of trapezoid mass 1) and, with
        `gradient` (1D only), its derivative in them."""
        if self.dims == 1:
            return self._p1_parts(gv, gradient)
        if gradient:
            raise ValueError("the I_{beta,q} gradient is one-dimensional")
        return self._node_parts(gv)[0], None

    def _p1_parts(self, gv: np.ndarray, gradient: bool):
        beta, q, e, (h,) = self.beta, self.q, self.e, self.spacing
        left, right = gv[:-1], gv[1:]
        gmin = float(gv.min())
        keep = None if gmin > 0.0 else (left > 0.0) | (right > 0.0)
        if e + 1.0 > 0.0 or gmin > support_floor(gv):
            # g^0 = 1 needs no pass: its cell integrals are h
            exps = self._exponents[1:] if e == 0.0 else self._exponents
            p, dpa, dpb = _cell_power_integrals(gv, exps, h, keep, gradient)
        else:
            # the support floor: cells below it on both ends are outside the
            # support, and elsewhere g^e sees the node values clamped at it
            floor = support_floor(gv)
            above_l, above_r = left > floor, right > floor
            pe, dea, deb = _cell_power_integrals(np.maximum(gv, floor), self._exponents[:1], h,
                                                 above_l | above_r, gradient)
            pq, dqa, dqb = _cell_power_integrals(gv, self._exponents[1:], h, keep, gradient)
            p = np.concatenate([pe, pq])
            if gradient:  # clamped ends do not move
                dpa = np.concatenate([dea * above_l, dqa])
                dpb = np.concatenate([deb * above_r, dqb])
        pq = p[-1]
        pe = h if e == 0.0 else p[0]
        d = (right - left) / h
        dv = np.sign(d) * np.abs(d) ** (beta - 1.0)
        k = d * dv  # |D|^beta
        m_q = float(pq.sum())
        pref = (q / m_q) ** beta
        value = pref * float(np.sum(k * pe))
        if not gradient:
            return value, None
        # dI = pref dPhi - beta I dM_q / M_q; Phi moves with D and with the
        # cell integrals of g^e, M_q with those of g^q
        grad = gradient_adjoint((pref * beta) * pe * dv, h)
        c = beta * value / m_q
        to_left, to_right = -c * dpa[-1], -c * dpb[-1]
        if e != 0.0:
            pk = pref * k
            to_left += pk * dpa[0]
            to_right += pk * dpb[0]
        grad[:-1] += to_left
        grad[1:] += to_right
        return value, grad

    def _node_parts(self, gv: np.ndarray) -> tuple[float, np.ndarray, float]:
        """(I_{beta,q}, g^q, M_q) on the nodes (2D), strip by strip; g^q is
        a new grid array, for a caller that needs it."""
        beta, e, w = self.beta, self.e, self.weights
        floor = support_floor(gv)
        g_q = np.power(gv, self.q)
        phi = m_q = 0.0
        for rows in row_strips(gv.shape):
            g = gv[rows]
            mask = g > floor
            grads = strip_gradient(gv, rows, self.spacing)
            if self.dual != 2.0:  # squares need no |.|
                grads = [np.abs(c) for c in grads]
            u = _norm_of_magnitudes(grads, self.dual) ** beta
            if e != 0.0:  # g^0 = 1 needs no pass
                u *= np.where(mask, g, 1.0) ** e
            # finite off the support, where g^e is 1 (unless |grad g|^beta
            # overflows), so multiplying by the mask zeroes it there
            u *= mask
            phi += float((u * w[rows]).sum())
            m_q += float((w[rows] * g_q[rows]).sum())
        return (self.q / m_q) ** beta * phi, g_q, m_q


def q_fisher(g: GridDensity, beta: float, q: float, norm_p: float = 2.0) -> float:
    """I_{beta,q}[g] = (q/M_q)^beta E_g[ g^{beta(q-1)} ||grad ln g||_*^beta ].

    The integrand is evaluated as ||grad g||_*^beta g^{beta(q-1)+1-beta},
    which stays bounded at compact-support edges; see `QFisherKernel`.
    """
    return QFisherKernel(g.grid, beta, q, norm_p).parts(g.values)[0]


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
    def build(theta: np.ndarray) -> GridDensity:
        return gaussian_density(grid, mean=theta, sigma=sigma)

    return ParametricFamily(density_at=build, theta_dim=grid.dims, kind="translation")


def laplace_location_family(grid: GridSpec, eps: float = 0.005) -> ParametricFamily:
    def build(theta: np.ndarray) -> GridDensity:
        return laplace_smoothed_density(grid, theta=float(theta[0]), eps=eps)

    return ParametricFamily(density_at=build, theta_dim=1, kind="translation")


def q_gaussian_location_family(grid: GridSpec, q: float, alpha: float, gamma: float) -> ParametricFamily:
    """Translation family of a generalized Gaussian of full support (q <= 1): a
    compact-support member moves mass off its support under every shift, which
    makes chi^beta_g(f_{theta+t}, f_theta) infinite, so q > 1 raises ParameterError."""
    params = QGaussianParams(q=q, alpha=alpha, gamma=gamma, dims=grid.dims)
    if params.compact_support:
        raise ParameterError(("q",), "must be at most 1: a compact-support family moves mass "
                             "outside its support under every shift")

    def build(theta: np.ndarray) -> GridDensity:
        r = lp_norm([x - t for x, t in zip(grid.open_mesh(), theta)], params.norm_p)
        vals = q_exponential_shape(params, r)
        return GridDensity.from_values(grid, vals, normalize=True, check_boundary=False)

    return ParametricFamily(density_at=build, theta_dim=grid.dims, kind="translation")


def gaussian_scale_family(grid: GridSpec) -> ParametricFamily:
    """N(0, theta^2) as a generic-kind family (theta differentiation by FD)."""
    def build(theta: np.ndarray) -> GridDensity:
        return gaussian_density(grid, mean=0.0, sigma=float(theta[0]))

    return ParametricFamily(density_at=build, theta_dim=1, kind="generic")
