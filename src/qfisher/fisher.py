"""Generalized Fisher information of parametric families on grids.

The central object is the score-like field grad_theta f / g averaged against
a reference density g.  Three views are provided: the beta-power p-norm
functional, its realization as the small-step limit of chi^beta divergences,
and the (beta, q) form driven by a single density via its escort pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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
    support_power,
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


def _zero_off_supports(grads, f: np.ndarray, g: np.ndarray):
    """The score grad f / g is 0 where f and g both lie at or below their
    support floors: zeroes the components `grads` (arrays, or one stacked
    array) there in place and returns them.  The 0/0 there is no mass of f
    where g vanishes; it is the stencil's slope into the first zero node past
    a compact support's edge."""
    outside = (f <= support_floor(f)) & (g <= support_floor(g))
    for c in grads:
        c[outside] = 0.0
    return grads


def _gradient_on(fam: ParametricFamily, g: GridDensity, theta) -> np.ndarray:
    """theta_gradient components, checked to live on the grid of g, as a
    score over g (`_zero_off_supports`)."""
    d, grads = theta_gradient(fam, theta)
    if g.grid != d.grid:
        raise ValueError("g must live on the family grid")
    return _zero_off_supports(grads, d.values, g.values)


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


@lru_cache(maxsize=64)
def p1_moment_weights(grid: GridSpec, alpha: float) -> np.ndarray:
    """W_i = integral of |x|^alpha phi_i over a 1D grid, phi_i the hat function of
    node i, so that W . g is the alpha-moment of the linear interpolant of g.
    Cached per (grid, alpha) and read-only, as the trapezoid weights are.

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
    w /= h
    w.setflags(write=False)
    return w


class _PowerRows(NamedTuple):
    """The exponents of `_cell_power_integrals`, a column s with one row each,
    and what the integrals derive from them, set up once per kernel: t = s + 1,
    the factor of x in the quotient's denominator (-t, or, where some row has
    s = -1, t with 1 on those rows, under a negated numerator) and the mask
    of those rows (None when there are none)."""

    s: np.ndarray
    t: np.ndarray
    den: np.ndarray
    log_rows: np.ndarray | None


def _power_rows(s: np.ndarray) -> _PowerRows:
    t = s + 1.0
    log_rows = t[:, 0] == 0.0
    if log_rows.any():
        return _PowerRows(s, t, np.where(log_rows[:, None], 1.0, t), log_rows)
    return _PowerRows(s, t, -t, None)


def _cell_power_integrals(g: np.ndarray, rows: _PowerRows, h: float, keep: np.ndarray | None,
                          gradient: bool):
    """Integrals of l^s over the cells, l the linear interpolant of the node
    values g >= 0, one row per exponent in `rows`, and with `gradient` their
    derivatives in each cell's left and right node value.  g is one row of
    node values that every exponent shares, or one row per exponent.  Cells
    off `keep` (None keeps all; one row, or one per exponent) give 0.

    Where l runs from a to b, the integral is h (b^(s+1) - a^(s+1)) / ((s+1)(b - a)),
    or h (ln b - ln a) / (b - a) at s = -1.  It is evaluated as
    h M^s (1 - rho^(s+1)) / ((s+1) x), with M the larger end, rho = m/M the
    ratio of the ends and x = 1 - rho = |b - a|/M, through expm1 of
    (s+1) ln rho.  ln rho is log1p(-x) where x < 1/2, so no term cancels as
    a and b merge; a cell with a = b gets h a^s.  The derivatives are
    (h b^s - P) / (b - a) and (P - h a^s) / (b - a), or a series where the
    ends nearly agree.  Each temporary is written in place, and every
    element sees the arithmetic of the formulas in this order.
    """
    s, t, den, log_rows = rows
    a, b = g[..., :-1], g[..., 1:]
    # np.power gives other bits for the exponents -1, 1/2 and 2 when it reads
    # them from an array than when it reads one number per call, so each row
    # of g takes its powers with its exponents in a call of its own
    groups = ([(slice(None), s)] if g.ndim == 1
              else [(slice(i, i + 1), s[i:i + 1]) for i in range(len(g))])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gs = np.empty((len(s), g.shape[-1]))
        for at, si in groups:
            np.power(g[at], si, out=gs[at])
        up = b >= a
        top = np.where(up, b, a)
        diff = b - a
        # a = b: x at 1e-200 takes the ratio below to its limit 1
        x = np.abs(diff)
        x /= top
        np.maximum(x, 1e-200, out=x)
        log_rho = np.negative(x)
        np.log1p(log_rho, out=log_rho)
        far = np.nonzero(x >= 0.5)
        if far[0].size:
            log_rho[far] = np.log(np.minimum(a[far], b[far]) / top[far])
        ratio = t * log_rho
        np.expm1(ratio, out=ratio)
        if log_rows is not None:
            np.negative(ratio, out=ratio)
        ratio /= den * x
        if log_rows is not None:
            ratio[log_rows] = np.broadcast_to(-log_rho / x, ratio.shape)[log_rows]
        p = np.where(up, gs[..., 1:], gs[..., :-1])
        p *= h
        p *= ratio
        if gradient:
            gs *= h
            dpa = np.subtract(p, gs[..., :-1])
            dpa /= diff
            dpb = np.subtract(gs[..., 1:], p)
            dpb /= diff
            # those quotients cancel as a and b merge: where x is at most
            # SERIES_REL, take h m^(s-1) (s + c (s-2) r^2 -+ 2 c r) / 2 with
            # m = (a+b)/2, r = (b-a)/(a+b) and c = s(s-1)/6, exact to O(r^3)
            near = x <= SERIES_REL
            if keep is not None:
                near &= keep
            for at, si in groups:
                cells = np.flatnonzero(near[at])
                if cells.size:
                    total = a[at][..., cells] + b[at][..., cells]
                    r = diff[at][..., cells] / total
                    c = si * (si - 1.0) / 6.0
                    half = 0.5 * h * (0.5 * total) ** (si - 1.0)
                    d_m = si + c * (si - 2.0) * r * r
                    d_r = 2.0 * c * r
                    dpa[at][..., cells] = half * (d_m - d_r)
                    dpb[at][..., cells] = half * (d_m + d_r)
    if keep is not None:
        p = np.where(keep, p, 0.0)
        if gradient:
            dpa, dpb = np.where(keep, dpa, 0.0), np.where(keep, dpb, 0.0)
    return p, dpa if gradient else None, dpb if gradient else None


def _floor_span(above: np.ndarray) -> tuple[int, int]:
    """The cells [lo, hi) that touch a node above the support floor, `above`
    marking those nodes: the whole line when the second and the last but one
    node are above it, as where only the two end nodes are pinned at 0."""
    lo, hi = 0, above.size - 1
    if not above[1]:
        lo = max(int(above.argmax()) - 1, 0)
    if not above[-2]:
        hi = min(above.size - int(above[::-1].argmax()), hi)
    return lo, hi


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
        # g^0 = 1 needs no pass: its cell integrals are h
        self._rows = _power_rows(np.array([[q]] if self.e == 0.0 else [[self.e], [q]]))
        # under the support floor, a span of the line takes g^e alone
        self._rows_e, self._rows_q = _power_rows(np.array([[self.e]])), _power_rows(np.array([[q]]))

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
        keep = None
        if not gmin > 0.0:
            keep = (left > 0.0) | (right > 0.0)
            if keep.all():  # np.where with an all-True mask is the identity
                keep = None
        floor = support_floor(gv) if e + 1.0 <= 0.0 else 0.0
        if e + 1.0 > 0.0 or gmin > floor:
            p, dpa, dpb = _cell_power_integrals(gv, self._rows, h, keep, gradient)
        else:
            # the support floor: cells below it on both ends are outside the
            # support, and elsewhere g^e sees the node values clamped at it
            above = gv > floor
            above_l, above_r = above[:-1], above[1:]
            lo, hi = _floor_span(above)
            if lo == 0 and hi == gv.size - 1:
                # one call takes the clamped row for g^e and the raw row for g^q
                rows = np.empty((2, gv.size))
                np.maximum(gv, floor, out=rows[0])
                rows[1] = gv
                keeps = np.empty((2, gv.size - 1), dtype=bool)
                np.logical_or(above_l, above_r, out=keeps[0])
                keeps[1] = True if keep is None else keep
                p, dpa, dpb = _cell_power_integrals(rows, self._rows, h,
                                                    None if keeps.all() else keeps, gradient)
            else:
                # g^e on the span alone, clamped from a view of it, and g^q on
                # the whole line; each g^e row lands in a full-length row, 0
                # off the span, as one call on the whole line leaves it, so
                # every sum keeps its bits.  p, dpa and dpb are (g^e row, g^q
                # row) pairs
                on = above[lo:hi + 1]
                keep_e = on[:-1] | on[1:]
                span = _cell_power_integrals(np.maximum(gv[lo:hi + 1], floor), self._rows_e, h,
                                             None if keep_e.all() else keep_e, gradient)
                whole = _cell_power_integrals(gv, self._rows_q, h, keep, gradient)
                p, dpa, dpb = (None if q_row is None else [np.zeros(gv.size - 1), q_row[0]]
                               for q_row in whole)
                for pair, e_row in zip((p, dpa, dpb), span):
                    if pair is not None:
                        pair[0][lo:hi] = e_row[0]
            if gradient:  # clamped ends do not move
                dpa[0] *= above_l
                dpb[0] *= above_r
        pq = p[-1]
        pe = h if e == 0.0 else p[0]
        d = right - left
        d /= h
        # at beta = 2, sign(d) |d|^1 is d itself, up to the sign of a zero,
        # which the sum below and gradient_adjoint's additions both drop
        dv = d if beta == 2.0 else np.sign(d) * np.abs(d) ** (beta - 1.0)
        k = d * dv  # |D|^beta
        m_q = float(pq.sum())
        pref = (q / m_q) ** beta
        value = pref * float((k * pe).sum())
        if not gradient:
            return value, None
        # dI = pref dPhi - beta I dM_q / M_q; Phi moves with D and with the
        # cell integrals of g^e, M_q with those of g^q
        if e == 0.0:
            face = ((pref * beta) * h) * dv
        else:
            face = pe
            face *= pref * beta
            face *= dv
        grad = gradient_adjoint(face, h)
        c = beta * value / m_q
        to_left, to_right = dpa[-1], dpb[-1]
        to_left *= -c
        to_right *= -c
        if e != 0.0:
            k *= pref
            dpa[0] *= k
            dpb[0] *= k
            to_left += dpa[0]
            to_right += dpb[0]
        grad[:-1] += to_left
        grad[1:] += to_right
        return value, grad

    def _node_parts(self, gv: np.ndarray) -> tuple[float, np.ndarray, float]:
        """(I_{beta,q}, g^q, M_q) on the nodes (2D), strip by strip; g^q is
        a new grid array, for a caller that needs it.  Both g^q and g^e are
        taken by `support_power`, g^e above the support floor."""
        beta, e, w = self.beta, self.e, self.weights
        floor = support_floor(gv)
        g_q = support_power(gv, self.q)
        phi = m_q = 0.0
        for rows in row_strips(gv.shape):
            grads = strip_gradient(gv, rows, self.spacing)
            if self.dual != 2.0:  # squares need no |.|
                grads = [np.abs(c) for c in grads]
            u = _norm_of_magnitudes(grads, self.dual) ** beta
            # finite off the support (unless |grad g|^beta overflows), where
            # g^e, or the mask at e = 0 (g^0 = 1 needs no pass), zeroes it
            u *= support_power(gv[rows], e, floor) if e != 0.0 else gv[rows] > floor
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
        for j in range(i, k):
            integrand = np.zeros_like(gv)
            integrand[mask] = gi[mask] * grads[j][mask] / gv[mask]
            m[i, j] = m[j, i] = g.integral(integrand)
        # the clamped-floor leak guard runs on the diagonals only; the
        # off-diagonal leak is Cauchy-Schwarz dominated by them
        g.check_leak(gi * gi, 2.0, m[i, i], "theta-gradient carries weight where g vanishes")
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
