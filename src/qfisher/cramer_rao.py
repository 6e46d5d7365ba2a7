"""Generalized Cramer-Rao bound checks.

Every check reports lhs, rhs, and margin = lhs - rhs for an inequality of the
form lhs >= rhs, where the lhs couples an alpha-moment of the estimation
error under a reference density g with a beta-power Fisher-type functional,
and the two exponents are Holder conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .densities import _escort_mass, moment, warn_if_truncated
from .errors import JacobianSingular, ParameterError, SingularFisherMatrix
from .fisher import (ParametricFamily, QFisherKernel, _as_theta, _gradient_on, _zero_off_supports,
                     central_difference, fisher_matrix, p1_moment_weights)
from .grid import (GridDensity, GridSpec, HolderPair, boundary_abs_max, dual_exponent, lp_norm,
                   row_strips, strip_gradient, strip_radius, support_floor, support_power)
from .sampling import sample_density

SATURATION_REL_TOL = 1e-2
FIELD_FIT_TOL = 1e-2


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    margin: float
    saturated: bool
    diagnostics: dict = field(default_factory=dict, compare=False)

    @staticmethod
    def make(lhs: float, rhs: float, saturated=None, diagnostics=None) -> "BoundReport":
        margin = float(lhs) - float(rhs)
        if saturated is None:
            saturated = abs(margin) <= SATURATION_REL_TOL * max(1.0, abs(rhs))
        return BoundReport(
            lhs=float(lhs),
            rhs=float(rhs),
            margin=margin,
            saturated=bool(saturated),
            diagnostics=diagnostics or {},
        )


@dataclass(frozen=True)
class EstimationProblem:
    """A statistic T estimating h(theta) for a parametric family, judged under g.

    statistic maps a list of coordinate arrays to estimator components of
    shape (m_dim, *input_shape); h maps theta to R^m_dim; h_jacobian returns
    H with H_ij = d theta_j / d h_i (m_dim x theta_dim).
    """

    fam: ParametricFamily
    statistic: Callable
    h: Callable
    h_jacobian: Callable
    g: GridDensity
    pair: HolderPair
    m_dim: int = 1
    norm_p: float = 2.0

    def statistic_on_grid(self) -> np.ndarray:
        return self._eval_statistic(self.g.grid.mesh())

    def _eval_statistic(self, coords) -> np.ndarray:
        t = np.asarray(self.statistic(list(coords)), dtype=float)
        base_shape = np.asarray(coords[0]).shape
        if t.shape == base_shape:
            if self.m_dim != 1:
                raise ValueError("statistic returned one component but m_dim > 1")
            t = t[None, ...]
        if t.shape != (self.m_dim, *base_shape):
            raise ValueError(f"statistic shape {t.shape} != ({self.m_dim}, *{base_shape})")
        return t

    def h_at(self, theta) -> np.ndarray:
        v = np.atleast_1d(np.asarray(self.h(theta), dtype=float))
        if v.shape != (self.m_dim,):
            raise ValueError(f"h(theta) must have shape ({self.m_dim},)")
        return v

    def jacobian_at(self, theta) -> np.ndarray:
        j = np.asarray(self.h_jacobian(theta), dtype=float)
        j = j.reshape(self.m_dim, self.fam.theta_dim)
        if not np.all(np.isfinite(j)):
            raise JacobianSingular("h_jacobian returned non-finite entries")
        return j

    def bias_derivative(self, theta) -> np.ndarray:
        """G with G_kj = d E_{f_theta}[T_k] / d theta_j, by `central_difference`."""
        t_field = self.statistic_on_grid()

        def means_at(th):
            f = self.fam.at(th)
            return np.array([f.expectation(tk) for tk in t_field])

        return np.stack(central_difference(means_at, _as_theta(theta, self.fam.theta_dim)), axis=1)


def _error_moment(prob: EstimationProblem, theta) -> float:
    """E_g[ ||T - h(theta)||_p^alpha ]^(1/alpha)."""
    t_field = prob.statistic_on_grid()
    hv = prob.h_at(theta)
    err = lp_norm([t_field[k] - hv[k] for k in range(prob.m_dim)], prob.norm_p)
    return prob.g.expectation(err**prob.pair.alpha) ** (1.0 / prob.pair.alpha)


def _transformed_score_factor(prob: EstimationProblem, theta) -> float:
    """E_g[ ||H grad_theta f / g||_{p*}^beta ]^(1/beta)."""
    grads = _gradient_on(prob.fam, prob.g, theta)
    hmat = prob.jacobian_at(theta)
    v = np.einsum("ij,j...->i...", hmat, grads)
    pstar = dual_exponent(prob.norm_p)
    vnorm = lp_norm([v[i] for i in range(v.shape[0])], pstar)
    return prob.g.masked_power_integral(vnorm, prob.pair.beta) ** (1.0 / prob.pair.beta)


def _bound_rhs(prob: EstimationProblem, theta) -> tuple[float, float]:
    """(rhs, bias_divergence): rhs = |m + div_h bias| = |sum_ij H_ij G_ij|."""
    hmat = prob.jacobian_at(theta)
    gmat = prob.bias_derivative(theta)
    trace = float(np.sum(hmat * gmat))
    return abs(trace), trace - prob.m_dim


def multidim_cr_check(prob: EstimationProblem, theta) -> BoundReport:
    """E_g[||T - h||^alpha]^(1/alpha) E_g[||H grad f/g||_*^beta]^(1/beta) >= |m + div bias|.

    With h = theta and T unbiased the rhs is exactly the parameter dimension.
    """
    lhs = _error_moment(prob, theta) * _transformed_score_factor(prob, theta)
    rhs, div_bias = _bound_rhs(prob, theta)
    return BoundReport.make(lhs, rhs, diagnostics={"bias_divergence": div_bias})


def matrix_cr_check(prob: EstimationProblem, theta) -> BoundReport:
    """Matrix-weighted bound at beta = 2 with the optimal weight A = I_{2,g}^{-1}.

    E_g[|T - h|^2]^(1/2) >= (grad h^T I^{-1} grad h)^(1/2) for scalar h,
    unbiased T.
    """
    if prob.m_dim != 1:
        raise ValueError("matrix-weighted check needs a scalar h")
    if abs(prob.pair.beta - 2.0) > 1e-12:
        raise ValueError("closed-form weight requires beta = 2")
    t0 = _as_theta(theta, prob.fam.theta_dim)
    lhs = _error_moment(prob, t0)
    info = fisher_matrix(prob.fam, prob.g, t0).entries
    grad_h = np.array(central_difference(lambda th: prob.h_at(th)[0], t0))
    sol = _solve_fisher(info, grad_h)
    rhs = float(np.sqrt(max(grad_h @ sol, 0.0)))
    return BoundReport.make(lhs, rhs)


def _solve_fisher(info: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(info)
    if eigs.min() <= 1e-12 * max(eigs.max(), 1e-300):
        raise SingularFisherMatrix(
            f"Fisher matrix eigenvalues {eigs} are singular at working precision"
        )
    return np.linalg.solve(info, rhs)


@dataclass(frozen=True)
class CovarianceReport:
    empirical: np.ndarray  # (m, m) error second-moment matrix from samples
    bound: np.ndarray  # (m, m) etadot^T I^{-1} etadot
    min_eig: float  # smallest eigenvalue of empirical - bound
    stderr: float  # Monte Carlo standard error along the critical eigenvector
    psd_margin: float  # min_eig + 3 * stderr; >= 0 means PSD within noise


def covariance_bound_check(
    prob: EstimationProblem, theta, n_samples: int = 100_000, seed: int = 0
) -> CovarianceReport:
    """Monte Carlo check of E_g[(T-h)(T-h)^T] >= etadot^T I_{2,g}^{-1} etadot."""
    if abs(prob.pair.beta - 2.0) > 1e-12:
        raise ValueError("covariance bound requires beta = 2")
    if not n_samples >= 2:
        raise ParameterError(("n_samples",), "must be at least 2 for a sample covariance "
                             "and its standard error")
    t0 = _as_theta(theta, prob.fam.theta_dim)
    rng = np.random.default_rng(seed)
    xs = sample_density(prob.g, n_samples, rng)
    tvals = prob._eval_statistic([xs[a] for a in range(xs.shape[0])])
    err = tvals - prob.h_at(t0)[:, None]
    empirical = (err @ err.T) / n_samples
    etadot = prob.bias_derivative(t0).T  # (n, m)
    info = fisher_matrix(prob.fam, prob.g, t0).entries
    bound = etadot.T @ _solve_fisher(info, etadot)
    bound = 0.5 * (bound + bound.T)
    diff = empirical - bound
    eigvals, eigvecs = np.linalg.eigh(0.5 * (diff + diff.T))
    v = eigvecs[:, 0]
    proj = (v @ err) ** 2
    stderr = float(proj.std(ddof=1) / np.sqrt(n_samples))
    min_eig = float(eigvals[0])
    return CovarianceReport(
        empirical=empirical,
        bound=bound,
        min_eig=min_eig,
        stderr=stderr,
        psd_margin=min_eig + 3.0 * stderr,
    )


@lru_cache(maxsize=64)
def _edge_field_weights(grid: GridSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) with V_i / h = L_i g_i + R_i g_{i+1} on a 1D grid, V_i the
    integral over cell i of l |x|^(alpha-1) sign(x), l the linear interpolant
    of the node values g.  Cached per (grid, alpha) and read-only, as
    `p1_moment_weights` is.

    On the cell [a, b], l = (g_i (b - x) + g_{i+1} (x - a)) / h, so with
    I1 and I2 the increments of A1 = |x|^alpha / alpha and
    A2 = x |x|^alpha / (alpha + 1), whose slopes are |x|^(alpha-1) sign(x)
    and |x|^alpha, L = (b I1 - I2) / h^2 and R = (I2 - a I1) / h^2.  The
    differences cancel where |x| is large against h, costing a few digits of
    the 16, far below the fit's tolerance.
    """
    x = grid.axes()[0]
    h = grid.spacing[0]
    ax = np.abs(x)
    a1 = ax**alpha / alpha
    a2 = x * ax**alpha / (alpha + 1.0)
    i1, i2 = np.diff(a1), np.diff(a2)
    left = (x[1:] * i1 - i2) / (h * h)
    right = (i2 - x[:-1] * i1) / (h * h)
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def _equality_field_fit(f_values: np.ndarray, g: GridDensity, alpha: float,
                        norm_p: float) -> tuple[float, float, bool]:
    """Least-squares K and relative residual for grad f = -K g ||x||^(alpha-1) grad ||x||,
    f given by its node values, and whether they say the equality holds (a
    residual below FIELD_FIT_TOL, K > 0).

    In 1D the condition is integrated over each cell: Delta f / h = -K V / h,
    V the exact cell integral of the field with g's linear interpolant
    (`_edge_field_weights`), fitted on the cells with a node of g above the
    support floor, all of width h.  In 2D it is taken at the nodes: each
    weighted sum is (w * a * b).sum() with w the trapezoid weights times the
    support mask of g, and one pass over strips (`grid.row_strips`) takes the
    fields of each strip there: grad f from the strip and its halo, ||x||_p
    and the field from the coordinates.

    Either way num = sum a v, den = sum v v and base = sum a a, with a the
    slopes of f and v the field, and K = -num / den solves the normal
    equation, so the misfit at K, sum (a + K v)^2 = base + 2 K num + K^2 den,
    is base + K num.
    """
    gv, grid = g.values, g.grid
    floor = support_floor(gv)
    if grid.dims == 1:
        left, right = _edge_field_weights(grid, alpha)
        above = gv > floor
        touch = above[:-1] | above[1:]
        h = grid.spacing[0]
        slope = (f_values[1:] - f_values[:-1])[touch] / h
        v = (left * gv[:-1] + right * gv[1:])[touch]
        num, den, base = float((slope * v).sum()), float((v * v).sum()), float((slope * slope).sum())
    else:
        num, den, base = _node_fit_sums(f_values, g, alpha, norm_p, floor)
    if den <= 0.0 or base <= 0.0:
        return 0.0, 1.0, False
    k = -num / den
    residual = float(np.sqrt(max(base + k * num, 0.0) / base))
    return k, residual, residual < FIELD_FIT_TOL and k > 0.0


def _node_fit_sums(f_values, g, alpha, norm_p, floor):
    """num, den and base of the 2D node fit, in one pass over strips."""
    gv, grid = g.values, g.grid
    weights, mesh = grid.trap_weights(), grid.open_mesh()
    num = den = base = 0.0
    for rows in row_strips(gv.shape):
        # g ||x||^(alpha-1) grad ||x||; grad ||x||_p is 0 at the origin (there
        # sign(x) = 0), and at p = 2 a component is x / r, the bits of
        # sign(x) (|x|/r)^1
        r = strip_radius(mesh, rows, norm_p)
        gr = np.power(r, alpha - 1.0) * gv[rows]
        np.copyto(r, 1.0, where=~(r > 0.0))  # safe to divide by
        coords = [mesh[0][rows], *mesh[1:]]
        if norm_p == 2.0:
            v = [x / r * gr for x in coords]
        else:
            v = [(np.abs(x) / r) ** (norm_p - 1.0) * np.sign(x) * gr for x in coords]
        w = weights[rows] * (gv[rows] > floor)
        for gf, vi in zip(strip_gradient(f_values, rows, grid.spacing), v):
            wg = w * gf
            num += float((wg * vi).sum())
            den += float((w * vi * vi).sum())
            base += float((wg * gf).sum())
    return num, den, base


def functional_cr_check(
    f: GridDensity, g: GridDensity, pair: HolderPair, norm_p: float = 2.0
) -> BoundReport:
    """Location-form bound (int ||x||^alpha g)^(1/alpha) (int ||grad f/g||_*^beta g)^(1/beta) >= n.

    f must be zero-mean; if it is not, both densities are relabeled onto a
    grid centered at f's mean (values untouched).  saturated reflects the
    equality condition grad f = -K g ||x||^(alpha-1) grad ||x|| with K >= 0
    fitted by least squares.
    """
    if f.grid != g.grid:
        raise ValueError("f and g must share one grid")
    mu = f.mean()
    extent = max(h - l for l, h in zip(f.grid.lo, f.grid.hi))
    if float(np.abs(mu).max()) > 1e-8 * extent:
        f = f.on_shifted_grid(mu)
        g = g.on_shifted_grid(mu)
    alpha, beta = pair.alpha, pair.beta
    pstar = dual_exponent(norm_p)
    lhs_moment = moment(g, alpha, norm_p) ** (1.0 / alpha)
    grad_norm = lp_norm(_zero_off_supports(f.spatial_gradient(), f.values, g.values), pstar)
    lhs_info = g.masked_power_integral(grad_norm, beta) ** (1.0 / beta)
    lhs = lhs_moment * lhs_info
    rhs = float(f.grid.dims)
    k, residual, saturated = _equality_field_fit(f.values, g, alpha, norm_p)
    return BoundReport.make(
        lhs,
        rhs,
        saturated=saturated,
        diagnostics={"K": k, "residual_rel": residual, "moment_factor": lhs_moment,
                     "info_factor": lhs_info},
    )


def q_cr_check(g: GridDensity, pair: HolderPair, q: float, norm_p: float = 2.0) -> BoundReport:
    """Single-density bound m_alpha[g]^(1/alpha) I_{beta,q}[g]^(1/beta) >= n.

    Equality holds exactly on generalized Gaussians; the saturated flag fits
    the equality condition through the escort pair f = g^q / M_q.

    Only the source of m_alpha, I_{beta,q}, g^q and M_q (the integral of
    g^q) depends on the dimension.  In 1D m_alpha and I_{beta,q} are those
    of the P1 interpolant, which `QFisherKernel` integrates, and g^q and M_q
    are what `escort(g, q)` normalizes; in 2D all four are taken on the
    nodes, g^q and M_q coming with I_{beta,q} from the kernel.  Either way
    g^q is `support_power(g, q)`.  The escort g^q / M_q is
    then formed in place, and it is the only grid-sized array the check
    keeps: the equality-field fit streams over strips too, in one pass that
    takes its misfit from the normal equation (`_equality_field_fit`).
    """
    alpha, beta = pair.alpha, pair.beta
    gv = g.values
    if g.grid.dims == 1:
        summand = p1_moment_weights(g.grid, alpha) * gv
        warn_if_truncated(float(summand.max()), boundary_abs_max(summand))
        m_alpha = float(summand.sum())
        info = QFisherKernel(g.grid, beta, q, norm_p).parts(gv)[0]
        g_q = support_power(gv, q)
        m_q = g.integral(g_q)
    else:
        m_alpha = moment(g, alpha, norm_p)
        info, g_q, m_q = QFisherKernel(g.grid, beta, q, norm_p)._node_parts(gv)
    g_q /= _escort_mass(m_q)
    k, residual, saturated = _equality_field_fit(g_q, g, alpha, norm_p)
    lhs = m_alpha ** (1.0 / alpha) * info ** (1.0 / beta)
    return BoundReport.make(
        lhs,
        float(g.grid.dims),
        saturated=saturated,
        diagnostics={
            "m_alpha": m_alpha,
            "i_beta_q": info,
            "K": k,
            "residual_rel": residual,
        },
    )
