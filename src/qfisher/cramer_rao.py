"""Generalized Cramer-Rao bound checks.

Every check reports lhs, rhs, and margin = lhs - rhs for an inequality of the
form lhs >= rhs, where the lhs couples an alpha-moment of the estimation
error under a reference density g with a beta-power Fisher-type functional,
and the two exponents are Holder conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .densities import escort, moment
from .errors import JacobianSingular, SingularFisherMatrix
from .fisher import ParametricFamily, _as_theta, _gradient_on, fisher_matrix, q_fisher
from .grid import GridDensity, HolderPair, dual_exponent, interior_support, lp_norm
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
    fd_step: float = 1e-3

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
        """G with G_kj = d E_{f_theta}[T_k] / d theta_j, by symmetric differences."""
        t0 = _as_theta(theta, self.fam.theta_dim)
        t_field = self.statistic_on_grid()
        out = np.zeros((self.m_dim, self.fam.theta_dim))
        for j in range(self.fam.theta_dim):
            e = np.zeros_like(t0)
            e[j] = 1.0
            step = self.fd_step * max(1.0, abs(t0[j]))
            up = self.fam.at(t0 + step * e)
            dn = self.fam.at(t0 - step * e)
            for k in range(self.m_dim):
                out[k, j] = (up.expectation(t_field[k]) - dn.expectation(t_field[k])) / (
                    2.0 * step
                )
        return out


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


def scalar_cr_check(prob: EstimationProblem, theta) -> BoundReport:
    """One-parameter bound: error alpha-moment times Fisher^(1/beta) >= |dE[T]/dtheta|.

    rhs differentiates theta -> E_{f_theta}[T] with h(theta) subtracted as a
    constant, i.e. |m + d(bias)/dh|; for h = theta and unbiased T this is 1.
    """
    if prob.m_dim != 1 or prob.fam.theta_dim != 1:
        raise ValueError("scalar check needs m_dim == theta_dim == 1")
    return multidim_cr_check(prob, theta)


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
    grad_h = np.zeros(prob.fam.theta_dim)
    for j in range(prob.fam.theta_dim):
        e = np.zeros_like(t0)
        e[j] = 1.0
        step = prob.fd_step * max(1.0, abs(t0[j]))
        grad_h[j] = (prob.h_at(t0 + step * e)[0] - prob.h_at(t0 - step * e)[0]) / (2.0 * step)
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


def _norm_gradient_field(grid, norm_p: float) -> list[np.ndarray]:
    """Components of grad ||x||_p, zero at the origin."""
    mesh = grid.open_mesh()
    r = grid.radius(norm_p)
    safe = np.where(r > 0.0, r, 1.0)
    if norm_p == 2.0:
        return [np.where(r > 0.0, x / safe, 0.0) for x in mesh]
    return [
        np.where(r > 0.0, np.sign(x) * np.abs(x) ** (norm_p - 1.0) / safe ** (norm_p - 1.0), 0.0)
        for x in mesh
    ]


def _equality_field_fit(
    grad_f: list[np.ndarray], g: GridDensity, alpha: float, norm_p: float
) -> tuple[float, float]:
    """Least-squares K and relative residual for grad f = -K g ||x||^(alpha-1) grad ||x||."""
    r = g.grid.radius(norm_p)
    dr = _norm_gradient_field(g.grid, norm_p)
    v = [g.values * r ** (alpha - 1.0) * c for c in dr]
    w = g.grid.trap_weights() * interior_support(g.values)
    num = sum(float((w * gf * vi).sum()) for gf, vi in zip(grad_f, v))
    den = sum(float((w * vi * vi).sum()) for vi in v)
    base = sum(float((w * gf * gf).sum()) for gf in grad_f)
    if den <= 0.0 or base <= 0.0:
        return 0.0, 1.0
    k = -num / den
    res = sum(float((w * (gf + k * vi) ** 2).sum()) for gf, vi in zip(grad_f, v))
    return k, float(np.sqrt(max(res, 0.0) / base))


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
    grad_f = f.spatial_gradient()
    lhs_info = g.masked_power_integral(lp_norm(grad_f, pstar), beta) ** (1.0 / beta)
    lhs = lhs_moment * lhs_info
    rhs = float(f.grid.dims)
    k, residual = _equality_field_fit(grad_f, g, alpha, norm_p)
    saturated = residual < FIELD_FIT_TOL and k > 0.0
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
    """
    alpha, beta = pair.alpha, pair.beta
    m_alpha = moment(g, alpha, norm_p)
    info = q_fisher(g, beta, q, norm_p)
    lhs = m_alpha ** (1.0 / alpha) * info ** (1.0 / beta)
    rhs = float(g.grid.dims)
    f_escort = escort(g, q)
    k, residual = _equality_field_fit(f_escort.spatial_gradient(), g, alpha, norm_p)
    saturated = residual < FIELD_FIT_TOL and k > 0.0
    return BoundReport.make(
        lhs,
        rhs,
        saturated=saturated,
        diagnostics={
            "m_alpha": m_alpha,
            "i_beta_q": info,
            "K": k,
            "residual_rel": residual,
        },
    )
