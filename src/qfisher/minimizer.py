"""Multiplicative descent for the moment-information product.

Minimizes J[g] = m_alpha[g]^(beta/alpha) * I_{beta,q}[g] over densities on a
fixed grid.  J^(1/beta) is bounded below by the dimension and the bound is
tight exactly on the generalized Gaussian family, so the minimizer doubles as
a constructive check: started from anything reasonable it should land on a
generalized Gaussian with J^(1/beta) close to n.

The update is exponentiated gradient, g <- g exp(-s dJ/dg) renormalized;
additive steps crawl on the tails (the minimizer has compact support for
q > 1 and the gradient signal where g is tiny is weighted by g itself),
while the multiplicative form shrinks misplaced tail mass geometrically.
The objective gradient is assembled analytically with the exact adjoint of
np.gradient, so the line search sees a consistent slope; the trapezoid
weights and stencils match the quadrature used by the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .grid import GridDensity, HolderPair, dual_exponent, lp_norm, support_floor

VALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class MinimizationConfig:
    q: float
    alpha: float
    norm_p: float = 2.0
    max_iters: int = 5000
    tol: float = 1e-3
    max_step: float = 4.0
    min_step: float = 1e-12
    stall_iters: int = 50
    stall_rel: float = 1e-10

    def __post_init__(self):
        HolderPair.from_alpha(self.alpha)  # validates alpha > 1
        if not self.q > 0.0:
            raise ParameterError(("q",), "must be positive")
        if not 1.0 < self.norm_p < np.inf:
            raise ParameterError(("norm_p",), "must lie strictly between 1 and infinity")

    @property
    def beta(self) -> float:
        return HolderPair.from_alpha(self.alpha).beta


@dataclass(frozen=True)
class MinimizeResult:
    argmin: GridDensity
    objective_trace: list[float] = field(repr=False)
    converged: bool
    stalled: bool
    n_iters: int

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def gradient_adjoint(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Exact adjoint of np.gradient along one axis (central interior stencil,
    one-sided edges).  Verified against the dot-product identity in the tests."""
    v = np.moveaxis(v, axis, 0)
    out = np.zeros_like(v)
    inv = 1.0 / h
    out[2:] += v[1:-1] * (0.5 * inv)
    out[:-2] -= v[1:-1] * (0.5 * inv)
    out[0] -= v[0] * inv
    out[1] += v[0] * inv
    out[-1] += v[-1] * inv
    out[-2] -= v[-1] * inv
    return np.moveaxis(out, 0, axis)


def _objective_parts(g: GridDensity, cfg: MinimizationConfig):
    """Returns (J, gradient of J) at the current iterate."""
    grid = g.grid
    beta = cfg.beta
    q = cfg.q
    w = grid.trap_weights()
    r = grid.radius(cfg.norm_p) ** cfg.alpha
    gv = g.values

    m_alpha = float((w * r * gv).sum())
    m_q = float((w * gv**q).sum())

    dual = dual_exponent(cfg.norm_p)
    grads = g.spatial_gradient()
    dens_u = lp_norm(grads, dual)

    e = beta * (q - 1.0) + 1.0 - beta
    mask = gv > support_floor(gv)
    g_pow = np.where(mask, gv, 1.0) ** e
    phi_density = np.where(mask, dens_u**beta * g_pow, 0.0)
    phi = float((w * phi_density).sum())

    pref = m_alpha ** (beta / cfg.alpha) * q**beta * m_q ** (-beta)
    j_val = pref * phi

    # dJ = J * [(beta/alpha) dm/m - beta dM/M] + pref * dPhi
    grad = j_val * ((beta / cfg.alpha) * w * r / m_alpha - beta * q * w * gv ** (q - 1.0) / m_q)

    if e != 0.0:
        grad += pref * np.where(mask, w * e * dens_u**beta * g_pow / np.where(mask, gv, 1.0), 0.0)

    u_mask = dens_u > 0.0
    u_safe = np.where(u_mask, dens_u, 1.0)
    common = np.where(mask & u_mask, w * beta * u_safe ** (beta - dual) * g_pow, 0.0)
    for axis, dg in enumerate(grads):
        v = common * np.sign(dg) * np.abs(dg) ** (dual - 1.0)
        grad += pref * gradient_adjoint(v, axis, grid.spacing[axis])

    return j_val, grad


def _renormalized(grid, values: np.ndarray) -> GridDensity:
    clipped = np.clip(values, VALUE_FLOOR, None)
    return GridDensity.from_values(grid, clipped, normalize=True, check_boundary=False)


def minimize_q_fisher(start: GridDensity, cfg: MinimizationConfig) -> MinimizeResult:
    """Descend J from `start`; stops once J^(1/beta) <= dims + tol or on stall."""
    grid = start.grid
    target = grid.dims + cfg.tol

    g = _renormalized(grid, start.values)
    j_val, grad = _objective_parts(g, cfg)
    trace = [j_val ** (1.0 / cfg.beta)]
    stall_count = 0
    converged = trace[-1] <= target
    n_iters = 0
    step = cfg.max_step  # warm-started across iterations

    for n_iters in range(1, cfg.max_iters + 1):
        if converged:
            n_iters -= 1
            break
        dmax = float(np.abs(grad).max())
        if dmax == 0.0:
            stall_count = cfg.stall_iters
            break
        direction = -grad / dmax

        # renormalization absorbs any constant shift of the exponent, so the
        # mass constraint needs no explicit projection here
        s = min(2.0 * step, cfg.max_step)
        accepted = False
        while s >= cfg.min_step:
            trial = _renormalized(grid, g.values * np.exp(s * direction))
            j_try, grad_try = _objective_parts(trial, cfg)
            if j_try < j_val:
                g, j_val, grad = trial, j_try, grad_try
                accepted = True
                step = s
                break
            s *= 0.5

        new_obj = j_val ** (1.0 / cfg.beta)
        rel_drop = (trace[-1] - new_obj) / max(abs(trace[-1]), 1e-300)
        trace.append(new_obj)
        if not accepted or rel_drop < cfg.stall_rel:
            stall_count += 1
        else:
            stall_count = 0
        if new_obj <= target:
            converged = True
        if stall_count >= cfg.stall_iters:
            break

    return MinimizeResult(
        argmin=g,
        objective_trace=trace,
        converged=converged,
        stalled=stall_count >= cfg.stall_iters,
        n_iters=n_iters,
    )
