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
I_{beta,q} and its exact gradient come from `fisher.q_fisher_parts`, the
functional the checks evaluate, so J^(1/beta) here is `q_cr_check`'s lhs;
this module adds the alpha-moment factor and the chain rule.
`gradient_adjoint` is re-exported from `fisher`: it runs once per objective
evaluation in 1D, so its call count counts the evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fisher import gradient_adjoint, q_fisher_parts  # noqa: F401  (gradient_adjoint re-exported)
from .grid import GridDensity, HolderPair

VALUE_FLOOR = 1e-14
# line search: first trial step cap and the step below which it gives up
MAX_STEP = 4.0
MIN_STEP = 1e-12
# stalled: this many iterations in a row each either found no step or cut
# J^(1/beta) by less than STALL_REL
STALL_ITERS = 50
STALL_REL = 1e-10


@dataclass(frozen=True)
class MinimizationConfig:
    q: float
    alpha: float
    norm_p: float = 2.0
    max_iters: int = 5000
    tol: float = 1e-3

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


def _objective_parts(g: GridDensity, cfg: MinimizationConfig):
    """Returns (J, gradient of J) at the current iterate."""
    beta = cfg.beta
    w = g.grid.trap_weights()
    r = g.grid.radius(cfg.norm_p) ** cfg.alpha
    m_alpha = float((w * r * g.values).sum())
    info, d_info = q_fisher_parts(g, beta, cfg.q, cfg.norm_p, gradient=True)
    m_fac = m_alpha ** (beta / cfg.alpha)
    j_val = m_fac * info
    # dJ = J * (beta/alpha) dm/m + m^(beta/alpha) dI
    grad = j_val * ((beta / cfg.alpha) * w * r / m_alpha) + m_fac * d_info
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
    step = MAX_STEP  # warm-started across iterations

    for n_iters in range(1, cfg.max_iters + 1):
        if converged:
            n_iters -= 1
            break
        dmax = float(np.abs(grad).max())
        if dmax == 0.0:
            stall_count = STALL_ITERS
            break
        direction = -grad / dmax

        # renormalization absorbs any constant shift of the exponent, so the
        # mass constraint needs no explicit projection here
        s = min(2.0 * step, MAX_STEP)
        accepted = False
        while s >= MIN_STEP:
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
        if not accepted or rel_drop < STALL_REL:
            stall_count += 1
        else:
            stall_count = 0
        if new_obj <= target:
            converged = True
        if stall_count >= STALL_ITERS:
            break

    return MinimizeResult(
        argmin=g,
        objective_trace=trace,
        converged=converged,
        stalled=stall_count >= STALL_ITERS,
        n_iters=n_iters,
    )
