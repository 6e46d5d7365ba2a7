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
I_{beta,q} and its exact gradient come from `fisher.QFisherKernel`, the
functional the checks evaluate, so J^(1/beta) here is `q_cr_check`'s lhs;
this module adds the alpha-moment factor and the chain rule.

A run sets up the kernel and the alpha-moment weights once and keeps its
iterates and line-search trials as raw node arrays, renormalized with the
checks of `GridDensity.from_values`; the argmin alone becomes a
`GridDensity`.  Every iterate is bit for bit what a loop over `GridDensity`
trials with np.gradient computes (tests/test_minimizer.py keeps that loop).
`MinimizeResult.counters` counts the objective evaluations and the rejected
line-search trials among them.  `gradient_adjoint` is re-exported from
`fisher`: it runs once per objective evaluation in 1D, so its call count
counts the evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegrable, ParameterError
from .fisher import QFisherKernel, gradient_adjoint  # noqa: F401  (gradient_adjoint re-exported)
from .grid import GridDensity, GridSpec, HolderPair

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
class MinimizeCounters:
    """Work done by one descent: every objective evaluation, and the line-search
    trials among them that did not lower J (their gradient is discarded)."""

    evaluations: int
    rejected_trials: int


@dataclass(frozen=True)
class MinimizeResult:
    argmin: GridDensity
    objective_trace: list[float] = field(repr=False)
    converged: bool
    stalled: bool
    n_iters: int
    counters: MinimizeCounters

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


class _Objective:
    """What J needs beyond the node values, fixed for a run: the I_{beta,q}
    kernel and the alpha-moment weights."""

    def __init__(self, grid: GridSpec, cfg: MinimizationConfig):
        beta = cfg.beta
        w = grid.trap_weights()
        r = grid.radius(cfg.norm_p) ** cfg.alpha
        self.kernel = QFisherKernel(grid, beta, cfg.q, cfg.norm_p)
        self.moment_weights = w * r
        self.moment_grad = (beta / cfg.alpha) * w * r  # (beta/alpha) dm_alpha/dg
        self.moment_power = beta / cfg.alpha


def _objective_parts(values: np.ndarray, obj: _Objective):
    """Returns (J, gradient of J) at node values of trapezoid mass 1."""
    m_alpha = float((obj.moment_weights * values).sum())
    info, d_info = obj.kernel.parts(values, gradient=True)
    m_fac = m_alpha**obj.moment_power
    j_val = m_fac * info
    # dJ = J * (beta/alpha) dm/m + m^(beta/alpha) dI
    grad = j_val * (obj.moment_grad / m_alpha) + m_fac * d_info
    return j_val, grad


def _renormalized(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Values clipped at VALUE_FLOOR and scaled to trapezoid mass 1, with the
    checks and error types of `GridDensity.from_values`."""
    clipped = np.clip(values, VALUE_FLOOR, None)
    z = float((weights * clipped).sum())
    if not np.isfinite(z) or z <= 0.0:
        if not np.all(np.isfinite(clipped)):
            raise ValueError("density values must be finite")
        raise NonIntegrable("density mass is zero or not finite")
    return clipped / z


def minimize_q_fisher(start: GridDensity, cfg: MinimizationConfig) -> MinimizeResult:
    """Descend J from `start`; stops once J^(1/beta) <= dims + tol or on stall."""
    grid = start.grid
    target = grid.dims + cfg.tol
    inv_beta = 1.0 / cfg.beta
    obj = _Objective(grid, cfg)
    weights = grid.trap_weights()

    g = _renormalized(start.values, weights)
    j_val, grad = _objective_parts(g, obj)
    evaluations, rejected = 1, 0
    trace = [j_val**inv_beta]
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
            trial = _renormalized(g * np.exp(s * direction), weights)
            j_try, grad_try = _objective_parts(trial, obj)
            evaluations += 1
            if j_try < j_val:
                g, j_val, grad = trial, j_try, grad_try
                accepted = True
                step = s
                break
            rejected += 1
            s *= 0.5

        new_obj = j_val**inv_beta
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
        argmin=GridDensity(grid, g),
        objective_trace=trace,
        converged=converged,
        stalled=stall_count >= STALL_ITERS,
        n_iters=n_iters,
        counters=MinimizeCounters(evaluations=evaluations, rejected_trials=rejected),
    )
