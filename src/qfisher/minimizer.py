"""Quasi-Newton descent for the moment-information product.

Minimizes J[g] = m_alpha[g]^(beta/alpha) * I_{beta,q}[g] over densities on a
1D grid.  J^(1/beta) is bounded below by the dimension and the bound is
tight exactly on the generalized Gaussian family, so the minimizer doubles as
a constructive check: started from anything reasonable it should land on a
generalized Gaussian with J^(1/beta) close to 1.

Both factors are exact integrals of the P1 (piecewise-linear) interpolant of
the node values: I_{beta,q} and its exact gradient come from
`fisher.QFisherKernel`, and m_alpha = W . g with the hat-function moments
`fisher.p1_moment_weights`, so J^(1/beta) here is `q_cr_check`'s lhs.  The
descent keeps the two end nodes at 0, so the interpolant is a density on the
whole line and J^(1/beta) >= 1 holds up to rounding at every iterate.

The descent runs over u = log g, with g = exp(u - max u) scaled to unit
trapezoid mass (the P1 mass).  J is homogeneous of degree 0 in g, so no mass
constraint is needed.  Each step is limited-memory BFGS (the two-loop
recursion of Liu & Nocedal, 1989) with the initial inverse Hessian gamma H0,
a Sobolev metric (Neuberger, 1997): H0 v = s K^(-1) (s v), with the node
scaling s = g^(-1/2) (0 on zero nodes and the pinned ends) and
K = T/h^2 + c I on the interior nodes, T = tridiag(-1, 2, -1).  K undoes the
h^(-2) growth of the Hessian's conditioning, so the iteration count does not
grow with the grid; c = SMOOTH lambda_1, with lambda_1 the lowest eigenvalue
of T/h^2, sets the smoothing length to a fixed fraction of the box.  K is
diagonal in the type-I sine basis, so H0 costs two real FFTs.  An Armijo
backtracking search with strict decrease keeps the trace nonincreasing, and
each direction is clipped to +-STEP_CAP per node, so no step moves any u by
more than STEP_CAP.  A failed search clears the memory and retries along the
preconditioned steepest direction.

When that fails too, or J stops falling (FLAT_WINDOW, FLAT_FRAC), the descent
tries the dilation g(x) -> g(x / DILATION) / DILATION about the origin.  The
continuum J is invariant under it, while the P1 J falls as the support
widens; a q > 1 descent otherwise settles on a support whose edge nodes
cannot move, a few 1e-4 above the bound on a coarse grid.  The dilation is
kept only if it lowers J; if it does not, the run reports a stall.  A
descent can also crawl just above the FLAT_FRAC pace for hundreds of
iterations, so every FLAT_WINDOW iterations, counted from the start or from
the last probe, the dilation is tried as a probe: kept (as an iteration,
clearing the memory) only if it lowers J by more than the last FLAT_WINDOW
steps did together, else counted as a rejected trial.  Should the step
then fail at that iteration, the stall test judges that same evaluated
dilation against J.  A run that ends within FLAT_WINDOW iterations never
probes.  Zero nodes of the start stay
zero.

`MinimizeResult.stop_reason` says why a run stopped ("tol", "stall" or
"max_iters").  `MinimizeResult.counters` counts the objective evaluations, the
rejected line-search trials and dilations among them, and the dilations kept.
`gradient_adjoint` is re-exported from `fisher`: it runs once per objective
evaluation, so its call count counts the evaluations.

One iteration costs about 160 us at 257 points, 190 at 513 and 280 at 1025
on a shared 2-core VM (Python 3.11.7, numpy 2.4.6).  It is about a hundred
numpy calls on arrays of n elements, so per-call overhead, more than
arithmetic, sets it.  The objective and its gradient take about 38% of it,
the P1 kernel most of that.  `_two_loop` takes about 40%, and the Sobolev
metric's real FFTs about half of that.  So the kernel and the step write
their temporaries in place, and every element keeps the arithmetic of the
formulas, which the tests pin bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegrable, ParameterError
from .fisher import QFisherKernel, p1_moment_weights
from .fisher import gradient_adjoint  # noqa: F401  (re-exported)
from .grid import GridDensity, GridSpec, HolderPair, support_power

# curvature pairs the two-loop recursion keeps
MEMORY = 12
# Armijo sufficient-decrease factor, and the backtracking factor with the most
# trials one line search makes
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_TRIALS = 30
# largest change of any u = log g in one step
STEP_CAP = 1.0
# shift c of the metric's K = T/h^2 + c I, in units of T/h^2's lowest
# eigenvalue: any value from 10 to 1000 converges the seeded sweeps
SMOOTH = 100.0
# factor of the dilation x -> DILATION x tried when the descent stalls, and
# as a probe every FLAT_WINDOW iterations
DILATION = 1.5
# J stops falling when over the last FLAT_WINDOW steps J^(1/beta) fell by less
# than FLAT_FRAC of its distance to the target (or to the bound 1 where the
# target lies below it), that distance counted at most FLAT_NEAR: far from the
# bound a descent can cross a plateau at a slow pace and still converge
FLAT_WINDOW = 20
FLAT_FRAC = 3e-3
FLAT_NEAR = 1e-2


@dataclass(frozen=True)
class MinimizationConfig:
    q: float
    alpha: float
    max_iters: int = 5000
    tol: float = 1e-3

    def __post_init__(self):
        HolderPair.from_alpha(self.alpha)  # validates alpha > 1
        if not self.q > 0.0:
            raise ParameterError(("q",), "must be positive")

    @property
    def beta(self) -> float:
        return HolderPair.from_alpha(self.alpha).beta


@dataclass(frozen=True)
class MinimizeCounters:
    """Work done by one descent: every objective evaluation, the line-search
    trials and dilations among them that were not accepted (their gradient is
    discarded), and the dilations kept (each one an iteration)."""

    evaluations: int
    rejected_trials: int
    dilations: int


@dataclass(frozen=True)
class MinimizeResult:
    argmin: GridDensity
    objective_trace: list[float] = field(repr=False)
    counters: MinimizeCounters
    # "tol" (converged), "stall" (no step and no dilation lowers J) or "max_iters"
    stop_reason: str

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    @property
    def stalled(self) -> bool:
        return self.stop_reason == "stall"

    @property
    def n_iters(self) -> int:
        return len(self.objective_trace) - 1


class _Objective:
    """What J needs beyond the node values, fixed for a run: the I_{beta,q}
    kernel and the alpha-moment weights."""

    def __init__(self, grid: GridSpec, cfg: MinimizationConfig):
        beta = cfg.beta
        w = p1_moment_weights(grid, cfg.alpha)
        self.kernel = QFisherKernel(grid, beta, cfg.q)
        self.moment_weights = w
        self.moment_grad = (beta / cfg.alpha) * w  # (beta/alpha) dm_alpha/dg
        self.moment_power = beta / cfg.alpha


def _objective_parts(values: np.ndarray, obj: _Objective):
    """Returns (J, gradient of J) at node values of trapezoid mass 1."""
    m_alpha = float(obj.moment_weights @ values)
    info, d_info = obj.kernel.parts(values, gradient=True)
    m_fac = m_alpha**obj.moment_power
    j_val = m_fac * info
    # dJ = J * (beta/alpha) dm/m + m^(beta/alpha) dI
    grad = obj.moment_grad / m_alpha
    grad *= j_val
    d_info *= m_fac
    grad += d_info
    return j_val, grad


def _renormalized(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Values scaled to trapezoid mass 1, with the checks and error types of
    `GridDensity.from_values`."""
    z = float(weights @ values)
    if not np.isfinite(z) or z <= 0.0:
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        raise NonIntegrable("density mass is zero or not finite")
    return values / z


def _odd_sine(ext: np.ndarray, n: int) -> np.ndarray:
    """-2 x the type-I sine transform of the interior of each row z held in
    the first n entries of the rows of `ext` (z's ends must be 0), as node
    vectors with 0 ends: the imaginary part of the DFT of the row's odd
    extension, of length 2(n - 1), which this writes into the rest of `ext`."""
    np.negative(ext[..., n - 2:0:-1], out=ext[..., n:])
    return np.fft.rfft(ext).imag


def _sobolev_weights(points: int, spacing: float) -> np.ndarray:
    """Per sine mode k, 1 / (2 (n - 1) (lambda_k + c)), so that
    K^(-1) z = S(w * S(z)) with S the transform of `_odd_sine`;
    lambda_k = (2 - 2 cos(pi k/(n-1)))/h^2
    are the eigenvalues of T/h^2 and c = SMOOTH lambda_1.  The two end entries,
    which no interior vector reaches, are 0."""
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(points) / (points - 1))) / spacing**2
    w = np.zeros(points)
    w[1:-1] = 1.0 / (2.0 * (points - 1) * (lam[1:-1] + SMOOTH * lam[1]))
    return w


def _sobolev_metric(v: np.ndarray, scale: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H0 v = scale * K^(-1) (scale * v) for each row v of `v`, with `weights`
    from `_sobolev_weights`; both sine transforms extend their rows in one
    buffer."""
    n = v.shape[-1]
    ext = np.empty(v.shape[:-1] + (2 * (n - 1),))
    head = ext[..., :n]
    np.multiply(scale, v, out=head)
    np.multiply(weights, _odd_sine(ext, n), out=head)
    return scale * _odd_sine(ext, n)


def _two_loop(grad: np.ndarray, steps: deque, changes: deque, metric) -> np.ndarray:
    """-H grad for the L-BFGS inverse Hessian H built on gamma metric(.) from
    the curvature pairs (s_i, y_i), oldest first; gamma = s.y / (y . metric(y))
    for the newest pair.  One `metric` call takes that y and the vector
    between the loops as two rows.

    The two loops of Liu & Nocedal run on the scalars s_i . y_j and on one
    product of the stacked pairs with a vector per loop."""
    s_mat, y_mat = np.array(steps), np.array(changes)
    # s.y stays one product of the full stacked pairs, oldest first, taken
    # anew at every step: BLAS gives other bits for an entry of a shifted
    # block or of a one-row product, so entries cached across steps or taken
    # row by row would move every later iterate
    sy = (s_mat @ y_mat.T).tolist()
    k = len(sy)
    rho = [1.0 / sy[i][i] for i in range(k)]
    s_dot = (s_mat @ grad).tolist()
    a = [0.0] * k
    for i in reversed(range(k)):
        acc, row = s_dot[i], sy[i]
        for j in range(i + 1, k):
            acc -= a[j] * row[j]
        a[i] = rho[i] * acc
    y_new = y_mat[-1]
    pair = np.empty((2, grad.size))
    pair[0] = y_new
    np.subtract(grad, np.array(a) @ y_mat, out=pair[1])
    h_y, r = metric(pair)
    r *= sy[-1][-1] / float(y_new @ h_y)
    y_dot = (y_mat @ r).tolist()
    c = [0.0] * k  # a_i - b_i
    for i in range(k):
        acc = y_dot[i]
        for j in range(i):
            acc += c[j] * sy[j][i]
        c[i] = a[i] - rho[i] * acc
    r += np.array(c) @ s_mat
    return np.negative(r, out=r)


def _capped(direction: np.ndarray) -> np.ndarray:
    """`direction` clipped in place to +-STEP_CAP per node."""
    np.maximum(direction, -STEP_CAP, out=direction)
    return np.minimum(direction, STEP_CAP, out=direction)


def minimize_q_fisher(start: GridDensity, cfg: MinimizationConfig) -> MinimizeResult:
    """Descend J from `start`; stops once J^(1/beta) <= 1 + tol or on stall."""
    grid = start.grid
    if grid.dims != 1:
        raise ParameterError(("start",), "must live on a one-dimensional grid")
    target = 1.0 + cfg.tol
    inv_beta = 1.0 / cfg.beta
    obj = _Objective(grid, cfg)
    weights = grid.trap_weights()
    x = grid.axes()[0]
    evaluations, rejected, dilations = 0, 0, 0

    def evaluate(u):
        """g, J and dJ/du at u; dJ/du = g dJ/dg, and 0 where g is 0."""
        nonlocal evaluations
        g = np.subtract(u, u.max())
        g = _renormalized(np.exp(g, out=g), weights)
        j_val, grad = _objective_parts(g, obj)
        evaluations += 1
        return g, j_val, np.where(g > 0.0, g * grad, 0.0)

    def log_pinned(values):
        """u = log g with the two end nodes at g = 0."""
        u = np.log(values)
        u[[0, -1]] = -np.inf
        if not np.any(u > -np.inf):
            raise NonIntegrable("start has no mass off the two end nodes")
        return u

    def dilation(g):
        """The state g(x / DILATION) / DILATION, evaluated."""
        u = log_pinned(np.interp(x / DILATION, x, g))
        return (u, *evaluate(u))

    def kept(trial, j_val, needed):
        """The dilated `trial` if it lowers J by more than `needed`, else None."""
        nonlocal dilations
        if j_val - trial[2] > needed and np.isfinite(trial[3]).all():
            dilations += 1
            steps.clear()
            changes.clear()
            return trial
        return None

    # zero nodes stay at g = 0, u = -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        u = log_pinned(_renormalized(start.values, weights))
        g, j_val, grad = evaluate(u)
        sine_weights = _sobolev_weights(grid.points[0], grid.spacing[0])
        trace = [j_val**inv_beta]
        steps: deque = deque(maxlen=MEMORY)
        changes: deque = deque(maxlen=MEMORY)
        converged, stalled = trace[-1] <= target, False
        probed = 0  # the iteration of the last probe
        probe = None  # its dilated state, while it is this iteration's
        while not converged and len(trace) <= cfg.max_iters:
            new = None
            flat = (len(trace) > FLAT_WINDOW and trace[-1 - FLAT_WINDOW] - trace[-1]
                    < FLAT_FRAC * min(trace[-1] - max(target, 1.0), FLAT_NEAR))
            if not flat and len(trace) - 1 - probed >= FLAT_WINDOW:
                # the probe: the dilation, kept if it beats the last FLAT_WINDOW steps
                probed = len(trace) - 1
                probe = dilation(g)
                new = kept(probe, j_val, trace[-1 - FLAT_WINDOW] ** cfg.beta - j_val)
                if new is None:
                    rejected += 1
            if not flat and new is None:
                scale = support_power(g, -0.5)

                def metric(v):
                    return _sobolev_metric(v, scale, sine_weights)

                if steps:
                    direction = _capped(_two_loop(grad, steps, changes, metric))
                    slope = float(grad @ direction)
                if not steps or not slope < 0.0:
                    steps.clear()
                    changes.clear()
                    direction = _capped(-metric(grad))
                    slope = float(grad @ direction)
                # a zero direction (a lone free node: J is scale-free) is a stall
                trials = MAX_TRIALS if direction.any() else 0
                step = 1.0
                for _ in range(trials):
                    u_try = u + step * direction
                    g_try, j_try, grad_try = evaluate(u_try)
                    if (j_try < j_val and j_try <= j_val + ARMIJO * step * slope
                            and np.isfinite(grad_try).all()):
                        new = u_try, g_try, j_try, grad_try
                        s_k = step * direction
                        y_k = grad_try - grad
                        if float(s_k @ y_k) > 0.0:
                            steps.append(s_k)
                            changes.append(y_k)
                        break
                    rejected += 1
                    step *= BACKTRACK
                else:
                    if steps:  # retry along the preconditioned steepest direction
                        steps.clear()
                        changes.clear()
                        continue
            if new is None:
                # a stall, unless the dilation helps: J is invariant under it in
                # the continuum, and the P1 J falls as the support widens; a
                # probe that failed at this iteration is that dilation, evaluated
                if probe is None:
                    probe = dilation(g)
                    rejected += 1  # a rejected trial unless it is kept
                new = kept(probe, j_val, 0.0)
                if new is None:
                    stalled = True
                    break
                rejected -= 1  # kept: the trial is this iteration
            u, g, j_val, grad = new
            probe = None
            trace.append(j_val**inv_beta)
            converged = trace[-1] <= target

    return MinimizeResult(
        argmin=GridDensity(grid, g),
        objective_trace=trace,
        counters=MinimizeCounters(evaluations=evaluations, rejected_trials=rejected,
                                  dilations=dilations),
        stop_reason="tol" if converged else "stall" if stalled else "max_iters",
    )
