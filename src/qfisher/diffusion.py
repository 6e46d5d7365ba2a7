"""Finite-volume solver for d f/dt = div(|grad f^m|^(beta-2) grad f^m)
and the entropy-production identity it satisfies.

The flux F = |D|^(beta-2) D with D = d(f^m)/dx is evaluated at cell faces and
telescoped over control volumes of width dx, half that at the two end nodes
(the trapezoid weights), so the trapezoid mass is conserved to rounding;
boundary fluxes are pinned to zero.  `evolve` moves between checkpoints with
second-order Runge-Kutta-Legendre (RKL2) super steps on raw arrays (Meyer, Balsara &
Aslam, J. Comput. Phys. 257, 2014): s stages span up to (s^2+s-2)/4 CFL
steps.  RKL2 damps stiff modes weakly, so a super step never spans more
than the time in which the fastest node moves by RKL2_MAX_CHANGE of max f,
and one that goes negative is redone with explicit steps.  The stages run
in place: their flux, clipped stage and stage sums are written into arrays
made once per `evolve`, in the operation order of the formulas, so no
stage allocates and every bit is that of the plain expressions.  `step` is the
explicit Euler step.  Along the flow, with alpha the Holder conjugate of
beta and q = m + 1 - alpha/beta, the Tsallis entropy S_q grows at the rate
(m/q)^(beta-1) M_q[f]^beta I_{beta,q}[f].  `debruijn_check` takes the left
side exactly on the semi-discrete flow, at the state itself: dS_q/dt is the
trapezoid sum of s'(f) L(f), one flux evaluation and no time step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .densities import Q_ONE_EPS, m_q_functional, tsallis_entropy
from .errors import ParameterError, UnstableStep
from .fisher import q_fisher
from .grid import GridDensity, support_floor

CFL_FACTOR = 0.4
RKL2_MAX_STAGES = 20
# a super step spans at most the time in which max |L(f)| moves a node by
# this fraction of max f
RKL2_MAX_CHANGE = 0.05


def matched_order(m_exp: float, beta: float) -> float:
    """Entropy order matched to the flow: q = m + 1 - alpha/beta."""
    alpha = beta / (beta - 1.0)
    return m_exp + 1.0 - alpha / beta


def check_entropy_order(m_exp: float, beta: float) -> None:
    """ParameterError unless the matched order is positive: the entropy S_q
    exists only for q > 0, though the flow itself is defined for any order."""
    q = matched_order(m_exp, beta)
    if not q > 0.0:
        raise ParameterError(("m_exp", "beta"), "must give a positive entropy order "
                             f"q = m + 1 - 1/(beta - 1) (q = {q:g})")


@dataclass
class SolverCounters:
    """Work done along one flow; every state derived from its start shares it."""

    rhs_evals: int = 0  # flux-divergence evaluations
    super_steps: int = 0  # RKL2 super steps
    explicit_fallbacks: int = 0  # super steps redone with explicit steps
    dt_explicit_min: float = math.inf  # range of the CFL steps computed
    dt_explicit_max: float = 0.0

    def record_dt(self, dt: float) -> None:
        self.dt_explicit_min = min(self.dt_explicit_min, dt)
        self.dt_explicit_max = max(self.dt_explicit_max, dt)


@dataclass(frozen=True)
class DiffusionState:
    """1D density together with physical time and the flow exponents."""

    density: GridDensity
    t: float
    m_exp: float
    beta: float
    counters: SolverCounters = field(default_factory=SolverCounters, compare=False, repr=False)

    def __post_init__(self):
        if self.density.grid.dims != 1:
            raise ValueError("diffusion solver is one-dimensional")
        if not self.beta > 1.0:
            raise ValueError("beta must exceed 1")
        if not self.m_exp > 0.0:
            raise ValueError("m must be positive")

    @property
    def alpha(self) -> float:
        return self.beta / (self.beta - 1.0)

    @property
    def q(self) -> float:
        return matched_order(self.m_exp, self.beta)

    @property
    def dx(self) -> float:
        return self.density.grid.spacing[0]


class _FluxBuffers:
    """The node and face arrays one flux evaluation writes, reused by the next."""

    def __init__(self, n: int):
        self.fm, self.div = np.empty(n), np.empty(n)
        self.slope, self.sign, self.flux = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1)


def _flux_divergence(f, dx, m_exp, beta, buf=None):
    """L(f) = dF/dx at the nodes with zero boundary flux, and the face slope D.

    Both are written into `buf` (fresh arrays when it is None), so a later call
    on the same buffers overwrites them.  The end nodes' control volumes are
    dx/2 wide: their divergence is doubled."""
    if buf is None:
        buf = _FluxBuffers(f.size)
    # f**1.0 is f, bit for bit
    fm = f if m_exp == 1.0 else np.power(f, m_exp, out=buf.fm)
    slope = np.subtract(fm[1:], fm[:-1], out=buf.slope)
    slope /= dx
    flux = slope
    if beta != 2.0:
        # sign(D)*|D|^(beta-1) is |D|^(beta-2)*D without the 0^negative hazard
        flux = np.power(np.abs(slope, out=buf.flux), beta - 1.0, out=buf.flux)
        flux *= np.sign(slope, out=buf.sign)
    div = buf.div
    div[0], div[-1] = 2.0 * flux[0], -2.0 * flux[-1]
    np.subtract(flux[1:], flux[:-1], out=div[1:-1])
    div /= dx
    return div, slope


def _cfl_dt(f, slope, dx, m_exp, beta):
    """0.4 * dx^2 / max over faces of the linearized diffusivity."""
    with np.errstate(divide="ignore"):
        if beta == 2.0:
            grad_part = 1.0
        else:
            d = np.abs(slope)
            dtop = float(d.max())
            if dtop <= 0.0:
                raise UnstableStep("flat state has no gradient scale to set the step")
            floor = 1e-12 * dtop
            # for beta < 2, |D|^(beta-2) on a flat face drives the step to 0
            if beta < 2.0 and float(d.min()) <= floor:
                raise UnstableStep(f"beta < 2 needs every face slope above 1e-12 x the largest; "
                                   f"{np.count_nonzero(d <= floor)} of {d.size} are not")
            grad_part = np.maximum(d, floor) ** (beta - 2.0)
        diffusivity = (beta - 1.0) * grad_part * m_exp
        # at m = 1 the face factor f^0 is 1 on every face
        if m_exp != 1.0:
            # f_face = 0 with m < 1 gives inf, which the check below rejects
            diffusivity = diffusivity * np.maximum(f[:-1], f[1:]) ** (m_exp - 1.0)
    dmax = float(np.max(diffusivity))
    if not math.isfinite(dmax):
        raise UnstableStep("m < 1 needs positive values at every node: "
                           "f^(m-1) is infinite where f = 0")
    if dmax <= 0.0:
        raise UnstableStep("flat state has no diffusive scale; nothing to evolve")
    return CFL_FACTOR * dx**2 / dmax


def _goes_negative(f) -> bool:
    """The UnstableStep test: min f below -1e-12 * max(max f, 1)."""
    return float(f.min()) < -1e-12 * max(float(f.max(initial=0.0)), 1.0)


def _euler(f, lf, dt, t):
    """f + dt L(f) clipped at 0; raises UnstableStep if it goes negative."""
    f_new = f + dt * lf
    if _goes_negative(f_new):
        raise UnstableStep(f"negative density at t = {t:.6g} with dt = {dt:.3e}; reduce the step")
    return np.clip(f_new, 0.0, None)


def _rkl2_reach(stages: int) -> float:
    """Super-step length of an s-stage RKL2 step, in CFL steps."""
    return (stages * stages + stages - 2) / 4.0


@functools.lru_cache(maxsize=RKL2_MAX_STAGES)
def _rkl2_coefficients(stages: int):
    """b_1 w_1, and (mu, nu, 1 - mu - nu, mu w_1, 1 - b_{j-1}) for stages j = 2..s."""
    w1 = 1.0 / _rkl2_reach(stages)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, stages + 1)]
    coeffs = []
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        coeffs.append((mu, nu, 1.0 - mu - nu, mu * w1, 1.0 - b[j - 1]))
    return b[1] * w1, tuple(coeffs)


class _StageBuffers:
    """The arrays RKL2 stages write: the stage flux, the clipped stage, a
    scratch array and three stage arrays that rotate."""

    def __init__(self, n: int):
        self.flux = _FluxBuffers(n)
        self.clipped, self.tmp = np.empty(n), np.empty(n)
        self.stages = (np.empty(n), np.empty(n), np.empty(n))


def _rkl2(f0, l0, tau, stages, dx, m_exp, beta, buf):
    """One s-stage RKL2 super step of length tau from f0, given l0 = L(f0).

    f0 and l0 are only read.  The result is one of the stage arrays of `buf`,
    which the next super step overwrites."""
    first, coeffs = _rkl2_coefficients(stages)
    ys, tmp = buf.stages, buf.tmp
    y_prev, y = f0, np.multiply(first * tau, l0, out=ys[0])
    y += f0
    for j, (mu, nu, c_f0, mu_w1, c_l0) in enumerate(coeffs, start=2):
        mu_t = mu_w1 * tau
        # a stage may dip below 0; its flux is that of the nonnegative part
        lj, _ = _flux_divergence(np.maximum(y, 0.0, out=buf.clipped), dx, m_exp, beta, buf.flux)
        # mu y + nu y_prev + (1 - mu - nu) f0 + mu_t lj - (1 - b_{j-1}) mu_t l0,
        # summed left to right; y_new is neither y nor y_prev
        y_new = np.multiply(mu, y, out=ys[(j - 1) % 3])
        y_new += np.multiply(nu, y_prev, out=tmp)
        y_new += np.multiply(c_f0, f0, out=tmp)
        y_new += np.multiply(mu_t, lj, out=tmp)
        y_new -= np.multiply(c_l0 * mu_t, l0, out=tmp)
        y_prev, y = y, y_new
    return y


def _advance(f, t, t_end, state, super_steps=True):
    """Raw values at t_end from f at t, and the time reached.

    With `super_steps` each step is an RKL2 super step (or one explicit step
    when no more than a CFL step is wanted); without, all steps are explicit.
    Every f this loop keeps is a new array: the super step's flux and stages
    write into buffers made once per call.
    """
    dx, m_exp, beta, counters = state.dx, state.m_exp, state.beta, state.counters
    flux_buf = _FluxBuffers(f.size)
    stage_buf = _StageBuffers(f.size) if super_steps else None
    while t < t_end - 1e-15:
        lf, slope = _flux_divergence(f, dx, m_exp, beta, flux_buf)
        counters.rhs_evals += 1
        dt_e = _cfl_dt(f, slope, dx, m_exp, beta)
        counters.record_dt(dt_e)
        limit = dt_e
        if super_steps:
            lmax = float(np.abs(lf).max())
            limit = max(dt_e, RKL2_MAX_CHANGE * float(f.max()) / lmax) if lmax > 0.0 else math.inf
        remaining = t_end - t
        span = min(remaining, limit)
        if span <= dt_e:
            f = _euler(f, lf, span, t)
        else:
            stages = 3
            while stages < RKL2_MAX_STAGES and dt_e * _rkl2_reach(stages) < span:
                stages += 1
            span = min(span, dt_e * _rkl2_reach(stages))
            f_new = _rkl2(f, lf, span, stages, dx, m_exp, beta, stage_buf)
            counters.super_steps += 1
            counters.rhs_evals += stages - 1
            if _goes_negative(f_new):
                counters.explicit_fallbacks += 1
                f_new, _ = _advance(f, t, t + span, state, super_steps=False)
            f = np.clip(f_new, 0.0, None)
        t = t_end if span == remaining else t + span
    return f, t


def stable_dt(state: DiffusionState) -> float:
    """CFL-limited step: 0.4 * dx^2 / max over faces of the linearized diffusivity.

    The face diffusivity is (beta-1)|D|^(beta-2) * m * f^(m-1) with
    D = d(f^m)/dx, which reduces to m * f^(m-1) for beta = 2.
    """
    f = state.density.values
    _, slope = _flux_divergence(f, state.dx, state.m_exp, state.beta)
    state.counters.rhs_evals += 1
    dt = _cfl_dt(f, slope, state.dx, state.m_exp, state.beta)
    state.counters.record_dt(dt)
    return dt


def step(state: DiffusionState, dt: float) -> DiffusionState:
    """One explicit step with zero-flux boundaries; raises on negative values."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f = state.density.values
    lf, _ = _flux_divergence(f, state.dx, state.m_exp, state.beta)
    state.counters.rhs_evals += 1
    dens = GridDensity.from_values(
        state.density.grid, _euler(f, lf, dt, state.t), normalize=False, check_boundary=False
    )
    return replace(state, density=dens, t=state.t + dt)


def evolve(state: DiffusionState, t_final: float) -> DiffusionState:
    """Advance to t_final in RKL2 super steps, the last one landing on it.

    t_final must be finite and no earlier than the state's time; at that time
    the state is returned as it is."""
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite (got {t_final!r})")
    if t_final < state.t:
        raise ValueError(f"t_final = {t_final!r} lies before the state's time t = {state.t!r}")
    f, t = _advance(state.density.values, state.t, t_final, state)
    dens = GridDensity.from_values(state.density.grid, f, normalize=False, check_boundary=False)
    return replace(state, density=dens, t=t)


@dataclass(frozen=True)
class DeBruijnReport:
    t: float
    lhs: float  # dS_q/dt of the semi-discrete flow
    rhs: float  # (m/q)^(beta-1) M_q^beta I_{beta,q}
    rel_err: float
    entropy: float
    m_q: float
    i_beta_q: float
    excluded_mass: float
    density: GridDensity = field(compare=False, repr=False)  # the state measured


def debruijn_check(state: DiffusionState) -> DeBruijnReport:
    """Compare dS_q/dt against the entropy-production functional at `state`.

    The derivative is that of the semi-discrete flow, sum_i w_i s'(f_i) L(f)_i
    with w the trapezoid weights and s'(f) = q f^(q-1)/(1-q), or -ln f at
    q = 1 (its constant drops out, as w . L(f) = 0); by summation by parts it
    equals
    (q/(q-1)) sum over faces of F Delta(f^(q-1)).  Nodes at or below the
    support floor (1e-12 x max) get s' = 0; their mass is reported.
    """
    f, q = state.density.values, state.q
    lf, _ = _flux_divergence(f, state.dx, state.m_exp, state.beta)
    state.counters.rhs_evals += 1
    on = f > support_floor(f)
    fs = np.where(on, f, 1.0)
    q_one = abs(q - 1.0) <= Q_ONE_EPS
    ds = -np.log(fs) if q_one else q / (1.0 - q) * fs ** (q - 1.0)
    w = state.density.grid.trap_weights()
    lhs = float(np.dot(w * np.where(on, ds, 0.0), lf))
    mq = m_q_functional(state.density, q)
    # S_q = (M_q - 1)/(1 - q) from the M_q at hand; near q = 1 the log form
    entropy = tsallis_entropy(state.density, q) if q_one else (mq - 1.0) / (1.0 - q)
    info = q_fisher(state.density, state.beta, q)
    rhs = (state.m_exp / q) ** (state.beta - 1.0) * mq**state.beta * info
    return DeBruijnReport(
        t=state.t,
        lhs=lhs,
        rhs=float(rhs),
        rel_err=float(abs(lhs - rhs) / max(abs(rhs), 1e-300)),
        entropy=float(entropy),
        m_q=float(mq),
        i_beta_q=float(info),
        excluded_mass=float(state.density.integral(np.where(on, 0.0, f))),
        density=state.density,
    )


def debruijn_series(
    state: DiffusionState, t_final: float, n_checks: int, t_burn: float = 0.0
) -> list[DeBruijnReport]:
    """Evolve to t_final, running the identity check at n_checks sample times
    from max(t_burn, state.t) to t_final.

    An (m, beta) whose matched order is not positive, or a t_final before the
    first sample time, is refused before any evolution.
    """
    if n_checks < 1:
        raise ValueError("need at least one check")
    check_entropy_order(state.m_exp, state.beta)
    t0 = max(t_burn, state.t)
    if t_final < t0:
        raise ValueError(f"t_final = {t_final!r} lies before the first check at "
                         f"max(t_burn, t) = {t0!r}")
    times = np.linspace(t0, t_final, n_checks)
    out = []
    for tc in times:
        state = evolve(state, float(tc))
        out.append(debruijn_check(state))
    return out
