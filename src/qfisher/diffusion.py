"""Explicit finite-volume solver for d f/dt = div(|grad f^m|^(beta-2) grad f^m)
and the entropy-production identity it satisfies.

The flux F = |D|^(beta-2) D with D = d(f^m)/dx is evaluated at cell faces and
telescoped, so the plain node sum (hence the mass) is conserved to rounding
as long as nothing reaches the domain ends; boundary fluxes are pinned to
zero.  Along the flow, with alpha the Holder conjugate of beta and
q = m + 1 - alpha/beta, the Tsallis entropy S_q grows at the rate
(m/q)^(beta-1) M_q[f]^beta I_{beta,q}[f].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .densities import m_q_functional, tsallis_entropy
from .errors import UnstableStep
from .fisher import q_fisher
from .grid import GridDensity, support_floor

CFL_FACTOR = 0.4


@dataclass(frozen=True)
class DiffusionState:
    """1D density together with physical time and the flow exponents."""

    density: GridDensity
    t: float
    m_exp: float
    beta: float

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
        """Entropy order matched to the flow: q = m + 1 - alpha/beta."""
        return self.m_exp + 1.0 - self.alpha / self.beta

    @property
    def dx(self) -> float:
        return self.density.grid.spacing[0]


def _face_flux(state: DiffusionState) -> np.ndarray:
    f = state.density.values
    u = f**state.m_exp
    d = np.diff(u) / state.dx
    # sign(d)*|d|^(beta-1) is |d|^(beta-2)*d without the 0^negative hazard
    return np.sign(d) * np.abs(d) ** (state.beta - 1.0)


def stable_dt(state: DiffusionState, safety: float = 1.0) -> float:
    """CFL-limited step: 0.4 * dx^2 / max over faces of the linearized diffusivity.

    The face diffusivity is (beta-1)|D|^(beta-2) * m * f^(m-1) with
    D = d(f^m)/dx, which reduces to m * f^(m-1) for beta = 2.
    """
    f = state.density.values
    u = f**state.m_exp
    d = np.abs(np.diff(u)) / state.dx
    f_face = np.maximum(f[:-1], f[1:])
    with np.errstate(divide="ignore"):
        if state.beta == 2.0:
            grad_part = np.ones_like(d)
        else:
            dtop = float(d.max())
            if dtop <= 0.0:
                raise UnstableStep("flat state has no gradient scale to set the step")
            grad_part = np.maximum(d, 1e-12 * dtop) ** (state.beta - 2.0)
    diffusivity = (state.beta - 1.0) * grad_part * state.m_exp * f_face ** (state.m_exp - 1.0)
    dmax = float(diffusivity.max())
    if dmax <= 0.0:
        raise UnstableStep("flat state has no diffusive scale; nothing to evolve")
    return safety * CFL_FACTOR * state.dx**2 / dmax


def step(state: DiffusionState, dt: float) -> DiffusionState:
    """One explicit step with zero-flux boundaries; raises on negative values."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    f = state.density.values
    flux = np.concatenate([[0.0], _face_flux(state), [0.0]])
    f_new = f + dt * np.diff(flux) / state.dx
    fmax = float(f_new.max(initial=0.0))
    if float(f_new.min()) < -1e-12 * max(fmax, 1.0):
        raise UnstableStep(
            f"negative density at t = {state.t:.6g} with dt = {dt:.3e}; reduce the step"
        )
    f_new = np.clip(f_new, 0.0, None)
    dens = GridDensity.from_values(
        state.density.grid, f_new, normalize=False, check_boundary=False
    )
    return replace(state, density=dens, t=state.t + dt)


def evolve(state: DiffusionState, t_final: float, safety: float = 1.0) -> DiffusionState:
    """Advance with adaptive steps until t_final (last step shortened to land on it)."""
    while state.t < t_final - 1e-15:
        dt = min(stable_dt(state, safety), t_final - state.t)
        state = step(state, dt)
    return state


@dataclass(frozen=True)
class DeBruijnReport:
    t_mid: float
    lhs: float  # centered dS_q/dt
    rhs: float  # (m/q)^(beta-1) M_q^beta I_{beta,q}
    rel_err: float
    entropy: float
    m_q: float
    i_beta_q: float
    excluded_mass: float


def debruijn_check(state: DiffusionState, dt: float | None = None, safety: float = 1.0) -> DeBruijnReport:
    """Compare dS_q/dt against the entropy-production functional.

    Steps twice from `state`; the derivative is the centered difference of
    S_q across the two steps and the functional is evaluated at the midpoint
    state.  Cells below the support floor (1e-12 x max) are excluded from the
    information integral; their mass is reported.
    """
    if dt is None:
        dt = stable_dt(state, safety)
    s1 = step(state, dt)
    s2 = step(s1, dt)
    q = state.q
    lhs = (tsallis_entropy(s2.density, q) - tsallis_entropy(state.density, q)) / (2.0 * dt)
    mq = m_q_functional(s1.density, q)
    info = q_fisher(s1.density, state.beta, q)
    rhs = (state.m_exp / q) ** (state.beta - 1.0) * mq**state.beta * info
    rel_err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    f = s1.density.values
    excl = f < support_floor(f)
    excluded_mass = s1.density.integral(np.where(excl, f, 0.0))
    return DeBruijnReport(
        t_mid=s1.t,
        lhs=float(lhs),
        rhs=float(rhs),
        rel_err=float(rel_err),
        entropy=float(tsallis_entropy(s1.density, q)),
        m_q=float(mq),
        i_beta_q=float(info),
        excluded_mass=float(excluded_mass),
    )


def debruijn_series(
    state: DiffusionState,
    t_final: float,
    n_checks: int,
    t_burn: float = 0.0,
    safety: float = 1.0,
) -> list[DeBruijnReport]:
    """Evolve to t_final, running the identity check at n_checks sample times."""
    if n_checks < 1:
        raise ValueError("need at least one check")
    t0 = max(t_burn, state.t)
    times = np.linspace(t0, t_final, n_checks)
    out = []
    for tc in times:
        state = evolve(state, float(tc), safety)
        out.append(debruijn_check(state, safety=safety))
    return out
