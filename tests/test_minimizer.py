"""Objective gradient correctness and descent to the known minimizer family."""

import sys

import numpy as np
import pytest

from qfisher import (
    GridDensity,
    GridSpec,
    MinimizationConfig,
    QGaussianParams,
    fit_q_gaussian,
    l1_distance,
    make_q_gaussian,
    minimize_q_fisher,
    q_cr_check,
    suggested_half_extent,
    zoo,
)
from qfisher import minimizer
from qfisher.errors import NonIntegrable
from qfisher.grid import HolderPair, lp_norm, support_floor
from qfisher.minimizer import (
    MAX_STEP,
    MIN_STEP,
    STALL_ITERS,
    STALL_REL,
    VALUE_FLOOR,
    _Objective,
    _objective_parts,
    _renormalized,
    gradient_adjoint,
)


def test_config_validation():
    MinimizationConfig(q=1.5, alpha=2.0)
    with pytest.raises(ValueError):
        MinimizationConfig(q=1.5, alpha=1.0)  # no conjugate beta
    with pytest.raises(ValueError):
        MinimizationConfig(q=0.0, alpha=2.0)
    with pytest.raises(ValueError):
        MinimizationConfig(q=1.5, alpha=2.0, norm_p=1.0)
    cfg = MinimizationConfig(q=1.2, alpha=3.0)
    assert cfg.beta == pytest.approx(1.5)


@pytest.mark.parametrize("axis,shape", [(0, (64,)), (0, (24, 17)), (1, (24, 17))])
def test_gradient_adjoint_dot_identity(axis, shape):
    # <D u, v> == <u, D^T v> for every u, v pins the adjoint exactly
    rng = np.random.default_rng(5)
    h = 0.37
    for _ in range(6):
        u = rng.normal(size=shape)
        v = rng.normal(size=shape)
        du = np.gradient(u, h, axis=axis)
        lhs = float((du * v).sum())
        rhs = float((u * gradient_adjoint(v, axis, h)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _moveaxis_adjoint(v, axis, h):
    # reference: the same stencil applied with the axis moved to the front
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


@pytest.mark.parametrize("shape", [(64,), (2,), (3,), (24, 17), (2, 5), (7, 4, 3), (5, 2, 6)])
def test_gradient_adjoint_equals_moveaxis_form_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    v = rng.normal(size=shape)
    for axis in range(len(shape)):
        got = gradient_adjoint(v, axis, 0.37)
        assert got.tobytes() == _moveaxis_adjoint(v, axis, 0.37).tobytes()


def _reference_objective(g, cfg):
    # reference: J and dJ/dg of a GridDensity iterate through np.gradient, all
    # set up per call; the descent must reproduce it bit for bit
    beta = cfg.beta
    w = g.grid.trap_weights()
    r = g.grid.radius(cfg.norm_p) ** cfg.alpha
    m_alpha = float((w * r * g.values).sum())
    q, dual = cfg.q, cfg.norm_p / (cfg.norm_p - 1.0)
    gv = g.values
    grads = np.gradient(gv, *g.grid.spacing)
    grads = list(grads) if isinstance(grads, (list, tuple)) else [grads]
    dens_u = lp_norm(grads, dual)
    e = beta * (q - 1.0) + 1.0 - beta
    mask = gv > support_floor(gv)
    g_safe = np.where(mask, gv, 1.0)
    g_pow = g_safe**e
    phi = float((w * np.where(mask, dens_u**beta * g_pow, 0.0)).sum())
    m_q = float((w * gv**q).sum())
    pref = (q / m_q) ** beta
    info = pref * phi
    d_info = info * (-beta * q * w * gv ** (q - 1.0) / m_q)
    if e != 0.0:
        d_info += pref * np.where(mask, w * e * dens_u**beta * g_pow / g_safe, 0.0)
    u_mask = dens_u > 0.0
    u_safe = np.where(u_mask, dens_u, 1.0)
    common = np.where(mask & u_mask, w * beta * u_safe ** (beta - dual) * g_pow, 0.0)
    for axis, dg in enumerate(grads):
        v = common * np.sign(dg) * np.abs(dg) ** (dual - 1.0)
        d_info += pref * _moveaxis_adjoint(v, axis, g.grid.spacing[axis])
    m_fac = m_alpha ** (beta / cfg.alpha)
    j_val = m_fac * info
    return j_val, j_val * ((beta / cfg.alpha) * w * r / m_alpha) + m_fac * d_info


def _reference_descent(start, cfg):
    # the descent loop on GridDensity trials, one from_values per trial
    def renormalized(values):
        clipped = np.clip(values, VALUE_FLOOR, None)
        return GridDensity.from_values(grid, clipped, normalize=True, check_boundary=False)

    grid = start.grid
    target = grid.dims + cfg.tol
    g = renormalized(start.values)
    j_val, grad = _reference_objective(g, cfg)
    trace = [j_val ** (1.0 / cfg.beta)]
    stall_count, converged, step = 0, trace[-1] <= target, MAX_STEP
    for _ in range(cfg.max_iters):
        if converged:
            break
        dmax = float(np.abs(grad).max())
        direction = -grad / dmax
        s = min(2.0 * step, MAX_STEP)
        accepted = False
        while s >= MIN_STEP:
            trial = renormalized(g.values * np.exp(s * direction))
            j_try, grad_try = _reference_objective(trial, cfg)
            if j_try < j_val:
                g, j_val, grad, accepted, step = trial, j_try, grad_try, True, s
                break
            s *= 0.5
        new_obj = j_val ** (1.0 / cfg.beta)
        rel_drop = (trace[-1] - new_obj) / max(abs(trace[-1]), 1e-300)
        trace.append(new_obj)
        stall_count = stall_count + 1 if not accepted or rel_drop < STALL_REL else 0
        converged = new_obj <= target
        if stall_count >= STALL_ITERS:
            break
    return trace, g


@pytest.mark.parametrize("q, alpha", [(1.5, 2.0), (1.2, 2.0), (1.5, 3.0)])
def test_descent_is_bit_identical_to_the_density_loop(q, alpha):
    # (1.2, 2) has e = beta(q-1)+1-beta != 0 and (1.5, 3) has beta != dual
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=q, alpha=alpha, max_iters=300, tol=1e-6)
    trace, argmin = _reference_descent(start, cfg)
    res = minimize_q_fisher(start, cfg)
    assert len(trace) == 301
    assert res.objective_trace == trace
    assert res.argmin.values.tobytes() == argmin.values.tobytes()


def test_counters_add_up_and_match_the_adjoint_calls(monkeypatch):
    # 1 + accepted steps + rejected trials evaluations; in 1D each runs
    # gradient_adjoint once, which is how the benchmark counts them
    objectives, adjoint_calls = [], [0]
    objective_parts, adjoint = minimizer._objective_parts, minimizer.gradient_adjoint

    def counted_objective(*args):
        j_val, grad = objective_parts(*args)
        objectives.append(j_val)
        return j_val, grad

    def counted_adjoint(*args):
        adjoint_calls[0] += 1
        return adjoint(*args)

    monkeypatch.setattr(minimizer, "_objective_parts", counted_objective)
    for name, module in list(sys.modules.items()):
        if name.startswith("qfisher") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is adjoint:
                    monkeypatch.setattr(module, attr, counted_adjoint)
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0, max_iters=400))
    # a trial is accepted exactly when it lowers the best J so far
    accepted = sum(j < min(objectives[:i]) for i, j in enumerate(objectives) if i > 0)
    c = res.counters
    assert c.evaluations == len(objectives) == adjoint_calls[0]
    assert c.evaluations == 1 + accepted + c.rejected_trials
    assert accepted <= res.n_iters and c.rejected_trials > 0


@pytest.mark.parametrize("fill, bad, error", [(1.0, np.nan, ValueError), (1.0, np.inf, ValueError),
                                              (1e308, 1e308, NonIntegrable)])
def test_trial_renormalization_raises_like_from_values(fill, bad, error):
    # a non-finite value is a ValueError, a mass that overflows NonIntegrable
    grid = GridSpec.line(-1.0, 1.0, 9)
    values = np.full(9, fill)
    values[4] = bad
    with np.errstate(over="ignore"):
        with pytest.raises(error) as lib:
            GridDensity.from_values(grid, np.clip(values, VALUE_FLOOR, None), check_boundary=False)
        with pytest.raises(error) as ours:
            _renormalized(values, grid.trap_weights())
    assert type(ours.value) is type(lib.value)


def test_objective_gradient_matches_finite_differences():
    grid = GridSpec.line(-8.0, 8.0, 192)
    g = zoo.mixture_density(grid, (-1.0, 0.8), (0.9, 0.5), (0.5, 0.5))
    cfg = MinimizationConfig(q=1.5, alpha=2.0)
    obj = _Objective(grid, cfg)
    j0, grad = _objective_parts(g.values, obj)
    w = grid.trap_weights()
    rng = np.random.default_rng(2)
    gmax = g.values.max()
    for _ in range(5):
        delta = rng.normal(size=grid.shape)
        delta[g.values <= 1e-3 * gmax] = 0.0  # keep the perturbed iterate positive
        eps = 1e-7
        up = GridDensity(grid, g.values + eps * delta)
        dn = GridDensity(grid, g.values - eps * delta)
        j_up, j_dn = _objective_parts(up.values, obj)[0], _objective_parts(dn.values, obj)[0]
        fd = (j_up - j_dn) / (2.0 * eps)
        # the returned gradient already carries the quadrature weights
        an = float((grad * delta).sum())
        assert an == pytest.approx(fd, rel=2e-6)


def test_objective_value_matches_q_cr_product():
    grid = GridSpec.line(-10.0, 10.0, 513)
    mixture = zoo.mixture_density(grid, (-1.2, 0.7), (1.1, 0.45), (0.6, 0.4))
    # compact supports, with nodes at or below the support floor: the matched
    # q = 2 q-Gaussian and the default minimize run's argmin
    p2 = QGaussianParams(q=2.0, alpha=2.0, gamma=1.0)
    half = suggested_half_extent(p2)
    matched = make_q_gaussian(p2, GridSpec.line(-half, half, 4096))
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    argmin = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0)).argmin
    for g, q in ((mixture, 1.5), (matched, 2.0), (argmin, 1.5)):
        cfg = MinimizationConfig(q=q, alpha=2.0)
        j_val, _ = _objective_parts(g.values, _Objective(g.grid, cfg))
        rep = q_cr_check(g, HolderPair.from_alpha(2.0), q=q)
        assert j_val ** (1.0 / cfg.beta) == pytest.approx(rep.lhs, rel=1e-12), q


def test_minimum_is_fixed_point():
    p = QGaussianParams(q=1.5, alpha=2.0, gamma=1.0)
    half = suggested_half_extent(p)
    grid = GridSpec.line(-half, half, 513)
    g0 = make_q_gaussian(p, grid)
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=200, tol=1e-3)
    res = minimize_q_fisher(g0, cfg)
    assert res.converged
    assert res.n_iters <= 1
    assert l1_distance(res.argmin, g0) < 1e-6


def test_descent_from_mixture_reaches_saturating_shape():
    grid = GridSpec.line(-10.0, 10.0, 513)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=5000, tol=1e-5)
    res = minimize_q_fisher(start, cfg)
    assert res.objective <= 1.0 + 1e-4
    # the trace is a certified descent: nonincreasing throughout
    trace = np.asarray(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    fitted = fit_q_gaussian(res.argmin, q=1.5, alpha=2.0)
    assert l1_distance(res.argmin, fitted) < 2e-2


def test_stall_reported_when_tolerance_unreachable():
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=4000, tol=-0.5)
    res = minimize_q_fisher(start, cfg)
    assert not res.converged
    assert res.stalled or res.n_iters == 4000
    assert res.objective < 1.01


def test_discrete_optimum_can_undershoot_dimension():
    # the continuum lower bound is exactly n, but the 257-point quadrature
    # optimum sits a hair below it; the undershoot must stay at quadrature
    # scale, not drift toward the degenerate uniform profile
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=4000, tol=1e-12)
    res = minimize_q_fisher(start, cfg)
    assert res.converged
    assert res.objective == pytest.approx(1.0, abs=5e-5)
    assert res.objective < 1.0 + 1e-12


def test_result_objective_is_last_trace_entry():
    grid = GridSpec.line(-8.0, 8.0, 257)
    start = zoo.gaussian_density(grid, 0.4, 0.9)
    cfg = MinimizationConfig(q=1.0, alpha=2.0, max_iters=50, tol=1e-3)
    res = minimize_q_fisher(start, cfg)
    assert res.objective == res.objective_trace[-1]
    assert min(res.objective_trace) == res.objective_trace[-1]
