"""Objective gradient correctness and descent to the known minimizer family."""

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
from qfisher.grid import HolderPair
from qfisher.minimizer import _objective_parts, gradient_adjoint


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


def test_objective_gradient_matches_finite_differences():
    grid = GridSpec.line(-8.0, 8.0, 192)
    g = zoo.mixture_density(grid, (-1.0, 0.8), (0.9, 0.5), (0.5, 0.5))
    cfg = MinimizationConfig(q=1.5, alpha=2.0)
    j0, grad = _objective_parts(g, cfg)
    w = grid.trap_weights()
    rng = np.random.default_rng(2)
    gmax = g.values.max()
    for _ in range(5):
        delta = rng.normal(size=grid.shape)
        delta[g.values <= 1e-3 * gmax] = 0.0  # keep the perturbed iterate positive
        eps = 1e-7
        up = GridDensity(grid, g.values + eps * delta)
        dn = GridDensity(grid, g.values - eps * delta)
        fd = (_objective_parts(up, cfg)[0] - _objective_parts(dn, cfg)[0]) / (2.0 * eps)
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
        j_val, _ = _objective_parts(g, cfg)
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
