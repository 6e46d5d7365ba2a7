"""Objective gradient correctness and descent to the known minimizer family."""

import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qfisher.cli import MARGIN_TOL
from qfisher.errors import NonIntegrable, ParameterError
from qfisher.grid import HolderPair
from qfisher.minimizer import (
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
    cfg = MinimizationConfig(q=1.2, alpha=3.0)
    assert cfg.beta == pytest.approx(1.5)


@pytest.mark.parametrize("axis,shape", [(0, (64,)), (0, (24, 17)), (1, (24, 17)), (0, (2,)), (0, (3,))])
def test_gradient_adjoint_dot_identity(axis, shape):
    # <D u, v> == <u, D^T v> for every u, v pins the adjoint of the face
    # difference D u = (u[1:] - u[:-1]) / h exactly; on a stack of node
    # vectors D and D^T act along `axis`, one vector at a time
    rng = np.random.default_rng(5)
    h = 0.37
    cells = list(shape)
    cells[axis] -= 1
    for _ in range(6):
        u = rng.normal(size=shape)
        v = rng.normal(size=cells)
        lhs = float((np.diff(u, axis=axis) / h * v).sum())
        rhs = float((u * np.apply_along_axis(gradient_adjoint, axis, v, h)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _dense_metric(scale, h):
    """scale (T/h^2 + c I)^(-1) scale on the interior nodes, 0 on the ends."""
    n = scale.size
    t = 2.0 * np.eye(n - 2) - np.eye(n - 2, k=1) - np.eye(n - 2, k=-1)
    lowest = (2.0 - 2.0 * np.cos(np.pi / (n - 1))) / h**2
    k_inv = np.zeros((n, n))
    k_inv[1:-1, 1:-1] = np.linalg.inv(t / h**2 + minimizer.SMOOTH * lowest * np.eye(n - 2))
    return scale[:, None] * k_inv * scale[None, :]


@pytest.mark.parametrize("n", [3, 9, 65])
def test_sobolev_metric_is_the_scaled_inverse_shifted_laplacian(n):
    rng = np.random.default_rng(n)
    h = 20.0 / (n - 1)
    scale = rng.uniform(0.5, 3.0, n)
    scale[[0, -1]] = 0.0  # the pinned ends
    if n > 3:
        scale[2] = 0.0  # a zero node of the start
    weights = minimizer._sobolev_weights(n, h)
    fast = np.column_stack([minimizer._sobolev_metric(e, scale, weights) for e in np.eye(n)])
    dense = _dense_metric(scale, h)
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()
    # symmetric: <u, H0 v> == <H0 u, v>
    for _ in range(5):
        u, v = rng.normal(size=n), rng.normal(size=n)
        lhs = float(u @ minimizer._sobolev_metric(v, scale, weights))
        rhs = float(minimizer._sobolev_metric(u, scale, weights) @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def _sobolev_metric_formulas(v, scale, weights):
    """H0 v with each odd extension built by concatenating a negated copy:
    the pinned reference for `_sobolev_metric`, which extends in one buffer."""
    def odd_sine(z):
        return np.fft.rfft(np.concatenate((z, -z[..., -2:0:-1]), axis=-1)).imag

    return scale * odd_sine(weights * odd_sine(scale * v))


@pytest.mark.parametrize("rows", [None, 1, 2])
@pytest.mark.parametrize("n", [3, 9, 257])
def test_sobolev_metric_is_the_concatenated_form_bit_for_bit(n, rows):
    rng = np.random.default_rng(n)
    h = 20.0 / (n - 1)
    scale = rng.uniform(0.5, 3.0, n)
    scale[[0, -1]] = 0.0
    weights = minimizer._sobolev_weights(n, h)
    v = rng.normal(size=n if rows is None else (rows, n))
    fast = minimizer._sobolev_metric(v, scale, weights)
    ref = _sobolev_metric_formulas(v, scale, weights)
    assert fast.shape == ref.shape and fast.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [257, 513, 1025])
def test_iteration_count_does_not_grow_with_the_grid(n):
    # the plain metric g^(-1/2) took 296, 740 and 1641 iterations here: the
    # Hessian's conditioning grows as h^-2, and the metric's K undoes it
    grid = GridSpec.line(-10.0, 10.0, n)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0))
    assert res.converged and res.stop_reason == "tol"
    assert res.n_iters <= 60
    assert 1.0 <= res.objective <= 1.0 + 1e-3


def test_descent_refuses_a_2d_start():
    grid = GridSpec.box(-8.0, 8.0, 33, 2)
    start = zoo.gaussian_density(grid, (0.0, 0.0), 1.0)
    with pytest.raises(ParameterError, match="one-dimensional"):
        minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0))


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
    # each iteration ends on one accepted trial, which must pass the Armijo
    # test, so a trial that lowers J by too little counts as rejected; the
    # accepted values are the trace, one per iteration
    c = res.counters
    assert c.evaluations == len(objectives) == adjoint_calls[0]
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials
    inv_beta = 1.0 / MinimizationConfig(q=1.5, alpha=2.0).beta
    accepted = [j**inv_beta for j in objectives if j**inv_beta in res.objective_trace]
    assert accepted == res.objective_trace and c.rejected_trials > 0


@pytest.mark.parametrize("fill, bad, error", [(1.0, np.nan, ValueError), (1.0, np.inf, ValueError),
                                              (1e308, 1e308, NonIntegrable)])
def test_trial_renormalization_raises_like_from_values(fill, bad, error):
    # a non-finite value is a ValueError, a mass that overflows NonIntegrable
    grid = GridSpec.line(-1.0, 1.0, 9)
    values = np.full(9, fill)
    values[4] = bad
    with np.errstate(over="ignore"):
        with pytest.raises(error) as lib:
            GridDensity.from_values(grid, values, check_boundary=False)
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


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), q=st.sampled_from([1.5, 1.2, 1.0]),
       alpha=st.sampled_from([2.0, 3.0]))
def test_descent_from_seeded_two_bump_starts_converges_above_the_bound(seed, q, alpha):
    # the benchmark's random starts on a coarser grid: every descent must
    # converge, stay above the bound and never raise the objective
    grid = GridSpec.line(-10.0, 10.0, 257)
    rng = np.random.default_rng(seed)
    start = zoo.mixture_density(grid, np.sort(rng.uniform(-1.5, 1.5, 2)),
                                rng.uniform(0.4, 0.9, 2), rng.uniform(0.3, 0.7, 2))
    res = minimize_q_fisher(start, MinimizationConfig(q=q, alpha=alpha))
    assert res.converged
    assert res.objective >= 1.0 - MARGIN_TOL
    assert np.all(np.diff(res.objective_trace) <= 0.0)


def test_stall_reported_when_tolerance_unreachable():
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=4000, tol=-0.5)
    res = minimize_q_fisher(start, cfg)
    assert not res.converged
    assert res.stalled or res.n_iters == 4000
    assert res.objective < 1.01


def test_discrete_optimum_can_undershoot_dimension():
    # the continuum lower bound is exactly n, and the P1 product is the product
    # of a genuine density, so the 257-point discrete optimum cannot undershoot
    # it; a tolerance below the discretization floor ends on a reported stall
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=4000, tol=1e-12)
    res = minimize_q_fisher(start, cfg)
    assert not res.converged and res.stalled
    assert res.objective >= 1.0
    assert res.objective == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("tol, max_iters, reason", [
    (1e-3, 5000, "tol"), (1e-12, 4000, "stall"), (1e-3, 3, "max_iters")])
def test_stop_reason_says_why_the_descent_stopped(tol, max_iters, reason):
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0, max_iters=max_iters, tol=tol))
    assert res.stop_reason == reason
    assert res.converged is (reason == "tol") and res.stalled is (reason == "stall")
    assert res.n_iters == max_iters or reason != "max_iters"


def test_kept_dilations_are_counted_as_iterations():
    # this seeded start reaches the tolerance only through one kept dilation
    grid = GridSpec.line(-10.0, 10.0, 257)
    rng = np.random.default_rng(15)
    start = zoo.mixture_density(grid, np.sort(rng.uniform(-1.5, 1.5, 2)),
                                rng.uniform(0.4, 0.9, 2), rng.uniform(0.3, 0.7, 2))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0))
    c = res.counters
    assert res.stop_reason == "tol" and c.dilations >= 1
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials
    with pytest.MonkeyPatch.context() as mp:
        _no_dilation_lowers_j(mp)
        assert minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0)).counters.dilations == 0


def _no_dilation_lowers_j(mp):
    """Patch the x1.5 dilation to the identity, which never lowers J, and turn
    the exact x2 one off."""
    mp.setattr(minimizer, "DILATION", 1.0)
    mp.setattr(minimizer, "_exact_dilation", lambda g, x: None)


def _two_bump(seed):
    grid = GridSpec.line(-10.0, 10.0, 257)
    rng = np.random.default_rng(seed)
    return zoo.mixture_density(grid, np.sort(rng.uniform(-1.5, 1.5, 2)),
                               rng.uniform(0.4, 0.9, 2), rng.uniform(0.3, 0.7, 2))


@pytest.mark.parametrize("seed, most", [(15, 120), (23, 70)])
def test_crawling_starts_end_fast_through_the_dilation_probe(seed, most):
    # without the probe every FLAT_WINDOW steps these starts crawl just above
    # the pace rule: 491 and 133 iterations
    res = minimize_q_fisher(_two_bump(seed), MinimizationConfig(q=1.2, alpha=2.0))
    c = res.counters
    assert res.stop_reason == "tol" and res.n_iters <= most
    assert c.dilations >= 1
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials


def _count_dilations_tried(monkeypatch):
    """A list that gains one entry per dilation the descent evaluates."""
    calls, interp = [], np.interp

    def counted_interp(*args):
        calls.append(1)
        return interp(*args)

    monkeypatch.setattr(minimizer.np, "interp", counted_interp)
    return calls


@pytest.mark.parametrize("seed", [15, 23])
def test_an_identity_dilation_probe_is_tried_every_window_and_never_kept(seed, monkeypatch):
    # the probe must beat the window's gain, not just a rounding-level drop;
    # each failed probe is one rejected trial
    _no_dilation_lowers_j(monkeypatch)
    tried = _count_dilations_tried(monkeypatch)
    res = minimize_q_fisher(_two_bump(seed), MinimizationConfig(q=1.2, alpha=2.0))
    c = res.counters
    assert c.dilations == 0 and len(tried) >= res.n_iters // minimizer.FLAT_WINDOW >= 1
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials


def test_a_stall_at_a_failed_probe_reuses_its_evaluation(monkeypatch):
    # no step is possible at the iteration of the first probe, which fails:
    # the stall test judges that evaluated dilation, not a second copy of it
    _no_dilation_lowers_j(monkeypatch)
    tried = _count_dilations_tried(monkeypatch)
    capped = minimizer._capped
    monkeypatch.setattr(minimizer, "_capped",
                        lambda d: np.zeros_like(capped(d)) if tried else capped(d))
    res = minimize_q_fisher(_two_bump(15), MinimizationConfig(q=1.2, alpha=2.0))
    c = res.counters
    assert res.stop_reason == "stall" and res.n_iters == minimizer.FLAT_WINDOW
    assert len(tried) == 1 and c.dilations == 0
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials


def _matched_q2():
    """The matched q = 2, alpha = 2, gamma = 0.1 q-Gaussian on [-10, 10] at 257
    points: compact, on |x| < 3.2, so it has room for the exact x2 dilation."""
    grid = GridSpec.line(-10.0, 10.0, 257)
    return make_q_gaussian(QGaussianParams(q=2.0, alpha=2.0, gamma=0.1), grid)


def test_the_exact_dilation_is_the_p1_function_dilated_and_keeps_j():
    g = _matched_q2()
    x, values = g.grid.axes()[0], g.values
    doubled = minimizer._exact_dilation(values, x)
    # node 2t of the dilated values is node 64 + t of g, and their P1
    # function is l(y / 2) at every y, l that of g
    assert np.array_equal(doubled[::2], values[64:193])
    y = np.linspace(-10.0, 10.0, 4097)
    assert np.abs(np.interp(y, x, doubled) / 2.0
                  - np.interp(y / 2.0, x, values) / 2.0).max() <= 1e-15 * values.max()
    # J is dilation invariant, and the P1 J of this exact dilation moves by rounding only
    obj = _Objective(g.grid, MinimizationConfig(q=2.0, alpha=2.0))
    j_val = _objective_parts(values, obj)[0]
    j_dil = _objective_parts(_renormalized(doubled, g.grid.trap_weights()), obj)[0]
    assert abs(j_dil / j_val - 1.0) <= 1e-13


@pytest.mark.parametrize("grid", [GridSpec.line(-10.0, 10.0, 256), GridSpec.line(-10.0, 12.0, 257)],
                         ids=["even-points", "asymmetric"])
def test_the_exact_dilation_needs_a_middle_node_at_the_origin(grid):
    g = zoo.gaussian_density(grid, 0.0, 0.5).values
    assert minimizer._exact_dilation(g, grid.axes()[0]) is None


def test_the_exact_dilation_needs_room():
    # a Gaussian of width 1.4 holds 1.7e-3 of its peak at |x| = 5
    grid = GridSpec.line(-10.0, 10.0, 257)
    g = zoo.gaussian_density(grid, 0.0, 1.4).values
    assert minimizer._exact_dilation(g, grid.axes()[0]) is None
    assert minimizer._exact_dilation(_matched_q2().values, grid.axes()[0]) is not None


@pytest.mark.parametrize("seed, most", [(19, 60), (39, 65)])
def test_compact_starts_converge_through_the_exact_dilation(seed, most):
    # without the exact x2 dilation these q = 2 starts stall at J^(1/beta) - 1
    # of 1.03e-3 (140 iterations) and 1.23e-3 (77): the x1.5 one raises J
    res = minimize_q_fisher(_two_bump(seed), MinimizationConfig(q=2.0, alpha=2.0))
    c = res.counters
    assert res.stop_reason == "tol" and res.n_iters <= most
    assert c.exact_dilations >= 1
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials
    assert np.all(np.diff(res.objective_trace) <= 0.0)


def test_counters_add_up_on_a_stall_that_keeps_both_kinds_of_dilation(monkeypatch):
    objectives, objective_parts = [], minimizer._objective_parts

    def counted_objective(*args):
        objectives.append(1)
        return objective_parts(*args)

    monkeypatch.setattr(minimizer, "_objective_parts", counted_objective)
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0, max_iters=6000, tol=1e-12))
    c = res.counters
    assert res.stop_reason == "stall" and c.dilations > c.exact_dilations >= 1
    assert c.evaluations == len(objectives) == 1 + res.n_iters + c.rejected_trials


def test_the_seed_2001_pass_10_draw_2_start_descends_monotonically():
    # the benchmark's descent start of pass 10, draw 2 at seed 2001: keeping
    # its exact dilation when J rose by under 1e-12 relative raised the trace
    # by 4.4e-16 at iteration 21; J_d <= J keeps it nonincreasing
    grid = GridSpec.line(-10.0, 10.0, 513)
    rng = np.random.default_rng(2001)
    for _ in range(33):
        start = zoo.mixture_density(grid, np.sort(rng.uniform(-1.5, 1.5, 2)),
                                    rng.uniform(0.4, 0.9, 2), rng.uniform(0.3, 0.7, 2))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0))
    assert res.converged and res.n_iters > minimizer.FLAT_WINDOW
    assert np.all(np.diff(res.objective_trace) <= 0.0)


def test_an_identity_exact_dilation_is_never_kept_and_the_run_ends(monkeypatch):
    # J does not rise under the identity, so only the rule that the exact
    # dilation must widen the support keeps it from being kept forever
    tried = []

    def identity(g, x):
        tried.append(1)
        return g.copy()

    monkeypatch.setattr(minimizer, "_exact_dilation", identity)
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0, max_iters=4000, tol=1e-12))
    c = res.counters
    assert res.stop_reason == "stall" and tried and c.dilations == 0
    assert c.evaluations == 1 + res.n_iters + c.rejected_trials


def test_a_kept_dilation_restarts_the_pace_window(monkeypatch):
    # under a strict pace rule J would be judged flat at once if the window
    # reached back past a kept dilation: this run then kept dilations at
    # iterations 53 and 54 and stopped at 54.  Counted from the last kept
    # dilation, the window lets the descent step on
    events, objective_parts, interp = [], minimizer._objective_parts, np.interp
    exact_dilation = minimizer._exact_dilation

    def counted_objective(*args):
        j_val, grad = objective_parts(*args)
        events.append(j_val)
        return j_val, grad

    def marked(function):
        def call(*args):
            events.append(None)  # the next evaluation is a dilation's
            return function(*args)
        return call

    monkeypatch.setattr(minimizer, "FLAT_FRAC", 0.1)
    monkeypatch.setattr(minimizer, "_objective_parts", counted_objective)
    monkeypatch.setattr(minimizer, "_exact_dilation", marked(exact_dilation))
    monkeypatch.setattr(minimizer.np, "interp", marked(interp))
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = MinimizationConfig(q=1.5, alpha=2.0, max_iters=6000, tol=1e-12)
    res = minimize_q_fisher(start, cfg)
    trace, inv_beta = res.objective_trace, 1.0 / cfg.beta
    kept_at, done, dilating = [], 0, False
    for event in events[1:]:
        if event is None:
            dilating = True
            continue
        if done + 1 < len(trace) and event**inv_beta == trace[done + 1]:
            done += 1
            if dilating:
                kept_at.append(done)
        dilating = False
    assert len(kept_at) == res.counters.dilations >= 1
    assert res.n_iters - kept_at[-1] >= minimizer.FLAT_WINDOW


def test_runs_within_one_window_never_probe(monkeypatch):
    # a run that ends within FLAT_WINDOW iterations evaluates no dilation
    calls = _count_dilations_tried(monkeypatch)
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0))
    assert res.converged and res.n_iters <= minimizer.FLAT_WINDOW and not calls


def test_result_objective_is_last_trace_entry():
    grid = GridSpec.line(-8.0, 8.0, 257)
    start = zoo.gaussian_density(grid, 0.4, 0.9)
    cfg = MinimizationConfig(q=1.0, alpha=2.0, max_iters=50, tol=1e-3)
    res = minimize_q_fisher(start, cfg)
    assert res.objective == res.objective_trace[-1]
    assert min(res.objective_trace) == res.objective_trace[-1]


def test_failed_quasi_newton_direction_retries_along_the_steepest_one(monkeypatch):
    # a two-loop direction of -1e-300 grad has a negative slope, but every
    # trial along it lands on u itself, so J never drops and all MAX_TRIALS
    # trials are rejected; the descent must then clear its memory and step
    # along the preconditioned steepest direction instead
    objectives, two_loop_calls = [], []
    objective_parts = minimizer._objective_parts

    def counted_objective(*args):
        j_val, grad = objective_parts(*args)
        objectives.append(j_val)
        return j_val, grad

    def tiny_two_loop(grad, steps, changes, metric):
        two_loop_calls.append(len(objectives))
        return -1e-300 * grad

    monkeypatch.setattr(minimizer, "_objective_parts", counted_objective)
    monkeypatch.setattr(minimizer, "_two_loop", tiny_two_loop)
    grid = GridSpec.line(-10.0, 10.0, 257)
    start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimize_q_fisher(start, MinimizationConfig(q=1.5, alpha=2.0, max_iters=400))
    assert two_loop_calls
    # J at u when the two-loop direction is taken, then MAX_TRIALS rejected
    # trials that each read it back, then the accepted steepest step
    at = two_loop_calls[0]
    current = objectives[at - 1]
    trials = objectives[at:at + minimizer.MAX_TRIALS]
    assert trials == [current] * minimizer.MAX_TRIALS
    assert objectives[at + minimizer.MAX_TRIALS] < current
    assert res.counters.rejected_trials >= minimizer.MAX_TRIALS * len(two_loop_calls)
    assert res.stop_reason == "tol"


def _two_loop_formulas(grad, steps, changes, metric):
    """The two-loop recursion with fresh arrays at every step: the pinned
    reference for `minimizer._two_loop`, which writes its vectors in place."""
    s_mat, y_mat = np.array(steps), np.array(changes)
    sy = (s_mat @ y_mat.T).tolist()
    k = len(sy)
    rho = [1.0 / sy[i][i] for i in range(k)]
    s_dot = (s_mat @ grad).tolist()
    a = [0.0] * k
    for i in reversed(range(k)):
        acc = s_dot[i]
        for j in range(i + 1, k):
            acc -= a[j] * sy[i][j]
        a[i] = rho[i] * acc
    r = grad - np.array(a) @ y_mat
    y_new = y_mat[-1]
    h_y, h_r = metric(np.stack([y_new, r]))
    r = (sy[-1][-1] / float(y_new @ h_y)) * h_r
    y_dot = (y_mat @ r).tolist()
    c = [0.0] * k
    for i in range(k):
        acc = y_dot[i]
        for j in range(i):
            acc += c[j] * sy[j][i]
        c[i] = a[i] - rho[i] * acc
    r += np.array(c) @ s_mat
    return -r


@pytest.mark.parametrize("k", [1, 5, 12])
def test_two_loop_is_the_formulas_bit_for_bit(k):
    n = 257
    rng = np.random.default_rng(k)
    grid = GridSpec.line(-10.0, 10.0, n)
    g = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4)).values
    scale = g ** -0.5
    scale[[0, -1]] = 0.0
    weights = minimizer._sobolev_weights(n, grid.spacing[0])

    def metric(v):
        return minimizer._sobolev_metric(v, scale, weights)

    steps, changes = deque(maxlen=minimizer.MEMORY), deque(maxlen=minimizer.MEMORY)
    for _ in range(k):
        s_k = rng.normal(size=n)
        steps.append(s_k)
        changes.append(s_k * rng.uniform(0.5, 2.0, n) + 0.1 * rng.normal(size=n))
    grad = rng.normal(size=n)
    got = minimizer._two_loop(grad, steps, changes, metric)
    ref = _two_loop_formulas(grad, steps, changes, metric)
    assert got.tobytes() == ref.tobytes()
