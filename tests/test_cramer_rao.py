"""Estimation bounds: scalar, multidim, matrix-weighted, functional, single-density."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qfisher import (
    EstimationProblem,
    GridDensity,
    GridSpec,
    HolderPair,
    ParameterError,
    QGaussianParams,
    SingularFisherMatrix,
    SupportMismatch,
    covariance_bound_check,
    escort,
    functional_cr_check,
    gaussian_location_family,
    make_q_gaussian,
    matrix_cr_check,
    multidim_cr_check,
    q_cr_check,
    q_fisher,
    suggested_half_extent,
    zoo,
)
from qfisher.errors import BoundaryMassWarning, TruncationWarning
from qfisher.cramer_rao import FIELD_FIT_TOL
from qfisher.fisher import ParametricFamily, QFisherKernel, p1_moment_weights
import qfisher.grid as grid_module
from qfisher.grid import support_floor

PAIR22 = HolderPair.from_alpha(2.0)


def _identity_problem(grid, sigma=1.0):
    fam = gaussian_location_family(grid, sigma=sigma)
    return EstimationProblem(
        fam=fam,
        statistic=lambda coords: coords[0],
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(1),
        g=fam.at(0.0),
        pair=PAIR22,
    )


def test_scalar_efficient_estimator_saturates():
    prob = _identity_problem(GridSpec.line(-12.0, 12.0, 4096))
    rep = multidim_cr_check(prob, 0.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    assert rep.margin == pytest.approx(0.0, abs=1e-6)
    assert rep.saturated
    assert rep.diagnostics["bias_divergence"] == pytest.approx(0.0, abs=1e-9)


def test_scalar_biased_statistic_shrinks_rhs():
    grid = GridSpec.line(-12.0, 12.0, 4096)
    fam = gaussian_location_family(grid, sigma=1.0)
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: 0.5 * coords[0],
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(1),
        g=fam.at(0.0),
        pair=PAIR22,
    )
    rep = multidim_cr_check(prob, 0.0)
    # E[T] = theta/2, so the bias derivative halves the rhs; T itself has
    # half the spread, so the bound stays saturated
    assert rep.rhs == pytest.approx(0.5, abs=1e-9)
    assert rep.lhs == pytest.approx(0.5, rel=1e-6)
    assert rep.saturated


def test_scalar_reparameterized_target():
    # estimating h(theta) = theta/2 with T = x/2: the jacobian dtheta/dh = 2
    # rescales the score, and the bound is again saturated at rhs = 1
    grid = GridSpec.line(-12.0, 12.0, 4096)
    fam = gaussian_location_family(grid, sigma=1.0)
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: 0.5 * coords[0],
        h=lambda theta: 0.5 * np.asarray(theta),
        h_jacobian=lambda theta: 2.0 * np.eye(1),
        g=fam.at(0.0),
        pair=PAIR22,
    )
    rep = multidim_cr_check(prob, 0.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.lhs == pytest.approx(1.0, rel=1e-6)
    assert rep.saturated


def test_scalar_check_rejects_multidim():
    grid = GridSpec.box(-10.0, 10.0, 128, 2)
    fam = gaussian_location_family(grid, sigma=1.0)
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: np.stack(coords),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(2),
        g=fam.at((0.0, 0.0)),
        pair=PAIR22,
        m_dim=2,
    )
    rep = multidim_cr_check(prob, (0.0, 0.0))
    assert rep.rhs == pytest.approx(2.0, abs=1e-8)
    assert rep.lhs == pytest.approx(2.0, rel=1e-4)
    assert rep.saturated


def test_suboptimal_estimator_leaves_slack():
    grid = GridSpec.line(-12.0, 12.0, 4096)
    fam = gaussian_location_family(grid, sigma=1.0)
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: coords[0] + 0.8 * np.sin(2.0 * coords[0]),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(1),
        g=fam.at(0.0),
        pair=PAIR22,
    )
    rep = multidim_cr_check(prob, 0.0)
    assert rep.margin > 0.05
    assert not rep.saturated


def test_matrix_weighted_bound_uses_inverse_information():
    grid = GridSpec((-11.0, -14.0), (11.0, 14.0), (192, 224))
    fam = gaussian_location_family(grid, sigma=(1.0, 1.5))
    target = lambda theta: np.atleast_1d(theta[0] + 0.3 * theta[1])
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: coords[0] + 0.3 * coords[1],
        h=target,
        h_jacobian=lambda theta: np.eye(1),  # unused by the matrix check
        g=fam.at((0.0, 0.0)),
        pair=PAIR22,
    )
    rep = matrix_cr_check(prob, (0.0, 0.0))
    expected = np.sqrt(1.0 + 0.09 * 1.5**2)
    assert rep.rhs == pytest.approx(expected, rel=1e-4)
    assert rep.lhs == pytest.approx(expected, rel=1e-4)
    assert rep.saturated


def test_matrix_check_requires_beta_two():
    prob = _identity_problem(GridSpec.line(-12.0, 12.0, 1024))
    bad = EstimationProblem(
        fam=prob.fam,
        statistic=prob.statistic,
        h=prob.h,
        h_jacobian=prob.h_jacobian,
        g=prob.g,
        pair=HolderPair.from_alpha(3.0),
    )
    with pytest.raises(ValueError):
        matrix_cr_check(bad, 0.0)


def test_singular_information_matrix_raises():
    grid = GridSpec.line(-12.0, 12.0, 1024)

    def build(theta):
        # theta[1] does nothing, so its information row/column vanishes
        return zoo.gaussian_density(grid, mean=float(theta[0]), sigma=1.0)

    fam = ParametricFamily(density_at=build, theta_dim=2, kind="generic")
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: coords[0],
        h=lambda theta: np.atleast_1d(theta[0]),
        h_jacobian=lambda theta: np.eye(1),
        g=fam.at((0.0, 0.0)),
        pair=PAIR22,
    )
    with pytest.raises(SingularFisherMatrix):
        matrix_cr_check(prob, (0.0, 0.0))


def test_functional_bound_gaussian_saturates():
    grid = GridSpec.line(-12.0, 12.0, 4096)
    g = zoo.gaussian_density(grid, 0.0, 1.0)
    rep = functional_cr_check(g, g, PAIR22)
    assert rep.rhs == 1.0
    assert rep.lhs == pytest.approx(1.0, rel=1e-5)
    assert rep.saturated
    assert rep.diagnostics["K"] == pytest.approx(1.0, rel=1e-3)


def test_functional_bound_recenters_offset_density():
    grid = GridSpec.line(-12.0, 12.0, 4096)
    centered = zoo.gaussian_density(grid, 0.0, 1.0)
    shifted = zoo.gaussian_density(grid, 0.7, 1.0)
    rep0 = functional_cr_check(centered, centered, PAIR22)
    rep1 = functional_cr_check(shifted, shifted, PAIR22)
    assert rep1.lhs == pytest.approx(rep0.lhs, rel=1e-6)
    assert rep1.saturated


@pytest.mark.parametrize("q,alpha", [(1.5, 2.0), (2.0, 3.0)])
def test_functional_bound_on_matched_compact_support(q, alpha):
    # the stencil's slope into the first zero node past the support's edge
    # is no mass of f where g vanishes: f and g are both 0 there
    p = QGaussianParams(q=q, alpha=alpha, gamma=1.0)
    half = suggested_half_extent(p)
    g = make_q_gaussian(p, GridSpec.line(-half, half, 4097))
    assert np.count_nonzero(g.values == 0.0) > 100
    rep = functional_cr_check(g, g, HolderPair.from_alpha(alpha))
    assert np.isfinite(rep.lhs)
    assert rep.margin >= -1e-6


def test_functional_bound_refuses_mass_of_f_where_g_vanishes():
    # g vanishes past |x| = sqrt(2), where the Gaussian f still has mass
    grid = GridSpec.line(-8.0, 8.0, 4097)
    g = make_q_gaussian(QGaussianParams(q=1.5, alpha=2.0, gamma=1.0), grid)
    f = zoo.gaussian_density(grid, 0.0, 1.0)
    with pytest.raises(SupportMismatch, match="where g vanishes"):
        functional_cr_check(f, g, PAIR22)


def test_functional_bound_slack_for_mixture():
    grid = GridSpec.line(-14.0, 14.0, 4096)
    mix = zoo.mixture_density(grid, (-1.5, 1.5), (0.7, 0.7), (0.5, 0.5))
    rep = functional_cr_check(mix, mix, PAIR22)
    assert rep.margin > 0.0
    assert not rep.saturated


@pytest.mark.parametrize(
    "q,alpha",
    [(0.8, 2.0), (1.0, 2.0), (1.5, 2.0), (1.2, 1.5), (0.9, 3.0), (2.0, 2.0)],
)
def test_q_cr_saturates_on_generalized_gaussians(q, alpha):
    p = QGaussianParams(q=q, alpha=alpha, gamma=1.0)
    half = suggested_half_extent(p)
    g = make_q_gaussian(p, GridSpec.line(-half, half, 4097))
    rep = q_cr_check(g, HolderPair.from_alpha(alpha), q)
    assert rep.margin == pytest.approx(0.0, abs=2e-4)
    assert rep.saturated
    assert rep.diagnostics["K"] > 0.0


def test_q_cr_holds_strictly_on_zoo_members():
    grid = GridSpec.line(-10.0, 10.0, 2049)
    pair = HolderPair.from_alpha(2.0)
    for seed in range(8):
        g = zoo.random_density(grid, seed)
        rep = q_cr_check(g, pair, q=1.5)
        assert rep.margin > 1e-3
        assert not rep.saturated


def test_q_cr_one_node_spike_stays_above_the_bound():
    # a lone spike has zero node moment and finite node Fisher information, so
    # a node quadrature reads lhs 0; its P1 interpolant is a narrow tent whose
    # product is exact: 1.0825 at q = 1.5, the same on any grid
    grid = GridSpec.line(-10.0, 10.0, 513)
    values = np.zeros(513)
    values[256] = 1.0
    g = GridDensity.from_values(grid, values, check_boundary=False)
    rep = q_cr_check(g, PAIR22, q=1.5)
    assert rep.lhs >= 1.0
    assert rep.lhs == pytest.approx(1.0825, abs=1e-4)


def _norm_reference(comps, p):
    # lp_norm's formula on full-size components, one allocating pass each
    a = [np.abs(c) for c in comps]
    if p in (1.0, 2.0):
        return (a[0] ** p + a[1] ** p) ** (1.0 / p)
    top = np.maximum(a[0], a[1])
    safe = np.where((top > 0.0) & (top < np.inf), top, 1.0)
    return top * ((a[0] / safe) ** p + (a[1] / safe) ** p) ** (1.0 / p)


def _node_check_reference(g, alpha, beta, q, norm_p):
    """m_alpha, I_{beta,q}, K and residual of a 2D check, composed from
    moment, the node I_{beta,q}, escort(g, q) with np.gradient and the
    equality fit, each written from its formula with fresh arrays."""
    gv, w, spacing = g.values, g.grid.trap_weights(), g.grid.spacing
    mask = gv > support_floor(gv)
    r = _norm_reference(g.grid.mesh(), norm_p)
    m_alpha = float((w * (r**alpha * gv)).sum())
    grads = [np.gradient(gv, h, axis=a) for a, h in enumerate(spacing)]
    u = _norm_reference(grads, norm_p / (norm_p - 1.0))
    g_pow = np.where(mask, gv, 1.0) ** (beta * (q - 1.0) + 1.0 - beta)
    phi = float((w * np.where(mask, u**beta * g_pow, 0.0)).sum())
    info = (q / float((w * gv**q).sum())) ** beta * phi
    return (m_alpha, info) + _fit_reference(g, q, alpha, norm_p, r)


def _fit_terms(g, q, alpha, norm_p, r):
    """grad f of escort(g, q) by np.gradient, the equality field
    g ||x||^(alpha-1) grad ||x|| and the trapezoid weights on the support of
    g, `r` being the ||x||_p field, with num, den and base, the sums that fix
    K."""
    gv, w = g.values, g.grid.trap_weights()
    mask = gv > support_floor(gv)
    grad_f = [np.gradient(escort(g, q).values, h, axis=a) for a, h in enumerate(g.grid.spacing)]
    safe = np.where(r > 0.0, r, 1.0)
    v = [gv * r ** (alpha - 1.0) * (np.sign(x) * (np.abs(x) / safe) ** (norm_p - 1.0))
         for x in g.grid.mesh()]
    wm = w * mask
    num = sum(float((wm * gf * vi).sum()) for gf, vi in zip(grad_f, v))
    den = sum(float((wm * vi * vi).sum()) for vi in v)
    base = sum(float((wm * gf * gf).sum()) for gf in grad_f)
    return grad_f, v, wm, num, den, base


def _fit_reference(g, q, alpha, norm_p, r):
    """K and residual of the equality fit, K = -num / den from the normal
    equation and the misfit at K from it too: base + K num."""
    num, den, base = _fit_terms(g, q, alpha, norm_p, r)[3:]
    k = -num / den
    return k, float(np.sqrt(max(base + k * num, 0.0) / base))


def _two_pass_fit_reference(g, q, alpha, norm_p, r):
    """K and residual of the equality fit with the misfit summed at K in a
    second pass, sum w (grad f + K v)^2: the fit before its closed form."""
    grad_f, v, wm, num, den, base = _fit_terms(g, q, alpha, norm_p, r)
    k = -num / den
    res = sum(float((wm * (gf + k * vi) ** 2).sum()) for gf, vi in zip(grad_f, v))
    return k, float(np.sqrt(max(res, 0.0) / base))


def _case_1d(case, q, alpha):
    grid = GridSpec.line(-10.0, 10.0, 1025)
    if case == "matched":
        p = QGaussianParams(q=q, alpha=alpha, gamma=1.0)
        half = suggested_half_extent(p)
        return make_q_gaussian(p, GridSpec.line(-half, half, 1025))
    if case == "zoo":
        return zoo.random_density(grid, 5)
    if case == "mixture":
        return zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    return zoo.smoothed_uniform(grid, -3.0, 3.0, edge=0.25)


CASE_1D = pytest.mark.parametrize("case", ["matched", "zoo", "mixture", "uniform"])
PARAMS_1D = pytest.mark.parametrize("q,alpha,norm_p", [(1.5, 2.0, 2.0), (1.0, 2.0, 2.0),
                                                       (0.8, 1.5, 2.0), (2.0, 3.0, 2.0),
                                                       (1.5, 2.0, 3.0)])


@CASE_1D
@PARAMS_1D
def test_1d_q_cr_check_is_its_composition_bit_for_bit(case, q, alpha, norm_p):
    # the P1 moment, q_fisher, and the fit of escort(g, q)'s np.gradient; in
    # 1D ||x||_p is |x| for every p
    g = _case_1d(case, q, alpha)
    pair = HolderPair.from_alpha(alpha)
    d = q_cr_check(g, pair, q, norm_p).diagnostics
    m_alpha = float((p1_moment_weights(g.grid, alpha) * g.values).sum())
    info = q_fisher(g, pair.beta, q, norm_p)
    (x,) = g.grid.axes()
    assert (d["m_alpha"], d["i_beta_q"], d["K"], d["residual_rel"]) == (
        m_alpha, info) + _fit_reference(g, q, alpha, norm_p, np.abs(x))


@pytest.mark.parametrize("dims", [1, 2])
def test_truncation_warning_names_the_caller_of_q_cr_check(dims):
    with pytest.warns(BoundaryMassWarning):
        g = zoo.gaussian_density(GridSpec.box(-3.0, 3.0, 129, dims), 0.0, 1.0)
    with pytest.warns(TruncationWarning, match="likely truncated") as rec:
        q_cr_check(g, PAIR22, 1.5)
    assert [w.filename for w in rec] == [__file__]


def _matched_2d(q, alpha, norm_p, points):
    p = QGaussianParams(q=q, alpha=alpha, gamma=1.0, dims=2, norm_p=norm_p)
    half = suggested_half_extent(p)
    return make_q_gaussian(p, GridSpec.box(-half, half, points, 2))


def _case_2d(points, q, alpha, norm_p):
    """(g, q) of a 2D case: the matched q-Gaussian, or for q None a zoo
    member whose support floor leaves out thousands of nodes."""
    if q is None:
        g = zoo.random_density(GridSpec.box(-10.0, 10.0, points, 2), 4)
        assert np.count_nonzero(g.values <= support_floor(g.values)) > 1000
        return g, 1.5
    return _matched_2d(q, alpha, norm_p, points), q


# e = beta(q-1)+1-beta is 0, < 0, > 0, < 0 and > 0; the last two have p != 2
CASES_2D = pytest.mark.parametrize("q,alpha,norm_p",
                                   [(1.5, 2.0, 2.0), (1.0, 2.0, 2.0), (2.0, 2.0, 2.0),
                                    (0.8, 1.5, 1.5), (1.5, 3.0, 3.0), (None, 2.0, 2.0)])


@pytest.mark.parametrize("points", [129, 257])
@CASES_2D
def test_2d_q_cr_check_is_its_composition_bit_for_bit(points, q, alpha, norm_p, monkeypatch):
    # with the whole grid in one strip the check sums as the reference does
    monkeypatch.setattr(grid_module, "BLOCK", points * points)
    g, q = _case_2d(points, q, alpha, norm_p)
    pair = HolderPair.from_alpha(alpha)
    rep = q_cr_check(g, pair, q, norm_p)
    d = rep.diagnostics
    got = (d["m_alpha"], d["i_beta_q"], d["K"], d["residual_rel"])
    assert got == _node_check_reference(g, alpha, pair.beta, q, norm_p)
    assert rep.lhs == d["m_alpha"] ** (1.0 / alpha) * d["i_beta_q"] ** (1.0 / pair.beta)


@pytest.mark.parametrize("points", [129, 257])
@CASES_2D
def test_2d_q_cr_check_is_its_composition_to_1e_12(points, q, alpha, norm_p):
    # in strips of BLOCK nodes every node's value is the reference's, and the
    # strip sums regroup the reference's whole-grid sums; the misfit base +
    # K num cancels, which amplifies that regrouping in residual_rel
    g, q = _case_2d(points, q, alpha, norm_p)
    assert len(grid_module.row_strips(g.values.shape)) > 1
    pair = HolderPair.from_alpha(alpha)
    d = q_cr_check(g, pair, q, norm_p).diagnostics
    *ref, ref_residual = _node_check_reference(g, alpha, pair.beta, q, norm_p)
    got = (d["m_alpha"], d["i_beta_q"], d["K"])
    assert got == pytest.approx(tuple(ref), rel=1e-12, abs=0.0)
    assert d["residual_rel"] == pytest.approx(ref_residual, rel=0.0, abs=1e-9)


def _assert_fit_is_the_two_pass_fit(rep, g, q, alpha, norm_p, r):
    # base + K num cancels where the fit is close, so it keeps about half
    # the digits of the misfit summed at K
    k, residual = _two_pass_fit_reference(g, q, alpha, norm_p, r)
    d = rep.diagnostics
    assert d["residual_rel"] == pytest.approx(residual, rel=0.0, abs=1e-7)
    assert rep.saturated == (residual < FIELD_FIT_TOL and k > 0.0)


@pytest.mark.parametrize("points", [129, 257])
@CASES_2D
def test_2d_closed_form_fit_is_the_two_pass_fit(points, q, alpha, norm_p):
    g, q = _case_2d(points, q, alpha, norm_p)
    rep = q_cr_check(g, HolderPair.from_alpha(alpha), q, norm_p)
    _assert_fit_is_the_two_pass_fit(rep, g, q, alpha, norm_p, _norm_reference(g.grid.mesh(), norm_p))


@CASE_1D
@PARAMS_1D
def test_1d_closed_form_fit_is_the_two_pass_fit(case, q, alpha, norm_p):
    g = _case_1d(case, q, alpha)
    rep = q_cr_check(g, HolderPair.from_alpha(alpha), q, norm_p)
    _assert_fit_is_the_two_pass_fit(rep, g, q, alpha, norm_p, np.abs(g.grid.axes()[0]))


@pytest.mark.parametrize("points", [129, 257])
@CASES_2D
def test_2d_q_fisher_is_the_checks_information_bit_for_bit(points, q, alpha, norm_p):
    g, q = _case_2d(points, q, alpha, norm_p)
    pair = HolderPair.from_alpha(alpha)
    info = q_cr_check(g, pair, q, norm_p).diagnostics["i_beta_q"]
    assert q_fisher(g, pair.beta, q, norm_p) == info
    kernel = QFisherKernel(g.grid, pair.beta, q, norm_p)
    assert kernel.parts(g.values) == (info, None)
    with pytest.raises(ValueError, match="one-dimensional"):
        kernel.parts(g.values, gradient=True)


@pytest.mark.parametrize("points", [129, 257])
@pytest.mark.parametrize("q,alpha,norm_p", [(1.5, 2.0, 2.0), (2.0, 2.0, 2.0), (1.5, 3.0, 3.0)])
def test_2d_g_q_on_the_support_is_the_plain_power_bit_for_bit(points, q, alpha, norm_p):
    # a matched q > 1 input vanishes off a ball, so g^q has zeros; the kernel
    # takes no power of zero, and its g^q and M_q are those of the plain
    # power of every node, M_q summed in the kernel's strips
    g = _matched_2d(q, alpha, norm_p, points)
    gv, w = g.values, g.grid.trap_weights()
    assert np.count_nonzero(gv == 0.0) > 1000
    info, g_q, m_q = QFisherKernel(g.grid, HolderPair.from_alpha(alpha).beta, q, norm_p)._node_parts(gv)
    ref = gv**q
    assert np.array_equal(g_q.view(np.int64), ref.view(np.int64))
    ref_m_q = 0.0
    for rows in grid_module.row_strips(gv.shape):
        ref_m_q += float((w[rows] * ref[rows]).sum())
    assert m_q == ref_m_q
    assert info == q_cr_check(g, HolderPair.from_alpha(alpha), q, norm_p).diagnostics["i_beta_q"]


def _peak_bytes(call):
    call()  # the grid's axes and trapezoid weights are cached
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_2d_q_cr_check_holds_few_grid_arrays_at_once():
    # the 2D check streams over strips of rows and keeps one grid array, g^q;
    # one array per pass kept about 10 alive at once, which showed as peak RSS
    # in the benchmark, and a workspace of grid arrays 6.2.  At 257 columns a
    # strip is 63 rows, a quarter of the grid: 4.0 grid arrays in all
    g = _matched_2d(1.5, 2.0, 2.0, 257)
    assert _peak_bytes(lambda: q_cr_check(g, PAIR22, 1.5)) <= 4.5 * g.values.nbytes


def test_2d_q_fisher_holds_few_grid_arrays_at_once():
    # g^q and the temporaries of a 31-row strip: 1.4 grid arrays at 513
    # points, where whole-grid gradients held 2.2
    g = _matched_2d(1.5, 2.0, 2.0, 513)
    assert _peak_bytes(lambda: q_fisher(g, 2.0, 1.5)) <= 1.6 * g.values.nbytes


def test_covariance_bound_efficient_1d():
    grid = GridSpec.line(-12.0, 12.0, 2048)
    prob = _identity_problem(grid)
    rep = covariance_bound_check(prob, 0.0, n_samples=60_000, seed=1)
    assert rep.empirical[0, 0] == pytest.approx(1.0, rel=2e-2)
    assert rep.bound[0, 0] == pytest.approx(1.0, rel=1e-5)
    assert rep.psd_margin >= 0.0


def test_covariance_bound_2d_statistic():
    grid = GridSpec.box(-11.0, 11.0, 176, 2)
    fam = gaussian_location_family(grid, sigma=(1.0, 1.5))
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: np.stack(coords),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(2),
        g=fam.at((0.0, 0.0)),
        pair=PAIR22,
        m_dim=2,
    )
    rep = covariance_bound_check(prob, (0.0, 0.0), n_samples=100_000, seed=0)
    assert rep.bound[0, 0] == pytest.approx(1.0, rel=1e-3)
    assert rep.bound[1, 1] == pytest.approx(1.5**2, rel=1e-3)
    assert rep.min_eig > -3.0 * rep.stderr
    assert rep.psd_margin >= 0.0


@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_covariance_check_refuses_fewer_than_two_samples(n_samples, monkeypatch):
    # one draw has no sample covariance's standard error (ddof = 1), none has
    # no sample covariance at all: both used to come back as NaN with warnings
    grid = GridSpec.box(-8.0, 8.0, 33, 2)
    fam = gaussian_location_family(grid, sigma=1.0)
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: np.stack(coords),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(2),
        g=fam.at((0.0, 0.0)),
        pair=PAIR22,
        m_dim=2,
    )

    def no_draws(*args):
        raise AssertionError("drew before checking n_samples")

    monkeypatch.setattr("qfisher.cramer_rao.sample_density", no_draws)
    with pytest.raises(ParameterError, match="n_samples") as err:
        covariance_bound_check(prob, (0.0, 0.0), n_samples=n_samples, seed=0)
    assert err.value.names == ("n_samples",)


def test_statistic_shape_validation():
    grid = GridSpec.line(-10.0, 10.0, 256)
    fam = gaussian_location_family(grid, sigma=1.0)
    prob = EstimationProblem(
        fam=fam,
        statistic=lambda coords: np.stack([coords[0], coords[0]]),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(1),
        g=fam.at(0.0),
        pair=PAIR22,
        m_dim=1,
    )
    with pytest.raises(ValueError):
        prob.statistic_on_grid()


CR_REFUSALS = {
    "functional-across-grids": (lambda: functional_cr_check(
        zoo.gaussian_density(GridSpec.line(-8.0, 8.0, 257)),
        zoo.gaussian_density(GridSpec.line(-8.0, 8.0, 256)), PAIR22), "share one grid"),
    "matrix-m-dim-2": (lambda: matrix_cr_check(
        replace(_identity_problem(GridSpec.line(-8.0, 8.0, 64)), m_dim=2), 0.0), "scalar h"),
}


@pytest.mark.parametrize("call, match", CR_REFUSALS.values(), ids=CR_REFUSALS)
def test_cramer_rao_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
