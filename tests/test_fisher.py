"""Fisher functionals: classical limits, the divergence-ratio route, matrices."""

import numpy as np
import pytest

from qfisher import (
    FisherMatrix,
    GridDensity,
    GridSpec,
    NonConvergent,
    ParameterError,
    ParametricFamily,
    QGaussianParams,
    SupportMismatch,
    chi2_limit_check,
    dual_exponent,
    escort,
    fisher_matrix,
    fisher_matrix_data_processing,
    gaussian_location_family,
    gaussian_scale_family,
    generalized_fisher,
    laplace_location_family,
    make_q_gaussian,
    q_fisher,
    q_gaussian_location_family,
    theta_gradient,
    zoo,
)
from qfisher.fisher import SERIES_REL, QFisherKernel, gradient_adjoint, p1_moment_weights
from qfisher.grid import support_floor

GRID = GridSpec.line(-12.0, 12.0, 2048)


@pytest.mark.parametrize("sigma", [1.0, 1.5])
def test_gaussian_translation_fisher_is_inverse_variance(sigma):
    fam = gaussian_location_family(GRID, sigma=sigma)
    g = fam.at(0.0)
    val = generalized_fisher(fam, g, 0.0, beta=2.0)
    assert val == pytest.approx(1.0 / sigma**2, rel=1e-7)


def test_divergence_ratio_limit_recovers_fisher():
    fam = gaussian_location_family(GRID, sigma=1.0)
    g = fam.at(0.0)
    rep = chi2_limit_check(fam, g, 0.0, beta=2.0)
    assert rep.ratios.shape == (1, 3)
    assert rep.limit == pytest.approx(1.0, rel=1e-6)
    # the extrapolated limit should also match the direct functional
    assert rep.limit == pytest.approx(generalized_fisher(fam, g, 0.0, 2.0), rel=1e-6)


def test_limit_check_is_even_in_step_sign():
    # one-sided ratios at +t and -t are averaged, so the reported sequence
    # changes monotonically in t^2; verify the t^2 trend is clean
    fam = gaussian_location_family(GRID, sigma=1.0)
    g = fam.at(0.0)
    rep = chi2_limit_check(fam, g, 0.0, beta=2.0)
    seq = rep.ratios[0]
    assert abs(seq[1] - rep.limit) < abs(seq[0] - rep.limit)
    assert abs(seq[2] - rep.limit) < abs(seq[1] - rep.limit)


def test_limit_check_flags_non_cauchy_sequence():
    # at sigma = 0.3 the steps 0.1 and 0.05 are not small against the width:
    # the last two ratios differ by about 4e-2 relative
    fam = gaussian_location_family(GRID, sigma=0.3)
    g = fam.at(0.0)
    with pytest.raises(NonConvergent, match="not Cauchy at 0.01"):
        chi2_limit_check(fam, g, 0.0, beta=2.0)


def test_q_fisher_classical_limit():
    g = zoo.gaussian_density(GRID, 0.0, 1.5)
    assert q_fisher(g, beta=2.0, q=1.0) == pytest.approx(1.0 / 1.5**2, rel=1e-7)


def test_q_fisher_matches_escort_translation_family():
    # the (beta, q) functional of g is the beta-Fisher information of the
    # translation family built from the escort density
    g = zoo.gaussian_density(GRID, 0.0, 1.0)
    f = escort(g, q=1.4)

    fam = ParametricFamily(density_at=lambda t: f, theta_dim=1, kind="translation")
    for beta, p in [(2.0, 2.0), (1.5, 2.0), (3.0, 1.5)]:
        direct = q_fisher(g, beta=beta, q=1.4, norm_p=p)
        via_family = generalized_fisher(fam, g, 0.0, beta=beta, norm_p=dual_exponent(p))
        # the family route differentiates the escort values numerically, so
        # agreement is limited by the O(h^2) chain-rule defect
        assert via_family == pytest.approx(direct, rel=1e-4)


def test_q_fisher_compact_support_is_finite_and_stable():
    p = QGaussianParams(q=1.5, alpha=2.0, gamma=1.0)
    grid = GridSpec.line(-1.8, 1.8, 4096)
    g = make_q_gaussian(p, grid)
    v = q_fisher(g, beta=2.0, q=1.5)
    assert np.isfinite(v) and v > 0.0
    finer = q_fisher(make_q_gaussian(p, GridSpec.line(-1.8, 1.8, 8192)), beta=2.0, q=1.5)
    assert finer == pytest.approx(v, rel=5e-3)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_p1_moment_weights_are_cached_and_read_only(alpha):
    # the second difference of G(x) = |x|^(alpha+2) / ((alpha+1)(alpha+2))
    # over h, closed at the ends by G's slope x |x|^alpha / (alpha+1)
    grid = GridSpec.line(-7.0, 9.0, 513)
    (x,) = grid.axes()
    h = grid.spacing[0]
    big_g = np.abs(x) ** (alpha + 2.0) / ((alpha + 1.0) * (alpha + 2.0))
    slope = x * np.abs(x) ** alpha / (alpha + 1.0)
    ref = np.concatenate([[big_g[1] - big_g[0] - h * slope[0]],
                          big_g[2:] - 2.0 * big_g[1:-1] + big_g[:-2],
                          [big_g[-2] - big_g[-1] + h * slope[-1]]]) / h
    w = p1_moment_weights(grid, alpha)
    assert w.tobytes() == ref.tobytes()
    assert not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    assert p1_moment_weights(grid, alpha) is w
    assert p1_moment_weights(GridSpec.line(-7.0, 9.0, 513), alpha) is w


def test_q_fisher_validates_inputs():
    g = zoo.gaussian_density(GRID, 0.0, 1.0)
    with pytest.raises(ValueError):
        q_fisher(g, beta=1.0, q=1.5)
    with pytest.raises(ValueError):
        q_fisher(g, beta=2.0, q=0.0)


def test_laplace_family_fisher_near_unit():
    grid = GridSpec.line(-26.0, 26.0, 16384)
    fam = laplace_location_family(grid, eps=0.005)
    g = fam.at(0.0)
    val = generalized_fisher(fam, g, 0.0, beta=2.0)
    # exact Laplace(1) has unit Fisher information; the kink smoothing at
    # eps = 0.005 costs about one percent
    assert val == pytest.approx(1.0, abs=2e-2)
    assert val < 1.0


def test_components_sum_to_beta_norm_functional():
    # at beta = p = 2 the functional is the trace of the Fisher matrix, whose
    # diagonal holds the per-axis informations 1/sigma_j^2
    grid = GridSpec((-10.0, -10.0), (10.0, 10.0), (192, 192))
    fam = gaussian_location_family(grid, sigma=(1.0, 1.4))
    g = fam.at((0.0, 0.0))
    comps = np.diag(fisher_matrix(fam, g, (0.0, 0.0)).entries)
    assert comps[0] == pytest.approx(1.0, rel=1e-4)
    assert comps[1] == pytest.approx(1.0 / 1.4**2, rel=1e-4)
    total = generalized_fisher(fam, g, (0.0, 0.0), beta=2.0, norm_p=2.0)
    assert comps.sum() == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize(
    "functional",
    [
        lambda fam, g: generalized_fisher(fam, g, 0.0, beta=2.0),
        lambda fam, g: fisher_matrix(fam, g, 0.0),
    ],
    ids=["generalized_fisher", "fisher_matrix"],
)
def test_fisher_functionals_refuse_support_mismatch(functional):
    # a full-support family against a compact g
    grid = GridSpec.line(-6.0, 6.0, 1024)
    fam = gaussian_location_family(grid, sigma=0.6)
    g = make_q_gaussian(QGaussianParams(q=2.0, alpha=2.0, gamma=1.0), grid)
    with pytest.raises(SupportMismatch):
        functional(fam, g)


def test_generic_differentiation_agrees_with_translation():
    translation = gaussian_location_family(GRID, sigma=1.0)
    generic = ParametricFamily(
        density_at=lambda t: zoo.gaussian_density(GRID, mean=float(t[0]), sigma=1.0),
        theta_dim=1,
        kind="generic",
    )
    _, g_t = theta_gradient(translation, 0.2)
    _, g_g = theta_gradient(generic, 0.2)
    scale = np.abs(g_t).max()
    # both approximate the same ideal gradient; the gap is the spatial
    # central-difference error of the translation route
    assert np.allclose(g_t, g_g, rtol=0.0, atol=2e-4 * scale)


def test_gaussian_scale_family_fisher():
    grid = GridSpec.line(-14.0, 14.0, 4096)
    fam = gaussian_scale_family(grid)
    sigma0 = 1.3
    g = fam.at(sigma0)
    m = fisher_matrix(fam, g, sigma0)
    assert m.entries[0, 0] == pytest.approx(2.0 / sigma0**2, rel=1e-6)


def test_fisher_matrix_2d_gaussian_diagonal():
    grid = GridSpec((-10.0, -12.0), (10.0, 12.0), (160, 192))
    fam = gaussian_location_family(grid, sigma=(1.0, 1.5))
    g = fam.at((0.0, 0.0))
    m = fisher_matrix(fam, g, (0.0, 0.0))
    assert m.dim == 2
    assert m.entries[0, 0] == pytest.approx(1.0, rel=1e-4)
    assert m.entries[1, 1] == pytest.approx(1.0 / 1.5**2, rel=1e-4)
    assert abs(m.entries[0, 1]) < 1e-10


def test_fisher_matrix_type_guards():
    with pytest.raises(ValueError):
        FisherMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        FisherMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        FisherMatrix(np.zeros((2, 3)))
    m = FisherMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0  # frozen storage


@pytest.mark.parametrize("factor", [2, 4])
def test_matrix_data_processing_1d(factor):
    grid = GridSpec.line(-12.0, 12.0, 512)
    fam = gaussian_location_family(grid, sigma=1.0)
    g = fam.at(0.0)
    before, after, margin = fisher_matrix_data_processing(fam, g, 0.0, factor)
    assert margin >= -1e-12 * before.entries.max()
    assert after.entries[0, 0] <= before.entries[0, 0] + 1e-12


def test_matrix_data_processing_2d_generic():
    grid = GridSpec.box(-11.0, 11.0, 144, 2)

    def build(theta):
        return zoo.gaussian_density(grid, mean=(float(theta[0]), 0.0), sigma=(1.0, float(theta[1])))

    fam = ParametricFamily(density_at=build, theta_dim=2, kind="generic")
    theta = (0.0, 1.5)
    before, after, margin = fisher_matrix_data_processing(fam, fam.at(theta), theta, 4)
    assert margin >= -1e-12 * before.entries.max()
    assert before.entries[0, 0] == pytest.approx(1.0, rel=1e-4)
    assert before.entries[1, 1] == pytest.approx(2.0 / 1.5**2, rel=1e-4)


@pytest.mark.parametrize("q", [1.3, 1.5, 2.5])
def test_q_gaussian_location_family_refuses_compact_support(q):
    with pytest.raises(ParameterError, match="must be at most 1") as info:
        q_gaussian_location_family(GRID, q, 2.0, 1.0)
    assert info.value.names == ("q",)


def test_q_gaussian_location_family_full_support():
    grid = GridSpec.line(-30.0, 30.0, 4096)
    fam = q_gaussian_location_family(grid, q=0.9, alpha=2.0, gamma=1.0)
    g = fam.at(0.0)
    val = generalized_fisher(fam, g, 0.0, beta=2.0)
    assert np.isfinite(val) and val > 0.0


def _cell_integrals_formulas(g, s, h, keep, gradient):
    """The P1 cell integrals of g^s and their end derivatives, written from
    the formulas with fresh arrays, one exponent row per column entry of s
    and one call per row of node values: the pinned reference for
    `fisher._cell_power_integrals`, which works in place."""
    a, b = g[:-1], g[1:]
    t = s + 1.0
    log_rows = t[:, 0] == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gs = g**s
        up = b >= a
        top = np.where(up, b, a)
        diff = b - a
        x = np.maximum(np.abs(diff) / top, 1e-200)
        log_rho = np.log1p(-x)
        far = np.flatnonzero(x >= 0.5)
        if far.size:
            log_rho[far] = np.log(np.minimum(a[far], b[far]) / top[far])
        if log_rows.any():
            ratio = -np.expm1(t * log_rho) / (np.where(log_rows[:, None], 1.0, t) * x)
            ratio[log_rows] = -log_rho / x
        else:
            ratio = np.expm1(t * log_rho) / (-t * x)
        p = h * np.where(up, gs[:, 1:], gs[:, :-1]) * ratio
        if gradient:
            hgs = h * gs
            dpa = (p - hgs[:, :-1]) / diff
            dpb = (hgs[:, 1:] - p) / diff
            near = np.flatnonzero(x <= SERIES_REL if keep is None else (x <= SERIES_REL) & keep)
            if near.size:
                total = a[near] + b[near]
                r = diff[near] / total
                c = s * (s - 1.0) / 6.0
                half = 0.5 * h * (0.5 * total) ** (s - 1.0)
                d_m = s + c * (s - 2.0) * r * r
                d_r = 2.0 * c * r
                dpa[:, near] = half * (d_m - d_r)
                dpb[:, near] = half * (d_m + d_r)
    if keep is not None:
        p = np.where(keep, p, 0.0)
        if gradient:
            dpa, dpb = np.where(keep, dpa, 0.0), np.where(keep, dpb, 0.0)
    return p, dpa if gradient else None, dpb if gradient else None


def _p1_formulas(gv, h, beta, q, gradient):
    """I_{beta,q} of the P1 interpolant and its gradient, from the formulas:
    the floored path (e + 1 <= 0) as two calls, one per exponent, and
    sign(D) |D|^(beta-1) at every beta."""
    e = beta * (q - 1.0) + 1.0 - beta
    exponents = np.array([[e], [q]])
    left, right = gv[:-1], gv[1:]
    gmin = float(gv.min())
    keep = None if gmin > 0.0 else (left > 0.0) | (right > 0.0)
    if e + 1.0 > 0.0 or gmin > support_floor(gv):
        exps = exponents[1:] if e == 0.0 else exponents
        p, dpa, dpb = _cell_integrals_formulas(gv, exps, h, keep, gradient)
    else:
        floor = support_floor(gv)
        above_l, above_r = left > floor, right > floor
        pe, dea, deb = _cell_integrals_formulas(np.maximum(gv, floor), exponents[:1], h,
                                                above_l | above_r, gradient)
        pq, dqa, dqb = _cell_integrals_formulas(gv, exponents[1:], h, keep, gradient)
        p = np.concatenate([pe, pq])
        if gradient:
            dpa = np.concatenate([dea * above_l, dqa])
            dpb = np.concatenate([deb * above_r, dqb])
    pq = p[-1]
    pe = h if e == 0.0 else p[0]
    d = (right - left) / h
    dv = np.sign(d) * np.abs(d) ** (beta - 1.0)
    k = d * dv
    m_q = float(pq.sum())
    pref = (q / m_q) ** beta
    value = pref * float(np.sum(k * pe))
    if not gradient:
        return value, None
    grad = gradient_adjoint((pref * beta) * pe * dv, h)
    c = beta * value / m_q
    to_left, to_right = -c * dpa[-1], -c * dpb[-1]
    if e != 0.0:
        pk = pref * k
        to_left += pk * dpa[0]
        to_right += pk * dpb[0]
    grad[:-1] += to_left
    grad[1:] += to_right
    return value, grad


def _kernel_inputs():
    """Node values on [-4, 4] (61 points, so that h is no power of 2) that
    reach every branch of the kernel: pinned zero ends, cells whose two ends
    are 0, far cells (x >= 1/2) with a zero end and with two positive ends,
    series cells (x <= SERIES_REL), and values below the support floor."""
    x = np.linspace(-4.0, 4.0, 61)
    bump = np.exp(-0.5 * x * x)
    pinned = bump.copy()
    pinned[[0, -1]] = 0.0
    compact = np.maximum(1.0 - x * x / 6.25, 0.0) ** 2
    compact[29:32] = compact[30] * (1.0 + 1e-5 * np.arange(-1.0, 2.0))  # series cells
    compact[20] *= 0.3  # a jump between two positive ends
    floored = np.where(np.abs(x) > 3.5, 1e-19, bump)  # positive, some below the floor
    return {"full": bump, "pinned": pinned, "compact": compact, "floored": floored}


def test_kernel_inputs_reach_every_branch():
    vals = _kernel_inputs()
    a, b = vals["compact"][:-1], vals["compact"][1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.abs(b - a) / np.maximum(a, b)
    both_zero = (a == 0.0) & (b == 0.0)
    assert both_zero.any()
    assert ((x >= 0.5) & (np.minimum(a, b) > 0.0)).any()
    assert ((x >= 0.5) & (np.minimum(a, b) == 0.0)).any()
    assert ((x <= SERIES_REL) & (a != b)).any()
    assert vals["floored"].min() > 0.0
    assert vals["floored"].min() <= support_floor(vals["floored"])


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("q", [0.8, 1.0, 1.2, 1.5, 2.0])
def test_p1_parts_is_the_formulas_bit_for_bit(q, beta):
    # the kernel writes its temporaries in place, stacks the floored path's
    # two rows into one call, skips all-True masks and takes D itself as
    # sign(D)|D|^(beta-1) at beta = 2; none of that may move one bit
    grid = GridSpec.line(-4.0, 4.0, 61)
    kernel = QFisherKernel(grid, beta, q)
    (h,) = grid.spacing
    for name, vals in _kernel_inputs().items():
        gv = vals / float(grid.trap_weights() @ vals)
        for gradient in (False, True):
            value, grad = kernel.parts(gv, gradient)
            ref_value, ref_grad = _p1_formulas(gv, h, beta, q, gradient)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes(), name
            if gradient:
                assert grad.tobytes() == ref_grad.tobytes(), name
