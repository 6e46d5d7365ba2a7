import math

import numpy as np
import pytest

from qfisher import (
    GridDensity,
    GridSpec,
    QGaussianParams,
    block_average,
    coarse_grain,
    coarse_grid,
    escort,
    fit_q_gaussian,
    l1_distance,
    m_q_functional,
    make_q_gaussian,
    moment,
    q_gaussian_moment_scale,
    tsallis_entropy,
)
from qfisher.densities import suggested_half_extent
from qfisher.errors import (
    DegenerateEscort,
    GridTooCoarse,
    IncompatibleFactor,
    NonIntegrable,
    TruncationWarning,
)
from qfisher.zoo import gaussian_density

# closed forms for the standard normal, frozen to full precision
INV_SQRT_2PI = 0.3989422804014327  # peak of N(0,1)
M2_STD_NORMAL = 0.28209479177387814  # integral of N(0,1)^2 = 1/(2 sqrt(pi))
ABS_MOMENT_3 = 1.5957691216057308  # E|x|^3 = 2 sqrt(2/pi)
SHANNON_STD_NORMAL = 1.4189385332046727  # (1/2) ln(2 pi e)

STD_GRID = GridSpec.line(-12.0, 12.0, 4097)


def gaussian_m_q(q: float, sigma: float = 1.0, dims: int = 1) -> float:
    """Closed form M_q for an isotropic normal: (2*pi*sigma^2)^(dims*(1-q)/2) * q^(-dims/2)."""
    return (2.0 * math.pi * sigma**2) ** (dims * (1.0 - q) / 2.0) * q ** (-dims / 2.0)


@pytest.fixture(scope="module")
def std_normal():
    return gaussian_density(STD_GRID, 0.0, 1.0)


def test_gaussian_peak(std_normal):
    assert float(std_normal.values.max()) == pytest.approx(INV_SQRT_2PI, rel=1e-8)


def test_m_q_against_closed_form(std_normal):
    assert m_q_functional(std_normal, 2.0) == pytest.approx(M2_STD_NORMAL, rel=1e-10)
    # the closed form covers all orders: (2 pi sigma^2)^((1-q)/2) / sqrt(q)
    for q in (0.5, 1.3, 2.0, 3.0):
        assert m_q_functional(std_normal, q) == pytest.approx(
            gaussian_m_q(q, 1.0), rel=1e-8
        )
    assert m_q_functional(std_normal, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_absolute_third_moment(std_normal):
    assert moment(std_normal, 3.0) == pytest.approx(ABS_MOMENT_3, rel=1e-10)


def test_tsallis_entropy_shannon_limit(std_normal):
    assert tsallis_entropy(std_normal, 1.0) == pytest.approx(SHANNON_STD_NORMAL, rel=1e-9)
    # continuity at the q = 1 junction
    near = tsallis_entropy(std_normal, 1.0 + 1e-9)
    assert near == pytest.approx(SHANNON_STD_NORMAL, abs=1e-5)


def test_tsallis_entropy_q2_closed_form(std_normal):
    # S_2 = 1 - integral(g^2) = 1 - 1/(2 sqrt(pi))
    assert tsallis_entropy(std_normal, 2.0) == pytest.approx(1.0 - M2_STD_NORMAL, rel=1e-10)


def test_escort_of_gaussian_rescales_variance():
    g = gaussian_density(STD_GRID, 0.0, 1.0)
    e = escort(g, 2.0)  # N(0,1)^2 normalized = N(0, 1/2)
    (x,) = STD_GRID.axes()
    assert e.expectation(x**2) == pytest.approx(0.5, rel=1e-10)


def test_escort_involution():
    g = gaussian_density(GridSpec.line(-14.0, 14.0, 2049), 0.3, 1.1)
    q = 1.7
    back = escort(escort(g, q), 1.0 / q)
    np.testing.assert_allclose(back.values, g.values, rtol=1e-10, atol=1e-16)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_escort_degenerate():
    grid = GridSpec.line(-1.0, 1.0, 129)
    (x,) = grid.axes()
    vals = np.full(129, 1e-250)
    vals[64] = 1.0
    g = GridDensity.from_values(grid, vals, check_boundary=False)
    with pytest.raises(DegenerateEscort):
        escort(g, 300.0)


def test_q_gaussian_normalization_constant():
    # q = 1.5, alpha = 2, gamma = 1: C = 15/(16 sqrt(2))
    p = QGaussianParams(1.5, 2.0, 1.0)
    g = make_q_gaussian(p, GridSpec.line(-1.6, 1.6, 4097))
    assert float(g.values.max()) == pytest.approx(15.0 / (16.0 * math.sqrt(2.0)), rel=1e-7)


def test_q_gaussian_second_moment_closed_form():
    # m_alpha = 1/(gamma (q alpha + q - 1)) for the matched generalized Gaussian
    for q, alpha, gamma in [(1.5, 2.0, 1.0), (1.2, 2.0, 0.7), (0.9, 2.0, 1.3), (1.4, 3.0, 1.0)]:
        p = QGaussianParams(q, alpha, gamma)
        half = suggested_half_extent(p)
        g = make_q_gaussian(p, GridSpec.line(-half, half, 8193))
        expect = q_gaussian_moment_scale(q, alpha) / gamma
        assert moment(g, alpha) == pytest.approx(expect, rel=1e-5)


def test_q_gaussian_q1_reduces_to_gaussian():
    p = QGaussianParams(1.0, 2.0, 0.5)  # exp(-x^2/2) -> N(0,1)
    g = make_q_gaussian(p, GridSpec.line(-12.0, 12.0, 4097))
    ref = gaussian_density(GridSpec.line(-12.0, 12.0, 4097), 0.0, 1.0)
    assert l1_distance(g, ref) < 1e-12


def test_q_gaussian_rejects_nonintegrable():
    with pytest.raises(NonIntegrable):
        QGaussianParams(q=-0.1, alpha=2.0, gamma=1.0)
    with pytest.raises(NonIntegrable):
        # 2D: need q > 1 - alpha/2 = 0.5
        QGaussianParams(q=0.2, alpha=1.0, gamma=1.0, dims=2)


def test_q_gaussian_grid_guards():
    p = QGaussianParams(1.5, 2.0, 1.0)  # support radius sqrt(2) ~ 1.414
    with pytest.raises(ValueError):
        make_q_gaussian(p, GridSpec.line(-1.0, 1.0, 257))  # support not covered
    with pytest.raises(GridTooCoarse):
        make_q_gaussian(p, GridSpec.line(-20.0, 20.0, 257))  # < 64 points across support


@pytest.mark.parametrize(
    "q, half, match",
    [(0.8, 2.0, "< 4 scales"), (1.5, 0.5, "does not cover the support radius")],
)
def test_q_gaussian_box_too_small_is_grid_too_coarse(q, half, match):
    # 2 < 4 scales for the q = 0.8 tail; 0.5 < sqrt(2) for the q = 1.5 support
    p = QGaussianParams(q, 2.0, 1.0)
    with pytest.raises(GridTooCoarse, match=match):
        make_q_gaussian(p, GridSpec.line(-half, half, 4096))


@pytest.mark.filterwarnings("ignore::qfisher.errors.BoundaryMassWarning")
def test_moment_warns_on_truncation():
    p = QGaussianParams(0.8, 2.0, 1.0)  # heavy power tail
    g = make_q_gaussian(p, GridSpec.line(-4.0, 4.0, 513))
    with pytest.warns(TruncationWarning):
        moment(g, 2.0)


def test_block_average_shapes_and_mean():
    v = np.arange(12.0)
    out = block_average(v, 4)
    np.testing.assert_allclose(out, [1.5, 5.5, 9.5])
    with pytest.raises(IncompatibleFactor):
        block_average(v, 5)
    sq = np.arange(16.0).reshape(4, 4)
    out2 = block_average(sq, 2)
    assert out2.shape == (2, 2)
    assert out2[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))


def test_coarse_grain_preserves_mass():
    grid = GridSpec.line(-8.0, 8.0, 512)
    (x,) = grid.axes()
    g = GridDensity.from_values(grid, np.exp(-0.5 * x**2))
    for k in (2, 4, 8):
        c = coarse_grain(g, k)
        # block means on the coarse lattice keep the plain-sum mass exactly
        assert c.values.sum() * coarse_grid(grid, k).spacing[0] == pytest.approx(
            g.values.sum() * grid.spacing[0], rel=1e-14
        )


def test_coarse_grid_centroids():
    grid = GridSpec.line(0.0, 7.0, 8)  # spacing 1, nodes 0..7
    cg = coarse_grid(grid, 4)
    (ax,) = cg.axes()
    np.testing.assert_allclose(ax, [1.5, 5.5])


def test_fit_q_gaussian_recovers_parameters():
    p = QGaussianParams(1.5, 2.0, 0.8)
    grid = GridSpec.line(-2.0, 2.0, 4097)
    g = make_q_gaussian(p, grid)
    fitted = fit_q_gaussian(g, 1.5, 2.0)
    assert l1_distance(g, fitted) < 1e-6


Q1 = QGaussianParams(q=1.0, alpha=2.0, gamma=1.0)
WIDE = GridSpec.line(-3.0, 3.0, 9)
DENSITY_REFUSALS = {
    "moment-order-0": (lambda: moment(gaussian_density(STD_GRID), 0.0), ValueError, "positive"),
    "moment-norm-p-below-1": (lambda: moment(gaussian_density(STD_GRID), 2.0, 0.5), ValueError,
                              "norm_p"),
    "make-dims": (lambda: make_q_gaussian(Q1, GridSpec.box(-8.0, 8.0, 65, 2)), ValueError,
                  "dims"),
    "make-few-points": (lambda: make_q_gaussian(Q1, GridSpec.line(-8.0, 8.0, 63)),
                        GridTooCoarse, ">= 64 points"),
    "escort-q-0": (lambda: escort(gaussian_density(STD_GRID), 0.0), ValueError, "positive"),
    "m-q-0": (lambda: m_q_functional(gaussian_density(STD_GRID), 0.0), ValueError, "positive"),
    "tsallis-q-0": (lambda: tsallis_entropy(gaussian_density(STD_GRID), 0.0), ValueError,
                    "positive"),
    "moment-scale-diverges": (lambda: q_gaussian_moment_scale(0.4, 1.0), NonIntegrable,
                              "diverges"),
    "l1-across-grids": (lambda: l1_distance(gaussian_density(STD_GRID),
                                            gaussian_density(GridSpec.line(-12.0, 12.0, 4096))),
                        ValueError, "different grids"),
    "coarse-grain-mass": (lambda: coarse_grain(GridDensity(WIDE, np.ones(9) / 6.0), 3),
                          GridTooCoarse, "factor 3"),
    "coarse-grain-one-point": (lambda: coarse_grain(GridDensity(GridSpec.line(-1.5, 1.5, 4),
                                                                np.ones(4) / 3.0), 4),
                               GridTooCoarse, "factor 4 leaves 1 coarse point of the 4 points"),
}


@pytest.mark.parametrize("call, error, match", DENSITY_REFUSALS.values(), ids=DENSITY_REFUSALS)
def test_density_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
