"""Divergence quadrature against closed forms, and the coarse-graining DPI."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfisher import (
    GridDensity,
    GridSpec,
    SupportMismatch,
    chi_beta,
    chi_beta_g,
    coarse_grain,
    holder_statistic_bound,
    zoo,
)

# chi^2 between unit-variance Gaussians mean mu apart is exp(mu^2) - 1
CHI2_SHIFT_01 = 0.010050167084168058

GRID = GridSpec.line(-12.0, 12.0, 4096)


def _gauss(mean):
    return zoo.gaussian_density(GRID, mean=mean, sigma=1.0)


def test_chi2_gaussian_closed_form():
    res = chi_beta(_gauss(0.1), _gauss(0.0), beta=2.0)
    assert type(res) is float
    assert res == pytest.approx(CHI2_SHIFT_01, rel=1e-9)


def test_chi2_symmetric_in_shift_sign():
    up = chi_beta(_gauss(0.1), _gauss(0.0), beta=2.0)
    down = chi_beta(_gauss(-0.1), _gauss(0.0), beta=2.0)
    assert up == pytest.approx(down, rel=1e-12)


def test_chi_beta_reduces_to_modified_form():
    f1, f2 = _gauss(0.3), _gauss(0.0)
    plain = chi_beta(f1, f2, beta=1.7)
    routed = chi_beta_g(f1, f2, f2, beta=1.7)
    assert plain == routed


def test_chi_beta_g_matches_direct_quadrature():
    f1, f2, g = zoo.random_triple(GridSpec.line(-8.0, 8.0, 512), seed=3)
    beta = 2.4
    w = g.grid.trap_weights()
    mask = g.values > 1e-12 * g.values.max()
    integrand = np.where(
        mask,
        np.abs(f2.values - f1.values) ** beta * np.where(mask, g.values, 1.0) ** (1.0 - beta),
        0.0,
    )
    oracle = float((w * integrand).sum())
    assert chi_beta_g(f1, f2, g, beta) == pytest.approx(oracle, rel=1e-13)


def test_identical_densities_give_zero():
    f = _gauss(0.0)
    assert chi_beta(f, f, beta=2.0) == 0.0
    assert chi_beta_g(f, f, _gauss(0.2), beta=3.0) == 0.0


def test_beta_must_exceed_one():
    f = _gauss(0.0)
    with pytest.raises(ValueError):
        chi_beta(f, _gauss(0.1), beta=1.0)
    with pytest.raises(ValueError):
        chi_beta(f, _gauss(0.1), beta=0.5)


def test_grid_mismatch_rejected():
    other = zoo.gaussian_density(GridSpec.line(-12.0, 12.0, 2048), 0.0, 1.0)
    with pytest.raises(ValueError):
        chi_beta(_gauss(0.0), other, beta=2.0)


def test_support_mismatch_raises():
    grid = GridSpec.line(-6.0, 6.0, 768)
    (x,) = grid.axes()
    # g vanishes on |x| > 1 while f1 - f2 has real weight out there
    g = GridDensity.from_values(grid, np.where(np.abs(x) <= 1.0, 1.0, 0.0), check_boundary=False)
    f1 = zoo.gaussian_density(grid, 0.0, 0.7)
    f2 = zoo.gaussian_density(grid, 0.35, 0.7)
    with pytest.raises(SupportMismatch):
        chi_beta_g(f1, f2, g, beta=2.0)


def test_full_support_shift_does_not_trip_support_check():
    # Gaussian tails sit below the mask floor but the clamped leak is rounding
    # scale, so the divergence is still finite and well defined
    res = chi_beta(_gauss(0.5), _gauss(0.0), beta=2.0)
    assert np.isfinite(res)
    assert res == pytest.approx(np.expm1(0.25), rel=1e-6)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("factor", [2, 4, 8])
def test_coarse_graining_contracts_divergence(beta, factor):
    grid = GridSpec.line(-8.0, 8.0, 512)
    for seed in range(8):
        f1, f2, g = zoo.random_triple(grid, seed)
        fine = chi_beta_g(f1, f2, g, beta)
        coarse = chi_beta_g(
            coarse_grain(f1, factor), coarse_grain(f2, factor), coarse_grain(g, factor), beta
        )
        assert coarse <= fine + 1e-9 * max(fine, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.floats(min_value=1.1, max_value=4.0),
    factor=st.sampled_from([2, 4, 8, 16]),
)
def test_dpi_property(seed, beta, factor):
    grid = GridSpec.line(-8.0, 8.0, 512)
    f1, f2, g = zoo.random_triple(grid, seed)
    try:
        fine = chi_beta_g(f1, f2, g, beta)
        coarse = chi_beta_g(
            coarse_grain(f1, factor), coarse_grain(f2, factor), coarse_grain(g, factor), beta
        )
    except SupportMismatch:
        # large beta can make the value hinge on tail ratios below the support
        # floor; the library refuses those instead of returning noise
        assume(False)
    assert coarse <= fine + 1e-9 * max(fine, 1.0)


def test_holder_bound_holds_and_is_tight_for_matched_statistic():
    grid = GridSpec.line(-10.0, 10.0, 1024)
    f1 = zoo.gaussian_density(grid, 0.2, 1.0)
    f2 = zoo.gaussian_density(grid, 0.0, 1.0)
    g = zoo.gaussian_density(grid, 0.0, 1.2)
    (x,) = grid.axes()
    bound = holder_statistic_bound(x, f1, f2, g, alpha=2.0, beta=2.0)
    assert bound.lhs == pytest.approx(0.2, rel=1e-9)
    assert bound.margin >= 0.0
    # Holder saturates when |T|^alpha is proportional to the chi integrand;
    # T = (f2 - f1)/g under g makes the two sides equal
    t_star = (f2.values - f1.values) / np.maximum(g.values, 1e-300)
    tight = holder_statistic_bound(t_star, f1, f2, g, alpha=2.0, beta=2.0)
    assert tight.lhs == pytest.approx(tight.rhs, rel=1e-12)


def test_holder_bound_random_statistics():
    grid = GridSpec.line(-8.0, 8.0, 512)
    rng = np.random.default_rng(7)
    f1, f2, g = zoo.random_triple(grid, seed=11)
    (x,) = grid.axes()
    for _ in range(12):
        coeff = rng.normal(size=3)
        t = coeff[0] * x + coeff[1] * np.sin(x) + coeff[2]
        for alpha, beta in [(2.0, 2.0), (1.5, 3.0), (3.0, 1.5)]:
            b = holder_statistic_bound(t, f1, f2, g, alpha=alpha, beta=beta)
            assert b.margin >= -1e-12 * max(b.rhs, 1.0)


def test_holder_requires_conjugate_exponents():
    grid = GridSpec.line(-8.0, 8.0, 256)
    f1, f2, g = zoo.random_triple(grid, seed=0)
    with pytest.raises(ValueError):
        holder_statistic_bound(grid.axes()[0], f1, f2, g, alpha=2.0, beta=3.0)
