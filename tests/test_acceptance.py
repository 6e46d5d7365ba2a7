"""Acceptance gate: eight desk-scale checks, one pass/fail line each.

Every test pins the tolerance it claims, so a regression anywhere in the
library trips exactly the criterion it breaks. Runtime caps are asserted
where the check is meant to stay interactive.
"""

import time

import numpy as np
import pytest

from qfisher import (
    EstimationProblem,
    GridSpec,
    HolderPair,
    QGaussianParams,
    UncertaintyParams,
    WaveFunction,
    chi_beta_g,
    coarse_grain,
    covariance_bound_check,
    densities,
    diffusion,
    make_q_gaussian,
    minimizer,
    q_cr_check,
    saturating_wavefunction,
    suggested_half_extent,
    uncertainty_check,
    zoo,
)
from qfisher.fisher import (
    ParametricFamily,
    chi2_limit_check,
    fisher_matrix_data_processing,
    gaussian_location_family,
)

PAIR22 = HolderPair.from_alpha(2.0)


def test_criterion_1_chi2_to_fisher_limit():
    # unit-variance Gaussian location family: the rescaled divergence
    # chi^2(f_{theta+t}, f_theta)/t^2 extrapolates to the Fisher information 1
    start = time.perf_counter()
    grid = GridSpec.line(-12.0, 12.0, 2048)
    fam = gaussian_location_family(grid, sigma=1.0)
    rep = chi2_limit_check(fam, fam.at(0.0), 0.0, beta=2.0)
    elapsed = time.perf_counter() - start
    assert rep.limit == pytest.approx(1.0, abs=1e-3)
    assert elapsed < 1.0


def test_criterion_2_qcr_saturation_sweep():
    # matched q-Gaussians saturate the moment-information product at the
    # dimension, compact supports (q > 1) included, without undershooting it;
    # quadrature error shrinks under 2x refinement
    start = time.perf_counter()
    pairs = {a: HolderPair.from_alpha(a) for a in (1.5, 2.0, 3.0)}
    for q in (0.8, 1.0, 1.2, 1.5, 2.0):
        for alpha in (1.5, 2.0, 3.0):
            params = QGaussianParams(q=q, alpha=alpha, gamma=1.0)
            half = suggested_half_extent(params)
            margins = []
            for n in (4096, 8192):
                g = make_q_gaussian(params, GridSpec.line(-half, half, n))
                margins.append(q_cr_check(g, pairs[alpha], q, 2.0).margin)
            assert abs(margins[0]) <= 1e-2, (q, alpha)
            assert margins[0] >= -1e-6, (q, alpha)
            assert abs(margins[1]) < abs(margins[0]), (q, alpha)
    assert time.perf_counter() - start < 10.0


def test_criterion_3_zoo_strictness():
    # 50 seeded non-q-Gaussian densities: the bound holds strictly and stays
    # separated from saturation for at least 90% of them
    grid = GridSpec.line(-10.0, 10.0, 2049)
    margins = np.array(
        [q_cr_check(zoo.random_density(grid, seed), PAIR22, 1.5, 2.0).margin
         for seed in range(50)]
    )
    assert margins.min() > 0.0
    assert (margins > 5e-2).sum() >= 45
    assert (margins < -1e-6).sum() == 0


def test_criterion_4_minimizer_reaches_q_gaussian():
    # quasi-Newton descent from a bimodal start lands on the saturating
    # q-Gaussian: product near 1 and never below it, shape near the fitted profile
    start = time.perf_counter()
    grid = GridSpec.line(-10.0, 10.0, 513)
    init = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    cfg = minimizer.MinimizationConfig(q=1.5, alpha=2.0, max_iters=5000, tol=1e-5)
    res = minimizer.minimize_q_fisher(init, cfg)
    elapsed = time.perf_counter() - start

    assert res.n_iters <= 5000
    assert res.objective == pytest.approx(1.0, abs=1e-2)
    assert res.objective >= 1.0 - 1e-6
    fitted = densities.fit_q_gaussian(res.argmin, 1.5, 2.0, 2.0)
    assert densities.l1_distance(res.argmin, fitted) < 2e-2
    assert elapsed < 60.0


def _debruijn_worst(m_exp, beta, n_points):
    grid = GridSpec.line(-2.0, 2.0, n_points)
    state = diffusion.DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, 0.2), t=0.0, m_exp=m_exp, beta=beta
    )
    reports = diffusion.debruijn_series(state, 0.008, 3, t_burn=0.002)
    return reports, max(r.rel_err for r in reports)


def test_criterion_5_debruijn_identity():
    # entropy production along the doubly nonlinear flow matches the
    # information functional at every sampled time past the burn-in
    sweep_worst = {}
    for m_exp, beta in ((1.0, 2.0), (1.5, 2.0), (2.0, 2.0), (1.0, 3.0)):
        reports, worst = _debruijn_worst(m_exp, beta, 4096)
        sweep_worst[(m_exp, beta)] = worst
        assert worst < 2e-2, (m_exp, beta)
        if (m_exp, beta) == (1.0, 2.0):
            # heat flow: entropy production has the closed form 1/sigma^2(t)
            for r in reports:
                analytic = 1.0 / (0.2**2 + 2.0 * r.t)
                assert r.lhs == pytest.approx(analytic, rel=1e-2)

    # discretization error decreases at least first order under refinement
    worsts = [_debruijn_worst(1.5, 2.0, n)[1] for n in (1024, 2048)]
    worsts.append(sweep_worst[(1.5, 2.0)])
    assert worsts[0] > worsts[1] > worsts[2]
    assert worsts[0] / worsts[1] > 1.4
    assert worsts[1] / worsts[2] > 1.4


def test_criterion_6_data_processing_monotonicity():
    # coarse-graining never increases the divergence, and the Fisher matrix
    # ordering holds, across 20 random triples and three block factors
    grid = GridSpec.line(-10.0, 10.0, 1920)
    for seed in range(20):
        f1, f2, g = zoo.random_triple(grid, seed)
        fam = ParametricFamily(density_at=lambda t, d=g: d, theta_dim=1,
                               kind="translation")
        for factor in (2, 4, 8):
            fine = chi_beta_g(f1, f2, g, 2.0)
            coarse = chi_beta_g(
                coarse_grain(f1, factor),
                coarse_grain(f2, factor),
                coarse_grain(g, factor),
                2.0,
            )
            assert fine - coarse >= -1e-9, (seed, factor)
            _, _, eig_margin = fisher_matrix_data_processing(fam, g, 0.0, factor)
            assert eig_margin >= -1e-8, (seed, factor)


def test_criterion_7_uncertainty_bound():
    grid = GridSpec.line(-12.0, 12.0, 2049)
    (x,) = grid.axes()

    # Weyl-Heisenberg reduction: unit Gaussian hits 1/(4 pi)
    psi = WaveFunction.from_values(grid, np.exp(-(x**2) / 4.0))
    rep = uncertainty_check(psi, UncertaintyParams(q=1.0, beta=2.0))
    assert rep.lhs == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-4)

    # 30-member wave-function zoo never dips below the bound
    worst = np.inf
    for seed in range(30):
        rand = WaveFunction.from_values(grid, zoo.random_wavefunction(grid, seed))
        for q in (0.9, 1.0, 1.1):
            worst = min(worst, uncertainty_check(rand, UncertaintyParams(q=q, beta=2.0)).margin)
    assert worst >= -1e-6

    # q-Gaussian-modulus profiles saturate
    for q in (0.9, 1.0, 1.1, 1.2, 1.5):
        p = UncertaintyParams(q=q, beta=2.0)
        sat = uncertainty_check(saturating_wavefunction(grid, p), p)
        assert sat.lhs == pytest.approx(sat.rhs, rel=1e-2), q


def test_criterion_8_covariance_bound():
    # 2D anisotropic Gaussian: sampled error covariance dominates the matrix
    # bound up to Monte Carlo noise
    grid2 = GridSpec.box(-11.0, 11.0, 176, 2)
    fam2 = gaussian_location_family(grid2, sigma=(1.0, 1.5))
    prob2 = EstimationProblem(
        fam=fam2,
        statistic=lambda coords: np.stack(coords),
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(2),
        g=fam2.at((0.0, 0.0)),
        pair=PAIR22,
        m_dim=2,
    )
    rep2 = covariance_bound_check(prob2, (0.0, 0.0), n_samples=100_000, seed=0)
    assert rep2.min_eig >= -3.0 * rep2.stderr
    assert rep2.psd_margin >= 0.0

    # efficient 1D estimator: sampled variance matches the bound to 3 SE
    grid1 = GridSpec.line(-12.0, 12.0, 2048)
    fam1 = gaussian_location_family(grid1, sigma=1.0)
    prob1 = EstimationProblem(
        fam=fam1,
        statistic=lambda coords: coords[0],
        h=lambda theta: theta,
        h_jacobian=lambda theta: np.eye(1),
        g=fam1.at(0.0),
        pair=PAIR22,
    )
    rep1 = covariance_bound_check(prob1, 0.0, n_samples=100_000, seed=0)
    gap = abs(rep1.empirical[0, 0] - rep1.bound[0, 0])
    assert gap <= 3.0 * rep1.stderr
