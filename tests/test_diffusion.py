"""Nonlinear diffusion: conservation, classical limits, entropy production."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qfisher import (
    DiffusionState,
    GridDensity,
    GridSpec,
    ParameterError,
    UnstableStep,
    debruijn_check,
    debruijn_series,
    diffusion,
    evolve,
    stable_dt,
    step,
    tsallis_entropy,
    zoo,
)
from qfisher.grid import support_floor


def _heat_state(sigma0=0.3, points=2048, half=3.0):
    grid = GridSpec.line(-half, half, points)
    return DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, sigma0), t=0.0, m_exp=1.0, beta=2.0
    )


def test_state_validation():
    g1 = zoo.gaussian_density(GridSpec.line(-3.0, 3.0, 256), 0.0, 0.3)
    with pytest.raises(ValueError):
        DiffusionState(density=g1, t=0.0, m_exp=1.0, beta=1.0)
    with pytest.raises(ValueError):
        DiffusionState(density=g1, t=0.0, m_exp=0.0, beta=2.0)
    g2 = zoo.gaussian_density(GridSpec.box(-3.0, 3.0, 32, 2), 0.0, 0.3)
    with pytest.raises(ValueError):
        DiffusionState(density=g2, t=0.0, m_exp=1.0, beta=2.0)


def test_exponent_bookkeeping():
    s = DiffusionState(
        density=zoo.gaussian_density(GridSpec.line(-3.0, 3.0, 256), 0.0, 0.3),
        t=0.0,
        m_exp=1.2,
        beta=3.0,
    )
    assert s.alpha == pytest.approx(1.5)
    assert s.q == pytest.approx(1.2 + 1.0 - 0.5)


def test_step_conserves_mass_and_time():
    s = _heat_state()
    dt = stable_dt(s)
    s1 = step(s, dt)
    assert s1.t == pytest.approx(dt)
    assert s1.density.integral(s1.density.values) == pytest.approx(1.0, abs=1e-12)


def test_heat_flow_variance_growth():
    s = _heat_state(sigma0=0.3)
    out = evolve(s, 0.02)
    assert out.t == pytest.approx(0.02, abs=1e-14)
    (x,) = out.density.grid.axes()
    var = out.density.expectation(x**2) - out.density.expectation(x) ** 2
    assert var == pytest.approx(0.3**2 + 2.0 * 0.02, rel=1e-4)


def test_heat_flow_matches_gaussian_profile():
    s = _heat_state(sigma0=0.3)
    out = evolve(s, 0.02)
    sigma_t = np.sqrt(0.3**2 + 2.0 * 0.02)
    ref = zoo.gaussian_density(out.density.grid, 0.0, sigma_t)
    l1 = out.density.integral(np.abs(out.density.values - ref.values))
    assert l1 < 1e-4


def test_entropy_never_decreases():
    for m_exp, beta in [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (1.5, 2.5)]:
        s = DiffusionState(
            density=zoo.mixture_density(
                GridSpec.line(-3.0, 3.0, 1024), (-0.6, 0.5), (0.18, 0.22), (0.5, 0.5)
            ),
            t=0.0,
            m_exp=m_exp,
            beta=beta,
        )
        q = s.q
        last = tsallis_entropy(s.density, q)
        for _ in range(40):
            s = step(s, stable_dt(s))
            cur = tsallis_entropy(s.density, q)
            assert cur >= last - 1e-12 * max(1.0, abs(last))
            last = cur


def test_unstable_dt_raises():
    # one explicit step goes negative once dt exceeds f/|f''| at the peak
    s = _heat_state(points=512)
    with pytest.raises(UnstableStep):
        step(s, 5000.0 * stable_dt(s))


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_stable_dt_at_m1_is_the_face_formula_bit_for_bit(beta):
    # 0.4 dx^2 / max of (beta-1)|D|^(beta-2) m f_face^(m-1), here with m = 1
    s = DiffusionState(density=zoo.random_density(GridSpec.line(-6.0, 6.0, 512), 2), t=0.0,
                       m_exp=1.0, beta=beta)
    f, dx = s.density.values, s.dx
    d = np.abs((f[1:] - f[:-1]) / dx)
    grad_part = 1.0 if beta == 2.0 else np.maximum(d, 1e-12 * d.max()) ** (beta - 2.0)
    diffusivity = (beta - 1.0) * grad_part * 1.0 * np.maximum(f[:-1], f[1:]) ** 0.0
    assert stable_dt(s) == 0.4 * dx**2 / float(diffusivity.max())


def test_flat_state_has_no_stable_scale():
    grid = GridSpec.line(-1.0, 1.0, 128)
    flat = GridDensity.from_values(grid, np.ones(128), check_boundary=False)
    s = DiffusionState(density=flat, t=0.0, m_exp=1.0, beta=3.0)
    with pytest.raises(UnstableStep):
        stable_dt(s)
    # for beta = 2 the diffusivity does not involve the gradient, so a flat
    # state still has a step size and stepping it is a no-op
    s2 = DiffusionState(density=flat, t=0.0, m_exp=1.0, beta=2.0)
    dt = stable_dt(s2)
    assert np.isfinite(dt) and dt > 0.0
    np.testing.assert_array_equal(step(s2, dt).density.values, flat.values)


def test_slow_p_laplacian_needs_no_flat_face():
    # for beta < 2 the diffusivity |D|^(beta-2) diverges where a face is
    # flat, so the CFL step is refused rather than shrunk towards 0; the
    # 0.05-wide start on [-3, 3] underflows in its tails and, at an even
    # node count, has a zero slope at its central face
    grid = GridSpec.line(-3.0, 3.0, 256)
    s = DiffusionState(density=zoo.gaussian_density(grid, 0.0, 0.05), t=0.0, m_exp=1.0, beta=1.5)
    with pytest.raises(UnstableStep, match="223 of 255"):
        stable_dt(s)
    # a start whose every face has slope keeps a usable step
    grid = GridSpec.line(-3.0, 3.0, 255)
    values = np.exp(-0.5 * grid.axes()[0] ** 2)
    dens = GridDensity.from_values(grid, values, check_boundary=False)
    s = DiffusionState(density=dens, t=0.0, m_exp=1.0, beta=1.5)
    assert stable_dt(s) == pytest.approx(3.07e-5, rel=1e-2)


def test_fast_diffusion_needs_positive_values():
    # for m < 1 the diffusivity m f^(m-1) is infinite where f = 0, so no
    # step can be stable on a compactly supported state
    grid = GridSpec.line(-2.0, 2.0, 256)
    (x,) = grid.axes()
    dens = GridDensity.from_values(grid, np.maximum(1.0 - x**2, 0.0), check_boundary=False)
    s = DiffusionState(density=dens, t=0.0, m_exp=0.5, beta=2.0)
    with pytest.raises(UnstableStep, match="m < 1"):
        stable_dt(s)


def test_porous_medium_self_similar_spreading():
    # m = 2, beta = 2 is the porous medium flow; the compact self-similar
    # profile c - x^2/(12 t^(2/3)) scaled by t^(-1/3) propagates in shape
    c = (3.0 / (4.0 * np.sqrt(12.0))) ** (2.0 / 3.0)

    def profile(grid, t):
        (x,) = grid.axes()
        vals = np.maximum(c - x**2 / (12.0 * t ** (2.0 / 3.0)), 0.0) / t ** (1.0 / 3.0)
        return GridDensity.from_values(grid, vals, check_boundary=False)

    grid = GridSpec.line(-2.0, 2.0, 1024)
    t0, t1 = 0.05, 0.15
    s = DiffusionState(density=profile(grid, t0), t=t0, m_exp=2.0, beta=2.0)
    out = evolve(s, t1)
    ref = profile(grid, t1)
    l1 = out.density.integral(np.abs(out.density.values - ref.values))
    assert l1 < 2e-2


def test_debruijn_heat_case_is_sharp():
    # m = 1, beta = 2 pairs with q = 1: dS/dt equals the Fisher information,
    # which for the evolving Gaussian is 1/sigma^2(t)
    sigma0 = 0.2
    s = _heat_state(sigma0=sigma0, points=4096, half=2.0)
    s = evolve(s, 0.004)
    rep = debruijn_check(s)
    assert rep.rel_err < 1e-6
    sigma_t_sq = sigma0**2 + 2.0 * rep.t
    assert rep.rhs == pytest.approx(1.0 / sigma_t_sq, rel=1e-6)
    assert rep.excluded_mass < 1e-12


@pytest.mark.parametrize("m_exp,beta", [(1.0, 2.0), (2.0, 2.0), (1.5, 2.5), (1.0, 3.0)])
def test_debruijn_identity_along_flow(m_exp, beta):
    grid = GridSpec.line(-2.0, 2.0, 2048)
    s = DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, 0.2), t=0.0, m_exp=m_exp, beta=beta
    )
    reports = debruijn_series(s, t_final=0.008, n_checks=3, t_burn=0.002)
    assert len(reports) == 3
    assert all(b.t > a.t for a, b in zip(reports, reports[1:]))
    worst = max(r.rel_err for r in reports)
    assert worst < 1e-3


def test_debruijn_rel_err_shrinks_under_refinement():
    errs = []
    for points in (1024, 2048, 4096):
        s = _heat_state(sigma0=0.25, points=points, half=2.0)
        s = DiffusionState(density=s.density, t=0.0, m_exp=1.5, beta=2.0)
        s = evolve(s, 0.004)
        errs.append(debruijn_check(s).rel_err)
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


@pytest.mark.parametrize("m_exp,beta", [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (1.5, 2.5)])
def test_debruijn_lhs_is_the_exact_entropy_rate(m_exp, beta):
    grid = GridSpec.line(-3.0, 3.0, 512)
    s = DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, 0.04), t=0.0, m_exp=m_exp, beta=beta
    )
    s = evolve(s, 0.01)
    f, q = s.density.values, s.q
    lhs = debruijn_check(s).lhs
    lf, slope = diffusion._flux_divergence(f, diffusion._FluxBuffers.of(s))
    # summation by parts: sum_i h s'(f_i) L(f)_i equals minus the face sum
    # of F Delta s'(f), i.e. (q/(q-1)) sum F Delta f^(q-1), or sum F Delta ln f
    # at q = 1; nodes at or below the support floor carry s' = 0 on both sides
    flux = np.sign(slope) * np.abs(slope) ** (beta - 1.0)
    on = f > support_floor(f)
    fs = np.where(on, f, 1.0)
    if q == 1.0:
        face_sum = np.sum(flux * np.diff(np.where(on, np.log(fs), 0.0)))
    else:
        face_sum = q / (q - 1.0) * np.sum(flux * np.diff(np.where(on, fs ** (q - 1.0), 0.0)))
    assert lhs == pytest.approx(face_sum, rel=1e-13)

    # and a centered difference of S_q along +-tau L(f) recovers it
    def entropy(values):
        dens = GridDensity.from_values(grid, values, normalize=False, check_boundary=False)
        return tsallis_entropy(dens, q)

    tau = 1e-7
    rate = (entropy(f + tau * lf) - entropy(f - tau * lf)) / (2.0 * tau)
    assert lhs == pytest.approx(rate, rel=1e-8)


def test_series_validates_n_checks():
    s = _heat_state(points=512)
    with pytest.raises(ValueError):
        debruijn_series(s, t_final=0.01, n_checks=0)


@pytest.mark.parametrize("n_checks", [1, 3])
def test_series_refuses_a_t_final_before_its_first_check(n_checks):
    # the first check is at max(t_burn, t); refused before any evolution
    s = _heat_state(points=256)
    with pytest.raises(ValueError, match="t_final"):
        debruijn_series(s, t_final=0.01, n_checks=n_checks, t_burn=0.02)
    with pytest.raises(ValueError, match="t_final"):
        debruijn_series(replace(s, t=0.02), t_final=0.01, n_checks=n_checks)
    assert s.counters.rhs_evals == 0


@pytest.mark.parametrize("m_exp, beta", [(1.0, 1.2), (1.0, 1.5), (0.2, 1.8)])
def test_series_refuses_nonpositive_entropy_order(m_exp, beta):
    # the flow is defined, S_q is not: refused before the first evolve
    grid = GridSpec.line(-3.0, 3.0, 255)
    s = DiffusionState(density=zoo.gaussian_density(grid, 0.0, 0.3), t=0.0, m_exp=m_exp,
                       beta=beta)
    assert s.q <= 0.0
    with pytest.raises(ParameterError) as info:
        debruijn_series(s, t_final=0.05, n_checks=2)
    assert info.value.names == ("m_exp", "beta")
    assert s.counters.rhs_evals == 0


def _explicit_loop(state, t_final):
    while state.t < t_final - 1e-15:
        state = step(state, min(stable_dt(state), t_final - state.t))
    return state


def _l1(density, values):
    # against a unit-mass density this is the relative L1 distance
    return density.integral(np.abs(density.values - values))


@pytest.mark.parametrize("sigma0", [0.04, 0.06])
@pytest.mark.parametrize("m_exp,beta", [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (1.5, 2.5)])
def test_super_steps_agree_with_explicit_steps(m_exp, beta, sigma0):
    grid = GridSpec.line(-3.0, 3.0, 512)
    start = DiffusionState(
        density=zoo.gaussian_density(grid, 0.0, sigma0), t=0.0, m_exp=m_exp, beta=beta
    )
    ref = start
    for t in (0.005, 0.02, 0.1):
        ref = _explicit_loop(ref, t)
        out = evolve(start, t)
        assert out.t == t
        assert _l1(out.density, ref.density.values) <= 5e-3


@pytest.mark.parametrize("t, bound", [(0.005, 2e-3), (0.02, 1e-3), (0.1, 5e-4)])
def test_sharp_heat_start_tracks_exact_gaussian(t, bound):
    # RKL2 damps the stiff modes of a sharp start only weakly; the cap on
    # each super step's span keeps the error at the explicit solver's level
    s = _heat_state(sigma0=0.04, points=512)
    out = evolve(s, t)
    (x,) = out.density.grid.axes()
    var = 0.04**2 + 2.0 * t
    exact = np.exp(-0.5 * x**2 / var) / np.sqrt(2.0 * np.pi * var)
    assert _l1(out.density, exact) <= bound


def test_negative_super_step_is_redone_explicitly(monkeypatch):
    # a one-node porous-medium spike with uncapped 100-stage super steps
    # drives a super step negative; that interval is redone explicitly
    monkeypatch.setattr(diffusion, "RKL2_MAX_STAGES", 100)
    monkeypatch.setattr(diffusion, "RKL2_MAX_CHANGE", math.inf)
    grid = GridSpec.line(-1.0, 1.0, 256)
    spike = np.zeros(256)
    spike[128] = 1.0

    def start():
        dens = GridDensity.from_values(grid, spike, check_boundary=False)
        return DiffusionState(density=dens, t=0.0, m_exp=2.0, beta=2.0)

    s = start()
    out = evolve(s, 2e-4)
    assert s.counters.super_steps >= 1
    assert s.counters.explicit_fallbacks >= 1
    assert out.density.values.min() >= 0.0
    ref = _explicit_loop(start(), 2e-4)
    np.testing.assert_allclose(out.density.values, ref.density.values, rtol=0.0, atol=1e-12)


def test_super_steps_cut_flux_evaluations():
    s = _heat_state(sigma0=0.2, points=4096, half=2.0)
    evolve(s, 0.008)
    c = s.counters
    # the heat-flow CFL step does not depend on the state
    assert c.dt_explicit_min == c.dt_explicit_max
    explicit_steps = math.ceil(0.008 / c.dt_explicit_max)
    assert c.super_steps > 0 and c.explicit_fallbacks == 0
    assert c.rhs_evals <= explicit_steps / 4


def _flux_divergence_reference(g, dx, m_exp, beta):
    """L(g) and the face slope D from the formulas, allocating every intermediate."""
    slope = np.diff(g**m_exp) / dx
    flux = slope if beta == 2.0 else np.sign(slope) * np.abs(slope) ** (beta - 1.0)
    return np.concatenate([[2.0 * flux[0]], np.diff(flux), [-2.0 * flux[-1]]]) / dx, slope


def _rkl2_reference(f0, l0, tau, s, dx, m_exp, beta, stage_mins):
    """One RKL2 super step as the formulas read (Meyer, Balsara & Aslam 2014);
    appends the least value of each stage the clip sees to `stage_mins`."""
    w1 = 1.0 / ((s * s + s - 2) / 4.0)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, s + 1)]
    y_prev, y = f0, f0 + (b[1] * w1 * tau) * l0
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        mu_t = mu * w1 * tau
        stage_mins.append(float(y.min()))
        lj, _ = _flux_divergence_reference(np.maximum(y, 0.0), dx, m_exp, beta)
        y_prev, y = y, (mu * y + nu * y_prev + (1.0 - mu - nu) * f0
                        + mu_t * lj - (1.0 - b[j - 1]) * mu_t * l0)
    return y


def _rippled_bump(points=512):
    """A compact bump on [-3, 3] with a ripple of +-1e-4 on part of its zero
    stretch: exact zeros, flat stretches, and nodes below 0, which every
    stage's clip then meets, as it meets a stage that dips."""
    grid = GridSpec.line(-3.0, 3.0, points)
    (x,) = grid.axes()
    values = np.maximum(1.0 - (x / 0.5) ** 2, 0.0) ** 2
    ripple = np.flatnonzero((np.abs(x) > 0.6) & (np.abs(x) < 1.2))
    values[ripple] = 1e-4 * (-1.0) ** ripple
    return values, grid.spacing[0]


def _assert_same_bits(a, b):
    # compared as bit patterns, so that -0.0 and 0.0 differ
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("m_exp", [1.0, 1.5, 2.0, 3.0])
def test_in_place_rkl2_matches_the_formulas_bit_for_bit(m_exp, beta):
    f0, dx = _rippled_bump()
    # the flux of the nonnegative part, as at every stage
    l0, slope = _flux_divergence_reference(np.maximum(f0, 0.0), dx, m_exp, beta)
    # the CFL step of the steepest face at the largest value
    grad_part = np.abs(slope).max() ** (beta - 2.0)
    dt_e = 0.4 * dx**2 / ((beta - 1.0) * grad_part * m_exp * f0.max() ** (m_exp - 1.0))
    f0_bits, l0_bits = f0.copy(), l0.copy()
    # one set of buffers serves every call, as within one evolve
    buf = diffusion._StageBuffers(f0.size, dx, m_exp, beta)
    stage_mins = []
    for stages in range(diffusion.RKL2_MAX_STAGES, 2, -1):
        tau = dt_e * diffusion._rkl2_reach(stages)
        ref = _rkl2_reference(f0, l0, tau, stages, dx, m_exp, beta, stage_mins)
        out = diffusion._rkl2(f0, l0, tau, stages, buf)
        assert np.isfinite(ref).all()
        _assert_same_bits(out, ref)
        _assert_same_bits(f0, f0_bits)
        _assert_same_bits(l0, l0_bits)
    assert min(stage_mins) < 0.0


@pytest.mark.parametrize("beta", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("m_exp", [1.0, 1.5, 2.0, 3.0])
def test_flux_divergence_matches_the_formulas_bit_for_bit(m_exp, beta):
    # exact zeros, flat stretches, subnormal steps and a -0.0 node; at
    # dx = 2.5 a subnormal step of f^m divides to a slope of -0.0, where
    # sign(D) is +0.0
    tiny = 5e-324 ** (1.0 / m_exp)
    values = np.array([0.0, 0.0, tiny, 0.0, -0.0, 0.0, 1.0, 1.0, 1.0, 0.5, tiny, 0.0,
                       2.0, 2.0, 0.25, 0.0, 0.0])
    for dx in (0.01, 2.5):
        flux_buf = diffusion._FluxBuffers(values.size, dx, m_exp, beta)
        stage_buf = diffusion._StageBuffers(values.size, dx, m_exp, beta).flux
        for buf, f in ((flux_buf, values), (stage_buf, np.maximum(values, 0.0))):
            div, slope = _flux_divergence_reference(f, dx, m_exp, beta)
            out_div, out_slope = diffusion._flux_divergence(f, buf)
            _assert_same_bits(out_slope, slope)
            _assert_same_bits(out_div, div)
    # the -0.0 slope is there to pin
    slope = diffusion._flux_divergence(values, diffusion._FluxBuffers(values.size, 2.5, 1.0, 3.0))[1]
    assert np.any((slope == 0.0) & np.signbit(slope))


@pytest.mark.parametrize("m_exp,beta", [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0)])
def test_evolved_states_own_their_values(m_exp, beta):
    grid = GridSpec.line(-3.0, 3.0, 512)
    s0 = DiffusionState(density=zoo.gaussian_density(grid, 0.0, 0.05), t=0.0,
                        m_exp=m_exp, beta=beta)
    start = s0.density.values.copy()
    s1 = evolve(s0, 0.005)
    kept = s1.density.values.copy()
    s2, s2_again = evolve(s1, 0.01), evolve(s1, 0.01)
    np.testing.assert_array_equal(s0.density.values, start, strict=True)
    np.testing.assert_array_equal(s1.density.values, kept, strict=True)
    np.testing.assert_array_equal(s2.density.values, s2_again.density.values, strict=True)
    assert not np.shares_memory(s2.density.values, s2_again.density.values)


# q = 1, 1.5, 2 and 11/6: at 1.5 and 2, 1 - q is a power of 2, so only
# q = 11/6 pins the rounding of (M_q - 1)/(1 - q)
@pytest.mark.parametrize("m_exp,beta", [(1.0, 2.0), (1.0, 3.0), (2.0, 2.0), (1.5, 2.5)])
def test_debruijn_entropy_is_the_tsallis_entropy_bit_for_bit(m_exp, beta):
    grid = GridSpec.line(-3.0, 3.0, 512)
    s = evolve(DiffusionState(density=zoo.gaussian_density(grid, 0.0, 0.05), t=0.0,
                              m_exp=m_exp, beta=beta), 0.01)
    rep = debruijn_check(s)
    assert rep.entropy == float(tsallis_entropy(s.density, s.q))


@pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf, 0.05],
                         ids=["nan", "inf", "-inf", "before-t"])
def test_evolve_refuses_a_target_it_cannot_reach(t_final):
    # checked before any work: an infinite target would otherwise never return
    s = replace(_heat_state(points=256), t=0.1)
    with pytest.raises(ValueError, match="t_final"):
        evolve(s, t_final)
    assert s.counters.rhs_evals == 0


def test_evolve_to_the_state_time_is_a_no_op():
    s = replace(_heat_state(points=256), t=0.1)
    out = evolve(s, 0.1)
    assert out.t == 0.1
    np.testing.assert_array_equal(out.density.values, s.density.values, strict=True)
    assert s.counters.rhs_evals == 0


@pytest.mark.parametrize("dt", [0.0, -1e-6])
def test_step_refuses_a_step_that_is_not_forward(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        step(_heat_state(points=256), dt)
