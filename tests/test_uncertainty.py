"""Fourier analysis on the grid and the entropic-moment uncertainty bound."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qfisher import (
    AliasingWarning,
    BoundaryMassWarning,
    GridSpec,
    GridTooCoarse,
    UncertaintyParams,
    WaveFunction,
    fourier_transform,
    frequency_grid,
    saturating_wavefunction,
    uncertainty_check,
    zoo,
)
from qfisher.densities import escort, m_q_functional
from qfisher.errors import NonIntegrable, ParameterError
import qfisher.grid as grid_module
from qfisher.grid import GridDensity, boundary_abs_max
from qfisher.uncertainty import _check_spectrum, _power_spectrum

GRID = GridSpec.line(-12.0, 12.0, 2049)


def _gaussian_psi(grid, sigma=1.0, center=0.0):
    (x,) = grid.axes()
    return WaveFunction.from_values(grid, np.exp(-((x - center) ** 2) / (4.0 * sigma**2)))


def test_wavefunction_normalization_contract():
    (x,) = GRID.axes()
    raw = np.exp(-(x**2))
    psi = WaveFunction.from_values(GRID, raw)
    w = GRID.trap_weights()
    assert float((w * np.abs(psi.values) ** 2).sum()) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="does not match grid"):
        WaveFunction.from_values(GRID, raw[:-1])
    with pytest.raises(ValueError):
        WaveFunction.from_values(GRID, np.zeros_like(x))
    with pytest.raises(ValueError):
        WaveFunction.from_values(GRID, np.full_like(x, np.nan))


@pytest.mark.parametrize("peak", [1e200, 1e-200])
def test_norm_that_overflows_or_underflows_is_refused(peak):
    # |psi|^2 overflows at a 1e200 peak and underflows at 1e-200, so the
    # trapezoid norm is inf or 0; psi / norm used to come back as psi = 0
    (x,) = GRID.axes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonIntegrable, match="L2 norm"):
            WaveFunction.from_values(GRID, peak * np.exp(-(x**2)))
        # inside the range the values are psi / norm, as before
        raw = (1e150 * np.exp(-(x**2))).astype(complex)
        norm = math.sqrt(float((GRID.trap_weights() * np.abs(raw) ** 2).sum()))
        assert WaveFunction.from_values(GRID, raw).values.tobytes() == (raw / norm).tobytes()
    with pytest.raises(ValueError, match="identically zero") as err:
        WaveFunction.from_values(GRID, np.zeros_like(x))
    assert not isinstance(err.value, NonIntegrable)


def test_constructor_checks_shape_and_finiteness_and_holds_values_read_only():
    # the values a wave function is built from directly are checked as
    # from_values' are, so no later step meets a mismatched or NaN array
    with pytest.raises(ValueError, match=r"values shape \(64, 32\) does not match grid \(64, 64\)"):
        WaveFunction(GridSpec.box(-8.0, 8.0, 64, 2), np.ones((64, 32), complex))
    (x,) = GRID.axes()
    for bad in (np.nan, np.inf):
        raw = np.exp(-(x**2) / 4.0)
        raw[1000] = bad
        with pytest.raises(ValueError, match="non-finite"):
            WaveFunction(GRID, raw)
    # a writeable array is copied, a read-only complex one kept as it is
    raw = np.exp(-(x**2) / 4.0).astype(complex)
    psi = WaveFunction(GRID, raw)
    assert psi.values is not raw and not psi.values.flags.writeable
    raw[0] = 1.0
    assert psi.values[0] != 1.0
    assert WaveFunction(GRID, psi.values).values is psi.values
    assert WaveFunction(GRID, np.exp(-(x**2))).values.dtype == complex


def test_density_view_has_unit_mass():
    psi = _gaussian_psi(GRID, 1.3)
    dens = psi.density()
    assert dens.integral(dens.values) == pytest.approx(1.0, abs=1e-12)


def test_params_validation_and_derived_exponents():
    p = UncertaintyParams(q=1.1, beta=2.0)
    assert p.k == pytest.approx(2.0 / 1.2)
    assert p.lam == pytest.approx(1.1)
    assert p.bound == pytest.approx(1.0 / (2.0 * np.pi * p.k * 1.1))
    with pytest.raises(ValueError):
        UncertaintyParams(q=0.0, beta=2.0)
    with pytest.raises(ValueError):
        UncertaintyParams(q=1.0, beta=1.0)
    with pytest.raises(ValueError):
        UncertaintyParams(q=0.4, beta=2.0)  # beta(q-1)+1 <= 0
    with pytest.raises(ValueError):
        UncertaintyParams(q=1.0, beta=2.0, gamma_exp=1.5)


def test_frequency_grid_is_fftshifted_dual():
    fg = frequency_grid(GRID)
    (xi,) = fg.axes()
    ref = np.fft.fftshift(np.fft.fftfreq(2049, GRID.spacing[0]))
    np.testing.assert_allclose(xi, ref, rtol=0.0, atol=1e-12)
    assert np.all(np.diff(xi) > 0.0)


def test_fourier_transform_is_unitary():
    for seed in range(5):
        psi = WaveFunction.from_values(GRID, zoo.random_wavefunction(GRID, seed))
        phat = fourier_transform(psi)
        w = frequency_grid(GRID).trap_weights()
        norm = float((w * np.abs(phat.values) ** 2).sum())
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_double_transform_is_parity():
    # F^2 psi (x) = psi(-x); an odd point count makes the reversal exact on nodes
    psi = WaveFunction.from_values(GRID, zoo.random_wavefunction(GRID, 9))
    back = fourier_transform(fourier_transform(psi))
    np.testing.assert_allclose(back.values, psi.values[::-1], rtol=0.0, atol=1e-12)


def test_gaussian_transforms_to_gaussian():
    sigma = 0.8
    psi = _gaussian_psi(GRID, sigma)
    phat = fourier_transform(psi)
    fg = frequency_grid(GRID)
    (xi,) = fg.axes()
    s_hat_sq = 1.0 / (16.0 * np.pi**2 * sigma**2)
    ref = np.exp(-(xi**2) / (2.0 * s_hat_sq)) / np.sqrt(2.0 * np.pi * s_hat_sq)
    got = np.abs(phat.values) ** 2
    assert float((fg.trap_weights() * np.abs(got - ref)).sum()) < 1e-6


def test_translation_leaves_momentum_density_invariant():
    base = np.abs(fourier_transform(_gaussian_psi(GRID, 1.0, 0.0)).values) ** 2
    moved = np.abs(fourier_transform(_gaussian_psi(GRID, 1.0, 1.7)).values) ** 2
    np.testing.assert_allclose(moved, base, rtol=0.0, atol=1e-10)


def test_gaussian_saturates_heisenberg_case():
    psi = _gaussian_psi(GRID, 1.0)
    p = UncertaintyParams(q=1.0, beta=2.0)
    rep = uncertainty_check(psi, p)
    assert rep.rhs == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-12)
    assert rep.lhs == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-9)
    assert rep.saturated
    assert rep.diagnostics["k"] == pytest.approx(2.0)


def test_uncertainty_product_is_dilation_invariant():
    p = UncertaintyParams(q=1.1, beta=2.0)
    vals = []
    for lam in (0.5, 1.0, 2.0):
        grid = GridSpec.line(-12.0 * lam, 12.0 * lam, 2049)
        (x,) = grid.axes()
        psi = WaveFunction.from_values(grid, np.exp(-(x**2) / (4.0 * lam**2)))
        vals.append(uncertainty_check(psi, p).lhs)
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)
    assert vals[2] == pytest.approx(vals[1], rel=1e-9)


@pytest.mark.parametrize("q", [0.9, 1.0, 1.1, 1.5])
def test_saturating_wavefunction_touches_bound(q):
    p = UncertaintyParams(q=q, beta=2.0)
    psi = saturating_wavefunction(GRID, p)
    rep = uncertainty_check(psi, p)
    assert rep.margin == pytest.approx(0.0, abs=1e-9 * rep.rhs)
    assert rep.saturated


@pytest.mark.parametrize("q", [1.0 + 1e-9, 1.0 + 1e-6, 1.02])
@pytest.mark.parametrize("grid", [GRID, GridSpec.box(-12.0, 12.0, 257, 2)], ids=["1d", "2d"])
def test_saturating_wavefunction_just_above_q_1(grid, q):
    # the support edge at 0.6 of the half width gave a psi narrower than the
    # spacing as q -> 1+: at q = 1 + 1e-6 the transform's L2 norm was 0.99995
    p = UncertaintyParams(q=q, beta=2.0, dims=grid.dims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = uncertainty_check(saturating_wavefunction(grid, p), p)
    assert rep.margin == pytest.approx(0.0, abs=1e-10 * rep.rhs)
    assert rep.saturated


def test_bound_holds_on_zoo_wavefunctions():
    for seed in range(10):
        psi = WaveFunction.from_values(GRID, zoo.random_wavefunction(GRID, seed))
        for q in (0.9, 1.0, 1.1):
            for ge, te in ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0)):
                p = UncertaintyParams(q=q, beta=2.0, gamma_exp=ge, theta_exp=te)
                rep = uncertainty_check(psi, p)
                assert rep.margin > 0.0


def test_boundary_mass_warning():
    # boundary |psi| about 5e-5 of max: loud enough to warn (threshold 1e-8)
    # but the truncation ringing stays far below the output L2 tolerance
    with pytest.warns(BoundaryMassWarning):
        fourier_transform(_gaussian_psi(GRID, 1.9))


@pytest.mark.filterwarnings("ignore::qfisher.errors.BoundaryMassWarning")
def test_aliasing_warning_on_underresolved_oscillation():
    grid = GridSpec.line(-12.0, 12.0, 129)
    (x,) = grid.axes()
    xi_max = float(np.abs(np.fft.fftfreq(129, grid.spacing[0])).max())
    # broad carrier plus a faint packet at 0.92 of the top representable
    # frequency: well over 1e-6 of the spectral mass lands beyond 0.9 xi_max,
    # but the packet is narrow enough to leave the edge nodes (and hence the
    # output norm) untouched
    bump = 0.01 * np.exp(-(x**2) / 16.0) * np.exp(2.0j * np.pi * 0.92 * xi_max * x)
    psi = WaveFunction.from_values(grid, np.exp(-(x**2) / 4.0) + bump)
    with pytest.warns(AliasingWarning):
        fourier_transform(psi)


@pytest.mark.parametrize("amplitude", [1e-3, 1e-4])
def test_nyquist_ripple_is_too_coarse(amplitude):
    # the trapezoid rule halves the end nodes of the frequency grid, so the
    # ripple's content at the Nyquist frequency drops out of the norm
    grid = GridSpec.line(-8.0, 8.0, 1024)
    (x,) = grid.axes()
    # exp(-x^2/2) is clean at the box ends
    ripple = 1.0 + amplitude * (-1.0) ** np.arange(x.size)
    psi = WaveFunction.from_values(grid, np.exp(-x * x / 2.0) * ripple)
    with pytest.raises(GridTooCoarse, match="Nyquist"):
        fourier_transform(psi)


def test_transform_is_read_only_and_refuses_non_finite_values():
    phat = fourier_transform(_gaussian_psi(GRID, 1.3))
    assert not phat.values.flags.writeable
    # a WaveFunction built directly is checked at construction, so the
    # ValueError comes from the constructor before the transform runs
    (x,) = GRID.axes()
    raw = np.exp(-(x**2) / 4.0).astype(complex)
    raw[1000] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fourier_transform(WaveFunction(GRID, raw))


def _spectral_density(psi):
    """|psi_hat|^2 as a density: the power spectrum held to the transform's
    rules, as uncertainty_check takes it."""
    mag = np.abs(psi.values)
    grid_hat = frequency_grid(psi.grid)
    power = _power_spectrum(psi)
    _check_spectrum(power, grid_hat, boundary_abs_max(mag), float(mag.max()))
    return GridDensity(grid_hat, power)


def _product_through_escort(psi, p):
    """The product composed from `m_q_functional` and `escort`, each raising
    |psi|^2 to its own power, and the power spectrum: the reference for
    uncertainty_check's one pass."""
    rho = psi.density()
    m_half_k = m_q_functional(rho, p.k / 2.0)
    m_half_kq = m_q_functional(rho, p.k * p.q / 2.0)
    esc = escort(rho, p.k / 2.0)
    x_mom = esc.expectation(esc.grid.radius(2.0) ** p.gamma_exp)
    rho_hat = _spectral_density(psi)
    xi_mom = rho_hat.expectation(rho_hat.grid.radius(2.0) ** p.theta_exp)
    lhs = (np.sqrt(m_half_k) / m_half_kq * x_mom ** (1.0 / p.gamma_exp)
           * xi_mom ** (1.0 / p.theta_exp))
    return lhs, m_half_k, m_half_kq, x_mom, xi_mom


def _report_values(rep):
    d = rep.diagnostics
    return rep.lhs, d["m_k_half"], d["m_kq_half"], d["x_moment"], d["xi_moment"]


def _one_strip(grid, monkeypatch):
    """A 2D check sums as its composition does when the whole grid is one
    strip; a 1D grid always is."""
    monkeypatch.setattr(grid_module, "BLOCK", math.prod(grid.shape))


@pytest.mark.parametrize("grid", [GridSpec.line(-10.0, 10.0, 1024), GridSpec.box(-10.0, 10.0, 129, 2)],
                         ids=["1d-1024", "2d-129"])
@pytest.mark.parametrize("q, gamma_exp", [(0.9, 2.0), (1.0, 2.0), (1.2, 3.0), (1.5, 2.0)])
def test_uncertainty_check_matches_escort_composition_bit_for_bit(grid, q, gamma_exp, monkeypatch):
    p = UncertaintyParams(q=q, beta=2.0, gamma_exp=gamma_exp, dims=grid.dims)
    psis = [WaveFunction.from_values(grid, zoo.random_wavefunction(grid, seed)) for seed in range(4)]
    refs = [_product_through_escort(psi, p) for psi in psis]
    # in strips of BLOCK nodes the sums regroup the composition's
    for psi, ref in zip(psis, refs):
        assert _report_values(uncertainty_check(psi, p)) == pytest.approx(ref, rel=1e-13, abs=0.0)
    _one_strip(grid, monkeypatch)
    for psi, ref in zip(psis, refs):
        assert _report_values(uncertainty_check(psi, p)) == ref


def _recorded(f, *args):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = f(*args)
    return out, [(w.category, str(w.message)) for w in rec]


def _truncated_psi(grid):
    # |psi| is about 1e-3 of its max at the box faces: the transform warns and
    # renormalizes
    r2 = sum(c * c for c in grid.open_mesh())
    return WaveFunction.from_values(grid, np.broadcast_to(np.exp(-r2 / (4.0 * 1.9**2)), grid.shape))


@pytest.mark.parametrize("grid", [GridSpec.line(-10.0, 10.0, 1024), GridSpec.box(-10.0, 10.0, 129, 2)],
                         ids=["1d-1024", "2d-129"])
@pytest.mark.parametrize("case", ["theta-3", "compact-support", "truncated"])
def test_uncertainty_check_matches_composition_on_zeros_truncation_and_theta_3(grid, case, monkeypatch):
    _one_strip(grid, monkeypatch)
    if case == "theta-3":
        inputs = [(WaveFunction.from_values(grid, zoo.random_wavefunction(grid, seed)),
                   UncertaintyParams(q=q, beta=2.0, theta_exp=3.0, dims=grid.dims))
                  for seed, q in ((0, 0.9), (1, 1.2))]
    elif case == "compact-support":
        p = UncertaintyParams(q=1.5, beta=2.0, dims=grid.dims)
        inputs = [(saturating_wavefunction(grid, p), p)]
        assert np.any(inputs[0][0].values == 0.0)
    else:
        inputs = [(_truncated_psi(grid), UncertaintyParams(q=q, beta=2.0, dims=grid.dims))
                  for q in (1.0, 1.2)]
    for psi, p in inputs:
        rep, got_warnings = _recorded(uncertainty_check, psi, p)
        (lhs, m_half_k, m_half_kq, x_mom, xi_mom), ref_warnings = _recorded(_product_through_escort, psi, p)
        d = rep.diagnostics
        assert (d["m_k_half"], d["m_kq_half"], d["x_moment"], d["xi_moment"]) == (
            m_half_k, m_half_kq, x_mom, xi_mom)
        assert rep.lhs == lhs
        assert got_warnings == ref_warnings
        assert (BoundaryMassWarning in {c for c, _ in got_warnings}) == (case == "truncated")


def _outcome(f):
    """What f() returns, or the type and message of the GridTooCoarse it
    raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            out = f()
        except GridTooCoarse as err:
            out = (type(err), str(err))
    return out, [(w.category, str(w.message)) for w in rec]


def _spectrum_inputs(grid, case):
    r2 = sum(c * c for c in grid.open_mesh())
    if case == "real":
        return WaveFunction.from_values(grid, np.abs(zoo.random_wavefunction(grid, 3)))
    if case == "complex":
        return WaveFunction.from_values(grid, zoo.random_wavefunction(grid, 3))
    if case == "truncated":
        return _truncated_psi(grid)
    if case == "compact-support":
        return saturating_wavefunction(grid, UncertaintyParams(q=1.5, beta=2.0, dims=grid.dims))
    if case == "aliased":
        # a faint carrier at 0.92 of the top frequency of axis 0
        x0 = grid.open_mesh()[0]
        xi_max = float(np.abs(np.fft.fftfreq(grid.points[0], grid.spacing[0])).max())
        bump = 0.01 * np.exp(-r2 / 16.0) * np.cos(2.0 * np.pi * 0.92 * xi_max * x0)
        return WaveFunction.from_values(grid, np.broadcast_to(np.exp(-r2 / 4.0) + bump, grid.shape))
    # a ripple at the top frequency of axis 0, which the grid does not resolve
    ripple = 1.0 + 1e-3 * (-1.0) ** np.arange(grid.points[0]).reshape((-1,) + (1,) * (grid.dims - 1))
    return WaveFunction.from_values(grid, np.exp(-r2 / 2.0) * ripple)


@pytest.mark.parametrize("grid", [GridSpec.line(-10.0, 10.0, 1024), GridSpec.line(-12.0, 12.0, 129),
                                  GridSpec.box(-10.0, 10.0, 129, 2),
                                  GridSpec((-8.0, -9.0), (8.0, 9.0), (128, 129))],
                         ids=["1d-1024", "1d-129", "2d-129", "2d-128x129"])
@pytest.mark.parametrize("case", ["real", "complex", "truncated", "compact-support", "aliased",
                                  "nyquist"])
def test_power_spectrum_is_the_transforms_density(grid, case):
    # the check's |psi_hat|^2 takes no phase factor, and a real psi's the real
    # FFT: the transform's density but for rounding, under the same rules
    psi = _spectrum_inputs(grid, case)
    got, got_warnings = _outcome(lambda: _spectral_density(psi).values)
    ref, ref_warnings = _outcome(lambda: fourier_transform(psi).density().values)
    assert got_warnings == ref_warnings
    assert isinstance(ref, tuple) == (case == "nyquist")
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert np.abs(got - ref).max() <= 1e-13 * ref.max()
    categories = {c for c, _ in got_warnings}
    assert (case != "truncated") or BoundaryMassWarning in categories
    assert (case != "aliased") or AliasingWarning in categories


@pytest.mark.parametrize("grid", [GridSpec.line(-10.0, 10.0, 1024), GridSpec.line(-12.0, 12.0, 2049),
                                  GridSpec((-8.0, -9.0), (8.0, 9.0), (128, 97)),
                                  GridSpec((-8.0, -9.0), (8.0, 9.0), (97, 128)),
                                  GridSpec((-4.0,) * 3, (4.0,) * 3, (16, 17, 18))],
                         ids=["1d-1024", "1d-2049", "2d-128x97", "2d-97x128", "3d"])
def test_real_and_complex_routes_of_the_power_spectrum_agree(grid):
    # i psi has the same |FFT|^2 as psi and takes the complex route
    psi = WaveFunction.from_values(grid, np.abs(zoo.random_wavefunction(grid, 7)))
    turned = WaveFunction(grid, 1j * psi.values)
    real_route, complex_route = _power_spectrum(psi), _power_spectrum(turned)
    assert np.abs(real_route - complex_route).max() <= 1e-13 * complex_route.max()


def test_uncertainty_check_holds_few_grid_arrays_at_once():
    # the x side streams over strips of rows and its strip arrays are gone
    # before the xi side holds the power spectrum, one grid array, and the
    # real FFT's half spectrum: 2.0 grid arrays (2.3 while the last strip's
    # arrays outlived the x side); three grid arrays on the x side and the
    # complex transform's held 4.3
    grid = GridSpec.box(-11.0, 11.0, 257, 2)
    p = UncertaintyParams(q=1.2, beta=2.0, dims=2)
    psi = saturating_wavefunction(grid, p)
    uncertainty_check(psi, p)  # the grids' axes and trapezoid weights are cached
    tracemalloc.start()
    try:
        uncertainty_check(psi, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * 8 * psi.values.size


def _x_side_formulas(psi, p):
    """M_{k/2}, M_{kq/2} and the x moment of `uncertainty_check` written from
    the formulas with whole arrays: rho = |psi|^2 and its two powers at every
    node, zeros included, summed in the check's strips, each strip's escort
    normalized by its own mass and weighted by its share of M_{k/2}.  The
    pinned reference for the x side, which skips all-zero strips and takes
    no power of zero."""
    grid = psi.grid
    w = grid.trap_weights()
    rho = np.abs(psi.values) ** 2
    rho_k = rho ** (p.k / 2.0)
    kq_terms = rho ** (p.k * p.q / 2.0) * w
    field = grid.radius(2.0) ** p.gamma_exp * w
    m_half_k = m_half_kq = 0.0
    shares = []
    for rows in grid_module.row_strips(grid.shape):
        mass = float((w[rows] * rho_k[rows]).sum())
        m_half_k += mass
        m_half_kq += float(kq_terms[rows].sum())
        if 0.0 < mass < math.inf:
            shares.append((mass, float((field[rows] * (rho_k[rows] / mass)).sum())))
    return m_half_k, m_half_kq, sum((mass / m_half_k * x for mass, x in shares), 0.0)


def _check_formulas(psi, p):
    """The report of `uncertainty_check` from `_x_side_formulas` and the
    power spectrum held to the transform's rules, summed in the check's
    strips: lhs and every diagnostics field."""
    m_half_k, m_half_kq, x_mom = _x_side_formulas(psi, p)
    rho_hat = _spectral_density(psi)
    field = rho_hat.grid.radius(2.0) ** p.theta_exp * rho_hat.grid.trap_weights()
    xi_mom = 0.0
    for rows in grid_module.row_strips(field.shape):
        xi_mom += float((field[rows] * rho_hat.values[rows]).sum())
    lhs = (math.sqrt(m_half_k) / m_half_kq * x_mom ** (1.0 / p.gamma_exp)
           * xi_mom ** (1.0 / p.theta_exp))
    return lhs, {"k": p.k, "lambda": p.lam, "m_k_half": m_half_k, "m_kq_half": m_half_kq,
                 "x_moment": x_mom, "xi_moment": xi_mom}


def _compact_bumps(grid, centers, radius):
    """psi = (1 - |x - c|^2 / radius^2)_+^3 summed over `centers`: zero off
    the balls, smooth enough for the transform's norm test."""
    mesh = grid.open_mesh()
    vals = np.zeros(grid.shape)
    for c in centers:
        r2 = sum((x - ci) ** 2 for x, ci in zip(mesh, c))
        vals += np.maximum(1.0 - r2 / radius**2, 0.0) ** 3
    return WaveFunction.from_values(grid, vals)


def _support_input(case):
    """(psi, p, strips of psi that are all zero) of a case with zeros on the
    x side."""
    p2 = UncertaintyParams(q=1.2, beta=2.0, dims=2)
    if case in ("compact-257", "compact-513"):
        n = int(case[-3:])
        grid = GridSpec.box(-11.0, 11.0, n, 2)
        psi, p = saturating_wavefunction(grid, p2), p2
    elif case == "two-bumps":
        # at 257 rows the strips are 63 rows: the bumps sit in the first and
        # the fourth, and the two between them are all zero
        psi, p = _compact_bumps(GridSpec.box(-11.0, 11.0, 257, 2), [(-8.3, 0.0), (8.0, 0.0)], 2.5), p2
    elif case == "isolated-zeros":
        grid = GridSpec.box(-10.0, 10.0, 257, 2)
        r2 = sum(x * x for x in grid.open_mesh())
        vals = np.exp(-r2 / 4.0)
        # nodes at radii 5 to 7.1, where |psi| <= 2e-3 of its peak, so the
        # holes leave the transform's norm test standing
        vals[[51, 128, 192, 60, 200], [128, 192, 192, 70, 100]] = 0.0
        psi, p = WaveFunction.from_values(grid, vals), UncertaintyParams(q=0.9, beta=2.0, dims=2)
    elif case == "last-strip":
        # 200 x 100 nodes: strips of 163 rows, the last one rows 163 to 199,
        # x_0 from 6.38 to 10; the bump covers x_0 in [6.7, 9.7]
        grid = GridSpec((-10.0, -5.0), (10.0, 5.0), (200, 100))
        psi, p = _compact_bumps(grid, [(8.2, 0.0)], 1.5), p2
    else:
        grid = GridSpec.line(-10.0, 10.0, 1024)
        p = UncertaintyParams(q=1.5, beta=2.0)
        psi = saturating_wavefunction(grid, p)
    zero = [rows for rows in grid_module.row_strips(psi.grid.shape) if not psi.values[rows].any()]
    return psi, p, zero


@pytest.mark.parametrize("case", ["compact-257", "compact-513", "two-bumps", "isolated-zeros",
                                  "last-strip", "1d-compact"])
def test_x_side_on_the_support_is_the_formulas_bit_for_bit(case):
    psi, p, zero = _support_input(case)
    strips = grid_module.row_strips(psi.grid.shape)
    assert np.any(psi.values == 0.0)
    if case.startswith("compact-"):
        # the support's radius is 0.6 of the half width: at 257 rows a strip
        # is 63 rows, and only the last one, of 5 rows, misses it; at 513
        # rows the three strips of 31 rows at each edge do
        assert zero == (strips[-1:] if case == "compact-257" else strips[:3] + strips[-3:])
    elif case == "two-bumps":
        assert zero == strips[1:3] + strips[4:]
    elif case == "isolated-zeros":
        assert not zero and np.count_nonzero(psi.values == 0.0) == 5
    elif case == "last-strip":
        assert zero == strips[:-1]
    rep, got_warnings = _recorded(uncertainty_check, psi, p)
    (lhs, diagnostics), ref_warnings = _recorded(_check_formulas, psi, p)
    assert rep.diagnostics == diagnostics
    assert rep.lhs == lhs
    assert got_warnings == ref_warnings


def test_uncertainty_check_warnings_name_its_caller():
    grid = GridSpec.line(-12.0, 12.0, 129)
    (x,) = grid.axes()
    xi_max = float(np.abs(np.fft.fftfreq(129, grid.spacing[0])).max())
    # a Gaussian with a faint packet near the top frequency, whose tails
    # reach the box ends (as in test_aliasing_warning_on_underresolved_oscillation)
    bump = 0.01 * np.exp(-(x**2) / 16.0) * np.exp(2.0j * np.pi * 0.92 * xi_max * x)
    psi = WaveFunction.from_values(grid, np.exp(-(x**2) / 4.0) + bump)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        uncertainty_check(psi, UncertaintyParams(q=1.0, beta=2.0))
    assert {w.category for w in rec} == {BoundaryMassWarning, AliasingWarning}
    assert [w.filename for w in rec] == [__file__] * len(rec)


def test_saturating_wavefunction_refuses_a_scale_that_overflows():
    # q = 0.51, beta = 2: k = 100, and 1e-9^(-k(1-q)) = 1e441
    p = UncertaintyParams(q=0.51, beta=2.0)
    with pytest.raises(ParameterError, match=r"k\(1-q\) <= 34.25") as err:
        saturating_wavefunction(GRID, p)
    assert "q" in err.value.names
    assert saturating_wavefunction(GRID, UncertaintyParams(q=0.52, beta=2.0)).values.any()


def test_uncertainty_check_refuses_params_of_other_dims():
    with pytest.raises(ValueError, match="dims = 2"):
        uncertainty_check(_gaussian_psi(GRID), UncertaintyParams(q=1.0, beta=2.0, dims=2))
