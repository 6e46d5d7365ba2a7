import json

import numpy as np
import pytest

from qfisher import GridDensity, GridSpec, HolderPair, dual_exponent, lp_norm, moment
from qfisher.errors import BoundaryMassWarning, NonIntegrable, TruncationWarning
from qfisher.grid import interior_support
from qfisher.uncertainty import WaveFunction, fourier_transform


def test_line_grid_axes_and_spacing():
    g = GridSpec.line(-2.0, 3.0, 11)
    (ax,) = g.axes()
    assert ax[0] == -2.0 and ax[-1] == 3.0
    assert g.spacing == (0.5,)
    assert g.dims == 1 and g.shape == (11,)


def test_box_grid_mesh_shapes():
    g = GridSpec.box(-1.0, 1.0, 9, 3)
    xs = g.mesh()
    assert len(xs) == 3
    for m in xs:
        assert m.shape == (9, 9, 9)


def test_trap_weights_match_explicit_trapezoid_sum():
    # independent oracle: the textbook trapezoid formula written out directly
    g = GridSpec.line(-4.0, 4.0, 257)
    (x,) = g.axes()
    f = np.cos(x) ** 2 + 0.3
    explicit = (0.5 * (f[1:] + f[:-1]) * np.diff(x)).sum()
    assert float((g.trap_weights() * f).sum()) == pytest.approx(explicit, rel=1e-14)


def test_trap_weights_2d_separable():
    g = GridSpec.box(-1.0, 2.0, 33, 2)
    x, y = g.axes()
    f = np.exp(-np.add.outer(x**2, 0.5 * y**2))
    explicit_x = np.array(
        [(0.5 * (col[1:] + col[:-1]) * np.diff(y)).sum() for col in f]
    )
    explicit = (0.5 * (explicit_x[1:] + explicit_x[:-1]) * np.diff(x)).sum()
    assert float((g.trap_weights() * f).sum()) == pytest.approx(explicit, rel=1e-13)


def test_radius_norms():
    g = GridSpec.box(-1.0, 1.0, 5, 2)
    r2 = g.radius(2.0)
    r1 = g.radius(1.0)
    rinf = g.radius(np.inf)
    assert r2[0, 0] == pytest.approx(np.sqrt(2.0))
    assert r1[0, 0] == pytest.approx(2.0)
    assert rinf[0, 0] == pytest.approx(1.0)
    assert r2[2, 2] == 0.0


def test_lp_norm_against_numpy():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 50))
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        expect = np.linalg.norm(v, ord=p, axis=0)
        np.testing.assert_allclose(lp_norm(v, p), expect, rtol=1e-12)


RADIUS_GRIDS = [
    GridSpec.line(-3.0, 5.0, 101),
    GridSpec.box(-2.0, 2.0, 65, 2),
    GridSpec((-1.0, -4.0), (3.0, 0.5), (41, 23)),  # asymmetric box, unequal axes
    GridSpec((-1.0, -2.0, -3.0), (2.0, 1.0, 0.5), (11, 13, 7)),
]


@pytest.mark.parametrize("grid", RADIUS_GRIDS, ids=lambda g: f"{g.dims}d-{g.points}")
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_radius_equals_lp_norm_of_the_full_mesh(grid, p):
    r = grid.radius(p)
    assert np.array_equal(r, lp_norm(grid.mesh(), p))
    # a fresh, writable array of the full grid shape on every call
    assert r.shape == grid.shape and r.flags.writeable
    r[...] = -1.0
    assert np.array_equal(grid.radius(p), lp_norm(grid.mesh(), p))
    assert all(not np.shares_memory(r, ax) for ax in grid.axes())


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_lp_norm_accepts_broadcastable_components(p):
    grid = RADIUS_GRIDS[3]
    shifted = [x - 0.25 for x in grid.open_mesh()]
    assert [x.ndim for x in shifted] == [3, 3, 3]
    assert all(x.size == n for x, n in zip(shifted, grid.points))
    full = [x - 0.25 for x in grid.mesh()]
    assert np.array_equal(lp_norm(shifted, p), lp_norm(full, p))
    # the same bits as one reduction over the stacked full-size components
    stacked = np.abs(np.stack(full))
    if p == np.inf:
        expect = np.maximum.reduce(stacked)
    elif p == 2.0:
        expect = np.sqrt(np.add.reduce(stacked * stacked))
    else:
        expect = np.add.reduce(stacked**p) ** (1.0 / p)
    assert np.array_equal(lp_norm(shifted, p), expect)


def test_dual_exponent_pairs():
    assert dual_exponent(2.0) == pytest.approx(2.0)
    assert dual_exponent(1.5) == pytest.approx(3.0)
    assert dual_exponent(3.0) == pytest.approx(1.5)


def test_holder_pair_validates_conjugacy():
    pair = HolderPair(alpha=2.0, beta=2.0)
    assert pair.alpha == 2.0
    with pytest.raises(ValueError):
        HolderPair(alpha=2.0, beta=3.0)
    assert HolderPair.from_alpha(3.0).beta == pytest.approx(1.5)
    assert HolderPair.from_beta(3.0).alpha == pytest.approx(1.5)
    with pytest.raises(ValueError):
        HolderPair.from_alpha(1.0)  # conjugate would be infinite


def test_density_normalizes_and_integrates_to_one():
    g = GridSpec.line(-8.0, 8.0, 513)
    (x,) = g.axes()
    d = GridDensity.from_values(g, np.exp(-0.5 * x**2))
    assert d.integral() == pytest.approx(1.0, abs=1e-14)
    assert d.mean()[0] == pytest.approx(0.0, abs=1e-12)


def test_density_rejects_negative_values():
    g = GridSpec.line(0.0, 1.0, 17)
    vals = np.ones(17)
    vals[3] = -0.5
    with pytest.raises(ValueError):
        GridDensity.from_values(g, vals)


def test_density_rejects_zero_mass():
    g = GridSpec.line(0.0, 1.0, 17)
    with pytest.raises(NonIntegrable):
        GridDensity.from_values(g, np.zeros(17))


def test_boundary_mass_warning():
    g = GridSpec.line(-2.0, 2.0, 65)
    (x,) = g.axes()
    with pytest.warns(BoundaryMassWarning):
        GridDensity.from_values(g, np.exp(-0.5 * x**2))
    # strict mode upgrades the warning to an error
    with pytest.raises(ValueError):
        GridDensity.from_values(g, np.exp(-0.5 * x**2), strict=True)


def test_unnormalized_input_requires_unit_mass():
    g = GridSpec.line(-8.0, 8.0, 257)
    (x,) = g.axes()
    vals = np.exp(-0.5 * x**2)  # mass sqrt(2 pi), not 1
    with pytest.raises(ValueError):
        GridDensity.from_values(g, vals, normalize=False, check_boundary=False)


def test_json_round_trip(tmp_path):
    g = GridSpec.box(-3.0, 3.0, 17, 2)
    x, y = g.mesh()
    d = GridDensity.from_values(g, np.exp(-(x**2) - 0.5 * y**2), check_boundary=False)
    path = tmp_path / "d.json"
    d.save_json(path)
    back = GridDensity.load_json(path)
    assert back.grid == d.grid
    np.testing.assert_allclose(back.values, d.values, rtol=0, atol=1e-16)


def test_csv_has_coordinates_and_values(tmp_path):
    g = GridSpec.line(0.0, 1.0, 5)
    d = GridDensity.from_values(g, np.array([1.0, 2.0, 3.0, 2.0, 1.0]), check_boundary=False)
    path = tmp_path / "d.csv"
    d.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,value"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_csv_is_deterministic(tmp_path):
    g = GridSpec.line(-1.0, 1.0, 33)
    (x,) = g.axes()
    d = GridDensity.from_values(g, 1.0 + 0.1 * np.sin(3 * x), check_boundary=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    d.save_csv(p1)
    d.save_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_shifted_grid_relabels_coordinates():
    g = GridSpec.line(-4.0, 4.0, 129)
    (x,) = g.axes()
    d = GridDensity.from_values(g, np.exp(-2.0 * (x - 0.5) ** 2), check_boundary=False)
    moved = d.on_shifted_grid(0.5)  # new coordinates have the bump at 0
    assert moved.mean()[0] == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_array_equal(moved.values, d.values)


def test_expectation_uses_quadrature():
    g = GridSpec.line(-10.0, 10.0, 2049)
    (x,) = g.axes()
    d = GridDensity.from_values(g, np.exp(-0.5 * (x - 1.0) ** 2))
    assert d.expectation(x**2) == pytest.approx(2.0, rel=1e-10)  # var + mean^2


def test_boundary_checks_scan_every_axis():
    # exp(-x0^2) is negligible on the x0 faces and O(1) on the x1 faces, so
    # only a scan that reaches the last axis sees the boundary mass
    grid = GridSpec.box(-6.0, 6.0, 65, 2)
    x0, _ = grid.mesh()
    vals = np.exp(-(x0**2))
    with pytest.warns(BoundaryMassWarning):
        d = GridDensity.from_values(grid, vals)
    with pytest.warns(TruncationWarning):
        moment(d, 2.0)
    with pytest.warns(BoundaryMassWarning):
        fourier_transform(WaveFunction.from_values(grid, np.sqrt(vals)))


def test_interior_support_erodes_only_compact_support():
    full = np.exp(-np.linspace(-3.0, 3.0, 31) ** 2)
    assert interior_support(full).all()
    compact = np.zeros(31)
    compact[10:21] = 1.0
    mask = interior_support(compact)
    assert np.flatnonzero(mask).tolist() == list(range(12, 19))
