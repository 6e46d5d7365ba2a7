import decimal
import json
import warnings

import numpy as np
import pytest

from qfisher import (
    GridDensity,
    GridSpec,
    HolderPair,
    QGaussianParams,
    dual_exponent,
    functional_cr_check,
    lp_norm,
    make_q_gaussian,
    moment,
    zoo,
)
from qfisher.errors import BoundaryMassWarning, NonIntegrable, TruncationWarning
import qfisher.grid as grid_module
from qfisher.grid import (BLOCK, _trap_weights, blocks, boundary_abs_max, row_strips,
                           strip_face_abs_max, strip_gradient, strip_radius, support_floor,
                           support_power, write_csv)
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


def test_shifted_grids_share_trap_weights():
    # relabeling onto a shifted grid keeps the spacing, so the weights cache
    # holds one entry for the grid and all its shifted copies
    grid = GridSpec.box(-6.0, 6.0, 129, 2)
    means = [(0.3, -0.2), (-0.7, 0.45), (1.1, 0.05), (-0.25, -0.9), (0.6, 0.8)]
    dens = [zoo.gaussian_density(grid, m, 0.7) for m in means]
    _trap_weights.cache_clear()
    for d in dens:
        functional_cr_check(d, d, HolderPair.from_alpha(2.0))
    assert _trap_weights.cache_info().currsize == 1


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


def _lp_norm_decimal(column, p):
    """||column||_p to 50 digits, with room for exponents far beyond float's."""
    with decimal.localcontext(decimal.Context(prec=50, Emin=-10**9, Emax=10**9)):
        dp = decimal.Decimal(p)
        total = sum((decimal.Decimal(abs(float(c))) ** dp for c in column if c), decimal.Decimal(0))
        return float(total ** (1 / dp)) if total else 0.0


@pytest.mark.parametrize("p", [1.0 + 1e-7, 1.001, 200.0, 1e6])
def test_lp_norm_against_a_decimal_reference(p):
    # unscaled, each |c|^p below underflows or overflows at some p here:
    # tiny and huge components, a mixed column, and 1.7976e308, whose
    # (1 + 1e-7)th power is past the largest float although its norm is not
    columns = [
        (1e-3, 2e-3), (3e-200, 1e-200), (0.5, 0.25), (0.7, 0.7), (2.0, 3.0, 0.1),
        (1e300, 4e299), (1e308, 1.0), (1.7976e308, 1.0), (1e-300, 1e300), (0.0, 0.0),
        (0.0, 5e-324), (-1.5, 1.5, -1.5),
    ]
    width = max(map(len, columns))
    v = np.zeros((width, len(columns)))
    for j, col in enumerate(columns):
        v[: len(col), j] = col
    # underflow of a term far below the largest one is harmless
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = lp_norm(list(v), p)
    expect = np.array([_lp_norm_decimal(v[:, j], p) for j in range(len(columns))])
    np.testing.assert_allclose(got, expect, rtol=4e-15, atol=0.0)
    # an infinite component makes the norm infinite, as unscaled
    assert lp_norm([np.array([np.inf, 1.0]), np.array([1.0, np.inf])], p).tolist() == [np.inf] * 2


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
    # the same bits as one reduction over the stacked full-size components;
    # p other than 1, 2 and inf scales by the largest component
    stacked = np.abs(np.stack(full))
    if p == np.inf:
        expect = np.maximum.reduce(stacked)
    elif p == 2.0:
        expect = np.sqrt(np.add.reduce(stacked * stacked))
    elif p == 1.0:
        expect = np.add.reduce(stacked)
    else:
        top = np.maximum.reduce(stacked)
        expect = top * np.add.reduce((stacked / top) ** p) ** (1.0 / p)
    assert np.array_equal(lp_norm(shifted, p), expect)
    # scalar components give a scalar
    node = lp_norm([c[3, 5, 2] for c in full], p)
    assert np.ndim(node) == 0 and node == pytest.approx(expect[3, 5, 2], rel=1e-15)
    # and, at p = 1 and p = 2, the bits of the plain sum and of sqrt of squares
    if p in (1.0, 2.0):
        x, y = (np.abs(c) for c in full[:2])
        plain = x + y if p == 1.0 else np.sqrt(x * x + y * y)
        assert np.array_equal(lp_norm(full[:2], p), plain)


@pytest.mark.parametrize("shape", [(64,), (2,), (3,), (24, 17), (2, 9), (7, 4, 3), (5, 2, 6)])
def test_axis_gradient_equals_np_gradient_bit_for_bit(shape):
    # spatial_gradient along each axis, 2-point axes included, is np.gradient
    # over the whole array with that axis's spacing
    rng = np.random.default_rng(3)
    values = rng.normal(size=shape)
    spacing = tuple(rng.uniform(0.01, 2.0, size=len(shape)))
    grid = GridSpec(tuple(-h for h in spacing), tuple(h * (n - 2) for h, n in zip(spacing, shape)),
                    shape)
    dens = GridDensity.from_values(grid, np.exp(values), check_boundary=False)
    ref = np.gradient(dens.values, *grid.spacing)
    ref = list(ref) if isinstance(ref, (list, tuple)) else [ref]
    assert [a.tobytes() for a in dens.spatial_gradient()] == [a.tobytes() for a in ref]


@pytest.mark.parametrize("n, size", [(0, 4), (1, 4), (8, 4), (9, 4), (11, 4), (3, 1)])
def test_blocks_cover_every_item_once(n, size):
    # n a multiple of the block or not, a last block of one item, and n = 0
    got = blocks(n, size)
    assert [i for b in got for i in range(b.start, b.stop)] == list(range(n))
    assert all(b.stop - b.start == size for b in got[:-1])
    assert all(0 < b.stop - b.start <= size for b in got)


@pytest.mark.parametrize("shape, rows", [((513, 513), 31), ((257, 257), 63), ((2, 7), 2),
                                         ((9, BLOCK // 4), 4), ((3, 2 * BLOCK), 1),
                                         ((400, 9, 11), 165), ((4 * BLOCK,), 4 * BLOCK)])
def test_row_strips_cover_every_row_once(shape, rows):
    # strips of BLOCK // (nodes per row) rows, at least one; (9, BLOCK // 4)
    # ends on a strip of one row, and a line is one strip however long
    got = row_strips(shape)
    assert [i for b in got for i in range(b.start, b.stop)] == list(range(shape[0]))
    assert [b.stop - b.start for b in got[:-1]] == [rows] * (len(got) - 1)


@pytest.mark.parametrize("shape, block", [((7, 5), 10), ((7, 5), 5), ((2, 9), 9), ((2, 9), 100),
                                          ((6, 4, 3), 24), ((5, 2, 6), 12), ((33,), 4)])
def test_strip_gradient_is_np_gradient_at_every_node(shape, block, monkeypatch):
    # strips of 2 rows with a last one of 1, strips of one row (a seam at
    # every row), a 2-row grid in one strip and in two, 3D slabs, and a line
    monkeypatch.setattr(grid_module, "BLOCK", block)
    rng = np.random.default_rng(4)
    values = rng.normal(size=shape)
    spacing = tuple(rng.uniform(0.05, 2.0, size=len(shape)))
    strips = row_strips(shape)
    assert len(strips) > 1 or shape[0] == 2 or len(shape) == 1
    parts = [strip_gradient(values, rows, spacing) for rows in strips]
    ref = np.gradient(values, *spacing)
    ref = list(ref) if isinstance(ref, (list, tuple)) else [ref]
    for a, expect in enumerate(ref):
        assert np.concatenate([p[a] for p in parts]).tobytes() == expect.tobytes()


def test_strip_radius_and_face_maximum_are_the_whole_grids_rows(monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK", 3 * 7)
    grid = GridSpec((-2.0, -1.0), (3.0, 4.0), (8, 7))
    rng = np.random.default_rng(5)
    field = rng.normal(size=grid.shape)
    strips = row_strips(grid.shape)
    for p in (1.0, 1.5, 2.0, np.inf):
        got = np.concatenate([strip_radius(grid.open_mesh(), rows, p) for rows in strips])
        assert got.tobytes() == grid.radius(p).tobytes()
    faces = [strip_face_abs_max(field[rows], rows, len(field)) for rows in strips]
    assert max(faces) == boundary_abs_max(field)


@pytest.mark.parametrize("points", [(3.5,), (65, 64.5), ("9",), (np.float64(7.25),)])
def test_grid_refuses_a_point_count_that_is_not_integral(points):
    axis = len(points) - 1
    with pytest.raises(ValueError, match=f"axis {axis}: need an integral point count"):
        GridSpec((-1.0,) * len(points), (1.0,) * len(points), points)


def test_grid_takes_an_integral_float_point_count():
    assert GridSpec((-1.0,), (1.0,), (9.0,)).points == (9,)


def _support_powers():
    """A q = 1.5 compact density on 513 points, with its zeros and nodes at
    and just above its support floor."""
    grid = GridSpec.line(-3.0, 3.0, 513)
    v = make_q_gaussian(QGaussianParams(q=1.5, alpha=2.0, gamma=1.0), grid).values.copy()
    floor = support_floor(v)
    v[10], v[11] = floor, np.nextafter(floor, 1.0)
    return v, floor


@pytest.mark.parametrize("y", [0.25, 1.0, 1.5, 2.0, 0.7142857142857143])
def test_support_power_is_the_plain_power_on_the_support(y):
    v, _ = _support_powers()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = support_power(v, y)
    on = v > 0.0
    assert np.count_nonzero(~on) > 100
    assert np.array_equal(out[on], v[on] ** y)
    assert np.array_equal(out.view(np.int64)[~on], np.zeros(np.count_nonzero(~on), np.int64))
    assert np.array_equal(out, np.where(v > 0.0, v, 0.0) ** y)


@pytest.mark.parametrize("y", [-0.5, -1.0, -2.5])
def test_support_power_with_a_floor_takes_no_power_at_or_below_it(y):
    v, floor = _support_powers()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = support_power(v, y, floor)
    on = v > floor
    assert not on[10] and on[11]
    assert np.array_equal(out[on], v[on] ** y)
    assert np.all(np.isfinite(out)) and not np.any(out[~on])


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
    # the filter behind --strict turns the warning into an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(BoundaryMassWarning):
            GridDensity.from_values(g, np.exp(-0.5 * x**2))


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


@pytest.mark.parametrize("grid", [GridSpec.line(-3.0, 3.0, 513), GridSpec.box(-3.0, 3.0, 33, 2)],
                         ids=["1d", "2d"])
def test_save_json_writes_the_bytes_of_json_dump(tmp_path, grid):
    rng = np.random.default_rng(5)
    d = GridDensity.from_values(grid, rng.random(grid.shape) + 1e-3, check_boundary=False)
    path, ref = tmp_path / "d.json", tmp_path / "ref.json"
    d.save_json(path)
    with open(ref, "w") as fh:
        json.dump(d.to_json_dict(), fh)
    assert path.read_bytes() == ref.read_bytes()
    back = GridDensity.load_json(path)
    assert back.grid == d.grid
    np.testing.assert_array_equal(back.values, d.values, strict=True)


def test_csv_has_coordinates_and_values(tmp_path):
    g = GridSpec.line(0.0, 1.0, 5)
    d = GridDensity.from_values(g, np.array([1.0, 2.0, 3.0, 2.0, 1.0]), check_boundary=False)
    (x,) = g.axes()
    path = tmp_path / "d.csv"
    write_csv(path, ["x0", "value"], zip(x, d.values))
    # rows in grid order, each float cell its repr so it reads back bit for bit
    assert path.read_bytes() == b"".join(
        [b"x0,value\n"] + [f"{a!r},{v!r}\n".encode() for a, v in zip(x.tolist(), d.values.tolist())]
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    assert [float(c) for c in lines[1].split(",")] == [0.0, d.values[0]]


def test_csv_is_deterministic(tmp_path):
    g = GridSpec.line(-1.0, 1.0, 33)
    (x,) = g.axes()
    d = GridDensity.from_values(g, 1.0 + 0.1 * np.sin(3 * x), check_boundary=False)
    rows = list(zip(x, d.values))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x0", "value"], rows)
    write_csv(p2, ["x0", "value"], iter(rows))
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


LINE5 = GridSpec.line(-1.0, 1.0, 5)
GRID_REFUSALS = {
    "norm-p-below-1": (lambda: lp_norm([np.ones(3), np.ones(3)], 0.5), "p >= 1"),
    "unequal-lengths": (lambda: GridSpec((0.0,), (1.0, 2.0), (3,)), "equal length"),
    "no-axis": (lambda: GridSpec((), (), ()), "at least one axis"),
    "infinite-end": (lambda: GridSpec((0.0,), (np.inf,), (3,)), "finite lo < hi"),
    "alpha-1": (lambda: HolderPair(1.0, 2.0), "alpha must be finite and > 1"),
    "beta-1": (lambda: HolderPair(2.0, 1.0), "beta must be finite and > 1"),
    "dual-of-1": (lambda: dual_exponent(1.0), "1 < p < inf"),
    "density-shape": (lambda: GridDensity(LINE5, np.ones(4)), "shape"),
    "from-values-shape": (lambda: GridDensity.from_values(LINE5, np.ones(4)), "shape"),
}


@pytest.mark.parametrize("call, match", GRID_REFUSALS.values(), ids=GRID_REFUSALS)
def test_grid_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
