"""Sampler moments against quadrature moments (same piecewise-linear law)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher import GridDensity, GridSpec, gaussian_location_family, sample_density, zoo
from qfisher.grid import BLOCK
from qfisher.sampling import _cdf, _count_at_most, _sample_pl_1d


def test_seeded_draws_are_reproducible():
    g = zoo.gaussian_density(GridSpec.line(-10.0, 10.0, 512), 0.0, 1.0)
    a = sample_density(g, 1000, np.random.default_rng(42))
    b = sample_density(g, 1000, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    c = sample_density(g, 1000, np.random.default_rng(43))
    assert not np.array_equal(a, c)


def test_1d_moments_match_quadrature():
    grid = GridSpec.line(-10.0, 10.0, 1024)
    g = zoo.mixture_density(grid, (-1.0, 1.2), (0.6, 0.9), (0.4, 0.6))
    xs = sample_density(g, 400_000, np.random.default_rng(0))
    assert xs.shape == (1, 400_000)
    (x,) = grid.axes()
    mean_q = g.expectation(x)
    var_q = g.expectation((x - mean_q) ** 2)
    assert xs.mean() == pytest.approx(mean_q, abs=4.0 * np.sqrt(var_q / 400_000))
    assert xs.var() == pytest.approx(var_q, rel=2e-2)


def test_1d_histogram_tracks_density():
    grid = GridSpec.line(-8.0, 8.0, 512)
    g = zoo.gaussian_density(grid, 0.3, 1.1)
    xs = sample_density(g, 500_000, np.random.default_rng(7))[0]
    edges = np.linspace(-4.0, 4.0, 33)
    hist, _ = np.histogram(xs, bins=edges, density=True)
    (x,) = grid.axes()
    centers = 0.5 * (edges[:-1] + edges[1:])
    ref = np.interp(centers, x, g.values)
    assert np.max(np.abs(hist - ref)) < 0.01


def test_2d_moments_match_quadrature():
    grid = GridSpec.box(-10.0, 10.0, 192, 2)
    g = zoo.gaussian_density(grid, mean=(0.3, -0.5), sigma=(1.0, 1.3))
    xs = sample_density(g, 200_000, np.random.default_rng(3))
    assert xs.shape == (2, 200_000)
    assert xs[0].mean() == pytest.approx(0.3, abs=0.01)
    assert xs[1].mean() == pytest.approx(-0.5, abs=0.015)
    assert xs[0].var() == pytest.approx(1.0, rel=2e-2)
    assert xs[1].var() == pytest.approx(1.3**2, rel=2e-2)
    # independent axes: correlation is zero up to Monte Carlo noise
    corr = np.corrcoef(xs)[0, 1]
    assert abs(corr) < 0.01


def test_samples_stay_inside_domain():
    grid = GridSpec.line(-3.0, 3.0, 128)
    (x,) = grid.axes()
    g = GridDensity.from_values(grid, np.where(np.abs(x) < 2.0, 1.0, 0.0), check_boundary=False)
    xs = sample_density(g, 50_000, np.random.default_rng(11))[0]
    # the sampled law is the piecewise-linear interpolant, whose support
    # ramps to the first zero node one cell beyond the indicator edge
    h = grid.spacing[0]
    assert xs.min() >= -2.0 - h
    assert xs.max() <= 2.0 + h


def test_zero_mass_rejected():
    grid = GridSpec.line(-1.0, 1.0, 64)
    g = zoo.gaussian_density(GridSpec.line(-10.0, 10.0, 64), 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_density(
            GridDensity(grid, np.zeros(64)),
            10,
            np.random.default_rng(0),
        )
    del g


def test_3d_unsupported():
    grid = GridSpec.box(-3.0, 3.0, 16, 3)
    vals = np.ones(grid.shape)
    g = GridDensity.from_values(grid, vals, check_boundary=False)
    with pytest.raises(ValueError):
        sample_density(g, 10, np.random.default_rng(0))


def _pl_1d_formulas(x, v, u):
    """Inverse-CDF draws from the piecewise-linear law of node values v, written
    from the formulas with fresh arrays: the pinned reference for
    `_sample_pl_1d`, which works in place."""
    h = float(x[1] - x[0])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * h)])
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from zero-mass values")
    target = u * total
    seg = np.clip(np.searchsorted(cdf, target, side="right") - 1, 0, len(v) - 2)
    du = target - cdf[seg]
    # position s in the segment: a s + dv s^2 / 2 = du / h, linear when dv ~ 0
    a = v[seg]
    b = v[seg + 1]
    dv = b - a
    rhs = 2.0 * du / h
    linear = np.abs(dv) <= 1e-12 * np.maximum(np.maximum(a, b), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(a * a + dv * rhs, 0.0)
        s = (np.sqrt(disc) - a) / np.where(linear, 1.0, dv)
    lin = np.flatnonzero(linear)
    a_lin = a[lin]
    s[lin] = np.where(a_lin > 0.0, du[lin] / (h * np.maximum(a_lin, 1e-300)), 0.0)
    s = np.clip(s, 0.0, 1.0)
    return x[seg] + s * h, seg, s


def _indicator_1d():
    grid = GridSpec.line(-3.0, 3.0, 128)
    (x,) = grid.axes()
    return GridDensity.from_values(grid, np.where(np.abs(x) < 2.0, 1.0, 0.0), check_boundary=False)


@pytest.mark.parametrize("make, n, seed", [
    (lambda: zoo.gaussian_density(GridSpec.line(-10.0, 10.0, 512), 0.0, 1.0), 50_000, 1),
    (lambda: zoo.mixture_density(GridSpec.line(-10.0, 10.0, 1024), (-1.0, 1.2), (0.6, 0.9), (0.4, 0.6)),
     50_000, 2),
    (_indicator_1d, 20_000, 3),
    (lambda: zoo.gaussian_density(GridSpec.line(-10.0, 10.0, 512), 0.3, 1.1), BLOCK + 1, 4),
], ids=["gauss-512", "mixture-1024", "indicator", "block-plus-one"])
def test_1d_draws_match_the_pinned_formulas(make, n, seed):
    g = make()
    (x,) = g.grid.axes()
    u = np.random.default_rng(seed).random(n)
    got = _sample_pl_1d(x, g.values, u)
    ref = _pl_1d_formulas(x, g.values, u)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    rng = np.random.default_rng(seed)
    assert np.array_equal(sample_density(g, n, rng), ref[0][None, :])
    # one block of n uniforms, as before
    rng_ref = np.random.default_rng(seed)
    rng_ref.random(n)
    assert rng.random() == rng_ref.random()


def _row_by_row_2d(g, n, rng):
    """The 2D sampler as one loop over the chosen rows, each drawing its own
    uniforms in ascending row order: the reference the one-pass sampler must
    reproduce bit for bit."""
    x0, x1 = g.grid.axes()
    h1 = float(x1[1] - x1[0])
    vals = g.values
    row_mass = (0.5 * (vals[:, :-1] + vals[:, 1:]) * h1).sum(axis=1)
    pts0, seg0, s0 = _pl_1d_formulas(x0, row_mass, rng.random(n))
    w_hi = s0 * row_mass[seg0 + 1]
    w_lo = (1.0 - s0) * row_mass[seg0]
    take_hi = rng.random(n) < w_hi / np.maximum(w_lo + w_hi, 1e-300)
    rows = seg0 + take_hi.astype(int)
    out1 = np.empty(n)
    for r in np.unique(rows):
        sel = rows == r
        out1[sel] = _pl_1d_formulas(x1, vals[r], rng.random(int(sel.sum())))[0]
    return np.stack([pts0, out1])


def _rows_and_spike():
    """Empty rows, a smooth band of rows, and one isolated nonzero row."""
    grid = GridSpec.box(-2.0, 2.0, 65, 2)
    x, y = grid.mesh()
    vals = np.where(np.abs(x + 1.0) < 0.4, np.exp(-4.0 * y**2), 0.0)
    vals[40, 28:37] = 3.0
    return GridDensity.from_values(grid, vals, check_boundary=False)


def _two_rows():
    grid = GridSpec((-1.0, -2.0), (1.0, 2.0), (2, 33))
    (y,) = grid.axes()[1:]
    vals = np.stack([np.exp(-y**2), 0.5 + 0.1 * y])
    return GridDensity.from_values(grid, vals, check_boundary=False)


@pytest.mark.parametrize("make, n, seed", [
    (lambda: zoo.random_density(GridSpec.box(-10.0, 10.0, 513, 2), 2024), 100_000, 5),
    (_rows_and_spike, 20_000, 6),
    (_two_rows, 5_000, 7),
    (lambda: gaussian_location_family(GridSpec.box(-11.0, 11.0, 257, 2), sigma=(1.0, 1.5)).at((0.0, 0.0)),
     100_000, 8),
    (lambda: zoo.random_density(GridSpec.box(-10.0, 10.0, 65, 2), 9), BLOCK + 1, 9),
], ids=["zoo-513", "empty-rows-and-spike", "two-rows", "gauss-257", "block-plus-one"])
def test_2d_draws_match_row_by_row_reference(make, n, seed):
    g = make()
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_density(g, n, rng_a)
    assert np.array_equal(got, _row_by_row_2d(g, n, rng_b))
    # both consumed the same uniforms, so later draws agree too
    assert rng_a.random() == rng_b.random()


def test_2d_sampler_holds_few_draw_arrays_at_once():
    # the draw stages run over blocks of draws; one array per pass over all
    # draws kept about 22 alive at once, which showed as peak RSS in the
    # benchmark, and a workspace of draw-sized arrays 11.9
    g = gaussian_location_family(GridSpec.box(-11.0, 11.0, 257, 2), sigma=(1.0, 1.5)).at((0.0, 0.0))
    n = 100_000
    sample_density(g, n, np.random.default_rng(1))  # the grid's axes are cached
    tracemalloc.start()
    try:
        sample_density(g, n, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (2, n) result, the rows, their sort order and the row CDFs count in
    # too: 6.3 at 16384 draws per block
    assert peak <= 7 * 8 * n


@pytest.mark.parametrize("dims", [1, 2])
def test_negative_draw_count_raises_before_drawing(dims):
    g = zoo.gaussian_density(GridSpec.box(-8.0, 8.0, 64, dims))
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="n = -1"):
        sample_density(g, -1, rng)
    assert rng.random() == np.random.default_rng(4).random()


@pytest.mark.parametrize("dims", [1, 2])
def test_zero_draws_give_an_empty_sample(dims):
    g = zoo.gaussian_density(GridSpec.box(-8.0, 8.0, 64, dims))
    assert sample_density(g, 0, np.random.default_rng(4)).shape == (dims, 0)


class _ZeroUniforms:
    """Stands in for a Generator whose every uniform is 0."""

    def random(self, n):
        return np.zeros(n)


def test_2d_chosen_zero_mass_row_raises():
    # rows 0-2 are empty: a uniform of 0 lands the marginal draw on row 2 with
    # no weight on row 3, so the draw picks the empty row 2
    grid = GridSpec.box(-1.0, 1.0, 9, 2)
    vals = np.ones(grid.shape)
    vals[:3] = 0.0
    g = GridDensity.from_values(grid, vals, check_boundary=False)
    for sampler in (sample_density, _row_by_row_2d):
        with pytest.raises(ValueError, match="zero-mass"):
            sampler(g, 4, _ZeroUniforms())


def test_2d_uniform_on_a_cdf_node_matches_reference():
    # every row starts with zero columns, so a uniform of 0 meets a run of
    # equal CDF nodes; the search must settle on the same node as per row
    grid = GridSpec.box(-1.0, 1.0, 9, 2)
    vals = np.ones(grid.shape)
    vals[:, :3] = 0.0
    g = GridDensity.from_values(grid, vals, check_boundary=False)
    got = sample_density(g, 4, _ZeroUniforms())
    assert np.array_equal(got, _row_by_row_2d(g, 4, _ZeroUniforms()))
    assert np.all(got[1] == grid.axes()[1][2])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_count_at_most_is_searchsorted_right_on_every_slice(data):
    # row CDFs as the sampler builds them: zero steps make runs of equal
    # nodes, from 0 on when a row starts empty
    n_rows = data.draw(st.integers(1, 6), label="rows")
    length = data.draw(st.integers(1, 40), label="length")
    steps = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.5, 1.0, 7.0]),
                               min_size=n_rows * (length - 1), max_size=n_rows * (length - 1)))
    cdf = _cdf(np.array(steps).reshape(n_rows, length - 1))
    n = data.draw(st.integers(1, 30), label="draws")
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n)))
    kinds = st.tuples(st.sampled_from(["node", "zero", "total", "fraction"]),
                      st.integers(0, length - 1), st.floats(0.0, 1.0))
    target = np.array([
        {"node": cdf[r, i], "zero": 0.0, "total": cdf[r, -1], "fraction": u * cdf[r, -1]}[kind]
        for r, (kind, i, u) in zip(rows, data.draw(st.lists(kinds, min_size=n, max_size=n)))
    ])
    got = _count_at_most(cdf.ravel(), rows * length, length, target)
    expect = [np.searchsorted(cdf[r], t, side="right") for r, t in zip(rows, target)]
    assert np.array_equal(got, expect)
    # one slice from 0 is the 1D search of the marginal
    line = cdf[rows[0]]
    assert np.array_equal(_count_at_most(line, 0, length, target),
                          np.searchsorted(line, target, side="right"))
