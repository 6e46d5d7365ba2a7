"""Sampler moments against quadrature moments (same piecewise-linear law)."""

import numpy as np
import pytest

from qfisher import GridDensity, GridSpec, sample_density, zoo
from qfisher.sampling import _sample_pl_1d


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


def _row_by_row_2d(g, n, rng):
    """The 2D sampler as one loop over the chosen rows, each drawing its own
    uniforms in ascending row order: the reference the one-pass sampler must
    reproduce bit for bit."""
    x0, x1 = g.grid.axes()
    h1 = float(x1[1] - x1[0])
    vals = g.values
    row_mass = (0.5 * (vals[:, :-1] + vals[:, 1:]) * h1).sum(axis=1)
    pts0, seg0, s0 = _sample_pl_1d(x0, row_mass, rng.random(n))
    w_hi = s0 * row_mass[seg0 + 1]
    w_lo = (1.0 - s0) * row_mass[seg0]
    take_hi = rng.random(n) < w_hi / np.maximum(w_lo + w_hi, 1e-300)
    rows = seg0 + take_hi.astype(int)
    out1 = np.empty(n)
    for r in np.unique(rows):
        sel = rows == r
        out1[sel] = _sample_pl_1d(x1, vals[r], rng.random(int(sel.sum())))[0]
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
], ids=["zoo-513", "empty-rows-and-spike", "two-rows"])
def test_2d_draws_match_row_by_row_reference(make, n, seed):
    g = make()
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_density(g, n, rng_a)
    assert np.array_equal(got, _row_by_row_2d(g, n, rng_b))
    # both consumed the same uniforms, so later draws agree too
    assert rng_a.random() == rng_b.random()


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
