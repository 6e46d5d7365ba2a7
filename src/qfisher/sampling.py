"""Inverse-CDF sampling from grid densities (1D and 2D).

The sampled law is the piecewise-(bi)linear interpolant of the node values,
the same object the trapezoid rule integrates exactly, so sampler moments and
quadrature moments agree up to O(h^2).

A 2D draw picks its axis-0 coordinate from the marginal, then a grid row,
then its axis-1 coordinate from that row's piecewise-linear law.  The last
step runs in one pass over all draws: sorted stably by row, they take one
block of uniforms, and one search over every row's CDF places them all.
A fixed seed gives the same points as drawing row by row.
"""

from __future__ import annotations

import numpy as np

from .grid import GridDensity


def _segment_positions(v: np.ndarray, h: float, seg: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Fractional position s in [0, 1] inside each chosen linear segment."""
    a = v[seg]
    dv = v[seg + 1] - a
    rhs = 2.0 * du / h
    scale = np.maximum(np.maximum(np.abs(a), np.abs(v[seg + 1])), 1e-300)
    linear = np.abs(dv) <= 1e-12 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        s_lin = np.where(a > 0.0, du / (h * np.maximum(a, 1e-300)), 0.0)
        disc = np.maximum(a * a + dv * rhs, 0.0)
        s_quad = (np.sqrt(disc) - a) / np.where(linear, 1.0, dv)
    return np.clip(np.where(linear, s_lin, s_quad), 0.0, 1.0)


def _cdf(seg_mass: np.ndarray) -> np.ndarray:
    """Cumulative mass at the nodes, along the last axis, from 0."""
    zero = np.zeros(seg_mass.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(seg_mass, axis=-1)], axis=-1)


def _sample_pl_1d(x: np.ndarray, v: np.ndarray, u: np.ndarray):
    """Samples from the piecewise-linear density given uniforms u in [0, 1)."""
    h = float(x[1] - x[0])
    cdf = _cdf(0.5 * (v[:-1] + v[1:]) * h)
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from zero-mass values")
    target = u * total
    seg = np.clip(np.searchsorted(cdf, target, side="right") - 1, 0, len(v) - 2)
    s = _segment_positions(v, h, seg, target - cdf[seg])
    return x[seg] + s * h, seg, s


def sample_density(g: GridDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from g; returns shape (dims, n)."""
    if g.grid.dims == 1:
        x = g.grid.axes()[0]
        pts, _, _ = _sample_pl_1d(x, g.values, rng.random(n))
        return pts[None, :]
    if g.grid.dims == 2:
        return _sample_2d(g, n, rng)
    raise ValueError("sampling supports 1D and 2D grids")


def _sample_2d(g: GridDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    x0, x1 = g.grid.axes()
    h1 = float(x1[1] - x1[0])
    vals = g.values
    n_rows, n1 = vals.shape
    seg_mass = 0.5 * (vals[:, :-1] + vals[:, 1:]) * h1
    # axis-0 marginal of the bilinear interpolant is piecewise linear with
    # node masses given by the trapezoid rule over axis 1
    row_mass = seg_mass.sum(axis=1)
    pts0, seg0, s0 = _sample_pl_1d(x0, row_mass, rng.random(n))
    # conditional slice at x0 is the s0-blend of rows seg0 and seg0+1; sample
    # the mixture by picking a component row, then its piecewise-linear law
    w_hi = s0 * row_mass[seg0 + 1]
    w_lo = (1.0 - s0) * row_mass[seg0]
    denom = np.maximum(w_lo + w_hi, 1e-300)
    take_hi = rng.random(n) < w_hi / denom
    rows = seg0 + take_hi.astype(int)
    # work in row order: the stable sort keeps draw order within a row, so
    # one block of uniforms lands where row-by-row draws put theirs (a small
    # unsigned dtype lets the stable sort run as a radix sort)
    order = np.argsort(rows.astype(np.min_scalar_type(n_rows)), kind="stable")
    rows = rows[order]
    cdf = _cdf(seg_mass)
    total = cdf[rows, -1]
    if np.any(total <= 0.0):
        raise ValueError("cannot sample from zero-mass values")
    target = rng.random(n) * total
    # row + 1j * cdf sorts the row CDFs one after another (complex order is
    # lexicographic), and both parts hold their values exactly
    keys = (np.arange(n_rows)[:, None] + 1j * cdf).ravel()
    pos = np.searchsorted(keys, rows + 1j * target, side="right") - rows * n1
    seg = np.clip(pos - 1, 0, n1 - 2)
    flat = rows * n1 + seg
    s = _segment_positions(vals.ravel(), h1, flat, target - cdf.ravel()[flat])
    pts1 = np.empty(n)
    pts1[order] = x1[seg] + s * h1
    return np.stack([pts0, pts1])
