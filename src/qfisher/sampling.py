"""Inverse-CDF sampling from grid densities (1D and 2D).

The sampled law is the piecewise-(bi)linear interpolant of the node values,
the same object the trapezoid rule integrates exactly, so sampler moments and
quadrature moments agree up to O(h^2).

A 2D draw picks its axis-0 coordinate from the marginal, then a grid row,
then its axis-1 coordinate from that row's piecewise-linear law.  The last
step runs over the draws sorted stably by row: in that order they take their
uniforms, and one bisection over the flattened row CDFs, each draw confined
to its own row's slice, places them.  A fixed seed gives the same points as
drawing row by row.

The draw stages run over blocks of `grid.BLOCK` draws (`grid.blocks`), so
their temporaries scale with a block, not with the sample.  Each stage draws
its uniforms block by block in the order whole-sample draws take them, so
the points and the generator's state are those of whole-sample draws.
"""

from __future__ import annotations

import numpy as np

from .grid import BLOCK, GridDensity, blocks


def _segment_positions(v: np.ndarray, h: float, seg: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Fractional position s in [0, 1] inside each chosen linear segment:
    a s + dv s^2 / 2 = du / h, linear where dv is negligible."""
    a, b = v[seg], v[1:][seg]
    dv = b - a
    # node values are >= 0, so max(a, b) is the larger magnitude
    linear = np.abs(dv) <= 1e-12 * np.maximum(np.maximum(a, b), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(a * a + dv * (2.0 * du / h), 0.0)
        s = (np.sqrt(disc) - a) / np.where(linear, 1.0, dv)
    lin = np.flatnonzero(linear)
    a_lin = a[lin]
    s[lin] = np.where(a_lin > 0.0, du[lin] / (h * np.maximum(a_lin, 1e-300)), 0.0)
    return np.clip(s, 0.0, 1.0)


def _count_at_most(cdf: np.ndarray, start: int | np.ndarray, length: int,
                   target: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cdf[s:s + length], t, side="right")` for each start s
    and target t, where every slice is nondecreasing.

    A branchless bisection: all slices share `length`, so each step halves
    every draw's window by one gather over the draws.
    """
    base = np.empty(target.shape, np.intp)
    base[...] = start
    n = length
    while n > 1:
        half = n // 2
        base += (cdf[half:][base] <= target) * half  # cdf[base + half]
        n -= half
    base += cdf[base] <= target
    return base - start


def _cdf(seg_mass: np.ndarray) -> np.ndarray:
    """Cumulative mass at the nodes, along the last axis, from 0."""
    zero = np.zeros(seg_mass.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(seg_mass, axis=-1)], axis=-1)


def _sample_pl_1d(x: np.ndarray, v: np.ndarray, u: np.ndarray):
    """Samples from the piecewise-linear density given uniforms u in [0, 1):
    the points, each one's segment and its position in that segment."""
    h = float(x[1] - x[0])
    cdf = _cdf(0.5 * (v[:-1] + v[1:]) * h)
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from zero-mass values")
    target = u * total
    seg = np.clip(_count_at_most(cdf, 0, len(cdf), target) - 1, 0, len(v) - 2)
    s = _segment_positions(v, h, seg, target - cdf[seg])
    return x[seg] + s * h, seg, s


def sample_density(g: GridDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from g; returns shape (dims, n)."""
    if g.grid.dims not in (1, 2):
        raise ValueError("sampling supports 1D and 2D grids")
    if n < 0:
        raise ValueError(f"n = {n}: the number of points to draw cannot be negative")
    if g.grid.dims == 2:
        return _sample_2d(g, n, rng)
    pts = np.empty((1, n))
    for b in blocks(n, BLOCK):
        pts[0, b] = _sample_pl_1d(g.grid.axes()[0], g.values, rng.random(b.stop - b.start))[0]
    return pts


def _sample_2d(g: GridDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    x0, x1 = g.grid.axes()
    h1 = float(x1[1] - x1[0])
    vals = g.values
    n_rows, n1 = vals.shape
    # all row CDFs in one array: segment masses 0.5 (v_j + v_j+1) h1 summed
    # along each row from a first node of 0
    cdf = np.zeros((n_rows, n1))
    seg_mass = np.add(vals[:, :-1], vals[:, 1:], out=cdf[:, 1:])
    seg_mass *= 0.5
    seg_mass *= h1
    # axis-0 marginal of the bilinear interpolant is piecewise linear with
    # node masses given by the trapezoid rule over axis 1
    row_mass = seg_mass.sum(axis=1)
    np.cumsum(seg_mass, axis=1, out=seg_mass)
    row_total = cdf[:, -1]
    # the uniforms of the marginal first, then block by block those of the
    # row pick; a small unsigned dtype lets the stable sort below run as a
    # radix sort
    pts = np.empty((2, n))
    pts[0] = rng.random(n)
    rows = np.empty(n, np.min_scalar_type(n_rows))
    for b in blocks(n, BLOCK):
        pts[0, b], seg0, s0 = _sample_pl_1d(x0, row_mass, pts[0, b])
        # conditional slice at x0 is the s0-blend of rows seg0 and seg0+1;
        # sample the mixture by picking a component row
        w_hi = s0 * row_mass[1:][seg0]
        w_lo = (1.0 - s0) * row_mass[seg0]
        pick = seg0 + (rng.random(b.stop - b.start) < w_hi / np.maximum(w_lo + w_hi, 1e-300))
        if (row_total[pick] <= 0.0).any():
            raise ValueError("cannot sample from zero-mass values")
        rows[b] = pick
    # then in row order: the stable sort keeps draw order within a row, so
    # the uniforms land where row-by-row draws put theirs
    order = np.argsort(rows, kind="stable")
    flat_cdf = cdf.ravel()
    for b in blocks(n, BLOCK):
        idx = order[b]
        row = rows[idx].astype(np.intp)
        target = rng.random(b.stop - b.start) * row_total[row]
        start = row * n1
        seg = np.clip(_count_at_most(flat_cdf, start, n1, target) - 1, 0, n1 - 2)
        flat = start + seg
        s = _segment_positions(vals.ravel(), h1, flat, target - flat_cdf[flat])
        pts[1, idx] = x1[seg] + s * h1
    return pts
